// File-spool transport (the XALT-style baseline of paper §5): datagram ->
// file round trips, sweep semantics, graceful failure on unwritable spools.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <span>
#include <thread>
#include <vector>

#include "net/codec.hpp"
#include "net/file_spool.hpp"

namespace sn = siren::net;
namespace fs = std::filesystem;

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

/// One sweep, every delivered view kept as an owned Message in `out`.
sn::SpoolDrainStats drain_into(const std::string& spool_dir, std::vector<sn::Message>& out) {
    return sn::drain_spool(spool_dir, [&out](std::size_t, std::span<const sn::MessageView> batch) {
        for (const auto& view : batch) out.push_back(view.to_message());
    });
}

class SpoolDir {
public:
    SpoolDir() {
        path_ = (fs::temp_directory_path() /
                 ("siren_spool_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter_++)))
                    .string();
        fs::remove_all(path_);
    }
    ~SpoolDir() {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    const std::string& path() const { return path_; }

private:
    static inline int counter_ = 0;
    std::string path_;
};

}  // namespace

TEST(FileSpool, RoundTripThroughFiles) {
    SpoolDir dir;
    sn::FileSpoolSender sender(dir.path());
    for (int i = 0; i < 20; ++i) sender.send(sn::encode(sample_message(i)));
    EXPECT_EQ(sender.sent(), 20u);
    EXPECT_EQ(sender.errors(), 0u);

    std::vector<sn::Message> received;
    const auto stats = drain_into(dir.path(), received);
    EXPECT_EQ(stats.files_seen, 20u);
    EXPECT_EQ(stats.delivered, 20u);
    EXPECT_EQ(stats.malformed, 0u);
    ASSERT_EQ(received.size(), 20u);

    EXPECT_EQ(received.front().pid, 0) << "name ordering preserves the send sequence";
    EXPECT_EQ(received.front().content, "pid=7 exe=/usr/bin/true");
}

TEST(FileSpool, DrainConsumesFiles) {
    SpoolDir dir;
    sn::FileSpoolSender sender(dir.path());
    sender.send(sn::encode(sample_message()));

    std::vector<sn::Message> received;
    drain_into(dir.path(), received);
    const auto second = drain_into(dir.path(), received);
    EXPECT_EQ(second.files_seen, 0u) << "a sweep must delete what it consumed";
    EXPECT_EQ(received.size(), 1u);
}

TEST(FileSpool, OneFilePerDatagram) {
    // The design's defining cost: N datagrams = N filesystem entries (the
    // paper's "aggregating excessive amounts of small files").
    SpoolDir dir;
    sn::FileSpoolSender sender(dir.path());
    for (int i = 0; i < 37; ++i) sender.send(sn::encode(sample_message(i)));

    std::size_t files = 0;
    for (const auto& e : fs::directory_iterator(dir.path())) {
        if (e.is_regular_file()) ++files;
    }
    EXPECT_EQ(files, 37u);
}

TEST(FileSpool, UnwritableSpoolFailsGracefully) {
    // Spool path points at a *file*, so no datagram can ever be written;
    // the hooked process must see counted errors, not exceptions.
    SpoolDir dir;
    fs::create_directories(dir.path());
    const std::string blocked = dir.path() + "/blocked";
    { std::ofstream f(blocked); }

    sn::FileSpoolSender sender(blocked + "/sub");
    EXPECT_NO_THROW(sender.send(sn::encode(sample_message())));
    EXPECT_EQ(sender.sent(), 0u);
    EXPECT_EQ(sender.errors(), 1u);
}

TEST(FileSpool, MalformedFilesCountedAndRemoved) {
    SpoolDir dir;
    sn::FileSpoolSender sender(dir.path());
    sender.send(sn::encode(sample_message()));
    {
        std::ofstream bad(fs::path(dir.path()) / "0-1.msg.tmp");  // foreign extension: ignored
        bad << "not a SIREN datagram";
    }
    {
        std::ofstream bad(fs::path(dir.path()) / "999-1.msg");
        bad << "not a SIREN datagram";
    }

    std::vector<sn::Message> received;
    const auto stats = drain_into(dir.path(), received);
    EXPECT_EQ(stats.delivered, 1u);
    EXPECT_EQ(stats.malformed, 1u);
    EXPECT_EQ(received.size(), 1u);
    // Malformed spool files must not survive to poison every later sweep.
    EXPECT_FALSE(fs::exists(fs::path(dir.path()) / "999-1.msg"));
}

TEST(FileSpool, MissingSpoolIsEmptySweep) {
    std::vector<sn::Message> received;
    const auto stats = drain_into("/nonexistent/siren/spool", received);
    EXPECT_EQ(stats.files_seen, 0u);
    EXPECT_EQ(received.size(), 0u);
}

TEST(FileSpool, TempFilesInvisibleToDrain) {
    SpoolDir dir;
    fs::create_directories(dir.path());
    {
        std::ofstream partial(fs::path(dir.path()) / ".5-123.msg");  // mid-write temp
        partial << "half a datagr";
    }
    std::vector<sn::Message> received;
    const auto stats = drain_into(dir.path(), received);
    EXPECT_EQ(stats.files_seen, 0u) << "dot-temp files are another sender's in-flight write";
}

TEST(FileSpool, ConcurrentSendersProduceDistinctFiles) {
    SpoolDir dir;
    sn::FileSpoolSender sender(dir.path());
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&sender, t] {
            for (int i = 0; i < 50; ++i) sender.send(sn::encode(sample_message(t * 100 + i)));
        });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(sender.sent(), 200u);
    EXPECT_EQ(sender.errors(), 0u);

    std::vector<sn::Message> received;
    const auto stats = drain_into(dir.path(), received);
    EXPECT_EQ(stats.delivered, 200u) << "atomic seq numbers prevent filename collisions";
}
