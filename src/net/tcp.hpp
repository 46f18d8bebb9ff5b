#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/channel.hpp"

namespace siren::net {

/// Non-blocking IPv4 connect bounded by `timeout`: returns a connected
/// SOCK_NONBLOCK|SOCK_CLOEXEC fd with TCP_NODELAY set, or -1 with `error`
/// filled. When `wake_fd` >= 0, that fd becoming readable aborts the wait
/// (error "stopped") — how a retry loop's stop() interrupts a SYN that
/// nobody answers. Shared by serve::QueryClient and the replication
/// follower; one connect dance, not one per client.
int connect_nonblocking(const std::string& host, std::uint16_t port,
                        std::chrono::milliseconds timeout, int wake_fd, std::string& error);

/// Send all of `data` on a non-blocking socket, polling for writability,
/// until done or `deadline` passes; false with `error` filled on timeout
/// or socket failure.
bool send_all_nonblocking(int fd, std::string_view data,
                          std::chrono::steady_clock::time_point deadline, std::string& error);

/// TCP message sender with length-prefixed framing — the design SIREN
/// deliberately rejected (paper §3.1 chose UDP "fire and forget" over TCP
/// to avoid connection management and failure coupling). It exists here as
/// the comparison baseline: the transport ablation measures what a
/// connection-oriented collector would cost and how it behaves when the
/// receiver disappears.
///
/// Framing: 4-byte little-endian payload length, then the payload.
class TcpSender : public Transport {
public:
    /// Connects eagerly; throws siren::util::SystemError when the receiver
    /// is unreachable (connection setup is exactly the failure coupling
    /// UDP avoids).
    TcpSender(const std::string& host, std::uint16_t port);
    ~TcpSender() override;

    TcpSender(const TcpSender&) = delete;
    TcpSender& operator=(const TcpSender&) = delete;

    /// Blocking framed write; on failure counts the error and drops the
    /// message (no reconnect storms from hooked processes).
    void send(std::string_view datagram) noexcept override;

    std::uint64_t sent() const { return sent_.load(); }
    std::uint64_t errors() const { return errors_.load(); }

private:
    int fd_ = -1;
    std::atomic<std::uint64_t> sent_{0};
    std::atomic<std::uint64_t> errors_{0};
};

/// Accepting TCP receiver: one acceptor thread, one reader thread per
/// connection. Each decoded frame reaches the handler as a one-view batch
/// on its reader thread, with the connection's accept index as `source`.
class TcpReceiver {
public:
    explicit TcpReceiver(BatchHandler handler, std::uint16_t port = 0);
    ~TcpReceiver();

    TcpReceiver(const TcpReceiver&) = delete;
    TcpReceiver& operator=(const TcpReceiver&) = delete;

    std::uint16_t port() const { return port_; }

    void stop();

    /// Frames that were not SIREN datagrams (dropped, never handed on).
    std::uint64_t malformed() const { return malformed_.load(); }

private:
    void accept_loop();
    void read_loop(int client_fd, std::size_t connection);

    BatchHandler handler_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> malformed_{0};
    std::thread acceptor_;
    std::vector<std::thread> readers_;
    std::mutex readers_mutex_;
};

}  // namespace siren::net
