#pragma once

#include <any>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/channel.hpp"

namespace siren::net {

/// Framing of every TCP stream in SIREN — the query port, the replication
/// port and the TcpSender/TcpReceiver baseline: a 4-byte little-endian
/// payload length, then the payload. A length above this limit means the
/// stream is garbage.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// Append one framed payload to `out`.
void append_frame(std::string& out, std::string_view payload);

/// When `buffer` starts with a complete frame, return its payload view
/// (aliasing `buffer`) and set `consumed` to the frame's total size;
/// otherwise nullopt (`consumed` = 0). Throws util::ParseError when the
/// length field exceeds kMaxFrameBytes — the stream is garbage and the
/// connection should be dropped.
std::optional<std::string_view> parse_frame(std::string_view buffer, std::size_t& consumed);

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

/// Counters of one TcpServer.
struct TcpServerStats {
    std::uint64_t connections = 0;      ///< accepted
    std::uint64_t rejected = 0;         ///< closed at accept: connection cap
    std::uint64_t frames = 0;           ///< frames handed to the frame hook
    std::uint64_t protocol_errors = 0;  ///< oversize frames, refused frames (connection dropped)
    std::uint64_t accept_stalls = 0;    ///< listener disarmed: fd exhaustion (EMFILE/ENFILE)
};

/// The one length-framed TCP server loop: a non-blocking listener and one
/// epoll thread multiplexing it with every accepted connection.
/// serve::QueryServer, serve::ReplicationSource and TcpReceiver run on it
/// and differ only in their hooks, which run on the loop thread (owner
/// state they touch needs no lock):
///
/// - the frame hook sees each complete frame of a connection in arrival
///   order. It may append framed replies to the connection's `out`, and
///   returns false when the frame breaks the owner's protocol: the
///   connection is then dropped and counted in `protocol_errors`;
/// - the optional wake hook runs once per loop wake-up, and at least every
///   `wake_interval`, over every connection — how a server pushes data
///   nobody asked for in that frame (replication's segment bytes).
///
/// One policy for every owner:
/// - Accepts are handled after the wake-up's client events, so a fd
///   number closed in this batch is not reused mid-batch. Past the
///   connection cap a new connection is closed and counted (`rejected`).
///   EMFILE/ENFILE disarms the listener for 50 ms (`accept_stalls`)
///   instead of spinning on it, then the backlog is drained. Every
///   accepted connection gets TCP_NODELAY and keepalive (60 s idle, 15 s
///   interval, 4 probes), so a silent peer that lost power frees its slot.
/// - Reads run until EAGAIN, then frames are cut with parse_frame; its
///   length limit is the input limit (an oversize frame drops only that
///   connection, counted in `protocol_errors`).
/// - Writes are flushed after every frame and after the wake hook. A full
///   socket parks the rest on EPOLLOUT and stops reading the connection
///   until it drains — backpressure: a peer that pipelines requests
///   without reading replies stalls in its own send path instead of
///   growing this buffer. After the drain the frames left buffered are
///   served, in order.
class TcpServer {
public:
    /// One accepted connection; owned by the loop, handed to the hooks.
    class Connection {
    public:
        explicit Connection(std::uint64_t accept_index) : id(accept_index) {}

        const std::uint64_t id;  ///< accept order, from 0
        std::string out;         ///< framed bytes to send; hooks append here
        std::any state;          ///< the owner's per-connection state (empty at accept)

        /// Bytes in `out` not yet handed to the kernel.
        std::size_t unsent() const { return out.size() - out_pos_; }

    private:
        friend class TcpServer;
        std::string in_;  ///< bytes read, not yet framed
        std::size_t out_pos_ = 0;
        bool want_write_ = false;  ///< parked on EPOLLOUT, not reading
    };

    /// False = protocol violation: drop the connection.
    using FrameHook = std::function<bool(Connection&, std::string_view payload)>;
    using WakeHook = std::function<void(std::span<Connection* const>)>;

    /// Binds `bind_address:port` (port 0: ephemeral, see port()) and starts
    /// the loop thread; throws util::SystemError when the socket cannot be
    /// created or bound. Without a wake hook the loop wakes every 200 ms.
    TcpServer(const std::string& bind_address, std::uint16_t port,
              std::size_t max_connections, FrameHook on_frame, WakeHook on_wake = {},
              std::chrono::milliseconds wake_interval = std::chrono::milliseconds(200));
    ~TcpServer();

    TcpServer(const TcpServer&) = delete;
    TcpServer& operator=(const TcpServer&) = delete;

    std::uint16_t port() const { return port_; }

    /// Close the listener and every connection, join the loop; idempotent.
    void stop();

    TcpServerStats stats() const;

private:
    void event_loop();
    void accept_backlog();
    void handle_readable(int fd, Connection& conn);
    /// Serve buffered frames until the first parked write; false when the
    /// connection was closed.
    bool process_frames(int fd, Connection& conn);
    bool flush_writes(int fd, Connection& conn);
    void close_connection(int fd);

    std::size_t max_connections_;
    FrameHook on_frame_;
    WakeHook on_wake_;
    int wait_ms_;
    std::uint16_t port_ = 0;
    int listen_fd_ = -1;
    int epoll_fd_ = -1;
    int event_fd_ = -1;  ///< stop signal
    std::map<int, Connection> connections_;
    std::vector<Connection*> awake_;  ///< the wake hook's view, reused

    /// Accepts are disarmed (listener out of the epoll set) after
    /// EMFILE/ENFILE until the re-arm deadline; prevents the level-
    /// triggered listener from spinning the loop while fds are exhausted.
    bool listener_armed_ = true;
    std::chrono::steady_clock::time_point accept_rearm_at_{};

    std::atomic<bool> stopping_{false};
    std::atomic<bool> stopped_{false};
    std::atomic<std::uint64_t> connections_total_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> frames_{0};
    std::atomic<std::uint64_t> protocol_errors_{0};
    std::atomic<std::uint64_t> accept_stalls_{0};
    std::thread loop_;
};

/// TCP message sender — the design SIREN deliberately rejected (paper §3.1
/// chose UDP "fire and forget" over TCP to avoid connection management and
/// failure coupling). It exists here as the comparison baseline: the
/// transport ablation measures what a connection-oriented collector would
/// cost and how it behaves when the receiver disappears. Each message is
/// one frame (append_frame), written with one send.
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

/// TcpSender's receive end, on loopback: a TcpServer whose frame hook
/// decodes each frame and hands it to the handler as a one-view batch, on
/// the loop thread, with the connection's accept index as `source`.
class TcpReceiver {
public:
    explicit TcpReceiver(BatchHandler handler, std::uint16_t port = 0);

    TcpReceiver(const TcpReceiver&) = delete;
    TcpReceiver& operator=(const TcpReceiver&) = delete;

    std::uint16_t port() const { return server_.port(); }

    void stop() { server_.stop(); }

    /// Frames that were not SIREN datagrams (dropped, never handed on).
    std::uint64_t malformed() const { return malformed_.load(); }

private:
    BatchHandler handler_;
    std::atomic<std::uint64_t> malformed_{0};
    TcpServer server_;  ///< last: its thread uses the members above
};

}  // namespace siren::net
