#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <thread>

namespace siren::serve {

class RecognitionService;

/// Tuning for one QueryServer.
struct QueryServerOptions {
    /// TCP port; 0 binds an ephemeral port (see port()).
    std::uint16_t port = 0;
    /// IPv4 address to bind; loopback by default (tests, single node), a
    /// deployed daemon sets "0.0.0.0".
    std::string bind_address = "127.0.0.1";
    /// Accepted connections beyond this are closed immediately (counted).
    std::size_t max_connections = 256;
};

/// Aggregated counters.
struct QueryServerStats {
    std::uint64_t connections = 0;       ///< accepted
    std::uint64_t rejected = 0;          ///< closed at accept: connection limit
    std::uint64_t requests = 0;          ///< frames executed
    std::uint64_t protocol_errors = 0;   ///< oversize/garbage frames (connection dropped)
    std::uint64_t accept_stalls = 0;     ///< listener disarmed: fd exhaustion (EMFILE/ENFILE)
};

/// The TCP face of a RecognitionService: one epoll event-loop thread
/// multiplexing the listener and every client connection, modeled on the
/// ingest daemon's shard loops. Requests use the length-framed text
/// protocol of query_protocol.hpp; responses are written back on the same
/// connection, with partial writes parked on EPOLLOUT.
///
/// Identify queries execute inline on the event loop — they are lock-free
/// snapshot reads, so one loop thread sustains high QPS; the one blocking
/// verb (OBSERVE, synchronous by design) waits on the writer thread for a
/// publish cycle, which bounds the stall to the writer's batch cadence.
class QueryServer {
public:
    /// Binds and starts the loop thread; throws util::SystemError when the
    /// socket cannot be created/bound.
    QueryServer(RecognitionService& service, QueryServerOptions options = {});
    ~QueryServer();

    QueryServer(const QueryServer&) = delete;
    QueryServer& operator=(const QueryServer&) = delete;

    std::uint16_t port() const { return port_; }

    /// Close the listener and every connection, join the loop; idempotent.
    void stop();

    QueryServerStats stats() const;

private:
    struct Connection {
        std::string in;        ///< bytes read, not yet framed
        std::string out;       ///< frames pending write
        std::size_t out_pos = 0;
        bool want_write = false;
    };

    void event_loop();
    void handle_readable(int fd, Connection& conn);
    /// Execute buffered frames until the first parked write (backpressure);
    /// false when the connection was closed.
    bool process_frames(int fd, Connection& conn);
    bool flush_writes(int fd, Connection& conn);
    void close_connection(int fd);

    /// execute_query + the server-level STATS lines (simd_level and
    /// accept_stalls).
    std::string execute_with_stats(std::string_view payload);

    RecognitionService& service_;
    QueryServerOptions options_;
    std::uint16_t port_ = 0;
    int listen_fd_ = -1;
    int epoll_fd_ = -1;
    int event_fd_ = -1;  ///< stop signal
    std::map<int, Connection> connections_;
    std::thread loop_;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> stopped_{false};

    /// Accepts are disarmed (listener out of the epoll set) after
    /// EMFILE/ENFILE until the re-arm deadline; prevents the level-
    /// triggered listener from spinning the loop while fds are exhausted.
    bool listener_armed_ = true;
    std::chrono::steady_clock::time_point accept_rearm_at_{};

    std::atomic<std::uint64_t> connections_total_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> protocol_errors_{0};
    std::atomic<std::uint64_t> accept_stalls_{0};
};

}  // namespace siren::serve
