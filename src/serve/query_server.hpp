#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/tcp.hpp"

namespace siren::serve {

class RecognitionService;

/// Tuning for one QueryServer.
struct QueryServerOptions {
    /// TCP port; 0 binds an ephemeral port (see port()).
    std::uint16_t port = 0;
    /// IPv4 address to bind; loopback by default (tests, single node), a
    /// deployed daemon sets "0.0.0.0".
    std::string bind_address = "127.0.0.1";
};

/// Aggregated counters.
struct QueryServerStats {
    std::uint64_t connections = 0;       ///< accepted
    std::uint64_t rejected = 0;          ///< closed at accept: 256 connections open
    std::uint64_t requests = 0;          ///< frames executed
    std::uint64_t protocol_errors = 0;   ///< oversize/garbage frames (connection dropped)
    std::uint64_t accept_stalls = 0;     ///< listener disarmed: fd exhaustion (EMFILE/ENFILE)
};

/// The TCP face of a RecognitionService: the shared framed-TCP loop
/// (net::TcpServer — accepts, backpressure, fd-exhaustion stalls) with
/// execute_query as its frame hook. Requests use the length-framed text
/// protocol of query_protocol.hpp; each reply goes back on the same
/// connection, in request order.
///
/// Identify queries execute inline on the loop thread — they are lock-free
/// snapshot reads, so one loop thread sustains high QPS; the one blocking
/// verb (OBSERVE, synchronous by design) waits on the writer thread for a
/// publish cycle, which bounds the stall to the writer's batch cadence.
class QueryServer {
public:
    /// Binds and starts the loop thread; throws util::SystemError when the
    /// socket cannot be created/bound.
    QueryServer(RecognitionService& service, QueryServerOptions options = {});

    QueryServer(const QueryServer&) = delete;
    QueryServer& operator=(const QueryServer&) = delete;

    std::uint16_t port() const { return server_.port(); }

    /// Close the listener and every connection, join the loop; idempotent.
    void stop() { server_.stop(); }

    QueryServerStats stats() const;

private:
    /// execute_query + the server-level STATS lines (simd_level and
    /// accept_stalls).
    std::string execute_with_stats(std::string_view payload);

    RecognitionService& service_;
    net::TcpServer server_;  ///< last: its thread uses the members above
};

}  // namespace siren::serve
