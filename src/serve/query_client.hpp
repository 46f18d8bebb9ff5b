#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/recognition_service.hpp"  // Identified

namespace siren::serve {

/// One identification request, the client face of the IDENTIFY verb.
/// Either channel may be absent (empty string); at least one must be
/// present. `k` bounds the ranked result. Every client (QueryClient,
/// ReplicaClient, ShardedClient) identifies through this one shape, so
/// partition routing never special-cases a probe.
struct Probe {
    std::string content;   ///< canonical content digest; empty = channel absent
    std::string behavior;  ///< shapelet digest; empty = channel absent
    std::size_t k = 1;     ///< families in the ranked reply, best first
};

/// Synchronous client for the recognition query protocol — the library
/// behind `siren_query --identify HOST:PORT DIGEST` and the serve tests.
/// One TCP connection, blocking request/response with a per-call deadline.
class QueryClient {
public:
    /// Connects eagerly; throws util::SystemError when the service is
    /// unreachable.
    QueryClient(const std::string& host, std::uint16_t port,
                std::chrono::milliseconds timeout = std::chrono::milliseconds(5000));
    ~QueryClient();

    QueryClient(const QueryClient&) = delete;
    QueryClient& operator=(const QueryClient&) = delete;

    /// One framed round trip; throws util::SystemError on socket
    /// failure/timeout, util::ParseError on a garbage frame.
    std::string request(std::string_view payload);

    /// THE identification entry point: one IDENTIFY round trip, one ranked
    /// reply with per-channel provenance; empty when nothing matches.
    /// Throws util::Error on an empty probe (neither channel), k = 0, or
    /// an "ERR ..." reply.
    std::vector<FusedIdentified> identify(const Probe& probe);

    /// Batch transport (IDENTIFYB): positional replies for many content
    /// probes in one round trip.
    std::vector<std::optional<Identified>> identify_many(
        const std::vector<std::string>& digests);
    /// Content sighting (OBSERVE).
    Identified observe(std::string_view digest, std::string_view hint = {});
    /// Behavioral sighting (OBSERVETS); the digest is a shapelet digest
    /// (behavior::shapelet_digest_string).
    Identified observe_behavior(std::string_view digest, std::string_view hint = {});
    /// STATS response as "key value" lines (minus the leading OK).
    std::string stats_text();
    /// Force a checkpoint; returns its path.
    std::string checkpoint();
    /// Fetch the server's partition map (PARTMAP); throws util::Error when
    /// the server is unpartitioned.
    std::string partition_map_text();
    /// Range-scoped registry fingerprint (FPRANGE) — the rebalance
    /// convergence probe.
    std::uint64_t fingerprint_range(std::uint64_t lo, std::uint64_t hi);

private:
    /// Shared body of observe()/observe_behavior(): `verb` is OBSERVE or
    /// OBSERVETS.
    Identified observe_verb(std::string_view verb, std::string_view digest,
                            std::string_view hint);

    int fd_ = -1;
    std::chrono::milliseconds timeout_;
    std::string buffer_;
};

}  // namespace siren::serve
