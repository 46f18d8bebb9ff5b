#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/tcp.hpp"
#include "serve/recognition_service.hpp"

namespace siren::serve {

/// Length-framed query protocol shared by QueryServer and QueryClient.
///
/// Transport framing is net::append_frame / net::parse_frame (a 4-byte
/// little-endian payload length, then the payload), re-exported below.
/// Payloads are single text requests/responses:
///
///   request  := "IDENTIFY" ["C" digest] ["B" digest] [k] | "IDENTIFYB" digest+
///             | "OBSERVE" digest [hint] | "OBSERVETS" digest [hint]
///             | "STATS" | "CHECKPOINT" | "PARTMAP" | "FPRANGE" lo hi
///   response := "OK" ... | "ERR" reason
///
/// IDENTIFY is the one identification verb, shaped like serve::Probe: at
/// least one of the C (content) / B (behavior, a shapelet digest — see
/// docs/behavior_fingerprints.md) probes, optional result count k
/// (default 1). It always answers counted: "OK n" + n lines
/// "match family fused_score content_score behavior_score name", best
/// first; an unknown probe is "OK 0". OBSERVETS records a behavioral
/// sighting.
///
/// IDENTIFYB is positional batch identify over content digests: "OK n" +
/// one "match family score name" / "unknown" line per digest, in request
/// order, even for n = 1, so clients detect truncated replies uniformly.
///
/// Full grammar and examples in docs/recognition_service.md.
inline constexpr std::uint32_t kMaxQueryFrameBytes = net::kMaxFrameBytes;

using net::append_frame;
using net::parse_frame;

/// The marker a read-only follower embeds in its OBSERVE rejection.
/// ReplicaClient matches on it to fail over to the leader, so it is part
/// of the protocol, not just error prose (docs/replication.md).
inline constexpr std::string_view kReadOnlyError = "read-only follower";

/// The marker an overloaded replica embeds in a shed reply ("ERR
/// overloaded"). Like kReadOnlyError it is protocol, not prose:
/// ReplicaClient treats it as retryable (back off, try another replica)
/// rather than a request error every replica would repeat
/// (docs/robustness.md).
inline constexpr std::string_view kOverloadedError = "overloaded";

/// The marker a partitioned shard embeds when an OBSERVE's block size
/// falls outside its owned key ranges: "ERR wrong_shard owner=<id>
/// version=<v>: ...". Protocol, not prose — ShardedClient matches on it to
/// refresh its partition map (PARTMAP) and re-route to the owner
/// (docs/sharding.md).
inline constexpr std::string_view kWrongShardError = "wrong_shard";

/// Version of the STATS key=value schema (the "stats_version" line).
/// Bump rules (docs/recognition_service.md, "STATS schema"): adding keys
/// keeps the version; renaming/removing keys or changing a key's meaning
/// bumps it. Parsers must ignore unknown keys.
inline constexpr std::uint64_t kStatsVersion = 2;

/// One parsed STATS reply: the key -> value map of every numeric line,
/// plus the non-numeric "role" line. Keys with non-numeric values other
/// than role (none today) are skipped.
struct StatsSnapshot {
    std::string role;  ///< "leader" or "follower"
    std::vector<std::pair<std::string, std::uint64_t>> values;  ///< reply order

    /// Value for `key`, or nullopt. Linear — STATS has ~40 keys.
    std::optional<std::uint64_t> get(std::string_view key) const;
};

/// Parse a STATS reply payload ("OK\n" + key=value lines). Tolerates (and
/// skips) unknown or non-numeric lines per the schema's forward-compat
/// rule. Throws util::ParseError when `text` is not a STATS reply at all
/// (no leading OK).
StatsSnapshot parse_stats(std::string_view text);

/// Execute one request payload against the service and return the response
/// payload. Never throws: malformed requests yield "ERR ..." responses.
std::string execute_query(RecognitionService& service, std::string_view request);

}  // namespace siren::serve
