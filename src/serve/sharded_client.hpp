#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/partition_map.hpp"
#include "serve/query_client.hpp"  // Probe, FusedIdentified
#include "serve/replica_client.hpp"

namespace siren::serve {

/// Tuning for one ShardedClient.
struct ShardedClientOptions {
    /// Handed to every per-shard ReplicaClient.
    ReplicaClientOptions replica;
    /// How many wrong_shard rejections one observe absorbs (each triggers
    /// a PARTMAP refresh and a re-route) before the error surfaces. Two
    /// covers the common rebalance race: one stale-map redirect, one more
    /// in case the map moved again mid-refresh.
    std::size_t max_redirects = 2;
};

/// The routed face of a partitioned recognition fleet: one client API over
/// M shards, each shard behind its own failover ReplicaClient
/// (docs/sharding.md).
///
/// Routing rules:
///   * identify(Probe) fans out to every shard whose owned ranges touch
///     the probe's block-size ladder(s) — at most 3 per channel, exactly 1
///     when a ladder sits inside one range — and merges the per-shard
///     rankings (merge_rankings below). Against a fleet whose shards
///     jointly hold what one registry would, the merged ranking is
///     bit-identical to that single registry's (names and scores; family
///     ids are shard-local and not comparable).
///   * observe()/observe_behavior() route to exactly the shard owning the
///     digest's block size. A wrong_shard rejection (this client's map is
///     stale, a rebalance moved the range) triggers a PARTMAP refresh from
///     the fleet and a re-route, bounded by max_redirects.
///   * The partition map self-refreshes: any shard serves PARTMAP, higher
///     version wins. A refresh rebuilds only the per-shard clients whose
///     endpoint lists changed.
///
/// Not thread-safe (one client, one thread), like the clients it wraps.
class ShardedClient {
public:
    /// Starts from `map` (load_partition_map / PartitionMap::parse of a
    /// PARTMAP reply). No connection is attempted until the first call.
    ShardedClient(PartitionMap map, ShardedClientOptions options = {});

    /// Ranked fused identification across the owning shards.
    std::vector<FusedIdentified> identify(const Probe& probe);

    /// Owner-routed sighting; follows wrong_shard redirects (see above).
    Identified observe(std::string_view digest, std::string_view hint = {});
    Identified observe_behavior(std::string_view digest, std::string_view hint = {});

    /// Fetch PARTMAP from the fleet and adopt it when its version is
    /// higher; returns true when the map changed.
    bool refresh_map();

    const PartitionMap& map() const { return map_; }

    /// Total wrong_shard redirects this client followed (observability for
    /// the rebalance tests).
    std::uint64_t redirects_followed() const { return redirects_followed_; }

    /// Merge per-shard fused rankings: group by family name, keep each
    /// channel's best score, re-fuse with the registry's integer weights
    /// (both_probed: (content_weight*c + behavior_weight*b) / (sum);
    /// single-channel: pass-through), order by fused score descending then
    /// name ascending — the same deterministic order a single registry
    /// emits — and truncate to k. Exposed for the parity tests.
    static std::vector<FusedIdentified> merge_rankings(
        const std::vector<std::vector<FusedIdentified>>& per_shard, bool both_probed,
        std::size_t k, int content_weight = 3, int behavior_weight = 2);

private:
    ReplicaClient& shard_client(std::uint32_t shard_id);
    /// Re-point per-shard clients at `map` (keeping connections whose
    /// endpoint lists did not change) and swap it in.
    void adopt(PartitionMap map);
    Identified observe_routed(std::string_view digest, std::string_view hint, bool behavioral);

    PartitionMap map_;
    ShardedClientOptions options_;
    /// One lazy ReplicaClient per shard, keyed by shard id.
    struct ShardSlot {
        std::uint32_t id = 0;
        std::vector<ReplicaEndpoint> endpoints;
        std::unique_ptr<ReplicaClient> client;
    };
    std::vector<ShardSlot> slots_;
    std::uint64_t redirects_followed_ = 0;
};

}  // namespace siren::serve
