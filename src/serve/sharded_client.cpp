#include "serve/sharded_client.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "fuzzy/ctph.hpp"
#include "serve/query_protocol.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace siren::serve {

namespace {

/// Per-shard ranking depth of a both-channel fan-out (see identify()).
constexpr std::size_t kFusedFanDepth = 4096;

}  // namespace

ShardedClient::ShardedClient(PartitionMap map, ShardedClientOptions options)
    : map_(std::move(map)), options_(options) {
    adopt(std::move(map_));  // builds the initial shard slots
}

void ShardedClient::adopt(PartitionMap map) {
    std::vector<ShardSlot> slots;
    slots.reserve(map.shard_count());
    for (const auto& shard : map.shards()) {
        ShardSlot slot;
        slot.id = shard.id;
        slot.endpoints = shard.replicas();
        // A shard whose replica set is unchanged keeps its connected
        // client — a rebalance that only moved key ranges costs no
        // reconnects.
        for (auto& old : slots_) {
            if (old.id == shard.id && old.endpoints == slot.endpoints) {
                slot.client = std::move(old.client);
                break;
            }
        }
        slots.push_back(std::move(slot));
    }
    slots_ = std::move(slots);
    map_ = std::move(map);
}

ReplicaClient& ShardedClient::shard_client(std::uint32_t shard_id) {
    for (auto& slot : slots_) {
        if (slot.id != shard_id) continue;
        if (!slot.client) {
            slot.client = std::make_unique<ReplicaClient>(slot.endpoints, options_.replica);
        }
        return *slot.client;
    }
    throw util::Error("sharded client: no shard " + std::to_string(shard_id) + " in map v" +
                      std::to_string(map_.version()));
}

std::vector<FusedIdentified> ShardedClient::identify(const Probe& probe) {
    if (probe.content.empty() && probe.behavior.empty()) {
        throw util::Error("identify: a probe needs at least one digest");
    }
    // Owners of every ladder the probe can score on: ≤3 per channel.
    std::vector<std::uint32_t> targets;
    const auto add_ladder = [&](const std::string& digest) {
        const auto bs = fuzzy::FuzzyDigest::parse(digest).block_size;
        for (const auto owner : map_.shards_for_probe(bs)) {
            if (std::find(targets.begin(), targets.end(), owner) == targets.end()) {
                targets.push_back(owner);
            }
        }
    };
    if (!probe.content.empty()) add_ladder(probe.content);
    if (!probe.behavior.empty()) add_ladder(probe.behavior);
    std::sort(targets.begin(), targets.end());

    if (targets.size() == 1) return shard_client(targets.front()).identify(probe);

    // Per-shard request depth. Single-channel rankings merge exactly at
    // depth k: a family's channel score is achieved on the one shard
    // holding its best in-ladder exemplar, and anything beating it there
    // beats it globally too. A both-channel ranking can instead promote a
    // family sitting below k on every individual shard (strong content on
    // one shard, strong behavior on another), so the fused fan-out fetches
    // deep rankings and re-fuses from the merged channel maxima; 4096
    // families per shard keeps the counted reply well under the frame cap.
    const bool both = !probe.content.empty() && !probe.behavior.empty();
    Probe fan = probe;
    if (both && fan.k < kFusedFanDepth) fan.k = kFusedFanDepth;

    std::vector<std::vector<FusedIdentified>> per_shard;
    per_shard.reserve(targets.size());
    for (const auto shard_id : targets) {
        per_shard.push_back(shard_client(shard_id).identify(fan));
    }
    return merge_rankings(per_shard, both, probe.k);
}

std::vector<FusedIdentified> ShardedClient::merge_rankings(
    const std::vector<std::vector<FusedIdentified>>& per_shard, bool both_probed,
    std::size_t k, int content_weight, int behavior_weight) {
    // Group by family NAME: family ids are registry-local and collide
    // across shards. Keep each channel's best score; the reported family
    // id is the best contributor's (display only).
    std::vector<FusedIdentified> merged;
    for (const auto& ranking : per_shard) {
        for (const auto& match : ranking) {
            FusedIdentified* slot = nullptr;
            for (auto& existing : merged) {
                if (existing.name == match.name) {
                    slot = &existing;
                    break;
                }
            }
            if (slot == nullptr) {
                merged.push_back(match);
                continue;
            }
            slot->content_score = std::max(slot->content_score, match.content_score);
            slot->behavior_score = std::max(slot->behavior_score, match.behavior_score);
        }
    }
    // Re-fuse from the merged channel maxima — the same integer combiner
    // recognize::Registry::top_families_fused applies, so the merged
    // ranking matches what one registry holding everything would emit.
    for (auto& match : merged) {
        if (both_probed) {
            match.score = (content_weight * match.content_score +
                           behavior_weight * match.behavior_score) /
                          (content_weight + behavior_weight);
        } else {
            match.score = std::max(match.content_score, match.behavior_score);
        }
    }
    std::sort(merged.begin(), merged.end(), [](const FusedIdentified& a, const FusedIdentified& b) {
        if (a.score != b.score) return a.score > b.score;
        return a.name < b.name;
    });
    if (merged.size() > k) merged.resize(k);
    return merged;
}

Identified ShardedClient::observe(std::string_view digest, std::string_view hint) {
    return observe_routed(digest, hint, false);
}

Identified ShardedClient::observe_behavior(std::string_view digest, std::string_view hint) {
    return observe_routed(digest, hint, true);
}

Identified ShardedClient::observe_routed(std::string_view digest, std::string_view hint,
                                         bool behavioral) {
    const auto bs = fuzzy::FuzzyDigest::parse(digest).block_size;
    for (std::size_t attempt = 0;; ++attempt) {
        auto& client = shard_client(map_.owner_of(bs));
        try {
            return behavioral ? client.observe_behavior(digest, hint)
                              : client.observe(digest, hint);
        } catch (const util::Error& e) {
            if (std::string_view(e.what()).find(kWrongShardError) == std::string_view::npos ||
                attempt >= options_.max_redirects) {
                throw;
            }
            // Stale map: a rebalance moved this range. Refresh and
            // re-route; if the fleet serves the same (or no) map, rethrow
            // rather than hammer the same wrong owner.
            ++redirects_followed_;
            if (!refresh_map()) throw;
        }
    }
}

bool ShardedClient::refresh_map() {
    // Any shard serves PARTMAP; sweep until one answers. Higher version
    // wins — a shard that has not heard of the rebalance yet returns the
    // old map, which is ignored.
    std::optional<PartitionMap> best;
    for (auto& slot : slots_) {
        try {
            auto text = shard_client(slot.id).partition_map_text();
            auto candidate = PartitionMap::parse(text);
            if (!best || candidate.version() > best->version()) {
                best.emplace(std::move(candidate));
            }
        } catch (const util::Error&) {
            continue;  // dead or unpartitioned shard; try the next
        }
    }
    if (!best || best->version() <= map_.version()) return false;
    adopt(std::move(*best));
    return true;
}

}  // namespace siren::serve
