// Microbenchmarks (google-benchmark) for the partitioned fleet: aggregate
// observe throughput of M leader shards, each owning a block-size range of
// the key space, against one shard owning all of it.
//
// Shards are measured serially and the reported iteration time is the
// WORST per-shard duration — the wall-clock model of one box per shard
// (this host has too few cores to run M servers honestly in parallel, and
// the serial measurement is noise-free on any machine). Aggregate
// throughput is then total observes / worst shard time, which is exactly
// what an M-box fleet sustains.
//
// The cmake target `bench-sharding-json` condenses the numbers into
// BENCH_sharding.json. The gated ratio is sharded_observe_scaling =
// items/s at 3 shards over items/s at 1 shard (CI gates >= 2.2x: sharding
// must buy real write scale-out, not just topology). The /3 run also
// reports sharded_topn_parity: 1.0 when the ShardedClient's cross-shard
// ranked merge is bit-identical to a single registry holding every family —
// including a probe whose bucket ladder straddles a range boundary.
// bench/trajectory/BENCH_sharding.json is the committed trajectory point.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fuzzy/ctph.hpp"
#include "serve/partition_map.hpp"
#include "serve/query_client.hpp"
#include "serve/query_server.hpp"
#include "serve/recognition_service.hpp"
#include "serve/sharded_client.hpp"

namespace {

namespace sf = siren::fuzzy;
namespace sv = siren::serve;

/// Synthetic digests with a DISJOINT alphabet per shard group: two digests
/// from different groups can never share the 7-char substring scoring
/// requires, so cross-shard folds and matches are impossible by
/// construction. That keeps observe-time family folding shard-local —
/// identical under one registry or three — which is what makes the /1 and
/// /3 workloads comparable and the ranked-merge parity check meaningful.
/// (Within a group, index collisions just fold the same way on both
/// sides.)
sf::FuzzyDigest nth_digest(std::uint64_t block_size, std::size_t group, int i) {
    static const char* kAlphabets[] = {
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
        "abcdefghijklmnopqrstuvwxyz",
        "0123456789+-*/=_.!@#$%^&()",
    };
    const char* alphabet = kAlphabets[group % 3];
    const auto len = static_cast<int>(std::strlen(alphabet));
    const auto make = [&](int salt) {
        std::string s(26, alphabet[0]);
        for (int j = 0; j < 26; ++j) {
            s[static_cast<std::size_t>(j)] =
                alphabet[static_cast<std::size_t>((i * 131 + salt * 37 + j * 53 + j * j * 7) %
                                                  len)];
        }
        return s;
    };
    return sf::FuzzyDigest{block_size, make(1), make(2)};
}

/// Per-shard block-size menu of the 3-way split (cuts at 96 and 768).
const std::vector<std::vector<std::uint64_t>>& shard_block_sizes() {
    static const std::vector<std::vector<std::uint64_t>> sizes = {
        {24, 48}, {96, 192, 384}, {768, 1536, 3072}};
    return sizes;
}

constexpr int kDigestsPerShard = 64;

sv::ServeOptions service_options() {
    sv::ServeOptions options;
    options.publish_interval = std::chrono::milliseconds(0);
    return options;
}

/// The straddle case: a probe at 96 whose ladder {48, 96, 192} spans the
/// first cut, matching one family on each side without the two families
/// matching each other (5 vs 8 disjointly mutated spots of the probe
/// digest score ~86/~74 on the probe and ~58 against each other).
struct StraddlePair {
    sf::FuzzyDigest low;    ///< block size 48 — shard 0's range
    sf::FuzzyDigest high;   ///< block size 96 — shard 1's range
    sf::FuzzyDigest probe;  ///< block size 96
};

StraddlePair straddle_pair() {
    const std::string base = "Rs7eKp1MnHu9VtD6wQyXc0ZiBo";
    std::string high_d1 = base;
    const char* low_chars = "acegi";
    for (int i = 0; i < 5; ++i) high_d1[static_cast<std::size_t>(i)] = low_chars[i];
    std::string low_d2 = base;
    const char* high_chars = "bdfhjlnp";
    for (int i = 0; i < 8; ++i) low_d2[static_cast<std::size_t>(5 + i)] = high_chars[i];
    return StraddlePair{
        sf::FuzzyDigest{48, "kTqWx3NvZrLm8PbC5dYhJf2Ag4", low_d2},
        sf::FuzzyDigest{96, high_d1, "Ga5jLd8SfTk2RmNe7XwPq4VzCu"},
        sf::FuzzyDigest{96, base, "Tb4mWc9XrKe2NvQy7JzPd5GhLf"},
    };
}

std::string render(const std::vector<sv::FusedIdentified>& matches) {
    std::string out;
    for (const auto& m : matches) {
        out += m.name + "/" + std::to_string(m.score) + "/" +
               std::to_string(m.content_score) + "/" +
               std::to_string(m.behavior_score) + ";";
    }
    return out;
}

/// Aggregate observe throughput at `shard_count` leader shards.
void BM_ShardedObserve(benchmark::State& state) {
    const int shard_count = static_cast<int>(state.range(0));

    // One corpus, partitioned by block-size range: digest i of group g
    // lives at one of g's block sizes. At shard_count=1 the whole corpus
    // lands on the single shard.
    std::vector<std::vector<std::pair<std::string, std::string>>> assigned(
        static_cast<std::size_t>(shard_count));
    const auto& menu = shard_block_sizes();
    int next = 0;
    for (std::size_t group = 0; group < menu.size(); ++group) {
        for (int i = 0; i < kDigestsPerShard; ++i) {
            const auto bs = menu[group][static_cast<std::size_t>(i) % menu[group].size()];
            const auto digest = nth_digest(bs, group, next);
            const std::size_t owner = shard_count == 1 ? 0 : group;
            assigned[owner].emplace_back(digest.to_string(),
                                         "fam-" + std::to_string(next));
            ++next;
        }
    }
    const std::size_t corpus_size = static_cast<std::size_t>(next);

    std::vector<std::unique_ptr<sv::RecognitionService>> services;
    std::vector<std::unique_ptr<sv::QueryServer>> servers;
    std::vector<std::unique_ptr<sv::QueryClient>> clients;
    for (int s = 0; s < shard_count; ++s) {
        auto options = service_options();
        if (shard_count > 1) {
            options.partition.shard_id = static_cast<std::uint32_t>(s);
            // Placeholder table (real ports swap in below): the service
            // only consults the ranges and its own id.
            std::vector<sv::ShardInfo> placeholder(3);
            for (std::uint32_t p = 0; p < 3; ++p) {
                placeholder[p].id = p;
                placeholder[p].leader.host = "127.0.0.1";
                placeholder[p].leader.port = static_cast<std::uint16_t>(p + 1);
            }
            placeholder[0].ranges = {{0, 95}};
            placeholder[1].ranges = {{96, 767}};
            placeholder[2].ranges = {{768, ~0ull}};
            options.partition.map =
                std::make_shared<const sv::PartitionMap>(0, std::move(placeholder));
        }
        services.push_back(std::make_unique<sv::RecognitionService>(options));
        servers.push_back(std::make_unique<sv::QueryServer>(*services.back()));
        clients.push_back(std::make_unique<sv::QueryClient>("127.0.0.1",
                                                            servers.back()->port()));
    }
    std::vector<sv::ShardInfo> shards(static_cast<std::size_t>(shard_count));
    for (int s = 0; s < shard_count; ++s) {
        auto& shard = shards[static_cast<std::size_t>(s)];
        shard.id = static_cast<std::uint32_t>(s);
        shard.leader = {"127.0.0.1", servers[static_cast<std::size_t>(s)]->port()};
    }
    if (shard_count == 1) {
        shards[0].ranges = {{0, ~0ull}};
    } else {
        shards[0].ranges = {{0, 95}};
        shards[1].ranges = {{96, 767}};
        shards[2].ranges = {{768, ~0ull}};
    }
    const auto map = std::make_shared<const sv::PartitionMap>(1, shards);
    for (auto& service : services) service->set_partition_map(map);

    std::size_t total = 0;
    for (auto _ : state) {
        double worst_seconds = 0.0;
        for (int s = 0; s < shard_count; ++s) {
            const auto start = std::chrono::steady_clock::now();
            for (const auto& [digest, label] : assigned[static_cast<std::size_t>(s)]) {
                clients[static_cast<std::size_t>(s)]->observe(digest, label);
            }
            const std::chrono::duration<double> took =
                std::chrono::steady_clock::now() - start;
            worst_seconds = std::max(worst_seconds, took.count());
        }
        state.SetIterationTime(worst_seconds);
        total += corpus_size;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));

    // Cross-shard ranking parity, reported from the 3-shard run: a sharded
    // client's merged ranking over the fleet vs a single registry holding
    // every family, probed with the whole corpus plus the boundary
    // straddler. Any mismatch zeroes the counter (CI gates == 1).
    if (shard_count > 1) {
        const auto pair = straddle_pair();
        sv::ShardedClient routed(*map);
        routed.observe(pair.low.to_string(), "straddle-low");
        routed.observe(pair.high.to_string(), "straddle-high");

        sv::RecognitionService oracle(service_options());
        sv::QueryServer oracle_server(oracle);
        sv::QueryClient oracle_client("127.0.0.1", oracle_server.port());
        for (const auto& per_shard : assigned) {
            for (const auto& [digest, label] : per_shard) {
                oracle_client.observe(digest, label);
            }
        }
        oracle_client.observe(pair.low.to_string(), "straddle-low");
        oracle_client.observe(pair.high.to_string(), "straddle-high");

        bool parity = true;
        const auto agree = [&](const sv::Probe& probe) {
            const auto fleet = render(routed.identify(probe));
            const auto oracle_view = render(oracle_client.identify(probe));
            if (fleet != oracle_view && parity) {
                std::fprintf(stderr,
                             "bench_sharding: ranking parity mismatch on probe %s\n"
                             "  fleet:  %s\n  oracle: %s\n",
                             probe.content.c_str(), fleet.c_str(), oracle_view.c_str());
            }
            return fleet == oracle_view;
        };
        for (const auto& per_shard : assigned) {
            for (const auto& [digest, label] : per_shard) {
                if (!agree(sv::Probe{.content = digest, .behavior = {}, .k = 3})) {
                    parity = false;
                }
            }
        }
        if (!agree(sv::Probe{.content = pair.probe.to_string(), .behavior = {}, .k = 5})) {
            parity = false;
        }
        state.counters["sharded_topn_parity"] = parity ? 1.0 : 0.0;
    }
}

}  // namespace

BENCHMARK(BM_ShardedObserve)->Arg(1)->Arg(3)->UseManualTime();

BENCHMARK_MAIN();
