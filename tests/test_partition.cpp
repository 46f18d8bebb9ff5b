// Partitioned fleet: the PartitionMap invariants and wire form, the
// versioned STATS schema parser, cross-shard ranking merge, and the four
// acceptance scenarios of docs/sharding.md — a degenerate single-shard map
// behaving exactly like an unpartitioned client, a probe ladder straddling
// a range boundary fanning out to both owners with an oracle-identical
// merged ranking, a stale-map client following a wrong_shard redirect, and
// a mid-observe rebalance conserving every sighting (range-fingerprint
// convergence on the new owner).

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fuzzy/ctph.hpp"
#include "serve/serve.hpp"
#include "storage/segment.hpp"
#include "util/error.hpp"

namespace fs = std::filesystem;
namespace sf = siren::fuzzy;
namespace sv = siren::serve;
namespace ss = siren::storage;

namespace {

/// Unique scratch directory, removed on scope exit.
class ScratchDir {
public:
    explicit ScratchDir(const std::string& tag) {
        static std::atomic<int> counter{0};
        path_ = (fs::temp_directory_path() /
                 ("siren_part_" + tag + "_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter.fetch_add(1))))
                    .string();
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    std::string sub(const std::string& name) const { return path_ + "/" + name; }

private:
    std::string path_;
};

/// Poll `done` until it holds or ~5s elapse; returns whether it held.
bool eventually(const std::function<bool()>& done,
                std::chrono::milliseconds limit = std::chrono::milliseconds(5000)) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
        if (done()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return done();
}

sv::ServeOptions fast_options() {
    sv::ServeOptions options;
    options.feed_poll = std::chrono::milliseconds(2);
    options.checkpoint_interval = std::chrono::milliseconds(0);
    options.publish_interval = std::chrono::milliseconds(0);
    return options;
}

sv::ReplicaEndpoint local(std::uint16_t port) { return {"127.0.0.1", port}; }

/// Options of one partitioned shard. The table is a placeholder (ports are
/// not known until the query servers bind); the real one swaps in through
/// set_partition_map, the same path a rebalance version-bump uses. The
/// service itself only ever consults the ranges and its own id.
sv::ServeOptions partitioned_options(std::uint32_t shard_id);

/// Two-shard map: shard 0 owns [0, cut-1], shard 1 owns [cut, 2^64-1].
sv::PartitionMap two_shards(std::uint64_t version, std::uint16_t port0,
                            std::uint16_t port1, std::uint64_t cut) {
    std::vector<sv::ShardInfo> shards(2);
    shards[0].id = 0;
    shards[0].leader = local(port0);
    shards[0].ranges = {{0, cut - 1}};
    shards[1].id = 1;
    shards[1].leader = local(port1);
    shards[1].ranges = {{cut, ~0ull}};
    return sv::PartitionMap(version, std::move(shards));
}

sv::ServeOptions partitioned_options(std::uint32_t shard_id) {
    auto options = fast_options();
    options.partition.shard_id = shard_id;
    options.partition.map =
        std::make_shared<const sv::PartitionMap>(two_shards(0, 1, 2, 3072));
    return options;
}

/// Parse-safe synthetic digest (no ':', no >3-char runs, 26 chars).
sf::FuzzyDigest digest_at(std::uint64_t block_size, const std::string& d1,
                          const std::string& d2) {
    return sf::FuzzyDigest{block_size, d1, d2};
}

/// Mutually dissimilar digest per index: every position's character shifts
/// with `i`, so two indices share no 7-char substring and score 0 — each
/// observe founds its own family instead of folding into a neighbor.
sf::FuzzyDigest nth_digest(std::uint64_t block_size, int i) {
    static const char kAlphabet[] =
        "ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz123456789";
    const auto make = [&](int salt) {
        std::string s(26, 'A');
        for (int j = 0; j < 26; ++j) {
            s[static_cast<std::size_t>(j)] =
                kAlphabet[static_cast<std::size_t>(i * 131 + salt * 37 + j * 53 + j * j * 7) %
                          (sizeof(kAlphabet) - 1)];
        }
        return s;
    };
    return digest_at(block_size, make(1), make(2));
}

std::string render(const std::vector<sv::FusedIdentified>& matches) {
    std::string out;
    for (const auto& m : matches) {
        out += m.name + " fused=" + std::to_string(m.score) +
               " c=" + std::to_string(m.content_score) +
               " b=" + std::to_string(m.behavior_score) + "\n";
    }
    return out;
}

/// Records currently replayable under `dir`.
std::size_t record_count(const std::string& dir) {
    std::size_t n = 0;
    ss::replay_directory(dir, [&n](std::string_view) { ++n; });
    return n;
}

constexpr const char* kStrA = "kTqWx3NvZrLm8PbC5dYhJf2Ag4";
constexpr const char* kStrB = "Rs7eKp1MnHu9VtD6wQyXc0ZiBo";
constexpr const char* kStrC = "Ga5jLd8SfTk2RmNe7XwPq4VzCu";

}  // namespace

// ---------------------------------------------------------------------------
// PartitionMap: invariants, wire form, routing arithmetic

TEST(PartitionMap, SerializeParseRoundTrip) {
    const auto map = two_shards(7, 9001, 9002, 3072);
    const auto text = map.serialize();
    const auto parsed = sv::PartitionMap::parse(text);
    EXPECT_EQ(parsed.version(), 7u);
    ASSERT_EQ(parsed.shard_count(), 2u);
    EXPECT_EQ(parsed.shards()[0].leader, local(9001));
    EXPECT_EQ(parsed.shards()[1].ranges, (std::vector<sv::KeyRange>{{3072, ~0ull}}));
    EXPECT_EQ(parsed.serialize(), text) << "serialize must be a fixed point";

    // Comments and blank lines are ignored.
    const auto relaxed = sv::PartitionMap::parse("# fleet map\n\n" + text);
    EXPECT_EQ(relaxed.serialize(), text);
}

TEST(PartitionMap, RejectsIncoherentTables) {
    std::vector<sv::ShardInfo> gap(2);
    gap[0] = {0, local(1), {}, {{0, 99}}};
    gap[1] = {1, local(2), {}, {{200, ~0ull}}};
    EXPECT_THROW(sv::PartitionMap(1, gap), siren::util::Error);

    std::vector<sv::ShardInfo> overlap(2);
    overlap[0] = {0, local(1), {}, {{0, 100}}};
    overlap[1] = {1, local(2), {}, {{100, ~0ull}}};
    EXPECT_THROW(sv::PartitionMap(1, overlap), siren::util::Error);

    std::vector<sv::ShardInfo> short_cover(1);
    short_cover[0] = {0, local(1), {}, {{0, 100}}};
    EXPECT_THROW(sv::PartitionMap(1, short_cover), siren::util::Error);

    std::vector<sv::ShardInfo> dup_id(2);
    dup_id[0] = {3, local(1), {}, {{0, 99}}};
    dup_id[1] = {3, local(2), {}, {{100, ~0ull}}};
    EXPECT_THROW(sv::PartitionMap(1, dup_id), siren::util::Error);

    EXPECT_THROW(sv::PartitionMap::parse("partmap 9\nversion 1\n"),
                 siren::util::Error);

    // Shard ids are 32-bit: a wider one is a parse error, never a silent
    // wrap (4294967296 would become shard 0, 4294967297 shard 1).
    const std::string header = "partmap 1\nversion 1\n";
    EXPECT_THROW(sv::PartitionMap::parse(header + "shard 4294967296 h:1 -\n"
                                                  "range 0 0 18446744073709551615\n"),
                 siren::util::ParseError);
    EXPECT_THROW(sv::PartitionMap::parse(header + "shard 0 h:1 -\nshard 1 h:2 -\n"
                                                  "range 0 0 99\n"
                                                  "range 4294967297 100 18446744073709551615\n"),
                 siren::util::ParseError);
    const auto widest = sv::PartitionMap::parse(header + "shard 4294967295 h:1 -\n"
                                                         "range 4294967295 0 "
                                                         "18446744073709551615\n");
    EXPECT_EQ(widest.owner_of(42), 4294967295u) << "UINT32_MAX itself is a legal id";
}

TEST(PartitionMap, OwnerAndProbeFanout) {
    const auto map = two_shards(1, 9001, 9002, 3072);
    EXPECT_EQ(map.owner_of(0), 0u);
    EXPECT_EQ(map.owner_of(3071), 0u);
    EXPECT_EQ(map.owner_of(3072), 1u);
    EXPECT_EQ(map.owner_of(~0ull), 1u);
    EXPECT_TRUE(map.owns(0, 1536));
    EXPECT_FALSE(map.owns(0, 3072));

    // Ladder {384, 768, 1536} sits inside shard 0's range: one owner.
    EXPECT_EQ(map.shards_for_probe(768), (std::vector<std::uint32_t>{0}));
    // Ladder {1536, 3072, 6144} straddles the cut: both owners, ascending.
    EXPECT_EQ(map.shards_for_probe(3072), (std::vector<std::uint32_t>{0, 1}));
    // 2*bs saturates at the key-space ceiling instead of wrapping to 0.
    EXPECT_EQ(map.shards_for_probe(~0ull), (std::vector<std::uint32_t>{1}));

    const auto single = sv::PartitionMap::single(local(9001), {local(9002)});
    EXPECT_EQ(single.shards_for_probe(3072), (std::vector<std::uint32_t>{0}));
    ASSERT_EQ(single.shard_count(), 1u);
    EXPECT_EQ(single.shards()[0].followers, (std::vector<sv::ReplicaEndpoint>{local(9002)}));
}

TEST(PartitionMap, SaveAndLoad) {
    ScratchDir dir("mapio");
    const auto map = two_shards(4, 9001, 9002, 1024);
    sv::save_partition_map(map, dir.sub("fleet.map"));
    const auto loaded = sv::load_partition_map(dir.sub("fleet.map"));
    EXPECT_EQ(loaded.serialize(), map.serialize());
    EXPECT_THROW(sv::load_partition_map(dir.sub("missing.map")), siren::util::SystemError);
}

// ---------------------------------------------------------------------------
// STATS schema parser

TEST(ParseStats, VersionedKeyValueSchema) {
    const auto stats = sv::parse_stats(
        "OK\nstats_version 2\nrole leader\nfamilies 3\nshard_id 2\n"
        "some_future_key 77\nnon_numeric banana\n");
    EXPECT_EQ(stats.role, "leader");
    EXPECT_EQ(stats.get("stats_version"), 2u);
    EXPECT_EQ(sv::kStatsVersion, 2u) << "removing keys bumps the schema version";
    EXPECT_EQ(stats.get("families"), 3u);
    EXPECT_EQ(stats.get("shard_id"), 2u);
    EXPECT_EQ(stats.get("some_future_key"), 77u) << "unknown keys must still parse";
    EXPECT_EQ(stats.get("non_numeric"), std::nullopt) << "junk values skip, not throw";
    EXPECT_EQ(stats.get("absent"), std::nullopt);

    EXPECT_THROW(sv::parse_stats("ERR overloaded"), siren::util::ParseError);

    // A live server's STATS (service body + server lines) carries version 2
    // and none of the keys version 2 removed.
    sv::RecognitionService service(fast_options());
    sv::QueryServer server(service);
    sv::QueryClient client("127.0.0.1", server.port());
    const auto live = sv::parse_stats(client.request("STATS"));
    EXPECT_EQ(live.get("stats_version"), 2u);
    EXPECT_TRUE(live.get("verb_identify").has_value());
    EXPECT_TRUE(live.get("accept_stalls").has_value());
    for (const char* removed :
         {"verb_identifyts", "verb_identify2", "verb_topn", "coalesced_batches",
          "coalesced_probes", "coalesce_occupancy", "shed_coalesce"}) {
        EXPECT_FALSE(live.get(removed).has_value()) << removed << " is gone in version 2";
    }
}

// ---------------------------------------------------------------------------
// Cross-shard ranking merge

TEST(MergeRankings, GroupsByNameKeepsChannelMaximaAndRefuses) {
    using F = sv::FusedIdentified;
    // Shard-local family ids collide (both use id 0); names are the key.
    const std::vector<std::vector<F>> per_shard = {
        {F{0, 90, 90, 0, "alpha"}, F{1, 55, 55, 0, "gamma"}},
        {F{0, 40, 0, 40, "alpha"}, F{2, 62, 62, 0, "delta"}},
    };
    const auto merged = sv::ShardedClient::merge_rankings(per_shard, /*both_probed=*/true,
                                                          /*k=*/3);
    ASSERT_EQ(merged.size(), 3u);
    // alpha re-fuses from merged channel maxima: (3*90 + 2*40) / 5 = 70.
    EXPECT_EQ(merged[0].name, "alpha");
    EXPECT_EQ(merged[0].score, 70);
    EXPECT_EQ(merged[0].content_score, 90);
    EXPECT_EQ(merged[0].behavior_score, 40);
    // One-channel families still pay the absent channel's zero weight,
    // exactly like Registry::fuse_scores under a both-channel probe.
    EXPECT_EQ(merged[1].name, "delta");
    EXPECT_EQ(merged[1].score, 62 * 3 / 5);
    EXPECT_EQ(merged[2].name, "gamma");
    EXPECT_EQ(merged[2].score, 55 * 3 / 5);

    // Single-channel probes pass scores through untouched and break ties
    // by name so the order is deterministic across shard arrival order.
    const std::vector<std::vector<F>> tied = {
        {F{0, 80, 80, 0, "zeta"}},
        {F{0, 80, 80, 0, "eta"}},
    };
    const auto flat = sv::ShardedClient::merge_rankings(tied, /*both_probed=*/false,
                                                        /*k=*/2);
    ASSERT_EQ(flat.size(), 2u);
    EXPECT_EQ(flat[0].name, "eta");
    EXPECT_EQ(flat[0].score, 80);
    EXPECT_EQ(flat[1].name, "zeta");

    // k truncates after the merge, not per shard.
    EXPECT_EQ(sv::ShardedClient::merge_rankings(per_shard, true, 1).size(), 1u);
}

// ---------------------------------------------------------------------------
// Degenerate single-shard map == unpartitioned client

TEST(ShardedClient, SingleShardMapIsBitIdenticalToDirectClient) {
    sv::RecognitionService service(fast_options());
    sv::QueryServer server(service);
    ASSERT_NE(server.port(), 0);

    sv::QueryClient direct("127.0.0.1", server.port());
    sv::ShardedClient routed(sv::PartitionMap::single(local(server.port())));

    // Seed through both faces; the observes land in the same registry.
    const auto famA = nth_digest(1536, 1);
    const auto famB = nth_digest(3072, 2);
    const auto direct_obs = direct.observe(famA.to_string(), "alpha");
    const auto routed_obs = routed.observe(famB.to_string(), "beta");
    EXPECT_EQ(direct_obs.name, "alpha");
    EXPECT_EQ(routed_obs.name, "beta");
    EXPECT_TRUE(routed_obs.new_family);
    EXPECT_EQ(routed.redirects_followed(), 0u);

    const sv::Probe probes[] = {
        {.content = famA.to_string(), .behavior = {}, .k = 3},
        {.content = famB.to_string(), .behavior = {}, .k = 3},
        {.content = famB.to_string(), .behavior = {}, .k = 1},
    };
    for (const auto& probe : probes) {
        EXPECT_EQ(render(routed.identify(probe)), render(direct.identify(probe)));
    }
    EXPECT_EQ(routed.identify(probes[0]).front().name, "alpha");
}

// ---------------------------------------------------------------------------
// A probe ladder straddling a range boundary fans out to both owners

TEST(ShardedClient, StraddlingLadderMergesAcrossOwnersLikeOneRegistry) {
    // Shard 0 owns [0, 3071], shard 1 owns [3072, inf): a probe at block
    // size 3072 scores against exemplars at 1536 (shard 0) and 3072/6144
    // (shard 1).
    sv::RecognitionService service0(partitioned_options(0));
    sv::RecognitionService service1(partitioned_options(1));
    sv::QueryServer server0(service0);
    sv::QueryServer server1(service1);
    const auto map = std::make_shared<const sv::PartitionMap>(
        two_shards(1, server0.port(), server1.port(), 3072));
    service0.set_partition_map(map);
    service1.set_partition_map(map);

    // Both families must score on the probe (>= threshold 60) while
    // scoring below it against each other, or a single registry would
    // fold them at observe time and there would be nothing to merge.
    // Mutating 5 spots of the probe digest for one exemplar and 8
    // disjoint spots for the other lands at probe~86 / probe~74 with the
    // exemplars at 58 against each other, just under the threshold.
    std::string famB_d1 = kStrB;  // probe.digest1 with spots 0-4 mutated
    const char* low = "acegi";
    for (int i = 0; i < 5; ++i) famB_d1[static_cast<std::size_t>(i)] = low[i];
    std::string famA_d2 = kStrB;  // probe.digest1 with spots 5-12 mutated
    const char* high = "bdfhjlnp";
    for (int i = 0; i < 8; ++i) famA_d2[static_cast<std::size_t>(5 + i)] = high[i];
    const auto famA = digest_at(1536, kStrA, famA_d2);  // shard 0's range
    const auto famB = digest_at(3072, famB_d1, kStrC);  // shard 1's range
    const auto probe_digest = digest_at(3072, kStrB, "Tb4mWc9XrKe2NvQy7JzPd5GhLf");

    sv::ShardedClient routed(*map);
    EXPECT_EQ(routed.observe(famA.to_string(), "alpha").name, "alpha");
    EXPECT_EQ(routed.observe(famB.to_string(), "beta").name, "beta");
    EXPECT_EQ(routed.redirects_followed(), 0u) << "a fresh map never redirects";

    // Each observe landed on exactly its owner shard.
    sv::QueryClient probe0("127.0.0.1", server0.port());
    sv::QueryClient probe1("127.0.0.1", server1.port());
    const auto stats0 = sv::parse_stats(probe0.request("STATS"));
    const auto stats1 = sv::parse_stats(probe1.request("STATS"));
    EXPECT_EQ(stats0.get("families"), 1u);
    EXPECT_EQ(stats1.get("families"), 1u);
    EXPECT_EQ(stats0.get("shard_id"), 0u);
    EXPECT_EQ(stats1.get("shard_id"), 1u);
    EXPECT_EQ(stats0.get("partition_version"), 1u);
    EXPECT_EQ(stats0.get("wrong_shard_rejects"), 0u);

    // Oracle: one registry holding both families.
    sv::RecognitionService oracle(fast_options());
    sv::QueryServer oracle_server(oracle);
    sv::QueryClient oracle_client("127.0.0.1", oracle_server.port());
    oracle_client.observe(famA.to_string(), "alpha");
    oracle_client.observe(famB.to_string(), "beta");

    const sv::Probe probe{.content = probe_digest.to_string(), .behavior = {}, .k = 5};
    const auto merged = routed.identify(probe);
    const auto expected = oracle_client.identify(probe);
    ASSERT_EQ(merged.size(), 2u) << "both owners must contribute:\n" << render(merged);
    EXPECT_EQ(merged[0].name, "beta");
    EXPECT_EQ(merged[1].name, "alpha");
    EXPECT_GT(merged[0].score, merged[1].score);
    EXPECT_GE(merged[1].score, 60);
    EXPECT_EQ(render(merged), render(expected))
        << "cross-shard merge must be bit-identical to the single registry";
}

// ---------------------------------------------------------------------------
// Stale-map client follows a wrong_shard redirect

TEST(ShardedClient, StaleMapFollowsWrongShardRedirect) {
    sv::RecognitionService service0(partitioned_options(0));
    sv::RecognitionService service1(partitioned_options(1));
    sv::QueryServer server0(service0);
    sv::QueryServer server1(service1);

    // The fleet has moved [1024, 3071] to shard 1 (map v2); the client
    // still routes by v1.
    const auto v1 = two_shards(1, server0.port(), server1.port(), 3072);
    const auto v2 = std::make_shared<const sv::PartitionMap>(
        two_shards(2, server0.port(), server1.port(), 1024));
    service0.set_partition_map(v2);
    service1.set_partition_map(v2);

    sv::ShardedClient routed(v1);
    const auto moved = digest_at(1536, kStrA, kStrB);  // v1: shard 0, v2: shard 1
    const auto result = routed.observe(moved.to_string(), "migrant");
    EXPECT_EQ(result.name, "migrant");
    EXPECT_TRUE(result.new_family);
    EXPECT_EQ(routed.redirects_followed(), 1u);
    EXPECT_EQ(routed.map().version(), 2u) << "the redirect must refresh the map";

    // The sighting landed on the v2 owner, and the rejecting shard
    // counted the redirect for operators.
    sv::QueryClient probe0("127.0.0.1", server0.port());
    sv::QueryClient probe1("127.0.0.1", server1.port());
    EXPECT_EQ(sv::parse_stats(probe1.request("STATS")).get("families"), 1u);
    EXPECT_EQ(sv::parse_stats(probe0.request("STATS")).get("families"), 0u);
    EXPECT_EQ(sv::parse_stats(probe0.request("STATS")).get("wrong_shard_rejects"), 1u);

    // Next observe in the moved range routes straight to the new owner.
    const auto again = routed.observe(nth_digest(1536, 41).to_string(), "settled");
    EXPECT_EQ(again.name, "settled");
    EXPECT_EQ(routed.redirects_followed(), 1u);
}

// ---------------------------------------------------------------------------
// Rebalance: a range transfer mid-observe loses no sightings

TEST(Rebalance, RangeTransferConvergesAndConservesSightings) {
    ScratchDir dir("rebalance");
    const auto old_dir = dir.sub("old_owner");
    const auto export_dir = dir.sub("export");
    const auto new_dir = dir.sub("new_owner");

    // Old owner: a WAL-journaling leader holding the whole key space.
    auto old_options = fast_options();
    old_options.segments_dir = old_dir;
    old_options.replication.observe_wal = true;
    old_options.replication.wal_fsync = false;
    sv::RecognitionService old_owner(old_options);
    sv::QueryServer old_server(old_owner);
    sv::QueryClient old_client("127.0.0.1", old_server.port());

    // Mixed traffic: 5 in-range content observes (block sizes 96/192),
    // one in-range behavioral observe (shapelet block size 128), and two
    // out-of-range observes (6144) that must stay behind.
    for (int i = 0; i < 5; ++i) {
        old_client.observe(nth_digest(i % 2 == 0 ? 96 : 192, i).to_string(),
                           "app-" + std::to_string(i));
    }
    old_client.observe_behavior(nth_digest(128, 10).to_string(), "app-ts");
    old_client.observe(nth_digest(6144, 20).to_string(), "stays-0");
    old_client.observe(nth_digest(6144, 21).to_string(), "stays-1");
    ASSERT_TRUE(eventually([&] { return record_count(old_dir) == 8; }))
        << "observe WAL never flushed";

    // First export pass of [0, 1000] under the next map version...
    const auto first = sv::export_range(old_dir, export_dir, 0, 1000, 2);
    EXPECT_EQ(first.records - first.filtered, 6u);
    EXPECT_EQ(first.filtered, 2u);

    // ...observes keep landing mid-transfer (the race the protocol must
    // absorb)...
    old_client.observe(nth_digest(96, 30).to_string(), "late-0");
    old_client.observe(nth_digest(192, 31).to_string(), "late-1");
    ASSERT_TRUE(eventually([&] { return record_count(old_dir) == 10; }));

    // ...so a second pass under a newer version catches the stragglers.
    // Both passes land in the same export directory as distinct streams;
    // the duplicate records they share must fold, not diverge.
    const auto second = sv::export_range(old_dir, export_dir, 0, 1000, 3);
    EXPECT_EQ(second.records - second.filtered, 8u);

    // New owner: replays whatever the replication machinery ships into
    // its followed directory.
    auto new_options = fast_options();
    new_options.segments_dir = new_dir;
    sv::RecognitionService new_owner(new_options);
    sv::ReplicationSourceOptions source_options;
    source_options.segments_dir = export_dir;
    source_options.poll = std::chrono::milliseconds(2);
    sv::ReplicationSource source(source_options);
    sv::ReplicationFollowerOptions follow_options;
    follow_options.leader_port = source.port();
    follow_options.directory = new_dir;
    follow_options.reconnect_backoff = std::chrono::milliseconds(20);
    sv::ReplicationFollower follower(follow_options);

    // Cutover gate: the new owner's range fingerprint converges to the
    // old owner's (fingerprints exclude sighting tallies precisely so the
    // duplicated stragglers cannot block convergence).
    const auto old_fp = old_owner.snapshot()->registry.fingerprint_range(0, 1000);
    ASSERT_TRUE(eventually([&] {
        return new_owner.snapshot()->registry.fingerprint_range(0, 1000) == old_fp;
    })) << "range fingerprint never converged;\nold:\n"
        << old_owner.snapshot()->registry.export_range(0, 1000) << "new:\n"
        << new_owner.snapshot()->registry.export_range(0, 1000);

    // The FPRANGE verb serves the same fingerprint over the wire — the
    // probe an operator's cutover script polls.
    EXPECT_EQ(old_client.fingerprint_range(0, 1000), old_fp);

    // Conservation: every transferred sighting identifies on the new
    // owner under its label, including the mid-transfer stragglers and
    // the behavioral channel.
    const auto check = [&](const sf::FuzzyDigest& digest, const std::string& label,
                           bool behavioral) {
        sv::DigestProbe probe;
        (behavioral ? probe.behavior : probe.content) = digest;
        const auto match = new_owner.identify(probe);
        ASSERT_EQ(match.size(), 1u) << label << " lost in transfer";
        EXPECT_EQ(match.front().name, label);
    };
    for (int i = 0; i < 5; ++i) {
        check(nth_digest(i % 2 == 0 ? 96 : 192, i), "app-" + std::to_string(i), false);
    }
    check(nth_digest(128, 10), "app-ts", true);
    check(nth_digest(96, 30), "late-0", false);
    check(nth_digest(192, 31), "late-1", false);

    // Nothing outside the range crossed over.
    EXPECT_TRUE(new_owner.snapshot()->registry.export_range(1001, ~0ull).empty());
    EXPECT_FALSE(old_owner.snapshot()->registry.export_range(1001, ~0ull).empty());
}
