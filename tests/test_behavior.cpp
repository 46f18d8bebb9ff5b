// Behavioral fingerprint channel: shapelet digests of runtime counter
// traces, channel separation from content digests, registry fusion with
// per-channel provenance, TS_H wire/journal plumbing, and the serving
// layer's OBSERVETS verb and IDENTIFY behavior probes — including the
// headline scenario the channel exists for: a renamed/recompiled binary
// whose content digest mutated past match range is still recognized
// through its counter trace.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "behavior/shapelet.hpp"
#include "fuzzy/fuzzy.hpp"
#include "net/codec.hpp"
#include "net/message.hpp"
#include "recognize/recognize.hpp"
#include "serve/serve.hpp"
#include "sim/traces.hpp"
#include "storage/segment_store.hpp"
#include "util/base64.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;
namespace sb = siren::behavior;
namespace sf = siren::fuzzy;
namespace sr = siren::recognize;
namespace sv = siren::serve;

namespace {

/// Unique scratch directory, removed on scope exit.
class ScratchDir {
public:
    explicit ScratchDir(const std::string& tag) {
        static std::atomic<int> counter{0};
        path_ = (fs::temp_directory_path() /
                 ("siren_behavior_" + tag + "_" + std::to_string(::getpid()) + "_" +
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

/// One run of the synthetic workload `family`: same lineage (same phase
/// structure), per-run noise from `run_seed`.
std::vector<double> family_trace(std::size_t family, std::uint64_t run_seed,
                                 std::size_t samples = 256) {
    siren::sim::TraceRecipe recipe;
    recipe.lineage = "app/" + std::to_string(family);
    recipe.samples = samples;
    recipe.run_seed = run_seed;
    return siren::sim::synthesize_trace(recipe);
}

/// A content-channel digest with random base64 parts on the spamsum
/// block-size ladder (3 * 2^k) — the shape the content index holds.
sf::FuzzyDigest random_content_digest(siren::util::Rng& rng) {
    sf::FuzzyDigest d;
    d.block_size = 1536 << rng.index(3);
    for (std::size_t i = 0; i < 48 + rng.index(16); ++i) {
        d.digest1 += siren::util::kBase64Alphabet[rng.index(64)];
    }
    for (std::size_t i = 0; i < 24 + rng.index(8); ++i) {
        d.digest2 += siren::util::kBase64Alphabet[rng.index(64)];
    }
    return d;
}

sf::FuzzyDigest mutate(siren::util::Rng& rng, sf::FuzzyDigest d, std::size_t edits) {
    for (std::size_t e = 0; e < edits; ++e) {
        std::string& part = rng.below(3) == 0 ? d.digest2 : d.digest1;
        part[rng.index(part.size())] = siren::util::kBase64Alphabet[rng.index(64)];
    }
    return d;
}

/// The wire datagram a trace collector journals for one TS_H sighting.
std::string ts_hash_datagram(const sf::FuzzyDigest& digest, std::uint64_t job = 9) {
    siren::net::Message m;
    m.job_id = job;
    m.pid = 5151;
    m.exe_hash = "00112233445566778899aabbccddeeff";
    m.host = "nid000012";
    m.time = 1753660800;
    m.type = siren::net::MsgType::kTimeSeriesHash;
    m.content = digest.to_string();
    return siren::net::encode(m);
}

sv::ServeOptions fast_options() {
    sv::ServeOptions options;
    options.feed_poll = std::chrono::milliseconds(2);
    options.checkpoint_interval = std::chrono::milliseconds(0);
    return options;
}

}  // namespace

// ---------------------------------------------------------------------------
// Shapelet digests

TEST(Shapelet, DeterministicAndBlockSizeLadder) {
    const auto trace = family_trace(0, 1);
    const auto a = sb::shapelet_digest(trace);
    const auto b = sb::shapelet_digest(trace);
    EXPECT_EQ(a.to_string(), b.to_string()) << "same samples must digest identically";

    // 256 samples -> window 4 -> block_size 4 * 64; doubling the trace
    // length moves exactly one rung up the ladder.
    EXPECT_EQ(a.block_size, 4 * sb::kBlockScale);
    EXPECT_EQ(sb::shapelet_digest(family_trace(0, 1, 512)).block_size, 8 * sb::kBlockScale);

    // Both parts stay within the compare stack's length assumptions and
    // the 16-symbol alphabet.
    EXPECT_LE(a.digest1.size(), sf::kSpamsumLength);
    EXPECT_LE(a.digest2.size(), sf::kSpamsumLength);
    for (const char c : a.digest1 + a.digest2) {
        EXPECT_GE(c, 'A');
        EXPECT_LT(c, static_cast<char>('A' + sb::kAlphabet));
    }

    EXPECT_THROW(sb::shapelet_digest(std::vector<double>(sb::kMinTraceSamples - 1, 1.0)),
                 siren::util::Error)
        << "below kMinTraceSamples is a loud error, not a junk digest";
}

TEST(Shapelet, FlatTraceHasNoShape) {
    // An idle counter (constant trace) z-normalizes to nothing; the digest
    // must still be well-formed and must match other flat traces exactly,
    // not structured ones.
    const std::vector<double> flat(256, 3.25);
    const std::vector<double> flat2(256, 99.0);
    const auto fd = sb::shapelet_digest(flat);
    EXPECT_EQ(fd.to_string(), sb::shapelet_digest(flat2).to_string())
        << "shape, not magnitude: every flat trace is the same shape";
    EXPECT_EQ(sf::compare(fd, sb::shapelet_digest(family_trace(1, 1))), 0);
}

TEST(Shapelet, ParseTrace) {
    const auto samples = sb::parse_trace("1.5 2,3\n4.25\t-1e2  ");
    ASSERT_EQ(samples.size(), 5u);
    EXPECT_DOUBLE_EQ(samples[0], 1.5);
    EXPECT_DOUBLE_EQ(samples[4], -100.0);
    EXPECT_TRUE(sb::parse_trace("").empty());
    EXPECT_THROW(sb::parse_trace("1.5 bogus 2"), siren::util::ParseError);
}

TEST(Shapelet, RerunNoiseInvariance) {
    // Two runs of the same binary differ only by sampling noise; the
    // digests must stay above the registry's default match threshold —
    // otherwise every rerun would found a new family.
    const int threshold = sr::RegistryOptions{}.match_threshold;
    for (std::size_t fam = 0; fam < 50; ++fam) {
        const auto first = sb::shapelet_digest(family_trace(fam, 1));
        const auto rerun = sb::shapelet_digest(family_trace(fam, 2));
        EXPECT_GE(sf::compare(first, rerun), threshold) << "family " << fam;
    }
}

TEST(Shapelet, CrossFamilyDiscrimination) {
    // Distinct workloads must (almost) never clear the match threshold
    // against each other, or the behavior channel would merge families.
    // z-normalized phase plateaus do give unrelated traces occasional
    // shared 7-grams, so a tiny above-threshold tail is tolerated.
    const int threshold = sr::RegistryOptions{}.match_threshold;
    constexpr std::size_t kFamilies = 50;
    std::vector<sf::FuzzyDigest> digests;
    for (std::size_t fam = 0; fam < kFamilies; ++fam) {
        digests.push_back(sb::shapelet_digest(family_trace(fam, 1)));
    }
    std::size_t above = 0;
    for (std::size_t i = 0; i < kFamilies; ++i) {
        for (std::size_t j = i + 1; j < kFamilies; ++j) {
            if (sf::compare(digests[i], digests[j]) >= threshold) ++above;
        }
    }
    EXPECT_LE(above, 3u) << "cross-family matches above threshold out of "
                         << kFamilies * (kFamilies - 1) / 2 << " pairs";
}

TEST(Shapelet, ChannelSeparationFromContentDigests) {
    siren::util::Rng rng(17);
    const auto behavior = sb::shapelet_digest(family_trace(3, 1));
    EXPECT_TRUE(sb::is_behavior_digest(behavior));

    for (int i = 0; i < 20; ++i) {
        const auto content = random_content_digest(rng);
        EXPECT_FALSE(sb::is_behavior_digest(content)) << content.to_string();
        // Block-size labeling (64 * 2^j vs 3 * 2^k) makes cross-channel
        // scores structurally impossible, not just unlikely.
        EXPECT_EQ(sf::compare(behavior, content), 0);
    }
}

// ---------------------------------------------------------------------------
// TS_H on the wire

TEST(WireTimeSeriesHash, RoundTrip) {
    const auto digest = sb::shapelet_digest(family_trace(5, 1));
    const std::string encoded = ts_hash_datagram(digest, 1234);
    const auto decoded = siren::net::decode(encoded);
    EXPECT_EQ(decoded.type, siren::net::MsgType::kTimeSeriesHash);
    EXPECT_EQ(decoded.job_id, 1234u);
    EXPECT_EQ(decoded.content, digest.to_string());
    EXPECT_EQ(sf::FuzzyDigest::parse(decoded.content).to_string(), digest.to_string());
}

// ---------------------------------------------------------------------------
// Registry fusion

TEST(RegistryFusion, RenamedRecompiledBinaryRecoveredThroughBehavior) {
    // The channel's reason to exist: the binary was recompiled (content
    // digest mutated far past match range) and renamed (no usable hint),
    // but its runtime counter trace is a fresh run of the same solver.
    siren::util::Rng rng(23);
    sr::Registry registry;

    const auto content = random_content_digest(rng);
    registry.observe(content, "lammps");
    // The trace collector attaches the behavioral signature by label.
    registry.observe_behavior(sb::shapelet_digest(family_trace(7, 1)), "lammps");
    ASSERT_EQ(registry.family_count(), 1u);
    EXPECT_EQ(registry.content_digest_count(), 1u);
    EXPECT_EQ(registry.behavior_digest_count(), 1u);
    EXPECT_EQ(registry.fused_family_count(), 1u);

    const auto mutated = mutate(rng, content, 40);
    const auto rerun = sb::shapelet_digest(family_trace(7, 2));
    EXPECT_FALSE(registry.best_match(mutated).has_value())
        << "content channel alone must have lost the binary";

    const auto behavioral = registry.best_match_behavior(rerun);
    ASSERT_TRUE(behavioral.has_value());
    EXPECT_EQ(registry.family(behavioral->family).name, "lammps");

    const auto fused = registry.top_families_fused(&mutated, &rerun, 3);
    ASSERT_FALSE(fused.empty());
    EXPECT_EQ(registry.family(fused.front().family).name, "lammps");
    EXPECT_EQ(fused.front().content_score, 0) << "provenance: content had no match";
    EXPECT_GE(fused.front().behavior_score, sr::RegistryOptions{}.match_threshold);
}

TEST(RegistryFusion, WeightedCombinerAndPassThrough) {
    siren::util::Rng rng(29);
    const sr::RegistryOptions options;
    sr::Registry registry(options);

    const auto content = random_content_digest(rng);
    registry.observe(content, "icon");
    registry.observe_behavior(sb::shapelet_digest(family_trace(11, 1)), "icon");

    const auto content_probe = mutate(rng, content, 4);
    const auto behavior_probe = sb::shapelet_digest(family_trace(11, 2));

    // Single-probe calls are pass-throughs of the channel's own ranking.
    const auto content_only = registry.top_families_fused(&content_probe, nullptr, 1);
    ASSERT_EQ(content_only.size(), 1u);
    EXPECT_EQ(content_only.front().score, content_only.front().content_score);
    EXPECT_EQ(content_only.front().behavior_score, 0);

    const auto behavior_only = registry.top_families_fused(nullptr, &behavior_probe, 1);
    ASSERT_EQ(behavior_only.size(), 1u);
    EXPECT_EQ(behavior_only.front().score, behavior_only.front().behavior_score);

    // Both probes: the documented integer formula, bit-exact.
    const auto fused = registry.top_families_fused(&content_probe, &behavior_probe, 1);
    ASSERT_EQ(fused.size(), 1u);
    const auto& m = fused.front();
    EXPECT_GT(m.content_score, 0);
    EXPECT_GT(m.behavior_score, 0);
    EXPECT_EQ(m.score, (options.content_weight * m.content_score +
                        options.behavior_weight * m.behavior_score) /
                           (options.content_weight + options.behavior_weight));

    // Determinism: the same probes rank identically on every call.
    const auto again = registry.top_families_fused(&content_probe, &behavior_probe, 1);
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again.front().family, m.family);
    EXPECT_EQ(again.front().score, m.score);
}

TEST(RegistryFusion, SaveLoadAndFingerprintCoverBehaviorChannel) {
    siren::util::Rng rng(31);
    sr::Registry registry;
    registry.observe(random_content_digest(rng), "gromacs");
    const std::uint64_t content_only_fp = registry.fingerprint();

    const auto shapelet = sb::shapelet_digest(family_trace(13, 1));
    registry.observe_behavior(shapelet, "gromacs");
    EXPECT_NE(registry.fingerprint(), content_only_fp)
        << "fingerprint must cover behavioral records, or replicas could "
           "diverge on the behavior channel undetected";

    std::stringstream saved;
    registry.save(saved);
    EXPECT_NE(saved.str().find("bexemplar"), std::string::npos) << saved.str();

    const auto loaded = sr::Registry::load(saved);
    EXPECT_EQ(loaded.fingerprint(), registry.fingerprint());
    const auto match = loaded.best_match_behavior(sb::shapelet_digest(family_trace(13, 2)));
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(loaded.family(match->family).name, "gromacs");
}

// ---------------------------------------------------------------------------
// Serving layer

TEST(ServeBehavior, FeedsTimeSeriesHashesFromSegments) {
    // A trace collector journals TS_H datagrams next to the ingest
    // daemon's FILE_H stream; the service feeds both into the right
    // channels of one registry.
    ScratchDir dir("feed");
    const auto segments = dir.sub("segments");
    siren::storage::SegmentStore store(segments, 1);

    auto options = fast_options();
    options.segments_dir = segments;
    sv::RecognitionService service(options);

    const auto shapelet = sb::shapelet_digest(family_trace(17, 1));
    store.append(0, ts_hash_datagram(shapelet));
    store.sync_all();
    service.flush();

    EXPECT_EQ(service.counters().feed_ts_hashes, 1u);
    const auto match = service.identify(sv::DigestProbe{
        .content = std::nullopt, .behavior = sb::shapelet_digest(family_trace(17, 2)), .k = 1});
    ASSERT_EQ(match.size(), 1u);
    EXPECT_EQ(service.snapshot()->registry.behavior_digest_count(), 1u);
}

TEST(ServeBehavior, WalJournalsBehavioralObservesForReplay) {
    // Leader mode: a TCP-fed behavioral observe is journaled as a TS_H
    // datagram, so a restarted leader (or a follower shipping the WAL)
    // rebuilds the behavior channel from segments alone.
    ScratchDir dir("wal");
    const auto segments = dir.sub("segments");
    std::uint64_t fingerprint = 0;
    {
        auto options = fast_options();
        options.segments_dir = segments;
        options.replication.observe_wal = true;
        options.replication.wal_fsync = false;
        sv::RecognitionService leader(options);
        const auto applied =
            leader.observe_behavior_sync(sb::shapelet_digest(family_trace(19, 1)), "vasp");
        EXPECT_TRUE(applied.new_family);
        EXPECT_EQ(applied.name, "vasp");
        leader.flush();
        fingerprint = leader.snapshot()->fingerprint();
        leader.stop();
    }

    auto options = fast_options();
    options.segments_dir = segments;
    sv::RecognitionService replayed(options);
    replayed.flush();
    EXPECT_EQ(replayed.snapshot()->fingerprint(), fingerprint)
        << "replaying the WAL must converge to the leader's exact state";
    const auto match = replayed.identify(sv::DigestProbe{
        .content = std::nullopt, .behavior = sb::shapelet_digest(family_trace(19, 2)), .k = 1});
    ASSERT_EQ(match.size(), 1u);
    EXPECT_EQ(match.front().name, "vasp");
}

TEST(ServeBehavior, QueryVerbsEndToEndOverTcp) {
    sv::RecognitionService service(fast_options());
    sv::QueryServer server(service);
    ASSERT_NE(server.port(), 0);
    sv::QueryClient client("127.0.0.1", server.port());

    siren::util::Rng rng(37);
    const auto content = random_content_digest(rng);
    const auto shapelet = sb::shapelet_digest(family_trace(23, 1));
    const auto rerun_str = sb::shapelet_digest(family_trace(23, 2)).to_string();

    client.observe(content.to_string(), "namd");
    const auto observed = client.observe_behavior(shapelet.to_string(), "namd");
    EXPECT_EQ(observed.name, "namd");
    EXPECT_FALSE(observed.new_family) << "hint attaches the trace to the content family";

    const auto behavioral = client.identify({.content = {}, .behavior = rerun_str, .k = 1});
    ASSERT_EQ(behavioral.size(), 1u);
    EXPECT_EQ(behavioral.front().name, "namd");
    EXPECT_EQ(behavioral.front().content_score, 0);
    EXPECT_EQ(behavioral.front().behavior_score, behavioral.front().score);

    // Fused identify with both channels; "-" semantics are the CLI's, the
    // client API takes empty for an absent channel.
    const auto mutated = mutate(rng, content, 4).to_string();
    const auto fused = client.identify({.content = mutated, .behavior = rerun_str, .k = 3});
    ASSERT_FALSE(fused.empty());
    EXPECT_EQ(fused.front().name, "namd");
    EXPECT_GT(fused.front().content_score, 0);
    EXPECT_GT(fused.front().behavior_score, 0);

    const auto behavior_only = client.identify({.content = {}, .behavior = rerun_str, .k = 3});
    ASSERT_FALSE(behavior_only.empty());
    EXPECT_EQ(behavior_only.front().content_score, 0);

    // STATS surfaces per-channel registry sizes and per-verb counters.
    const auto stats = client.stats_text();
    EXPECT_NE(stats.find("content_digests 1\n"), std::string::npos) << stats;
    EXPECT_NE(stats.find("behavior_digests 1\n"), std::string::npos) << stats;
    EXPECT_NE(stats.find("fused_families 1\n"), std::string::npos) << stats;
    EXPECT_NE(stats.find("verb_identify 3\n"), std::string::npos) << stats;
    EXPECT_NE(stats.find("verb_observets 1\n"), std::string::npos) << stats;

    server.stop();
}

TEST(ServeBehavior, ProtocolErrorsAndReadOnlyRejection) {
    auto options = fast_options();
    sv::RecognitionService service(options);
    const auto shapelet_str = sb::shapelet_digest(family_trace(29, 1)).to_string();

    EXPECT_TRUE(sv::execute_query(service, "IDENTIFY B").starts_with("ERR"));
    EXPECT_TRUE(sv::execute_query(service, "IDENTIFY B not-a-digest").starts_with("ERR"));
    EXPECT_TRUE(sv::execute_query(service, "IDENTIFY 3").starts_with("ERR"))
        << "IDENTIFY with neither channel is a usage error";
    EXPECT_TRUE(sv::execute_query(service, "IDENTIFY X " + shapelet_str).starts_with("ERR"));
    EXPECT_EQ(sv::execute_query(service, "IDENTIFY B " + shapelet_str), "OK 0\n");

    // Followers serve behavioral queries but reject behavioral observes,
    // exactly like OBSERVE — route writes to the leader.
    auto follower_options = fast_options();
    follower_options.replication.read_only = true;
    sv::RecognitionService follower(follower_options);
    const auto rejected =
        sv::execute_query(follower, "OBSERVETS " + shapelet_str + " label");
    EXPECT_TRUE(rejected.starts_with("ERR")) << rejected;
    EXPECT_NE(rejected.find("read-only"), std::string::npos) << rejected;
    EXPECT_EQ(sv::execute_query(follower, "IDENTIFY B " + shapelet_str), "OK 0\n")
        << "read-only rejects writes, not behavioral reads";
}
