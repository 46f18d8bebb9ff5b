// Serving layer: segment tailing, the snapshot-swap recognition service
// (concurrent identify under writes), the TCP query protocol, and the
// checkpoint + segment-replay crash recovery flow — the acceptance path of
// the live recognition daemon.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/inotify.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fuzzy/fuzzy.hpp"
#include "listener_checks.hpp"
#include "net/codec.hpp"
#include "net/message.hpp"
#include "serve/serve.hpp"
#include "storage/segment_store.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace fs = std::filesystem;
namespace sf = siren::fuzzy;
namespace sv = siren::serve;

namespace {

/// Unique scratch directory, removed on scope exit.
class ScratchDir {
public:
    explicit ScratchDir(const std::string& tag) {
        static std::atomic<int> counter{0};
        path_ = (fs::temp_directory_path() /
                 ("siren_serve_" + tag + "_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter.fetch_add(1))))
                    .string();
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir() {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    const std::string& path() const { return path_; }
    std::string sub(const std::string& name) const { return path_ + "/" + name; }

private:
    std::string path_;
};

/// Overwrite a window with random bytes — the localized-drift model the
/// recognition tests use throughout.
std::vector<std::uint8_t> mutate_region(std::vector<std::uint8_t> data, std::size_t start,
                                        std::size_t len, std::uint64_t seed) {
    siren::util::Rng rng(seed);
    for (std::size_t i = start; i < std::min(start + len, data.size()); ++i) {
        data[i] = static_cast<std::uint8_t>(rng.below(256));
    }
    return data;
}

/// The wire datagram an ingest daemon journals for one FILE_H sighting.
std::string file_hash_datagram(const sf::FuzzyDigest& digest, std::uint64_t job = 7) {
    siren::net::Message m;
    m.job_id = job;
    m.pid = 4242;
    m.exe_hash = "00112233445566778899aabbccddeeff";
    m.host = "nid000012";
    m.time = 1753660800;
    m.type = siren::net::MsgType::kFileHash;
    m.content = digest.to_string();
    return siren::net::encode(m);
}

/// A content probe through the one client identify path.
sv::Probe content_probe(const std::string& digest, std::size_t k = 1) {
    return {.content = digest, .behavior = {}, .k = k};
}

/// Service options tuned for tests: fast feed polling, no checkpoint churn.
sv::ServeOptions fast_options() {
    sv::ServeOptions options;
    options.feed_poll = std::chrono::milliseconds(2);
    options.checkpoint_interval = std::chrono::milliseconds(0);
    return options;
}

}  // namespace

// ---------------------------------------------------------------------------
// SegmentTail

TEST(SegmentTail, MissingDirectoryIsEmptyPoll) {
    sv::SegmentTail tail("/nonexistent/siren/segments");
    EXPECT_EQ(tail.poll(nullptr), 0u);
    EXPECT_EQ(tail.stats().records, 0u);
}

TEST(SegmentTail, FollowsAppendsAcrossPolls) {
    ScratchDir dir("tail_follow");
    siren::storage::SegmentStore store(dir.path(), 1);

    std::vector<std::string> delivered;
    sv::SegmentTail tail(dir.path());
    const auto collect = [&delivered](std::string_view record) {
        delivered.emplace_back(record);
    };

    store.append(0, "alpha");
    store.append(0, "beta");
    store.sync_all();
    EXPECT_EQ(tail.poll(collect), 2u);
    EXPECT_EQ(tail.poll(collect), 0u) << "no new bytes, no records";

    store.append(0, "gamma");
    store.sync_all();
    EXPECT_EQ(tail.poll(collect), 1u);
    ASSERT_EQ(delivered.size(), 3u);
    EXPECT_EQ(delivered[0], "alpha");
    EXPECT_EQ(delivered[1], "beta");
    EXPECT_EQ(delivered[2], "gamma");
}

TEST(SegmentTail, OffsetsResumeAcrossRestart) {
    ScratchDir dir("tail_resume");
    siren::storage::SegmentStore store(dir.path(), 1);
    store.append(0, "one");
    store.append(0, "two");
    store.sync_all();

    sv::SegmentTail first(dir.path());
    std::size_t seen_first = 0;
    first.poll([&seen_first](std::string_view) { ++seen_first; });
    ASSERT_EQ(seen_first, 2u);
    const auto watermark = first.offsets();

    store.append(0, "three");
    store.sync_all();

    // A restarted tail with the saved watermark sees only the suffix.
    sv::SegmentTail second(dir.path(), watermark);
    std::vector<std::string> suffix;
    second.poll([&suffix](std::string_view r) { suffix.emplace_back(r); });
    ASSERT_EQ(suffix.size(), 1u);
    EXPECT_EQ(suffix[0], "three");
}

TEST(SegmentTail, PartialTailRecordWaitsForCompletion) {
    ScratchDir dir("tail_partial");
    siren::storage::SegmentStore store(dir.path(), 1);
    store.append(0, "complete");
    store.sync_all();

    sv::SegmentTail tail(dir.path());
    EXPECT_EQ(tail.poll(nullptr), 1u);

    // Byte-level simulation of an append in flight: frame header promises
    // more payload than is on disk.
    const auto segments = siren::storage::list_segments(dir.path());
    ASSERT_EQ(segments.size(), 1u);
    {
        std::ofstream out(segments[0], std::ios::binary | std::ios::app);
        const char partial[] = {8, 0, 0, 0, 1, 2, 3, 4, 'h', 'a'};  // 8-byte payload, 2 present
        out.write(partial, sizeof partial);
    }
    EXPECT_EQ(tail.poll(nullptr), 0u) << "incomplete frame must not be delivered";

    // The writer finishes the payload: exactly one record appears. (The
    // CRC is wrong on purpose — completion must surface it as a checksum
    // skip, proving the frame was re-examined, not silently dropped.)
    {
        std::ofstream out(segments[0], std::ios::binary | std::ios::app);
        out.write("aaaaaa", 6);
    }
    EXPECT_EQ(tail.poll(nullptr), 0u);
    EXPECT_EQ(tail.stats().crc_failures, 1u);
}

TEST(SegmentTail, MaxRecordsBoundsOnePoll) {
    ScratchDir dir("tail_bound");
    siren::storage::SegmentStore store(dir.path(), 1);
    for (int i = 0; i < 10; ++i) store.append(0, "r" + std::to_string(i));
    store.sync_all();

    sv::SegmentTail tail(dir.path());
    EXPECT_EQ(tail.poll(nullptr, 4), 4u);
    EXPECT_EQ(tail.poll(nullptr, 4), 4u);
    EXPECT_EQ(tail.poll(nullptr, 4), 2u);
    EXPECT_EQ(tail.stats().records, 10u);
}

// ---------------------------------------------------------------------------
// RecognitionService — snapshot swap and the write path

TEST(RecognitionService, ObserveThenIdentify) {
    sv::RecognitionService service(fast_options());
    siren::util::Rng rng(11);
    const auto blob = rng.bytes(8192);
    const auto digest = sf::fuzzy_hash(blob);

    EXPECT_FALSE(service.identify(digest).has_value()) << "empty registry knows nothing";

    const auto applied = service.observe_sync(digest, "icon");
    EXPECT_TRUE(applied.new_family);
    EXPECT_EQ(applied.name, "icon");

    const auto match = service.identify(digest);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->name, "icon");
    EXPECT_EQ(match->score, 100);
    EXPECT_EQ(match->family, applied.family);
}

TEST(RecognitionService, AsyncObserveVisibleAfterFlush) {
    sv::RecognitionService service(fast_options());
    siren::util::Rng rng(13);
    const auto digest = sf::fuzzy_hash(rng.bytes(8192));

    const auto seq = service.observe(digest, "amber");
    ASSERT_TRUE(seq.has_value());
    service.flush();
    EXPECT_GE(service.applied_seq(), *seq);
    const auto match = service.identify(digest);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->name, "amber");
}

TEST(RecognitionService, SnapshotIsImmutableUnderLaterWrites) {
    sv::RecognitionService service(fast_options());
    siren::util::Rng rng(17);
    const auto digest_a = sf::fuzzy_hash(rng.bytes(8192));
    const auto digest_b = sf::fuzzy_hash(rng.bytes(8192));
    service.observe_sync(digest_a, "first");

    const auto snap = service.snapshot();
    ASSERT_EQ(snap->registry.family_count(), 1u);

    service.observe_sync(digest_b, "second");
    EXPECT_EQ(snap->registry.family_count(), 1u)
        << "a held snapshot must never see later writes";
    EXPECT_EQ(service.snapshot()->registry.family_count(), 2u);
    EXPECT_GT(service.snapshot()->version, snap->version);
}

TEST(RecognitionService, TopNAndIdentifyManyAgainstOneSnapshot) {
    sv::RecognitionService service(fast_options());
    siren::util::Rng rng(19);
    const auto base = rng.bytes(16384);
    const auto drifted = mutate_region(base, 3000, 600, 20);
    const auto unrelated = rng.bytes(16384);
    service.observe_sync(sf::fuzzy_hash(base), "gromacs");
    service.observe_sync(sf::fuzzy_hash(unrelated), "lammps");

    const auto top = service.identify(
        sv::DigestProbe{.content = sf::fuzzy_hash(drifted), .behavior = std::nullopt, .k = 5});
    ASSERT_GE(top.size(), 1u);
    EXPECT_EQ(top.front().name, "gromacs");
    EXPECT_EQ(top.front().content_score, top.front().score);

    siren::util::ThreadPool pool(2);
    const std::vector<sf::FuzzyDigest> probes = {
        sf::fuzzy_hash(base), sf::fuzzy_hash(unrelated), sf::fuzzy_hash(rng.bytes(4096))};
    const auto serial = service.identify_many(probes);
    const auto parallel = service.identify_many(probes, &pool);
    ASSERT_EQ(serial.size(), 3u);
    ASSERT_TRUE(serial[0] && serial[1]);
    EXPECT_FALSE(serial[2]);
    for (std::size_t i = 0; i < probes.size(); ++i) {
        ASSERT_EQ(serial[i].has_value(), parallel[i].has_value()) << i;
        if (serial[i]) {
            EXPECT_EQ(serial[i]->family, parallel[i]->family);
            EXPECT_EQ(serial[i]->score, parallel[i]->score);
        }
    }
}

TEST(RecognitionService, ConcurrentIdentifyUnderWriteLoad) {
    // The tentpole property: identify answers stay correct and available
    // while a writer storm runs. (Latency independence is measured by
    // bench_serve_qps; here we pin correctness.)
    sv::RecognitionService service(fast_options());
    siren::util::Rng rng(23);
    const auto known = sf::fuzzy_hash(rng.bytes(16384));
    service.observe_sync(known, "stable");

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        siren::util::Rng wrng(29);
        while (!stop.load(std::memory_order_relaxed)) {
            for (int burst = 0; burst < 16; ++burst) {
                service.observe(sf::fuzzy_hash(wrng.bytes(2048)));
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });

    // Keep identifying until the writer demonstrably landed a batch (on a
    // single-core box a fixed iteration count can finish before the writer
    // thread is ever scheduled), with a deadline as the backstop.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::uint64_t probes = 0;
    while (service.counters().observes_applied < 64 &&
           std::chrono::steady_clock::now() < deadline) {
        const auto match = service.identify(known);
        ASSERT_TRUE(match.has_value()) << "identify " << probes << " lost a known family";
        EXPECT_EQ(match->name, "stable");
        EXPECT_EQ(match->score, 100);
        ++probes;
    }
    stop.store(true);
    writer.join();
    service.flush();
    EXPECT_GE(service.counters().observes_applied, 64u) << "writer starved for 10s";
    EXPECT_GT(service.snapshot()->registry.family_count(), 1u) << "writer storm did land";
    EXPECT_GT(probes, 0u);
}

// ---------------------------------------------------------------------------
// Feed path: ingest segments flow into the live registry

TEST(RecognitionService, FeedsFromSegmentsAndFollows) {
    ScratchDir dir("feed");
    siren::util::Rng rng(31);
    const auto blob_a = rng.bytes(8192);
    const auto blob_b = rng.bytes(8192);

    siren::storage::SegmentStore store(dir.path(), 1);
    store.append(0, file_hash_datagram(sf::fuzzy_hash(blob_a)));
    store.append(0, "not a siren datagram at all");
    store.sync_all();

    auto options = fast_options();
    options.segments_dir = dir.path();
    sv::RecognitionService service(options);

    // The pre-existing record was replayed during construction.
    EXPECT_TRUE(service.identify(sf::fuzzy_hash(blob_a)).has_value());
    EXPECT_EQ(service.counters().feed_malformed, 1u);

    // New records appended while the service runs are followed live.
    store.append(0, file_hash_datagram(sf::fuzzy_hash(blob_b)));
    store.sync_all();
    service.flush();
    const auto match = service.identify(sf::fuzzy_hash(blob_b));
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(service.counters().feed_file_hashes, 2u);
}

// ---------------------------------------------------------------------------
// Writer wake-ups: an eventfd for client calls, inotify on segments_dir,
// feed_poll only as the fallback

namespace {

/// Wait up to `limit` for `done`; true when it held in time.
bool eventually(std::chrono::milliseconds limit, const std::function<bool()>& done) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (!done()) {
        if (std::chrono::steady_clock::now() >= deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/// Whether this process can create an inotify instance right now (the
/// per-user instance limit may be exhausted by other processes); without
/// one the service follows its directory by the timed poll alone.
bool inotify_available() {
    const int fd = ::inotify_init1(IN_CLOEXEC);
    if (fd < 0) return false;
    ::close(fd);
    return true;
}

/// Options whose timed feed poll never fires within a test.
sv::ServeOptions push_only_options(const std::string& segments_dir) {
    auto options = fast_options();
    options.segments_dir = segments_dir;
    options.feed_poll = std::chrono::seconds(60);
    return options;
}

/// Process CPU burned while the calling thread sleeps for 500 ms.
std::chrono::microseconds cpu_over_half_a_second() {
    const auto before = listener_checks::cpu_time();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    return listener_checks::cpu_time() - before;
}

}  // namespace

TEST(RecognitionService, SegmentAppendWakesTheWriterWithoutTheTimedPoll) {
    if (!inotify_available()) GTEST_SKIP() << "no inotify instance available";
    ScratchDir dir("push");
    siren::storage::SegmentStore store(dir.path(), 1);
    sv::RecognitionService service(push_only_options(dir.path()));
    // Past the writer's first cycle, whose poll would find the record anyway.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    siren::util::Rng rng(47);
    const auto digest = sf::fuzzy_hash(rng.bytes(8192));
    store.append(0, file_hash_datagram(digest));
    store.sync_all();
    EXPECT_TRUE(eventually(std::chrono::seconds(1),
                           [&] { return service.identify(digest).has_value(); }))
        << "a record appended to segments_dir must not wait for the 60 s feed poll";
}

TEST(RecognitionService, BacklogBeyondFeedBatchMaxAppliesWithoutFurtherWrites) {
    if (!inotify_available()) GTEST_SKIP() << "no inotify instance available";
    ScratchDir dir("backlog");
    siren::storage::SegmentStore store(dir.path(), 1);
    auto options = push_only_options(dir.path());
    options.feed_batch_max = 16;
    sv::RecognitionService service(options);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // One write() carries every record: a single directory change for
    // three polls' worth of records.
    siren::util::Rng rng(53);
    constexpr std::uint64_t kRecords = 3 * 16;
    for (std::uint64_t i = 0; i < kRecords; ++i) {
        store.append(0, file_hash_datagram(sf::fuzzy_hash(rng.bytes(8192)), i));
    }
    store.sync_all();
    EXPECT_TRUE(eventually(std::chrono::seconds(1), [&] {
        return service.counters().feed_file_hashes == kRecords;
    })) << "applied " << service.counters().feed_file_hashes << " of " << kRecords
        << ": a poll that stopped at feed_batch_max must poll again at once";
}

TEST(RecognitionService, SegmentsDirCreatedAfterStartIsFollowedByTheFallbackPoll) {
    ScratchDir dir("fallback");
    const auto segments = dir.sub("not-yet");
    auto options = fast_options();
    options.segments_dir = segments;
    options.feed_poll = std::chrono::milliseconds(20);
    std::unique_ptr<sv::RecognitionService> service;
    ASSERT_NO_THROW(service = std::make_unique<sv::RecognitionService>(options))
        << "a directory inotify cannot watch yet is not an error";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    siren::storage::SegmentStore store(segments, 1);
    siren::util::Rng rng(59);
    const auto first = sf::fuzzy_hash(rng.bytes(8192));
    store.append(0, file_hash_datagram(first));
    store.sync_all();
    EXPECT_TRUE(eventually(std::chrono::seconds(2),
                           [&] { return service->identify(first).has_value(); }));

    // The fallback poll re-armed the watch: later appends keep arriving.
    const auto second = sf::fuzzy_hash(rng.bytes(8192));
    store.append(0, file_hash_datagram(second));
    store.sync_all();
    EXPECT_TRUE(eventually(std::chrono::seconds(2),
                           [&] { return service->identify(second).has_value(); }));
}

TEST(RecognitionService, IdleWriterSleeps) {
    {
        sv::RecognitionService service(fast_options());
        const auto burned = cpu_over_half_a_second();
        EXPECT_LT(burned.count(), 50'000)
            << "a service without segments_dir burned " << burned.count() / 1000
            << " ms of CPU in 500 idle ms";
    }
    ScratchDir dir("idle");
    siren::storage::SegmentStore store(dir.path(), 1);
    auto options = fast_options();
    options.segments_dir = dir.path();
    options.feed_poll = std::chrono::milliseconds(20);
    sv::RecognitionService service(options);
    const auto burned = cpu_over_half_a_second();
    EXPECT_LT(burned.count(), 50'000) << "a service following segments_dir burned "
                                      << burned.count() / 1000 << " ms of CPU in 500 idle ms";
}

TEST(RecognitionService, IdleWriterKeepsItsCheckpointTimer) {
    ScratchDir dir("timer");
    auto options = fast_options();
    options.checkpoint_path = dir.sub("registry.ckpt");
    options.checkpoint_interval = std::chrono::milliseconds(50);
    sv::RecognitionService service(options);
    EXPECT_TRUE(eventually(std::chrono::seconds(2),
                           [&] { return service.counters().checkpoints >= 2; }))
        << "an idle writer must still wake for the periodic checkpoint";
}

TEST(RecognitionService, FailingPublishRetriesWithoutSpinning) {
    namespace fp = siren::util::failpoint;
    if (!fp::compiled_in()) {
        GTEST_SKIP() << "build carries no failpoint hooks (SIREN_FAILPOINTS=OFF)";
    }
    fp::clear();
    struct ClearFailpoints {
        ~ClearFailpoints() { fp::clear(); }
    } clear_after;
    sv::RecognitionService service(fast_options());
    siren::util::Rng rng(61);
    const auto digest = sf::fuzzy_hash(rng.bytes(8192));

    fp::activate("serve.publish.copy", "error(5)");
    ASSERT_TRUE(service.observe(digest, "pending").has_value());
    ASSERT_TRUE(eventually(std::chrono::seconds(2),
                           [&] { return service.counters().publish_errors > 0; }));
    const auto burned = cpu_over_half_a_second();
    EXPECT_LT(burned.count(), 50'000)
        << "a writer retrying a failing publish burned " << burned.count() / 1000
        << " ms of CPU in 500 ms";
    EXPECT_FALSE(service.identify(digest).has_value()) << "no publish got through";

    fp::clear();
    service.flush();
    EXPECT_TRUE(service.identify(digest).has_value()) << "the retry publishes once it can";
}

// ---------------------------------------------------------------------------
// Checkpoint + recovery

TEST(RecognitionService, CheckpointRoundTripPreservesRegistry) {
    ScratchDir dir("ckpt");
    const auto ckpt = dir.sub("registry.ckpt");
    siren::util::Rng rng(37);
    const auto digest = sf::fuzzy_hash(rng.bytes(8192));

    {
        auto options = fast_options();
        options.checkpoint_path = ckpt;
        sv::RecognitionService service(options);
        service.observe_sync(digest, "icon");
        std::string error;
        ASSERT_TRUE(service.checkpoint_now(&error)) << error;
        ASSERT_TRUE(fs::exists(ckpt));
        service.stop();
    }

    auto options = fast_options();
    options.checkpoint_path = ckpt;
    sv::RecognitionService restored(options);
    const auto match = restored.identify(digest);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->name, "icon");
    EXPECT_EQ(restored.snapshot()->applied, 1u);
}

TEST(RecognitionService, CorruptCheckpointIsLoudNotSilent) {
    ScratchDir dir("ckpt_bad");
    const auto ckpt = dir.sub("registry.ckpt");
    {
        std::ofstream out(ckpt);
        out << "SIRENCKPT 1\napplied zero\nregistry\n";
    }
    auto options = fast_options();
    options.checkpoint_path = ckpt;
    EXPECT_THROW(sv::RecognitionService{options}, siren::util::ParseError);
    {
        std::ofstream out(ckpt, std::ios::trunc);
        out << "not a checkpoint\n";
    }
    EXPECT_THROW(sv::RecognitionService{options}, siren::util::ParseError);
}

TEST(RecognitionService, CrashRecoveryReplaysSegmentsPastWatermark) {
    // The acceptance flow: feed from segments with checkpointing, "crash"
    // (recover from a mid-run checkpoint, discarding the later one), and
    // converge to the same family assignments via watermark replay.
    ScratchDir dir("recover");
    const auto segments = dir.sub("segments");
    const auto ckpt = dir.sub("registry.ckpt");
    const auto ckpt_saved = dir.sub("registry.ckpt.crashpoint");

    siren::util::Rng rng(41);
    std::vector<sf::FuzzyDigest> corpus;
    for (int fam = 0; fam < 4; ++fam) {
        const auto base = rng.bytes(8192);
        corpus.push_back(sf::fuzzy_hash(base));
        corpus.push_back(sf::fuzzy_hash(mutate_region(base, 2000, 300,
                                                      static_cast<std::uint64_t>(fam) + 100)));
    }

    siren::storage::SegmentStore store(segments, 1);
    std::vector<std::pair<siren::recognize::FamilyId, std::string>> live_assignments;
    {
        auto options = fast_options();
        options.segments_dir = segments;
        options.checkpoint_path = ckpt;
        sv::RecognitionService service(options);

        // Phase 1: half the corpus flows through the feed, then checkpoint.
        for (std::size_t i = 0; i < corpus.size() / 2; ++i) {
            store.append(0, file_hash_datagram(corpus[i]));
        }
        store.sync_all();
        service.flush();
        std::string error;
        ASSERT_TRUE(service.checkpoint_now(&error)) << error;
        fs::copy_file(ckpt, ckpt_saved);  // the state a crash would rewind to

        // Phase 2: the rest arrives after the checkpoint.
        for (std::size_t i = corpus.size() / 2; i < corpus.size(); ++i) {
            store.append(0, file_hash_datagram(corpus[i]));
        }
        store.sync_all();
        service.flush();
        for (const auto& digest : corpus) {
            const auto match = service.identify(digest);
            ASSERT_TRUE(match.has_value());
            live_assignments.emplace_back(match->family, match->name);
        }
        service.stop();
    }

    // Crash simulation: the shutdown checkpoint is lost; only the mid-run
    // one survives. Recovery = that checkpoint + replay past its watermark.
    fs::copy_file(ckpt_saved, ckpt, fs::copy_options::overwrite_existing);
    auto options = fast_options();
    options.segments_dir = segments;
    options.checkpoint_path = ckpt;
    sv::RecognitionService recovered(options);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const auto match = recovered.identify(corpus[i]);
        ASSERT_TRUE(match.has_value()) << "probe " << i << " lost after recovery";
        EXPECT_EQ(match->family, live_assignments[i].first) << "probe " << i;
        EXPECT_EQ(match->name, live_assignments[i].second) << "probe " << i;
    }
    EXPECT_EQ(recovered.snapshot()->registry.total_sightings(), corpus.size());

    // The recovered service keeps following the same segment stream.
    const auto late = sf::fuzzy_hash(rng.bytes(8192));
    store.append(0, file_hash_datagram(late));
    store.sync_all();
    recovered.flush();
    EXPECT_TRUE(recovered.identify(late).has_value());
}

// ---------------------------------------------------------------------------
// Query protocol (no sockets)

TEST(QueryProtocol, FramingRoundTripAndLimit) {
    std::string buffer;
    sv::append_frame(buffer, "IDENTIFY x");
    sv::append_frame(buffer, "STATS");

    std::size_t consumed = 0;
    auto first = sv::parse_frame(buffer, consumed);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, "IDENTIFY x");
    buffer.erase(0, consumed);
    auto second = sv::parse_frame(buffer, consumed);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(*second, "STATS");
    buffer.erase(0, consumed);
    EXPECT_FALSE(sv::parse_frame(buffer, consumed).has_value());

    std::string huge(4, '\xFF');  // length field = 0xFFFFFFFF
    EXPECT_THROW(sv::parse_frame(huge, consumed), siren::util::ParseError);
}

TEST(QueryProtocol, ExecuteQueryVerbsAndErrors) {
    sv::RecognitionService service(fast_options());
    siren::util::Rng rng(43);
    const auto digest = sf::fuzzy_hash(rng.bytes(8192));
    const auto digest_str = digest.to_string();

    EXPECT_EQ(sv::execute_query(service, "IDENTIFY C " + digest_str), "OK 0\n");
    const auto observed = sv::execute_query(service, "OBSERVE " + digest_str + " icon");
    EXPECT_TRUE(observed.starts_with("OK ")) << observed;
    EXPECT_NE(observed.find(" new icon"), std::string::npos) << observed;
    // One reply shape for every probe: counted, one fused line per family
    // ("match family fused content behavior name").
    const auto identified = sv::execute_query(service, "IDENTIFY C " + digest_str);
    EXPECT_TRUE(identified.starts_with("OK 1\nmatch ")) << identified;
    EXPECT_TRUE(identified.ends_with(" 100 100 0 icon\n")) << identified;
    EXPECT_EQ(sv::execute_query(service, "IDENTIFY C " + digest_str + " 1"), identified)
        << "k defaults to 1";
    EXPECT_TRUE(sv::execute_query(service, "IDENTIFY C " + digest_str + " 3")
                    .starts_with("OK 1\n"));
    // STATS is a versioned key=value schema; assert through the parser,
    // not byte offsets, so added keys never break this test.
    const auto stats = sv::parse_stats(sv::execute_query(service, "STATS"));
    EXPECT_EQ(stats.get("stats_version"), sv::kStatsVersion);
    EXPECT_EQ(stats.role, "leader");
    EXPECT_EQ(stats.get("families"), 1u);

    EXPECT_TRUE(sv::execute_query(service, "").starts_with("ERR"));
    EXPECT_TRUE(sv::execute_query(service, "FROBNICATE x").starts_with("ERR"));
    EXPECT_TRUE(sv::execute_query(service, "IDENTIFY").starts_with("ERR"));
    EXPECT_TRUE(sv::execute_query(service, "IDENTIFY " + digest_str).starts_with("ERR"))
        << "a probe digest needs its channel tag";
    EXPECT_TRUE(sv::execute_query(service, "IDENTIFY C not-a-digest").starts_with("ERR"));
    EXPECT_TRUE(
        sv::execute_query(service, "IDENTIFY C " + digest_str + " zero").starts_with("ERR"));
    EXPECT_TRUE(sv::execute_query(service, "IDENTIFY C " + digest_str + " 0").starts_with("ERR"));
    EXPECT_TRUE(sv::execute_query(service, "IDENTIFY C " + digest_str + " " + digest_str)
                    .starts_with("ERR"));
    EXPECT_TRUE(sv::execute_query(service, "CHECKPOINT").starts_with("ERR"))
        << "no checkpoint path configured";
}

// ---------------------------------------------------------------------------
// TCP server + client

TEST(QueryServer, EndToEndOverTcp) {
    sv::RecognitionService service(fast_options());
    sv::QueryServer server(service);
    ASSERT_NE(server.port(), 0);

    siren::util::Rng rng(47);
    const auto base = rng.bytes(16384);
    const auto digest_str = sf::fuzzy_hash(base).to_string();

    sv::QueryClient client("127.0.0.1", server.port());
    EXPECT_TRUE(client.identify(content_probe(digest_str)).empty());

    const auto observed = client.observe(digest_str, "icon");
    EXPECT_TRUE(observed.new_family);
    EXPECT_EQ(observed.name, "icon");

    // A label with a space is legal for the registry ("Open_MPI" after its
    // name mapping); the client applies that mapping instead of producing
    // a malformed two-token protocol hint.
    const auto spaced =
        client.observe(sf::fuzzy_hash(rng.bytes(16384)).to_string(), "Open MPI");
    EXPECT_EQ(spaced.name, "Open_MPI");

    const auto match = client.identify(content_probe(digest_str));
    ASSERT_EQ(match.size(), 1u);
    EXPECT_EQ(match.front().name, "icon");
    EXPECT_EQ(match.front().score, 100);

    const auto top = client.identify(content_probe(digest_str, 2));
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top.front().name, "icon");

    const auto stats = client.stats_text();
    EXPECT_NE(stats.find("families 2\n"), std::string::npos) << stats;

    EXPECT_TRUE(client.request("FROBNICATE").starts_with("ERR"));

    server.stop();
    EXPECT_GE(server.stats().requests, 6u);
    EXPECT_EQ(server.stats().connections, 1u);
}

TEST(QueryServer, BatchIdentifyAndConcurrentClientsUnderWrites) {
    auto options = fast_options();
    options.batch_pool_threads = 2;
    sv::RecognitionService service(options);
    sv::QueryServer server(service);

    siren::util::Rng rng(53);
    const auto blob_a = rng.bytes(16384);
    const auto blob_b = rng.bytes(16384);
    const auto str_a = sf::fuzzy_hash(blob_a).to_string();
    const auto str_b = sf::fuzzy_hash(blob_b).to_string();
    {
        sv::QueryClient seed("127.0.0.1", server.port());
        seed.observe(str_a, "alpha");
        seed.observe(str_b, "beta");
    }

    // A writer keeps the registry hot while two clients query.
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        siren::util::Rng wrng(59);
        while (!stop.load(std::memory_order_relaxed)) {
            service.observe(sf::fuzzy_hash(wrng.bytes(2048)));
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });

    std::atomic<int> failures{0};
    const auto client_loop = [&](const std::string& digest, const std::string& expected) {
        try {
            sv::QueryClient client("127.0.0.1", server.port());
            for (int i = 0; i < 50; ++i) {
                const auto match = client.identify(content_probe(digest));
                if (match.size() != 1 || match.front().name != expected) {
                    failures.fetch_add(1);
                    return;
                }
                const auto many = client.identify_many({digest, "3:zzzzzzz:zzzzzzz", digest});
                if (many.size() != 3 || !many[0] || many[1] || !many[2] ||
                    many[0]->name != expected) {
                    failures.fetch_add(1);
                    return;
                }
            }
        } catch (const std::exception&) {
            failures.fetch_add(1);
        }
    };
    std::thread c1(client_loop, str_a, "alpha");
    std::thread c2(client_loop, str_b, "beta");
    c1.join();
    c2.join();
    stop.store(true);
    writer.join();
    EXPECT_EQ(failures.load(), 0) << "a concurrent identify saw a wrong/missing answer";
    EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST(QueryProtocol, IdentifybAlwaysAnswersCounted) {
    sv::RecognitionService service(fast_options());
    siren::util::Rng rng(61);
    const auto digest_str = sf::fuzzy_hash(rng.bytes(8192)).to_string();

    // Counted framing even for one digest — the uniformity IDENTIFYB exists
    // for (QueryClient's truncation check relies on it).
    EXPECT_EQ(sv::execute_query(service, "IDENTIFYB " + digest_str), "OK 1\nunknown\n");
    sv::execute_query(service, "OBSERVE " + digest_str + " icon");
    const auto reply = sv::execute_query(service, "IDENTIFYB " + digest_str);
    EXPECT_TRUE(reply.starts_with("OK 1\nmatch ")) << reply;
    EXPECT_NE(reply.find("icon"), std::string::npos);

    const auto both =
        sv::execute_query(service, "IDENTIFYB " + digest_str + " 3:zzzzzzz:zzzzzzz");
    EXPECT_TRUE(both.starts_with("OK 2\nmatch ")) << both;
    EXPECT_NE(both.find("\nunknown\n"), std::string::npos) << both;

    EXPECT_TRUE(sv::execute_query(service, "IDENTIFYB").starts_with("ERR"));
}

TEST(QueryServer, GarbageFrameDropsConnectionNotServer) {
    sv::RecognitionService service(fast_options());
    sv::QueryServer server(service);

    {
        // Raw socket speaking garbage: a length field beyond the limit.
        sv::QueryClient bad("127.0.0.1", server.port());
        EXPECT_THROW((void)bad.request(std::string(2 << 20, 'x')), siren::util::Error);
    }
    // The server survives and keeps answering well-formed clients.
    sv::QueryClient good("127.0.0.1", server.port());
    EXPECT_TRUE(good.request("STATS").starts_with("OK"));
    server.stop();
    EXPECT_GE(server.stats().protocol_errors, 1u);
}

// ---------------------------------------------------------------------------
// Pipelined requests: replies leave in request order

namespace {

/// Raw sockets for protocol-level tests that need pipelining or a stub
/// server — things QueryClient's one-request-at-a-time API deliberately
/// does not expose.
using listener_checks::raw_connect;

/// Read until `count` complete frames arrive; returns their payloads.
std::vector<std::string> read_frames(int fd, std::size_t count) {
    std::vector<std::string> frames;
    std::string buffer;
    char buf[4096];
    while (frames.size() < count) {
        std::size_t consumed = 0;
        const auto payload = sv::parse_frame(buffer, consumed);
        if (payload) {
            frames.emplace_back(*payload);
            buffer.erase(0, consumed);
            continue;
        }
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) break;  // peer closed: return what we have
        buffer.append(buf, static_cast<std::size_t>(n));
    }
    return frames;
}

}  // namespace

TEST(QueryServer, ConcurrentSingletonsMatchSequentialAnswers) {
    sv::RecognitionService service(fast_options());

    siren::util::Rng rng(71);
    std::vector<std::string> known;
    for (int fam = 0; fam < 6; ++fam) {
        const auto base = rng.bytes(16384);
        service.observe_sync(sf::fuzzy_hash(base), "fam" + std::to_string(fam));
        known.push_back(sf::fuzzy_hash(base).to_string());
        known.push_back(sf::fuzzy_hash(mutate_region(base, 2000, 400,
                                                     static_cast<std::uint64_t>(fam)))
                            .to_string());
    }
    known.push_back(sf::fuzzy_hash(rng.bytes(4096)).to_string());  // unknown probe

    // The oracle: the single-threaded in-process answer per digest. No
    // writers run, so the snapshot cannot move under the clients.
    std::vector<std::optional<sv::Identified>> expected;
    for (const auto& digest : known) {
        expected.push_back(service.identify(sf::FuzzyDigest::parse(digest)));
    }

    sv::QueryServer server(service);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 8; ++t) {
        clients.emplace_back([&, t] {
            try {
                sv::QueryClient client("127.0.0.1", server.port());
                for (int i = 0; i < 20; ++i) {
                    const std::size_t pick =
                        (static_cast<std::size_t>(t) * 20 + static_cast<std::size_t>(i)) %
                        known.size();
                    const auto match = client.identify(content_probe(known[pick]));
                    const auto& want = expected[pick];
                    if (match.size() != (want ? 1u : 0u) ||
                        (want && (match.front().family != want->family ||
                                  match.front().score != want->score ||
                                  match.front().name != want->name))) {
                        mismatches.fetch_add(1);
                        return;
                    }
                }
            } catch (const std::exception&) {
                mismatches.fetch_add(1);
            }
        });
    }
    for (auto& c : clients) c.join();
    server.stop();
    EXPECT_EQ(mismatches.load(), 0) << "a concurrent singleton got a non-sequential answer";
    EXPECT_EQ(server.stats().requests, 160u);
}

TEST(QueryServer, PipelinedIdentifiesReplyInOrder) {
    sv::RecognitionService service(fast_options());
    siren::util::Rng rng(73);
    std::vector<std::string> digests;
    for (int i = 0; i < 5; ++i) {
        const auto blob = rng.bytes(8192);
        service.observe_sync(sf::fuzzy_hash(blob), "pipe" + std::to_string(i));
        digests.push_back(sf::fuzzy_hash(blob).to_string());
    }
    sv::QueryServer server(service);

    // One write carrying five IDENTIFY frames plus a trailing STATS: the
    // server executes them inline, one frame at a time, so replies come
    // back strictly in request order.
    const int fd = raw_connect(server.port());
    ASSERT_GE(fd, 0);
    std::string burst;
    for (const auto& digest : digests) sv::append_frame(burst, "IDENTIFY C " + digest);
    sv::append_frame(burst, "STATS");
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0),
              static_cast<ssize_t>(burst.size()));

    const auto replies = read_frames(fd, 6);
    ::close(fd);
    ASSERT_EQ(replies.size(), 6u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(replies[static_cast<std::size_t>(i)].starts_with("OK 1\nmatch "))
            << replies[i];
        EXPECT_NE(replies[static_cast<std::size_t>(i)].find("pipe" + std::to_string(i)),
                  std::string::npos)
            << "reply " << i << " out of order: " << replies[i];
    }
    const auto stats = sv::parse_stats(replies[5]);
    EXPECT_EQ(stats.role, "leader") << replies[5];
    EXPECT_EQ(stats.get("stats_version"), sv::kStatsVersion) << replies[5];
    EXPECT_EQ(stats.get("verb_identify"), 5u) << replies[5];
    EXPECT_NE(replies[5].find("\nsimd_level "), std::string::npos) << replies[5];
    server.stop();
}

TEST(QueryServer, PipelinedMalformedDigestAnswersInOrder) {
    sv::RecognitionService service(fast_options());
    siren::util::Rng rng(79);
    const auto digest_str = sf::fuzzy_hash(rng.bytes(8192)).to_string();
    service.observe_sync(sf::FuzzyDigest::parse(digest_str), "icon");
    sv::QueryServer server(service);

    const int fd = raw_connect(server.port());
    ASSERT_GE(fd, 0);
    std::string burst;
    sv::append_frame(burst, "IDENTIFY C " + digest_str);
    sv::append_frame(burst, "IDENTIFY C not-a-digest");
    sv::append_frame(burst, "IDENTIFYB " + digest_str);
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), 0),
              static_cast<ssize_t>(burst.size()));
    const auto replies = read_frames(fd, 3);
    ::close(fd);
    server.stop();
    ASSERT_EQ(replies.size(), 3u);
    EXPECT_TRUE(replies[0].starts_with("OK 1\nmatch ")) << replies[0];
    EXPECT_TRUE(replies[1].starts_with("ERR")) << replies[1];
    EXPECT_TRUE(replies[2].starts_with("OK 1\nmatch "))
        << "a one-digest IDENTIFYB keeps counted framing: " << replies[2];
}

// ---------------------------------------------------------------------------
// QueryClient::identify_many single-probe framing

TEST(QueryClient, IdentifyManyOfOneMatchesIdentify) {
    sv::RecognitionService service(fast_options());
    siren::util::Rng rng(83);
    const auto digest_str = sf::fuzzy_hash(rng.bytes(8192)).to_string();
    service.observe_sync(sf::FuzzyDigest::parse(digest_str), "solo");
    sv::QueryServer server(service);

    sv::QueryClient client("127.0.0.1", server.port());
    const auto single = client.identify(content_probe(digest_str));
    const auto many = client.identify_many({digest_str});
    ASSERT_EQ(many.size(), 1u);
    ASSERT_EQ(single.size(), 1u);
    ASSERT_TRUE(many[0]);
    EXPECT_EQ(many[0]->family, single.front().family);
    EXPECT_EQ(many[0]->score, single.front().score);
    EXPECT_EQ(many[0]->name, single.front().name);

    const auto unknown = client.identify_many({"3:zzzzzzz:zzzzzzz"});
    ASSERT_EQ(unknown.size(), 1u);
    EXPECT_FALSE(unknown[0].has_value());
}

TEST(QueryClient, IdentifyManyOfOneDetectsTruncatedReply) {
    // Regression: the old single-element shortcut answered through bare
    // IDENTIFY framing, so a batch reply cut off after its header passed
    // undetected for exactly one probe. A stub server that advertises one
    // result and sends none must now trip the truncation check.
    const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(listener, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    ASSERT_EQ(::listen(listener, 1), 0);
    socklen_t len = sizeof addr;
    ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
    const std::uint16_t port = ntohs(addr.sin_port);

    std::string seen_request;
    std::thread stub([&] {
        const int conn = ::accept(listener, nullptr, nullptr);
        char buf[512];
        const ssize_t n = ::recv(conn, buf, sizeof buf, 0);
        if (n > 4) seen_request.assign(buf + 4, static_cast<std::size_t>(n) - 4);
        std::string reply;
        sv::append_frame(reply, "OK 1\n");  // header promises a line, body missing
        (void)::send(conn, reply.data(), reply.size(), MSG_NOSIGNAL);
        ::close(conn);
    });

    sv::QueryClient client("127.0.0.1", port);
    try {
        (void)client.identify_many({"3:abcdefg:hijklmn"});
        FAIL() << "truncated counted reply must throw";
    } catch (const siren::util::Error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
    }
    stub.join();
    ::close(listener);
    EXPECT_TRUE(seen_request.starts_with("IDENTIFYB "))
        << "single-probe identify_many must use counted framing: " << seen_request;
}

// ---------------------------------------------------------------------------
// fd exhaustion at the accept seam

TEST(QueryServer, FdExhaustionStallsAcceptThenRecovers) {
    sv::RecognitionService service(fast_options());
    sv::QueryServer server(service);
    ASSERT_NE(server.port(), 0);

    {  // sanity: the server accepts and answers before the squeeze
        sv::QueryClient client("127.0.0.1", server.port());
        EXPECT_NE(client.stats_text().find("families"), std::string::npos);
    }
    listener_checks::fd_exhaustion_drill({
        .port = server.port(),
        .accepted = [&] { return server.stats().connections; },
        .accept_stalls = [&] { return server.stats().accept_stalls; },
        .serves =
            [](int pending) {
                ASSERT_TRUE(listener_checks::send_frame(pending, "STATS"));
                const auto reply = listener_checks::read_frame(pending);
                ASSERT_TRUE(reply.has_value())
                    << "a connection accepted after the stall must be fully served";
                EXPECT_TRUE(reply->starts_with("OK\n")) << *reply;
            },
    });
}

TEST(QueryServer, ConnectionCapClosesTheNextConnection) {
    sv::RecognitionService service(fast_options());
    sv::QueryServer server(service);
    std::vector<int> clients;
    for (int i = 0; i < 256; ++i) {
        clients.push_back(raw_connect(server.port()));
        ASSERT_GE(clients.back(), 0);
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.stats().connections < 256 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(server.stats().connections, 256u);

    const int extra = raw_connect(server.port());
    ASSERT_GE(extra, 0);
    EXPECT_TRUE(listener_checks::closed_by_server(extra))
        << "the 257th connection must be closed at accept";
    ::close(extra);
    EXPECT_EQ(server.stats().rejected, 1u);

    // The connections under the cap are still served.
    ASSERT_TRUE(listener_checks::send_frame(clients.back(), "STATS"));
    const auto reply = listener_checks::read_frame(clients.back());
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(reply->starts_with("OK\n")) << *reply;
    for (const int fd : clients) ::close(fd);
}

// ---------------------------------------------------------------------------
// Overload shedding

TEST(QueryProtocol, ObserveShedsWhenWriterQueueSaturated) {
    auto options = fast_options();
    options.shed.shed_queue_depth = 1;  // any pending observe triggers the shed
    sv::RecognitionService service(options);

    siren::util::Rng rng(101);
    const auto probe = sf::fuzzy_hash(rng.bytes(8192)).to_string();
    EXPECT_TRUE(sv::execute_query(service, "OBSERVE " + probe + " calm").starts_with("OK"))
        << "an idle service admits observes";

    // Saturate the writer queue; the network path must shed with the typed
    // marker instead of blocking the (single-threaded) event loop behind
    // the backlog. The enqueues are async, so the queue genuinely backs up.
    for (int i = 0; i < 512; ++i) {
        service.observe(sf::fuzzy_hash(rng.bytes(2048)));
    }
    const auto shed = sv::execute_query(service, "OBSERVE " + probe + " storm");
    ASSERT_TRUE(shed.starts_with("ERR overloaded")) << shed;
    EXPECT_GE(service.counters().observes_shed, 1u);

    // In-process callers are never shed — the queue keeps accepting.
    EXPECT_TRUE(service.observe(sf::fuzzy_hash(rng.bytes(2048))).has_value());

    // Once the backlog drains, the same request is admitted again, and
    // STATS carries the shed count for operators.
    service.flush();
    EXPECT_TRUE(sv::execute_query(service, "OBSERVE " + probe + " after").starts_with("OK"));
    const auto stats = sv::execute_query(service, "STATS");
    EXPECT_NE(stats.find("observes_shed "), std::string::npos) << stats;
}

// ---------------------------------------------------------------------------
// O(delta) snapshot publication: structural sharing, publish failpoints,
// and reader tail latency under a publish storm

namespace {

/// Synthetic digest with a chosen block size: random base64-ish parts.
/// Random 24-grams essentially never collide on a 7-gram, so every
/// observe founds its own family.
sf::FuzzyDigest synthetic_digest(std::uint64_t block_size, siren::util::Rng& rng) {
    static constexpr char kAlphabet[] =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    sf::FuzzyDigest digest;
    digest.block_size = block_size;
    for (int i = 0; i < 24; ++i) digest.digest1.push_back(kAlphabet[rng.below(64)]);
    for (int i = 0; i < 12; ++i) digest.digest2.push_back(kAlphabet[rng.below(64)]);
    return digest;
}

/// Checkpoint text for a registry of `families` single-exemplar families —
/// the fast path to a registry-scale service: the checkpoint loader adds
/// exemplars without running the observe matching, so booting 100k
/// families costs parse + index-append, not 100k similarity queries.
std::string synthetic_checkpoint(std::size_t families, std::uint64_t seed) {
    siren::util::Rng rng(seed);
    std::string body = "SIRENCKPT 1\napplied 0\nregistry\n";
    for (std::size_t i = 0; i < families; ++i) {
        body += "family " + std::to_string(i) + " 1 fam-" + std::to_string(i) + "\n";
    }
    std::string exemplars;
    for (std::size_t i = 0; i < families; ++i) {
        exemplars += "exemplar " + std::to_string(i) + " " +
                     synthetic_digest(1536, rng).to_string() + "\n";
    }
    return body + exemplars;
}

}  // namespace

TEST(RecognitionService, PublishSharesStructureWithPreviousSnapshot) {
    sv::RecognitionService service(fast_options());
    siren::util::Rng rng(41);
    for (int i = 0; i < 300; ++i) {
        service.observe(synthetic_digest(1536, rng), "fam" + std::to_string(i));
    }
    service.flush();
    const auto before = service.snapshot();

    service.observe_sync(synthetic_digest(1536, rng), "delta");
    const auto after = service.snapshot();
    ASSERT_GT(after->version, before->version);

    // The publish path measured itself and reported the sharing.
    const auto counters = service.counters();
    EXPECT_GT(counters.publish_ns, 0u);
    EXPECT_GT(counters.publish_ns_last, 0u);
    EXPECT_GT(counters.total_chunks, 0u);
    EXPECT_GT(counters.shared_chunks, 0u)
        << "a one-observe publish must share chunks with its predecessor";

    // Direct pin between the two held snapshots: a single observe against
    // a 300-family registry leaves most chunks pointer-identical.
    const auto sharing = after->registry.sharing_with(before->registry);
    EXPECT_GT(sharing.shared_chunks * 2, sharing.total_chunks)
        << "shared " << sharing.shared_chunks << " of " << sharing.total_chunks;
    std::string why;
    EXPECT_TRUE(after->registry.self_check(&why)) << why;
}

TEST(RecognitionService, PublishFailpointsDelayAndErrorNeverTearSnapshots) {
    if (!siren::util::failpoint::compiled_in()) {
        GTEST_SKIP() << "build carries no failpoint hooks (SIREN_FAILPOINTS=OFF)";
    }
    siren::util::failpoint::clear();
    sv::RecognitionService service(fast_options());
    siren::util::Rng rng(43);
    const auto known = synthetic_digest(3072, rng);
    service.observe_sync(known, "anchor");

    // Phase 1 — slow copies: readers keep serving (possibly stale, never
    // torn) while every publish sleeps inside the copy failpoint.
    siren::util::failpoint::activate("serve.publish.copy", "delay(2000)");
    for (int i = 0; i < 3; ++i) {
        service.observe_sync(synthetic_digest(1536, rng), "slow" + std::to_string(i));
        const auto match = service.identify(known);
        ASSERT_TRUE(match.has_value());
        EXPECT_EQ(match->name, "anchor");
    }
    EXPECT_GT(siren::util::failpoint::fire_count("serve.publish.copy"), 0u);

    // Phase 2 — aborted publishes (both failpoints, one-in-two cadence):
    // the writer keeps its dirty state and retries, so observe_sync still
    // completes and every visible snapshot passes the torn-state oracle.
    siren::util::failpoint::activate("serve.publish.swap", "error(5)%2");
    for (int i = 0; i < 6; ++i) {
        service.observe_sync(synthetic_digest(1536, rng), "swap" + std::to_string(i));
        std::string why;
        EXPECT_TRUE(service.snapshot()->registry.self_check(&why)) << why;
    }
    siren::util::failpoint::deactivate("serve.publish.swap");
    siren::util::failpoint::activate("serve.publish.copy", "error(5)%2");
    for (int i = 0; i < 4; ++i) {
        service.observe_sync(synthetic_digest(1536, rng), "copy" + std::to_string(i));
    }
    siren::util::failpoint::clear();
    service.flush();

    const auto counters = service.counters();
    EXPECT_GT(counters.publish_errors, 0u) << "the error cadence never fired";
    EXPECT_EQ(service.snapshot()->registry.family_count(), 1u + 3u + 6u + 4u)
        << "aborted publishes must not lose applied observes";
    std::string why;
    EXPECT_TRUE(service.snapshot()->registry.self_check(&why)) << why;
    const auto match = service.identify(known);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->name, "anchor");
}

TEST(RecognitionService, IdentifyTailLatencyFlatUnderPublishStorm) {
    // O(delta) acceptance: a writer publishing a stream of small batches
    // against a registry-scale corpus must not move the reader's tail
    // latency — the publish copies touched chunks only, and the swap stays
    // one atomic store. Sizes shrink under sanitizers (the TSan leg runs
    // this test; the property is the same, the constant is smaller).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
    constexpr std::size_t kFamilies = 8000;
    constexpr int kBatches = 60;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
    constexpr std::size_t kFamilies = 8000;
    constexpr int kBatches = 60;
#else
    constexpr std::size_t kFamilies = 100000;
    constexpr int kBatches = 250;
#endif
#else
    constexpr std::size_t kFamilies = 100000;
    constexpr int kBatches = 250;
#endif

    ScratchDir dir("storm");
    const auto ckpt = dir.sub("storm.ckpt");
    {
        std::ofstream out(ckpt);
        out << synthetic_checkpoint(kFamilies, 47);
    }
    auto options = fast_options();
    options.checkpoint_path = ckpt;
    sv::RecognitionService service(std::move(options));
    ASSERT_EQ(service.snapshot()->registry.family_count(), kFamilies);

    // The probe is family 0's exemplar (the checkpoint generator's Rng
    // stream replayed), so every identify must answer fam-0 at score 100.
    siren::util::Rng probe_rng(47);
    const auto probe = synthetic_digest(1536, probe_rng);

    const auto sample_ns = [&] {
        const auto t0 = std::chrono::steady_clock::now();
        const auto match = service.identify(probe);
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        EXPECT_TRUE(match.has_value());
        if (match) EXPECT_EQ(match->name, "fam-0");
        return static_cast<std::uint64_t>(ns);
    };
    const auto p99_of = [](std::vector<std::uint64_t> ns) {
        std::sort(ns.begin(), ns.end());
        return ns[(ns.size() * 99) / 100];
    };

    std::vector<std::uint64_t> idle;
    for (int i = 0; i < 100; ++i) idle.push_back(sample_ns());
    const auto idle_p99 = p99_of(idle);

    const auto publishes_before = service.counters().publishes;
    std::atomic<bool> storm_done{false};
    std::thread writer([&] {
        siren::util::Rng wrng(53);
        for (int batch = 0; batch < kBatches; ++batch) {
            service.observe(synthetic_digest(768, wrng));
            service.observe_sync(synthetic_digest(768, wrng));  // force a publish
        }
        storm_done.store(true, std::memory_order_release);
    });

    std::vector<std::uint64_t> stormy;
    while (!storm_done.load(std::memory_order_acquire)) stormy.push_back(sample_ns());
    writer.join();
    ASSERT_FALSE(stormy.empty());
    const auto storm_p99 = p99_of(stormy);

    const auto publishes = service.counters().publishes - publishes_before;
    EXPECT_GE(publishes, static_cast<std::uint64_t>(kBatches) / 2)
        << "the storm must actually publish per small batch";

    // Generous bound: an O(registry) publish holding anything readers need
    // would push the tail by milliseconds-per-publish; scheduler noise
    // does not reach 25x-plus-floor.
    const auto bound = std::max<std::uint64_t>(25 * idle_p99, 20'000'000);
    EXPECT_LE(storm_p99, bound) << "reader p99 " << storm_p99 << "ns vs idle p99 " << idle_p99
                                << "ns across " << publishes << " publishes";

    // And the post-storm snapshot still shares nearly everything with the
    // boot corpus: the storm's families are the only divergence.
    const auto counters = service.counters();
    EXPECT_GT(counters.shared_chunks, 0u);
    EXPECT_GT(counters.total_chunks, counters.shared_chunks);
}

// ---------------------------------------------------------------------------
// One identify path: every client and every probe shape agree with the
// registry oracle, and the query-frame parser survives mutated frames

namespace {

/// `base` with its first `spots` characters replaced: the untouched tail
/// keeps a shared 7-gram with `base`, so the score falls smoothly with
/// `spots`.
std::string mutate_prefix(std::string base, std::size_t spots) {
    static constexpr char kSpots[] = "abcdefghij";
    for (std::size_t i = 0; i < spots; ++i) base[i] = kSpots[i];
    return base;
}

/// A two-channel registry seeded through a checkpoint, so families can sit
/// closer together than the observe path would let them (it would fold
/// them into one). Against `content`, fam-1 > fam-0 > fam-3 == fam-4
/// (identical exemplars, fam-4's listed first); against `behavior`,
/// fam-2 > fam-3 > fam-0; fam-5 matches neither probe, and the unknown
/// probes match nothing.
struct TwoChannelCorpus {
    std::string checkpoint;
    std::string content;
    std::string behavior;
    std::string unknown_content;
    std::string unknown_behavior;
};

TwoChannelCorpus two_channel_corpus() {
    static constexpr const char* kContent = "kTqWx3NvZrLm8PbC5dYhJf2Ag4";
    static constexpr const char* kBehavior = "Ga5jLd8SfTk2RmNe7XwPq4VzCu";
    siren::util::Rng rng(151);
    // digest1 carries the similarity; every digest2 is random, so it never
    // shares a 7-gram with another digest's.
    const auto digest = [&rng](std::uint64_t block_size, std::string digest1) {
        auto d = synthetic_digest(block_size, rng);
        d.digest1 = std::move(digest1);
        return d.to_string();
    };
    TwoChannelCorpus corpus;
    corpus.content = digest(1536, kContent);
    corpus.behavior = digest(256, kBehavior);
    corpus.unknown_content = synthetic_digest(1536, rng).to_string();
    corpus.unknown_behavior = synthetic_digest(256, rng).to_string();

    std::string& text = corpus.checkpoint;
    text = "SIRENCKPT 1\napplied 0\nregistry\n";
    for (int f = 0; f < 6; ++f) {
        text += "family " + std::to_string(f) + " 1 fam-" + std::to_string(f) + "\n";
    }
    const auto tied = digest(1536, mutate_prefix(kContent, 4));
    text += "exemplar 1 " + digest(1536, mutate_prefix(kContent, 1)) + "\n";
    text += "exemplar 0 " + digest(1536, mutate_prefix(kContent, 2)) + "\n";
    text += "exemplar 4 " + tied + "\n";
    text += "exemplar 3 " + tied + "\n";
    text += "exemplar 5 " + synthetic_digest(1536, rng).to_string() + "\n";
    text += "bexemplar 2 " + digest(256, mutate_prefix(kBehavior, 1)) + "\n";
    text += "bexemplar 3 " + digest(256, mutate_prefix(kBehavior, 3)) + "\n";
    text += "bexemplar 0 " + digest(256, mutate_prefix(kBehavior, 6)) + "\n";
    text += "bexemplar 5 " + synthetic_digest(256, rng).to_string() + "\n";
    return corpus;
}

/// Service options booting from `corpus`'s checkpoint inside `dir`.
sv::ServeOptions corpus_options(const ScratchDir& dir, const TwoChannelCorpus& corpus) {
    const auto path = dir.sub("corpus.ckpt");
    std::ofstream(path) << corpus.checkpoint;
    auto options = fast_options();
    options.checkpoint_path = path;
    return options;
}

std::string render(const std::vector<sv::FusedIdentified>& matches) {
    std::string out;
    for (const auto& m : matches) {
        out += std::to_string(m.family) + " " + std::to_string(m.score) + " " +
               std::to_string(m.content_score) + " " + std::to_string(m.behavior_score) + " " +
               m.name + "\n";
    }
    return out;
}

/// The in-process oracle for one probe: the channel's best match for a
/// single-channel k = 1 probe, the fused ranking for every other shape.
std::vector<sv::FusedIdentified> oracle_identify(const siren::recognize::Registry& registry,
                                                 const sv::Probe& probe) {
    std::optional<sf::FuzzyDigest> content;
    std::optional<sf::FuzzyDigest> behavior;
    if (!probe.content.empty()) content = sf::FuzzyDigest::parse(probe.content);
    if (!probe.behavior.empty()) behavior = sf::FuzzyDigest::parse(probe.behavior);
    std::vector<sv::FusedIdentified> out;
    if (probe.k == 1 && content.has_value() != behavior.has_value()) {
        const auto match =
            content ? registry.best_match(*content) : registry.best_match_behavior(*behavior);
        if (match) {
            out.push_back({match->family, match->best_score, content ? match->best_score : 0,
                           content ? 0 : match->best_score,
                           registry.family(match->family).name});
        }
        return out;
    }
    for (const auto& m : registry.top_families_fused(content ? &*content : nullptr,
                                                     behavior ? &*behavior : nullptr, probe.k)) {
        out.push_back({m.family, m.score, m.content_score, m.behavior_score,
                       registry.family(m.family).name});
    }
    return out;
}

}  // namespace

TEST(IdentifyPath, EveryClientMatchesTheRegistryOracleOnEveryProbeShape) {
    ScratchDir dir("identify_path");
    const auto corpus = two_channel_corpus();
    sv::RecognitionService service(corpus_options(dir, corpus));
    ASSERT_EQ(service.snapshot()->registry.family_count(), 6u);
    sv::QueryServer server(service);
    const sv::ReplicaEndpoint endpoint{"127.0.0.1", server.port()};

    sv::QueryClient direct(endpoint.host, endpoint.port);
    sv::ReplicaClient replica({endpoint});
    sv::ShardedClient sharded(sv::PartitionMap::single(endpoint));
    sv::QueryClient stats(endpoint.host, endpoint.port);
    const auto verb_identify = [&stats] {
        return sv::parse_stats(stats.request("STATS")).get("verb_identify").value_or(0);
    };

    const std::string& c = corpus.content;
    const std::string& b = corpus.behavior;
    const std::pair<const char*, sv::Probe> shapes[] = {
        {"content k=1", {.content = c, .behavior = {}, .k = 1}},
        {"behavior k=1", {.content = {}, .behavior = b, .k = 1}},
        {"content k=5", {.content = c, .behavior = {}, .k = 5}},
        {"behavior k=5", {.content = {}, .behavior = b, .k = 5}},
        {"both k=1", {.content = c, .behavior = b, .k = 1}},
        {"both k=5", {.content = c, .behavior = b, .k = 5}},
        {"unknown content k=1", {.content = corpus.unknown_content, .behavior = {}, .k = 1}},
        {"unknown both k=5",
         {.content = corpus.unknown_content, .behavior = corpus.unknown_behavior, .k = 5}},
    };
    const std::pair<const char*, std::function<std::vector<sv::FusedIdentified>(
                                     const sv::Probe&)>>
        clients[] = {
            {"QueryClient", [&](const sv::Probe& p) { return direct.identify(p); }},
            {"ReplicaClient", [&](const sv::Probe& p) { return replica.identify(p); }},
            {"ShardedClient", [&](const sv::Probe& p) { return sharded.identify(p); }},
        };
    std::map<std::string, std::vector<sv::FusedIdentified>> expected;
    for (const auto& [shape, probe] : shapes) {
        expected[shape] = oracle_identify(service.snapshot()->registry, probe);
        for (const auto& [name, identify] : clients) {
            const auto before = verb_identify();
            EXPECT_EQ(render(identify(probe)), render(expected[shape])) << name << ", " << shape;
            EXPECT_EQ(verb_identify(), before + 1)
                << name << ", " << shape << ": one IDENTIFY frame per probe";
        }
    }

    // The corpus really exercises what the shapes differ in.
    EXPECT_EQ(render(expected["content k=1"]), "1 97 97 0 fam-1\n");
    EXPECT_EQ(render(expected["behavior k=1"]), "2 97 0 97 fam-2\n");
    ASSERT_EQ(expected["content k=5"].size(), 4u);
    EXPECT_EQ(expected["content k=5"][2].score, expected["content k=5"][3].score);
    EXPECT_EQ(expected["content k=5"][2].name, "fam-3")
        << "equal scores rank by ascending family id, not exemplar order";
    EXPECT_EQ(expected["both k=1"].front().name, "fam-0")
        << "two-channel agreement outranks either channel's own winner";
    EXPECT_EQ(expected["both k=5"].size(), 5u);
    EXPECT_TRUE(expected["unknown content k=1"].empty());
    EXPECT_TRUE(expected["unknown both k=5"].empty());
}

TEST(IdentifyPath, MutatedIdentifyFramesAnswerOkOrErrWithDocumentedShape) {
    // Seeded mutation sweep over the identify grammar: byte flips,
    // truncations and token splices of valid IDENTIFY / IDENTIFYB frames,
    // straight through execute_query. No frame may throw, every reply is
    // OK or ERR, and every OK reply has its verb's counted shape.
    ScratchDir dir("identify_fuzz");
    const auto corpus = two_channel_corpus();
    sv::RecognitionService service(corpus_options(dir, corpus));
    const std::string& c = corpus.content;
    const std::string& b = corpus.behavior;
    const std::vector<std::string> seeds = {
        "IDENTIFY C " + c,
        "IDENTIFY B " + b,
        "IDENTIFY C " + c + " 5",
        "IDENTIFY B " + b + " 2",
        "IDENTIFY C " + c + " B " + b + " 5",
        "IDENTIFY C " + corpus.unknown_content + " B " + b,
        "IDENTIFYB " + c + " " + corpus.unknown_content + " " + c,
        "IDENTIFYB " + c,
    };

    siren::util::Rng rng(20261017);
    const auto split = [](std::string_view text) {
        std::vector<std::string> tokens;
        for (const auto token : siren::util::split_view(text, ' ')) {
            if (!token.empty()) tokens.emplace_back(token);
        }
        return tokens;
    };
    const auto join = [](const std::vector<std::string>& tokens) {
        std::string out;
        for (const auto& t : tokens) out += (out.empty() ? "" : " ") + t;
        return out;
    };
    const auto mutate = [&](std::string frame) {
        const auto tokens = split(frame);
        if (tokens.empty()) return frame;
        switch (rng.below(5)) {
            case 0:  // byte flips
                for (std::uint64_t i = 0, n = 1 + rng.below(4); i < n && !frame.empty(); ++i) {
                    frame[rng.index(frame.size())] = static_cast<char>(rng.below(256));
                }
                return frame;
            case 1:  // truncation
                return frame.substr(0, rng.index(frame.size() + 1));
            case 2: {  // splice: this frame's head onto another frame's tail
                const auto other = split(seeds[rng.index(seeds.size())]);
                std::vector<std::string> spliced(tokens.begin(),
                                                 tokens.begin() + rng.index(tokens.size() + 1));
                spliced.insert(spliced.end(), other.begin() + rng.index(other.size() + 1),
                               other.end());
                return join(spliced);
            }
            case 3: {  // a token dropped, duplicated or swapped with a neighbour
                auto edited = tokens;
                const auto i = rng.index(edited.size());
                const auto op = rng.below(3);
                if (op == 0) edited.erase(edited.begin() + static_cast<std::ptrdiff_t>(i));
                if (op == 1) edited.insert(edited.begin() + static_cast<std::ptrdiff_t>(i), edited[i]);
                if (op == 2 && i + 1 < edited.size()) std::swap(edited[i], edited[i + 1]);
                return join(edited);
            }
            default: {  // a token replaced by a grammar word or a number
                static const char* kWords[] = {
                    "C", "B", "0", "1", "7", "-3", "99999999999999999999", "IDENTIFY",
                    "IDENTIFYB", "3:abc:def", "-3:kTqWx3NvZrLm8PbC5dYhJf2Ag4:x",
                    "18446744073709551615:kTqWx3NvZrLm8PbC5dYhJf2Ag4:x", "1536::", ""};
                auto edited = tokens;
                edited[rng.index(edited.size())] = kWords[rng.index(std::size(kWords))];
                return join(edited);
            }
        }
    };

    // The documented reply shapes: "OK n" + n lines of
    // "match family fused content behavior name" (IDENTIFY) or of
    // "match family score name" / "unknown", one per digest (IDENTIFYB).
    const auto shape_error = [&](const std::string& request,
                                 const std::string& reply) -> std::string {
        if (reply.starts_with("ERR ")) return {};
        if (!reply.starts_with("OK ")) return "neither OK nor ERR";
        const auto words = split(std::string(siren::util::trim(request)));
        const bool batch = words.front() == "IDENTIFYB";
        auto lines = siren::util::split_view(reply, '\n');
        if (lines.back().empty()) lines.pop_back();
        unsigned long long count = 0;
        if (!siren::util::parse_decimal(lines.front().substr(3), count)) return "bad header";
        if (lines.size() != count + 1) return "line count disagrees with the header";
        if (batch && count != words.size() - 1) return "IDENTIFYB answered a different count";
        if (!batch && count > 6) return "more families than the registry holds";
        for (std::size_t i = 1; i < lines.size(); ++i) {
            if (batch && lines[i] == "unknown") continue;
            const auto fields = split(lines[i]);
            if (fields.size() != (batch ? 4u : 6u) || fields.front() != "match" ||
                !fields.back().starts_with("fam-")) {
                return "bad line '" + std::string(lines[i]) + "'";
            }
            for (std::size_t f = 1; f + 1 < fields.size(); ++f) {
                long value = 0;
                if (!siren::util::parse_decimal(fields[f], value) || value > 100) {
                    return "bad number in '" + std::string(lines[i]) + "'";
                }
            }
        }
        return {};
    };

    std::size_t ok = 0;
    std::size_t err = 0;
    for (int iteration = 0; iteration < 300000; ++iteration) {
        auto frame = seeds[rng.index(seeds.size())];
        for (std::uint64_t round = 0, rounds = 1 + rng.below(3); round < rounds; ++round) {
            frame = mutate(std::move(frame));
        }
        std::string reply;
        ASSERT_NO_THROW(reply = sv::execute_query(service, frame)) << frame;
        const auto problem = shape_error(frame, reply);
        ASSERT_TRUE(problem.empty()) << problem << "\nrequest: " << frame << "\nreply: " << reply;
        ++(reply.starts_with("OK ") ? ok : err);
    }
    // Both outcomes occur, so the sweep checks shapes, not just errors.
    EXPECT_GT(ok, 1000u);
    EXPECT_GT(err, 1000u);
}
