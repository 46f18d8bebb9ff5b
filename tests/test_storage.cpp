// Durable segment store: record framing, fsync-batched writes, rotation,
// torn-tail crash recovery, checksum detection, and compaction
// (docs/storage_format.md).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "hashing/crc32c.hpp"
#include "storage/segment.hpp"
#include "storage/segment_store.hpp"
#include "serve/segment_tail.hpp"
#include "util/failpoint.hpp"

namespace st = siren::storage;
namespace fs = std::filesystem;

namespace {

class StoreDir {
public:
    StoreDir() {
        path_ = (fs::temp_directory_path() /
                 ("siren_segments_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter_++)))
                    .string();
        fs::remove_all(path_);
    }
    ~StoreDir() {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    const std::string& path() const { return path_; }

private:
    static inline int counter_ = 0;
    std::string path_;
};

std::string record(int i) {
    return "SIREN-record-" + std::to_string(i) + "-" + std::string(40 + i % 17, 'x');
}

std::vector<std::string> collect_records(const std::string& dir, st::ReplayStats* out = nullptr) {
    std::vector<std::string> records;
    const auto stats =
        st::replay_directory(dir, [&](std::string_view r) { records.emplace_back(r); });
    if (out != nullptr) *out = stats;
    return records;
}

}  // namespace

TEST(Segment, WriteReplayRoundTrip) {
    StoreDir dir;
    {
        st::SegmentWriter writer(dir.path(), "t-");
        for (int i = 0; i < 100; ++i) EXPECT_TRUE(writer.append(record(i)));
        EXPECT_TRUE(writer.append(""));  // empty records are legal
        writer.close();
        EXPECT_EQ(writer.appended(), 101u);
        EXPECT_EQ(writer.errors(), 0u);
    }
    st::ReplayStats stats;
    const auto records = collect_records(dir.path(), &stats);
    ASSERT_EQ(records.size(), 101u);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(records[static_cast<std::size_t>(i)], record(i));
    EXPECT_EQ(records.back(), "");
    EXPECT_EQ(stats.records, 101u);
    EXPECT_EQ(stats.segments, 1u);
    EXPECT_EQ(stats.torn_tails, 0u);
    EXPECT_EQ(stats.crc_failures, 0u);
}

TEST(Segment, SyncIsVisibleWithoutClose) {
    StoreDir dir;
    st::SegmentWriter writer(dir.path(), "t-");
    for (int i = 0; i < 10; ++i) writer.append(record(i));
    writer.sync();  // durability barrier; writer still open
    EXPECT_EQ(writer.unsynced_bytes(), 0u);
    EXPECT_EQ(collect_records(dir.path()).size(), 10u);
}

TEST(Segment, FlushMakesRecordsReadableWithoutFsync) {
    StoreDir dir;
    st::SegmentWriter writer(dir.path(), "t-");
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(writer.append(record(i)));
    EXPECT_EQ(collect_records(dir.path()).size(), 0u) << "still in the user-space buffer";
    EXPECT_TRUE(writer.flush());
    EXPECT_EQ(collect_records(dir.path()).size(), 10u);
    EXPECT_EQ(writer.syncs(), 0u) << "flush() writes, it does not fsync";
    EXPECT_GT(writer.unsynced_bytes(), 0u);
    EXPECT_TRUE(writer.flush()) << "an empty buffer is a successful no-op";
}

// The crash-recovery workflow: restart a writer on the same durable
// directory. It must resume the sequence AFTER the previous run's segments
// (never truncate them — that is exactly the data the store promises
// survives a restart) and replay must then see both runs.
TEST(Segment, RestartResumesSequenceWithoutClobbering) {
    StoreDir dir;
    std::string first_path;
    {
        st::SegmentWriter writer(dir.path(), "t-");
        for (int i = 0; i < 5; ++i) writer.append(record(i));
        first_path = writer.active_path();
        writer.close();
    }
    const auto first_size = fs::file_size(first_path);
    {
        st::SegmentWriter writer(dir.path(), "t-");
        for (int i = 5; i < 10; ++i) writer.append(record(i));
        EXPECT_NE(writer.active_path(), first_path)
            << "the restarted writer must open a fresh segment";
        writer.close();
    }
    EXPECT_EQ(fs::file_size(first_path), first_size) << "first run's segment left intact";

    st::ReplayStats stats;
    const auto records = collect_records(dir.path(), &stats);
    ASSERT_EQ(records.size(), 10u);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(records[static_cast<std::size_t>(i)], record(i));
    EXPECT_EQ(stats.segments, 2u);
}

// Sequences that outgrow the 8-digit zero padding must still replay in
// append order: numerically, 11111112 < 100000000, even though the 9-digit
// name sorts first lexicographically.
TEST(Segment, ReplayOrdersByNumericSequenceBeyondPadding) {
    StoreDir dir;
    {
        st::SegmentWriter writer(dir.path(), "t-");
        writer.append(record(0));
        writer.rotate();  // seals t-00000000.seg
        writer.append(record(1));
        writer.close();  // leaves t-00000001.seg
    }
    fs::rename(fs::path(dir.path()) / "t-00000000.seg", fs::path(dir.path()) / "t-11111112.seg");
    fs::rename(fs::path(dir.path()) / "t-00000001.seg", fs::path(dir.path()) / "t-100000000.seg");

    const auto records = collect_records(dir.path());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], record(0));
    EXPECT_EQ(records[1], record(1));

    // And a writer restarted here resumes after the 9-digit survivor.
    st::SegmentWriter writer(dir.path(), "t-");
    writer.append(record(2));
    EXPECT_EQ(writer.active_path(), dir.path() + "/t-100000001.seg");
    writer.close();
}

TEST(SegmentStore, RestartedStoreAppendsNextToSurvivingSegments) {
    StoreDir dir;
    constexpr std::size_t kShards = 2;
    for (int run = 0; run < 3; ++run) {
        st::SegmentStore store(dir.path(), kShards);
        for (std::size_t s = 0; s < kShards; ++s) {
            for (int i = 0; i < 10; ++i) store.append(s, record(run * 10 + i));
        }
        store.close();
    }
    EXPECT_EQ(collect_records(dir.path()).size(), 3u * kShards * 10u);
}

TEST(Segment, RotationSplitsIntoMultipleFiles) {
    StoreDir dir;
    st::SegmentOptions options;
    options.max_segment_bytes = 2048;  // force frequent rotation
    std::vector<std::string> sealed;
    {
        st::SegmentWriter writer(dir.path(), "t-", options,
                                 [&](const std::string& path) { sealed.push_back(path); });
        for (int i = 0; i < 200; ++i) writer.append(record(i));
        writer.close();
        EXPECT_GT(writer.segments_opened(), 3u);
    }
    EXPECT_GE(sealed.size(), 3u);
    for (const auto& path : sealed) EXPECT_TRUE(fs::exists(path)) << path;

    st::ReplayStats stats;
    const auto records = collect_records(dir.path(), &stats);
    ASSERT_EQ(records.size(), 200u);
    // Lexicographic file order must reproduce append order.
    for (int i = 0; i < 200; ++i) EXPECT_EQ(records[static_cast<std::size_t>(i)], record(i));
    EXPECT_GE(stats.segments, 4u);
}

// Group-commit mode: a successful background sync_written() must retire
// the durability-lag stat (and make the next sync a no-op) instead of
// letting unsynced_bytes grow without bound.
TEST(Segment, SyncWrittenRetiresDurabilityLag) {
    StoreDir dir;
    st::SegmentOptions options;
    options.buffer_bytes = 1;  // every append goes straight to the fd
    st::SegmentWriter writer(dir.path(), "t-", options);
    writer.set_inline_fsync(false);
    for (int i = 0; i < 20; ++i) writer.append(record(i));
    EXPECT_GT(writer.unsynced_bytes(), 0u);

    writer.sync_written();
    EXPECT_EQ(writer.unsynced_bytes(), 0u);
    const auto syncs_after_flush = writer.syncs();
    writer.sync_written();  // nothing new written since
    EXPECT_EQ(writer.syncs(), syncs_after_flush) << "no redundant fsync when lag is zero";
    writer.sync();
    EXPECT_EQ(writer.syncs(), syncs_after_flush) << "sync() skips the fsync too";
    writer.close();
}

// The crash-recovery contract (ISSUE acceptance): truncate a segment at
// EVERY byte boundary inside its final record — replay must return each
// complete preceding record intact and report the torn tail, never throw.
TEST(Segment, TornTailRecoversEveryCompleteRecord) {
    StoreDir dir;
    constexpr int kRecords = 8;
    std::string path;
    {
        st::SegmentWriter writer(dir.path(), "t-");
        for (int i = 0; i < kRecords; ++i) writer.append(record(i));
        path = writer.active_path();
        writer.close();
    }
    const auto full_size = static_cast<std::uint64_t>(fs::file_size(path));
    const std::uint64_t last_record_framed = st::kRecordHeaderBytes + record(kRecords - 1).size();
    const std::uint64_t last_record_start = full_size - last_record_framed;

    for (std::uint64_t cut = last_record_start + 1; cut < full_size; ++cut) {
        StoreDir torn_dir;
        fs::create_directories(torn_dir.path());
        const std::string torn = torn_dir.path() + "/torn-00000000.seg";
        fs::copy_file(path, torn);
        fs::resize_file(torn, cut);

        st::ReplayStats stats;
        std::vector<std::string> records;
        ASSERT_NO_THROW(stats = st::replay_segment(
                            torn, [&](std::string_view r) { records.emplace_back(r); }))
            << "cut at byte " << cut;
        ASSERT_EQ(records.size(), static_cast<std::size_t>(kRecords - 1)) << "cut " << cut;
        for (int i = 0; i < kRecords - 1; ++i) {
            EXPECT_EQ(records[static_cast<std::size_t>(i)], record(i));
        }
        EXPECT_EQ(stats.torn_tails, 1u) << "cut " << cut;
        EXPECT_EQ(stats.torn_bytes, cut - last_record_start) << "cut " << cut;
        EXPECT_EQ(stats.crc_failures, 0u);
    }
}

TEST(Segment, CrcFailureSkipsRecordButKeepsScanning) {
    StoreDir dir;
    std::string path;
    {
        st::SegmentWriter writer(dir.path(), "t-");
        for (int i = 0; i < 5; ++i) writer.append(record(i));
        path = writer.active_path();
        writer.close();
    }
    // Flip the 4th payload byte of record 2: segment header, two full
    // framed records, then past record 2's own frame header.
    std::uint64_t corrupt_at = st::kSegmentHeaderBytes;
    for (int i = 0; i < 2; ++i) corrupt_at += st::kRecordHeaderBytes + record(i).size();
    corrupt_at += st::kRecordHeaderBytes + 3;

    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(corrupt_at));
    f.put('\xAA');
    f.close();

    st::ReplayStats stats;
    const auto records = collect_records(dir.path(), &stats);
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(stats.crc_failures, 1u);
    EXPECT_EQ(stats.torn_tails, 0u);
    EXPECT_EQ(records[0], record(0));
    EXPECT_EQ(records[1], record(1));
    EXPECT_EQ(records[2], record(3)) << "the corrupt record is skipped, not truncating replay";
    EXPECT_EQ(records[3], record(4));
}

TEST(Segment, ForeignAndGarbageFilesAreCountedNotFatal) {
    StoreDir dir;
    {
        st::SegmentWriter writer(dir.path(), "t-");
        writer.append(record(1));
        writer.close();
    }
    {
        std::ofstream garbage(fs::path(dir.path()) / "zzz-garbage.seg", std::ios::binary);
        garbage << "this is not a segment";
    }
    {
        std::ofstream other(fs::path(dir.path()) / "notes.txt");
        other << "ignored entirely";
    }
    st::ReplayStats stats;
    const auto records = collect_records(dir.path(), &stats);
    EXPECT_EQ(records.size(), 1u);
    EXPECT_EQ(stats.bad_segments, 1u);
    EXPECT_EQ(stats.segments, 1u);
}

TEST(Segment, MissingDirectoryIsEmptyReplay) {
    st::ReplayStats stats;
    const auto records = collect_records("/nonexistent/siren/segments", &stats);
    EXPECT_TRUE(records.empty());
    EXPECT_EQ(stats.segments, 0u);
    EXPECT_EQ(stats.bad_segments, 0u);
}

TEST(SegmentStore, MultiShardConcurrentAppendReplaysEverything) {
    StoreDir dir;
    constexpr std::size_t kShards = 4;
    constexpr int kPerShard = 500;
    {
        st::SegmentOptions options;
        options.max_segment_bytes = 8192;  // rotate plenty
        st::SegmentStore store(dir.path(), kShards, options);
        std::vector<std::thread> threads;
        for (std::size_t s = 0; s < kShards; ++s) {
            threads.emplace_back([&store, s] {
                for (int i = 0; i < kPerShard; ++i) {
                    store.append(s, "shard" + std::to_string(s) + "-" + std::to_string(i));
                }
            });
        }
        for (auto& t : threads) t.join();
        EXPECT_EQ(store.appended(), kShards * kPerShard);
        EXPECT_EQ(store.errors(), 0u);
        EXPECT_GT(store.segments_sealed(), 0u);

        std::size_t replayed = 0;
        store.replay([&](std::string_view) { ++replayed; });
        EXPECT_EQ(replayed, kShards * kPerShard);
        store.close();
    }
    // A fresh process (fresh store object) still sees everything on disk.
    EXPECT_EQ(collect_records(dir.path()).size(), kShards * kPerShard);
}

TEST(SegmentStore, CompactionRemovesOnlyMarkedSealedSegments) {
    StoreDir dir;
    st::SegmentOptions options;
    options.max_segment_bytes = 1024;
    st::SegmentStore store(dir.path(), 1, options);
    for (int i = 0; i < 100; ++i) store.append(0, record(i));
    store.sync_all();

    const auto sealed = store.sealed_segments();
    ASSERT_GE(sealed.size(), 2u);

    EXPECT_EQ(store.compact(), 0u) << "nothing marked yet, nothing removed";
    ASSERT_TRUE(fs::exists(sealed[0]));

    store.mark_consolidated(sealed[0]);
    EXPECT_EQ(store.compact(), 1u);
    EXPECT_FALSE(fs::exists(sealed[0]));
    EXPECT_TRUE(fs::exists(sealed[1]));
    EXPECT_EQ(store.segments_compacted(), 1u);

    // Replay now sees only the surviving segments' records.
    std::size_t remaining = 0;
    store.replay([&](std::string_view) { ++remaining; });
    EXPECT_LT(remaining, 100u);
    EXPECT_GT(remaining, 0u);
    store.close();
}

TEST(Segment, UnknownFutureRecordKindsAreSkippedAndCounted) {
    // Forward compatibility at the byte level: a newer writer tags frames
    // with a record kind this version does not understand; replay and
    // tailing must deliver every known record, count the foreign ones,
    // and never desynchronize the frame scan.
    StoreDir dir;
    std::string path;
    {
        st::SegmentWriter writer(dir.path(), "t-");
        writer.append(record(0));
        writer.append("future-payload-this-version-cannot-parse", /*kind=*/7);
        writer.append(record(1));
        path = writer.active_path();
        writer.close();
    }

    // The kind byte rides the top 8 bits of the little-endian frame word:
    // confirm the second record's frame carries it on disk, byte-exactly.
    {
        std::ifstream f(path, std::ios::binary);
        ASSERT_TRUE(f.is_open());
        std::string bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
        const std::size_t frame2 =
            st::kSegmentHeaderBytes + st::kRecordHeaderBytes + record(0).size();
        ASSERT_LT(frame2 + 4, bytes.size());
        EXPECT_EQ(static_cast<std::uint8_t>(bytes[frame2 + 3]), 7u)
            << "kind byte must sit above the 24-bit length";
        EXPECT_EQ(static_cast<std::uint8_t>(bytes[frame2 + 0]), 40u)
            << "payload length stays in the low 24 bits";
    }

    st::ReplayStats stats;
    const auto records = collect_records(dir.path(), &stats);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], record(0));
    EXPECT_EQ(records[1], record(1)) << "scan resynchronizes past the foreign record";
    EXPECT_EQ(stats.unknown_kinds, 1u);
    EXPECT_EQ(stats.crc_failures, 0u);
    EXPECT_EQ(stats.torn_tails, 0u);
}

TEST(Segment, UnknownKindPatchedIntoExistingFrameStillSkips) {
    // The same property driven purely by byte surgery: take a normal
    // segment and flip one frame's kind byte to a future value, the way a
    // replica would see it after a partial fleet upgrade.
    StoreDir dir;
    std::string path;
    {
        st::SegmentWriter writer(dir.path(), "t-");
        for (int i = 0; i < 3; ++i) writer.append(record(i));
        path = writer.active_path();
        writer.close();
    }
    const std::size_t frame1 =
        st::kSegmentHeaderBytes + st::kRecordHeaderBytes + record(0).size();
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(frame1 + 3));
    f.put('\xFE');
    f.close();

    st::ReplayStats stats;
    const auto records = collect_records(dir.path(), &stats);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], record(0));
    EXPECT_EQ(records[1], record(2));
    EXPECT_EQ(stats.unknown_kinds, 1u);
}

TEST(SegmentTailForwardCompat, TailSkipsAndCountsUnknownKinds) {
    StoreDir dir;
    st::SegmentWriter writer(dir.path(), "t-");
    writer.append(record(0));
    writer.append("kind-nine-payload", /*kind=*/9);
    writer.append(record(1));
    writer.sync();

    siren::serve::SegmentTail tail(dir.path());
    std::vector<std::string> seen;
    tail.poll([&](std::string_view r) { seen.emplace_back(r); });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], record(0));
    EXPECT_EQ(seen[1], record(1));
    EXPECT_EQ(tail.stats().unknown_kinds, 1u);

    // The offset watermark advanced past the foreign record: appending
    // more raw records delivers only the new ones on the next poll.
    writer.append(record(2));
    writer.sync();
    seen.clear();
    tail.poll([&](std::string_view r) { seen.emplace_back(r); });
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], record(2));
    EXPECT_EQ(tail.stats().unknown_kinds, 1u);
}

// --- Degraded-path behavior under injected disk faults --------------------
//
// These drive the storage.segment.* failpoints (docs/robustness.md) and so
// need a -DSIREN_FAILPOINTS=ON build; they skip elsewhere. Each test arms
// its points through a fixture that clears the global registry afterwards,
// so a failed assertion cannot leak faults into unrelated tests.

namespace fp = siren::util::failpoint;

class SegmentFailpoints : public ::testing::Test {
protected:
    void SetUp() override {
        if (!fp::compiled_in()) {
            GTEST_SKIP() << "build with -DSIREN_FAILPOINTS=ON for fault injection";
        }
        fp::clear();
    }
    void TearDown() override { fp::clear(); }

    /// buffer_bytes=1 makes every append flush immediately, so an injected
    /// write failure surfaces in that append's own return value instead of
    /// a later sync's.
    static st::SegmentOptions unbuffered() {
        st::SegmentOptions options;
        options.buffer_bytes = 1;
        return options;
    }
};

TEST_F(SegmentFailpoints, WriteFailureAbandonsSegmentAndKeepsPriorRecords) {
    StoreDir dir;
    st::SegmentWriter writer(dir.path(), "t-", unbuffered());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(writer.append(record(i)));

    fp::activate("storage.segment.write", "error(28)");  // ENOSPC
    EXPECT_FALSE(writer.append(record(3))) << "a dropped record must not report journaled";
    EXPECT_GE(writer.errors(), 1u);
    EXPECT_TRUE(writer.active_path().empty()) << "the damaged segment is abandoned";
    EXPECT_EQ(writer.unsynced_bytes(), 0u)
        << "dropped bytes are lost (counted), not reported as durability lag";

    // Disk recovers: the next append opens a fresh segment next to the
    // abandoned one, and replay sees everything that was acknowledged.
    fp::clear();
    ASSERT_TRUE(writer.append(record(4)));
    writer.sync();

    st::ReplayStats stats;
    const auto records = collect_records(dir.path(), &stats);
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[0], record(0));
    EXPECT_EQ(records[2], record(2));
    EXPECT_EQ(records[3], record(4)) << "the dropped record is gone, later ones survive";
    EXPECT_EQ(stats.segments, 2u);
}

TEST_F(SegmentFailpoints, FailedWriteCountsTheAcceptedRecordsItDropped) {
    StoreDir dir;
    st::SegmentWriter writer(dir.path(), "t-");  // 256 KiB buffer: appends stay buffered
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(writer.append(record(i)));

    fp::activate("storage.segment.write", "error(28)");  // ENOSPC
    EXPECT_FALSE(writer.flush());
    EXPECT_EQ(writer.dropped_records(), 5u)
        << "every buffered record append() reported as accepted is lost";
    for (int i = 5; i < 8; ++i) ASSERT_TRUE(writer.append(record(i)));
    writer.sync();
    EXPECT_EQ(writer.dropped_records(), 8u) << "sync()'s failed write counts its records too";

    // A record whose own append() write fails is that append's false
    // return; only the earlier accepted records join the count.
    st::SegmentWriter small(dir.path(), "u-", unbuffered());
    EXPECT_FALSE(small.append(record(8)));
    EXPECT_EQ(small.dropped_records(), 0u);

    fp::clear();
    ASSERT_TRUE(writer.append(record(9)));
    writer.sync();
    EXPECT_EQ(writer.dropped_records(), 8u);
    const auto records = collect_records(dir.path());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0], record(9));
}

TEST_F(SegmentFailpoints, ShortWriteLeavesTornTailReplayRecovers) {
    StoreDir dir;
    st::SegmentWriter writer(dir.path(), "t-", unbuffered());
    ASSERT_TRUE(writer.append(record(0)));
    ASSERT_TRUE(writer.append(record(1)));

    // A prefix of the frame lands on disk before the failure — the same
    // truncation a crash between two write()s leaves behind.
    fp::activate("storage.segment.write", "short-write");
    EXPECT_FALSE(writer.append(record(2)));
    fp::clear();
    ASSERT_TRUE(writer.append(record(3)));
    writer.sync();

    st::ReplayStats stats;
    const auto records = collect_records(dir.path(), &stats);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[1], record(1));
    EXPECT_EQ(records[2], record(3));
    EXPECT_EQ(stats.torn_tails, 1u) << "the truncated frame is a torn tail, not corruption";
    EXPECT_GT(stats.torn_bytes, 0u);
}

TEST_F(SegmentFailpoints, FsyncFailureKeepsDurabilityLagVisible) {
    StoreDir dir;
    st::SegmentWriter writer(dir.path(), "t-");
    ASSERT_TRUE(writer.append(record(0)));

    fp::activate("storage.segment.fsync", "error(5)");  // EIO
    writer.sync();
    EXPECT_GE(writer.errors(), 1u);
    EXPECT_EQ(writer.syncs(), 0u);
    EXPECT_GT(writer.unsynced_bytes(), 0u)
        << "a failed fsync must leave the lag visible, not silently clear it";

    fp::clear();
    writer.sync();
    EXPECT_EQ(writer.syncs(), 1u);
    EXPECT_EQ(writer.unsynced_bytes(), 0u) << "retry succeeds once the disk recovers";
}

TEST_F(SegmentFailpoints, CorruptedPayloadIsCaughtByReplayCrc) {
    StoreDir dir;
    st::SegmentWriter writer(dir.path(), "t-");
    // Bit rot on every second record, injected after the CRC was framed.
    fp::activate("storage.segment.corrupt", "corrupt-byte%2");
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(writer.append(record(i)));
    fp::clear();
    writer.sync();

    st::ReplayStats stats;
    const auto records = collect_records(dir.path(), &stats);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], record(0));
    EXPECT_EQ(records[1], record(2));
    EXPECT_EQ(stats.crc_failures, 2u) << "framing survives, the checksum convicts the bytes";
}
