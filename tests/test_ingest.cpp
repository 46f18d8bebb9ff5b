// Sharded epoll ingest daemon: SPSC ring semantics, the inject (ring ->
// arena -> decode_view -> handler) pipeline, real SO_REUSEPORT UDP
// loopback, durable journaling, and crash recovery into the database.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/siren.hpp"
#include "db/message_store.hpp"
#include "ingest/ingest_server.hpp"
#include "ingest/spsc_ring.hpp"
#include "net/codec.hpp"
#include "net/udp.hpp"
#include "serve/segment_tail.hpp"
#include "storage/segment_store.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace si = siren::ingest;
namespace sn = siren::net;
namespace fs = std::filesystem;

namespace {

sn::Message sample_message(int pid = 4242) {
    sn::Message m;
    m.job_id = 1000042;
    m.pid = pid;
    m.exe_hash = "00ff00ff00ff00ff00ff00ff00ff00ff";
    m.host = "nid000123";
    m.time = 1733900000;
    m.type = sn::MsgType::kObjects;
    m.content = "/lib64/libc.so.6\n/opt/siren/lib/siren.so";
    return m;
}

class TempDir {
public:
    TempDir() {
        path_ = (fs::temp_directory_path() /
                 ("siren_ingest_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter_++)))
                    .string();
        fs::remove_all(path_);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    const std::string& path() const { return path_; }

private:
    static inline int counter_ = 0;
    std::string path_;
};

}  // namespace

TEST(SpscRing, FifoOrderAndContent) {
    si::SpscRing ring(8);
    EXPECT_EQ(ring.capacity(), 8u);
    for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.push("msg-" + std::to_string(i)));

    std::vector<std::string> out;
    EXPECT_EQ(ring.drain([&](std::string_view d) { out.emplace_back(d); }, 3), 3u);
    EXPECT_EQ(ring.drain([&](std::string_view d) { out.emplace_back(d); }, 100), 2u);
    ASSERT_EQ(out.size(), 5u);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], "msg-" + std::to_string(i));
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FullRingRejectsUntilDrained) {
    si::SpscRing ring(4);
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.push("x"));
    EXPECT_FALSE(ring.push("overflow"));
    EXPECT_EQ(ring.drain([](std::string_view) {}, 1), 1u);
    EXPECT_TRUE(ring.push("now fits"));
}

TEST(SpscRing, OversizeDatagramRejected) {
    si::SpscRing ring(4);
    EXPECT_FALSE(ring.push(std::string(si::SpscRing::kSlotBytes + 1, 'x')));
    EXPECT_TRUE(ring.push(std::string(si::SpscRing::kSlotBytes, 'x')));  // exactly fits
}

TEST(SpscRing, ThreadedStressPreservesEveryRecordInOrder) {
    si::SpscRing ring(256);
    constexpr std::uint64_t kCount = 200000;

    std::thread producer([&ring] {
        for (std::uint64_t i = 0; i < kCount; ++i) {
            const std::string payload = "seq=" + std::to_string(i);
            while (!ring.push(payload)) std::this_thread::yield();
        }
    });

    std::uint64_t next = 0;
    while (next < kCount) {
        ring.drain(
            [&next](std::string_view d) {
                ASSERT_EQ(d, "seq=" + std::to_string(next));
                ++next;
            },
            64);
    }
    producer.join();
    EXPECT_EQ(next, kCount);
    EXPECT_TRUE(ring.empty());
}

TEST(IngestServer, InjectPipelineDecodesAndBatches) {
    si::IngestOptions options;
    options.shards = 4;
    std::atomic<std::uint64_t> handled{0};
    std::atomic<std::uint64_t> batches{0};
    si::IngestServer server(options,
                            [&](std::size_t, std::span<const sn::MessageView> batch) {
                                handled.fetch_add(batch.size());
                                batches.fetch_add(1);
                            });
    EXPECT_EQ(server.shards(), 4u);

    constexpr int kMessages = 4000;
    const std::string wire = sn::encode(sample_message());
    for (int i = 0; i < kMessages; ++i) {
        while (!server.inject(static_cast<std::size_t>(i) % 4, wire)) {
            std::this_thread::yield();
        }
    }
    server.inject(0, "not a SIREN datagram");
    server.drain();

    const auto stats = server.stats();
    EXPECT_EQ(stats.decoded, kMessages);
    EXPECT_EQ(stats.malformed, 1u);
    EXPECT_EQ(handled.load(), kMessages);
    EXPECT_GT(batches.load(), 0u);
    EXPECT_LE(batches.load(), stats.batches);
    server.stop();
}

TEST(IngestServer, HandlerSeesDecodedFields) {
    si::IngestOptions options;
    options.shards = 1;
    std::atomic<bool> seen{false};
    si::IngestServer server(options,
                            [&](std::size_t shard, std::span<const sn::MessageView> batch) {
                                ASSERT_EQ(shard, 0u);
                                for (const auto& view : batch) {
                                    EXPECT_EQ(view.to_message(), sample_message(7));
                                    seen.store(true);
                                }
                            });
    server.inject(0, sn::encode(sample_message(7)));
    server.drain();
    EXPECT_TRUE(seen.load());
    server.stop();
}

TEST(IngestServer, RealUdpLoopbackAcrossReuseportShards) {
    si::IngestOptions options;
    options.shards = 2;
    std::atomic<std::uint64_t> handled{0};
    si::IngestServer server(options, [&](std::size_t, std::span<const sn::MessageView> batch) {
        handled.fetch_add(batch.size());
    });
    ASSERT_GT(server.port(), 0);

    constexpr int kMessages = 500;
    sn::UdpSender sender("127.0.0.1", server.port());
    for (int i = 0; i < kMessages; ++i) sender.send(sn::encode(sample_message(i)));
    EXPECT_EQ(sender.errors(), 0u);
    server.quiesce();

    // UDP on loopback may legally drop under pressure; expect the vast
    // majority to land.
    EXPECT_GE(handled.load(), static_cast<std::uint64_t>(kMessages) * 9 / 10);
    EXPECT_EQ(server.stats().malformed, 0u);
    server.stop();
}

TEST(IngestServer, BindAddressIsConfigurable) {
    // The deployed collector binds a non-loopback address so remote nodes
    // can reach it; the wildcard still accepts loopback traffic, which is
    // what a single-host test can exercise.
    si::IngestOptions options;
    options.shards = 1;
    options.bind_address = "0.0.0.0";
    std::atomic<std::uint64_t> handled{0};
    si::IngestServer server(options, [&](std::size_t, std::span<const sn::MessageView> batch) {
        handled.fetch_add(batch.size());
    });
    sn::UdpSender sender("127.0.0.1", server.port());
    for (int i = 0; i < 50; ++i) sender.send(sn::encode(sample_message(i)));
    server.quiesce();
    EXPECT_GT(handled.load(), 0u);
    server.stop();

    si::IngestOptions bad;
    bad.bind_address = "not-an-address";
    EXPECT_THROW(si::IngestServer(bad, nullptr), siren::util::SystemError);
}

TEST(IngestServer, StopIsPromptAndIdempotent) {
    si::IngestOptions options;
    options.shards = 3;
    si::IngestServer server(options, nullptr);
    const auto start = std::chrono::steady_clock::now();
    server.stop();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 2000)
        << "eventfd wakeups must beat the epoll timeout";
    EXPECT_NO_THROW(server.stop());
}

TEST(IngestServer, DurableModeJournalsEveryDatagramForReplay) {
    TempDir dir;
    constexpr std::size_t kShards = 2;
    constexpr int kMessages = 1000;
    {
        siren::storage::SegmentStore store(dir.path(), kShards);
        si::IngestOptions options;
        options.shards = kShards;
        options.store = &store;
        si::IngestServer server(options, nullptr);
        const std::string wire = sn::encode(sample_message());
        for (int i = 0; i < kMessages; ++i) {
            while (!server.inject(static_cast<std::size_t>(i) % kShards, wire)) {
                std::this_thread::yield();
            }
        }
        server.inject(0, "garbage goes to the journal too");
        server.drain();
        server.stop();
        EXPECT_EQ(server.stats().appended, kMessages + 1u);
        EXPECT_EQ(server.stats().storage_errors, 0u);
    }
    // A fresh process replays the raw traffic byte for byte.
    std::uint64_t replayed = 0;
    std::uint64_t garbage = 0;
    const auto stats =
        siren::storage::replay_directory(dir.path(), [&](std::string_view record) {
            if (record.starts_with("SIREN1|")) {
                ++replayed;
            } else {
                ++garbage;
            }
        });
    EXPECT_EQ(replayed, kMessages);
    EXPECT_EQ(garbage, 1u);
    EXPECT_EQ(stats.torn_tails, 0u);
}

TEST(IngestServer, BufferedRecordsBecomeReadableWithinTheAgeBound) {
    // A steady trickle — one datagram per 0.5 ms — never leaves the ring
    // empty for the ~5 ms an idle sync needs, and 600 small records stay
    // far below a 256 KiB buffer: only the age bound makes them readable.
    TempDir dir;
    siren::storage::SegmentOptions seg_options;
    seg_options.fsync_enabled = false;
    siren::storage::SegmentStore store(dir.path(), 1, seg_options);
    si::IngestOptions options;
    options.shards = 1;
    options.store = &store;
    si::IngestServer server(options, nullptr);

    using Clock = std::chrono::steady_clock;
    constexpr int kRecords = 600;
    std::vector<std::atomic<std::int64_t>> injected_ns(kRecords);
    const auto since = [t0 = Clock::now()] {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
    };
    std::thread injector([&] {
        const auto start = Clock::now();
        for (int i = 0; i < kRecords; ++i) {
            std::this_thread::sleep_until(start + std::chrono::microseconds(500) * i);
            injected_ns[i].store(since(), std::memory_order_release);
            while (!server.inject(0, sn::encode(sample_message(i)))) std::this_thread::yield();
        }
    });

    siren::serve::SegmentTail tail(dir.path());
    std::vector<std::int64_t> lag_ns(kRecords, -1);
    int read = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (read < kRecords && Clock::now() < deadline) {
        read += static_cast<int>(tail.poll([&](std::string_view record) {
            const auto pid = sn::decode(record).pid;
            ASSERT_GE(pid, 0);
            ASSERT_LT(pid, kRecords);
            lag_ns[pid] = since() - injected_ns[pid].load(std::memory_order_acquire);
        }));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    injector.join();
    ASSERT_EQ(read, kRecords);
    const auto worst = *std::max_element(lag_ns.begin(), lag_ns.end());
    EXPECT_LT(worst, 50'000'000) << "a record became readable " << worst / 1'000'000
                                 << " ms after its injection";
}

TEST(IngestServer, FailedBufferWriteCountsEveryLostRecord) {
    namespace fp = siren::util::failpoint;
    if (!fp::compiled_in()) {
        GTEST_SKIP() << "build with -DSIREN_FAILPOINTS=ON for fault injection";
    }
    fp::clear();
    struct ClearFailpoints {
        ~ClearFailpoints() { fp::clear(); }
    } clear_after;

    TempDir dir;
    siren::storage::SegmentStore store(dir.path(), 1);
    si::IngestOptions options;
    options.shards = 1;
    options.store = &store;
    si::IngestServer server(options, nullptr);

    // Every append() accepts its record into the buffer; the worker's own
    // later write of that buffer is what fails and loses them.
    fp::activate("storage.segment.write", "error(28)");  // ENOSPC
    constexpr std::uint64_t kRecords = 50;
    const std::string wire = sn::encode(sample_message());
    for (std::uint64_t i = 0; i < kRecords; ++i) {
        while (!server.inject(0, wire)) std::this_thread::yield();
    }
    server.drain();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.stats().storage_errors < kRecords &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    fp::clear();
    server.stop();

    const auto stats = server.stats();
    EXPECT_EQ(stats.storage_errors, kRecords) << "every record the failed write lost";
    EXPECT_EQ(stats.appended, 0u) << "a lost record is not journaled";
    EXPECT_EQ(siren::storage::replay_directory(dir.path(), nullptr).records, 0u);
}

TEST(IngestServer, BackgroundCompactionRemovesSealedSegments) {
    TempDir dir;
    siren::storage::SegmentOptions seg_options;
    seg_options.max_segment_bytes = 4096;  // rotate often
    siren::storage::SegmentStore store(dir.path(), 1, seg_options);

    si::IngestOptions options;
    options.shards = 1;
    options.store = &store;
    options.compaction_interval = std::chrono::milliseconds(20);
    options.compact_sealed = true;
    si::IngestServer server(options, nullptr);

    const std::string wire = sn::encode(sample_message());
    for (int i = 0; i < 2000; ++i) {
        while (!server.inject(0, wire)) std::this_thread::yield();
    }
    server.drain();
    ASSERT_GT(store.segments_sealed(), 0u);
    for (int spin = 0; spin < 200 && store.segments_compacted() == 0; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    server.stop();
    EXPECT_GT(store.segments_compacted(), 0u);
    EXPECT_GT(server.stats().compactions, 0u);
}

TEST(IngestServer, TableHandlerJournalsAndRecovers) {
    // The daemon's storage shape: a durable server whose handler inserts
    // every view into the messages table.
    TempDir dir;
    constexpr int kMessages = 300;
    {
        siren::storage::SegmentStore wal(dir.path(), 2);
        siren::db::Database db;
        siren::db::Table& table = siren::db::create_message_table(db);
        std::atomic<std::uint64_t> inserted{0};
        si::IngestOptions options;
        options.shards = 2;
        options.store = &wal;
        si::IngestServer server(options,
                                [&](std::size_t, std::span<const sn::MessageView> batch) {
                                    for (const auto& view : batch) {
                                        siren::db::insert_message(table, view.to_message());
                                        inserted.fetch_add(1);
                                    }
                                });
        for (int i = 0; i < kMessages; ++i) {
            const std::string wire = sn::encode(sample_message(i));
            while (!server.inject(static_cast<std::size_t>(i) % 2, wire)) {
                std::this_thread::yield();
            }
        }
        server.drain();
        server.stop();
        EXPECT_EQ(inserted.load(), kMessages);
        EXPECT_EQ(server.stats().appended, kMessages);
        EXPECT_EQ(db.table(siren::db::kMessagesTable).row_count(), kMessages);
    }
    // "Crash": the database object is gone; only segments remain. Rebuild.
    siren::db::Database recovered;
    const auto result = siren::db::replay_segments(dir.path(), recovered);
    EXPECT_EQ(result.inserted, kMessages);
    EXPECT_EQ(result.malformed, 0u);
    EXPECT_EQ(recovered.table(siren::db::kMessagesTable).row_count(), kMessages);

    // Spot-check a full message round trip through WAL encode/decode.
    const auto& table = recovered.table(siren::db::kMessagesTable);
    bool found = false;
    for (std::size_t row = 0; row < table.row_count(); ++row) {
        const auto m = siren::db::message_from_row(table, row);
        if (m.pid == 123) {
            EXPECT_EQ(m, sample_message(123));
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Framework, DurableDatabaseModeProducesAggregatesAndWal) {
    TempDir dir;
    siren::FrameworkOptions options;
    options.scale = 1.0;
    options.seed = 11;
    options.use_database = true;
    options.durable_dir = dir.path();

    const siren::CampaignResult result =
        run_campaign(siren::workload::mini_campaign(), options);
    ASSERT_NE(result.database, nullptr);
    EXPECT_EQ(result.collection_errors, 0u);
    EXPECT_GT(result.totals.processes, 100u);
    EXPECT_EQ(result.processes_collected, result.totals.processes);
    EXPECT_GT(result.datagrams_sent, result.totals.processes);
    EXPECT_GT(result.records.size(), 0u);
    EXPECT_GT(result.aggregates.total_processes, 0u);

    // Every datagram the daemon accepted was journaled before decode.
    EXPECT_GT(result.wal_records, 0u);
    std::uint64_t replayed = 0;
    siren::storage::replay_directory(dir.path(), [&](std::string_view) { ++replayed; });
    EXPECT_EQ(replayed, result.wal_records);
}
