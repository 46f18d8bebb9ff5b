// Ablation: UDP fire-and-forget vs TCP framed streaming vs XALT-style
// per-datagram files vs the durable segment-ingest spine — the design
// decision of paper §3.1 ("we decided for a UDP-based approach over TCP or
// file-based methods (such as creating individual files for every hooked
// process)"), extended with the fourth durability arm this repo adds: UDP
// into the sharded epoll daemon journaling one append-only segment stream
// per shard (docs/storage_format.md) instead of one file per datagram.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <span>
#include <thread>

#include "bench_common.hpp"
#include "ingest/ingest_server.hpp"
#include "net/codec.hpp"
#include "net/file_spool.hpp"
#include "net/tcp.hpp"
#include "net/udp.hpp"
#include "storage/segment_store.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

siren::net::Message sample_message() {
    siren::net::Message m;
    m.job_id = 1000042;
    m.pid = 4242;
    m.exe_hash = "00ff00ff00ff00ff00ff00ff00ff00ff";
    m.host = "nid000123";
    m.time = 1733900000;
    m.type = siren::net::MsgType::kObjects;
    m.content = "/lib64/libc.so.6\n/opt/siren/lib/siren.so\n/usr/lib64/libnuma.so.1";
    return m;
}

constexpr int kMessages = 50000;

/// The receive-end handler every arm uses: counts delivered views.
siren::net::BatchHandler count_into(std::atomic<std::uint64_t>& delivered) {
    return [&delivered](std::size_t, std::span<const siren::net::MessageView> batch) {
        delivered.fetch_add(batch.size(), std::memory_order_relaxed);
    };
}

}  // namespace

int main() {
    siren::bench::print_header(
        "Ablation — UDP fire-and-forget vs TCP vs spool files vs segment ingest",
        "§3.1 design choice");
    const std::string wire = siren::net::encode(sample_message());
    siren::util::TextTable t({"Transport", "Scenario", "Messages", "Wall ms", "Msg/s",
                              "Delivered", "Send errors"});

    // --- UDP with live receiver: the ingest daemon without a store ----------
    {
        siren::ingest::IngestOptions options;
        options.shards = 2;
        std::atomic<std::uint64_t> delivered{0};
        siren::ingest::IngestServer server(options, count_into(delivered));
        siren::net::UdpSender sender("127.0.0.1", server.port());
        siren::util::Stopwatch watch;
        for (int i = 0; i < kMessages; ++i) sender.send(wire);
        const double ms = watch.millis();
        server.quiesce();
        server.stop();
        t.add_row({"UDP", "receiver up", std::to_string(kMessages),
                   siren::util::fixed(ms, 1),
                   siren::util::with_commas(static_cast<std::uint64_t>(kMessages / (ms / 1e3))),
                   siren::util::with_commas(delivered.load()),
                   std::to_string(sender.errors())});
    }

    // --- TCP with live receiver ---------------------------------------------
    {
        std::atomic<std::uint64_t> delivered{0};
        siren::net::TcpReceiver receiver(count_into(delivered), 0);
        siren::net::TcpSender sender("127.0.0.1", receiver.port());
        siren::util::Stopwatch watch;
        for (int i = 0; i < kMessages; ++i) sender.send(wire);
        const double ms = watch.millis();
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        receiver.stop();
        t.add_row({"TCP", "receiver up", std::to_string(kMessages),
                   siren::util::fixed(ms, 1),
                   siren::util::with_commas(static_cast<std::uint64_t>(kMessages / (ms / 1e3))),
                   siren::util::with_commas(delivered.load()),
                   std::to_string(sender.errors())});
    }

    // --- file spool (XALT-style): one file per datagram -----------------------
    {
        namespace fs = std::filesystem;
        const auto spool = fs::temp_directory_path() / "siren_bench_spool";
        fs::remove_all(spool);
        siren::net::FileSpoolSender sender(spool.string());
        siren::util::Stopwatch watch;
        for (int i = 0; i < kMessages; ++i) sender.send(wire);
        const double ms = watch.millis();

        std::atomic<std::uint64_t> delivered{0};
        siren::net::drain_spool(spool.string(), count_into(delivered));
        fs::remove_all(spool);
        t.add_row({"Spool files", "sweep after", std::to_string(kMessages),
                   siren::util::fixed(ms, 1),
                   siren::util::with_commas(static_cast<std::uint64_t>(kMessages / (ms / 1e3))),
                   siren::util::with_commas(delivered.load()),
                   std::to_string(sender.errors())});
    }

    // --- durable segment ingest: UDP -> epoll shards -> fsync-batched WAL -----
    {
        namespace fs = std::filesystem;
        const auto dir = fs::temp_directory_path() / "siren_bench_ingest_wal";
        fs::remove_all(dir);
        siren::storage::SegmentStore store(dir.string(), 2);
        siren::ingest::IngestOptions options;
        options.shards = 2;
        options.store = &store;
        std::atomic<std::uint64_t> delivered{0};
        siren::ingest::IngestServer server(options, count_into(delivered));
        siren::net::UdpSender sender("127.0.0.1", server.port());
        siren::util::Stopwatch watch;
        for (int i = 0; i < kMessages; ++i) sender.send(wire);
        const double ms = watch.millis();
        server.quiesce();
        server.stop();
        std::uint64_t replayable = 0;
        siren::storage::replay_directory(dir.string(), [&](std::string_view) { ++replayable; });
        fs::remove_all(dir);
        t.add_row({"Segment ingest", "durable WAL", std::to_string(kMessages),
                   siren::util::fixed(ms, 1),
                   siren::util::with_commas(static_cast<std::uint64_t>(kMessages / (ms / 1e3))),
                   siren::util::with_commas(delivered.load()) + " (" +
                       siren::util::with_commas(replayable) + " replayable)",
                   std::to_string(sender.errors())});
    }

    // --- receiver down --------------------------------------------------------
    {
        siren::net::UdpSender sender("127.0.0.1", 9);  // discard port, no listener
        siren::util::Stopwatch watch;
        for (int i = 0; i < kMessages; ++i) sender.send(wire);
        const double ms = watch.millis();
        t.add_row({"UDP", "receiver down", std::to_string(kMessages),
                   siren::util::fixed(ms, 1),
                   siren::util::with_commas(static_cast<std::uint64_t>(kMessages / (ms / 1e3))),
                   "0", std::to_string(sender.errors())});
    }
    {
        siren::util::Stopwatch watch;
        bool constructed = true;
        try {
            siren::net::TcpSender sender("127.0.0.1", 9);
        } catch (const std::exception&) {
            constructed = false;
        }
        t.add_row({"TCP", "receiver down", "-", siren::util::fixed(watch.millis(), 1), "-",
                   "-", constructed ? "0" : "connect refused"});
    }

    std::printf("%s\n", t.render().c_str());
    std::printf("Shape to observe: UDP keeps its throughput and stays harmless when the\n"
                "receiver is down; TCP couples the hooked process to receiver liveness\n"
                "(connection refused at startup); the spool-file design delivers\n"
                "everything but pays one filesystem create/write/rename per datagram —\n"
                "an order of magnitude slower per message, and every message is a small\n"
                "file the shared filesystem must absorb. The paper's rationale for UDP.\n"
                "The fourth arm keeps UDP's sender-side properties and still ends up\n"
                "durable: the epoll ingest daemon journals raw datagrams into a few\n"
                "append-only, fsync-batched segment files (replayable after a crash) —\n"
                "durability at sequential-write cost instead of per-message metadata.\n");
    return 0;
}
