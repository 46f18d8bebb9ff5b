// siren_ingestd — the production ingest daemon: N SO_REUSEPORT UDP sockets
// drained by per-shard epoll loops into lock-free rings, every raw datagram
// journaled to a durable segment store (crash-recoverable WAL), decoded
// messages inserted into the raw-message table.
//
//   siren_ingestd PORT DATA_DIR [options]
//     --shards N        sockets/rings/workers (default 4)
//     --bind ADDR       IPv4 bind address (default 127.0.0.1; use 0.0.0.0
//                       so remote compute nodes can reach the daemon)
//     --seconds S       run duration (default: until SIGINT/SIGTERM)
//     --memory          disable the segment store (in-memory ingest only)
//     --compact-secs S  background-compact consolidated segments every S s
//     --replay          rebuild DATA_DIR from DATA_DIR/segments and exit
//
// Segments land in DATA_DIR/segments, the message table in
// DATA_DIR/messages.tsv (written at shutdown). After a crash — power cut,
// OOM kill — the tsv is stale or missing but the segments are not:
//
//   siren_ingestd 0 /var/lib/siren --replay
//
// recovers every complete record (a torn tail from the crash is reported,
// not fatal). See docs/storage_format.md.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <span>
#include <string>
#include <thread>

#include "db/message_store.hpp"
#include "ingest/ingest_server.hpp"
#include "storage/segment_store.hpp"
#include "util/strings.hpp"

namespace {

std::atomic<bool> g_stop{false};
void handle_signal(int) { g_stop.store(true); }

int usage() {
    std::fprintf(stderr,
                 "usage: siren_ingestd PORT DATA_DIR [--shards N] [--bind ADDR] [--seconds S]\n"
                 "                     [--memory] [--compact-secs S] [--replay]\n");
    return 1;
}

/// Strict numeric parse (util::parse_decimal): "80x" or "" must be a loud
/// usage error, not silently become some other port/shard count.
bool parse_number(const char* arg, long& out) { return siren::util::parse_decimal(arg, out); }

}  // namespace

int main(int argc, char** argv) {
    if (argc < 3) return usage();
    long port_value = 0;
    if (!parse_number(argv[1], port_value) || port_value > 65535) {
        std::fprintf(stderr, "siren_ingestd: bad port '%s'\n", argv[1]);
        return usage();
    }
    const auto port = static_cast<std::uint16_t>(port_value);
    const std::string data_dir = argv[2];
    const std::string segments_dir = data_dir + "/segments";

    long shards = 4;
    std::string bind_address = "127.0.0.1";
    long run_seconds = 0;
    long compact_seconds = 0;
    bool durable = true;
    bool replay = false;
    for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
            if (!parse_number(argv[++i], shards)) return usage();
        } else if (std::strcmp(argv[i], "--bind") == 0 && i + 1 < argc) {
            bind_address = argv[++i];
        } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
            if (!parse_number(argv[++i], run_seconds)) return usage();
        } else if (std::strcmp(argv[i], "--compact-secs") == 0 && i + 1 < argc) {
            if (!parse_number(argv[++i], compact_seconds)) return usage();
        } else if (std::strcmp(argv[i], "--memory") == 0) {
            durable = false;
        } else if (std::strcmp(argv[i], "--replay") == 0) {
            replay = true;
        } else {
            std::fprintf(stderr, "siren_ingestd: unknown or incomplete option '%s'\n", argv[i]);
            return usage();
        }
    }
    if (shards <= 0) return usage();

    siren::db::Database db;
    try {
        // An unusable DATA_DIR fails here, before any traffic is accepted.
        std::filesystem::create_directories(data_dir);

        if (replay) {
            const auto result = siren::db::replay_segments(segments_dir, db);
            db.save(data_dir);
            std::printf("siren_ingestd: replayed %llu records from %llu segments into %s\n",
                        static_cast<unsigned long long>(result.inserted),
                        static_cast<unsigned long long>(result.storage.segments),
                        data_dir.c_str());
            if (result.storage.torn_tails > 0 || result.storage.crc_failures > 0) {
                std::printf("siren_ingestd: tolerated %llu torn tail(s), %llu checksum failure(s)\n",
                            static_cast<unsigned long long>(result.storage.torn_tails),
                            static_cast<unsigned long long>(result.storage.crc_failures));
            }
            return 0;
        }

        std::signal(SIGINT, handle_signal);
        std::signal(SIGTERM, handle_signal);
        siren::db::Table& table = siren::db::create_message_table(db);
        std::unique_ptr<siren::storage::SegmentStore> store;
        if (durable) {
            store = std::make_unique<siren::storage::SegmentStore>(
                segments_dir, static_cast<std::size_t>(shards));
        }

        siren::ingest::IngestOptions options;
        options.port = port;
        options.bind_address = bind_address;
        options.shards = static_cast<std::size_t>(shards);
        options.store = store.get();
        if (compact_seconds > 0) {
            // Records are inserted before their segment seals, so sealed
            // segments are fully consolidated — but compaction trades away
            // replayability of compacted history; it is opt-in.
            options.compaction_interval = std::chrono::seconds(compact_seconds);
            options.compact_sealed = true;
        }

        siren::ingest::IngestServer server(
            options, [&table](std::size_t, std::span<const siren::net::MessageView> batch) {
                for (const auto& view : batch) {
                    siren::db::insert_message(table, view.to_message());
                }
            });
        std::printf("siren_ingestd: %zu shard(s) on udp://%s:%u, %s\n", server.shards(),
                    bind_address.c_str(), server.port(),
                    durable ? ("journaling to " + segments_dir).c_str() : "in-memory (no WAL)");
        // Scripts that bind port 0 read the port from this line while the
        // daemon runs, so it must not wait in a pipe's buffer until exit.
        std::fflush(stdout);

        const auto start = std::chrono::steady_clock::now();
        while (!g_stop.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
            if (run_seconds > 0 &&
                std::chrono::steady_clock::now() - start > std::chrono::seconds(run_seconds)) {
                break;
            }
        }
        server.quiesce();
        server.stop();

        const auto stats = server.stats();
        std::printf("siren_ingestd: received=%llu decoded=%llu malformed=%llu "
                    "ring_dropped=%llu journaled=%llu storage_errors=%llu\n",
                    static_cast<unsigned long long>(stats.received),
                    static_cast<unsigned long long>(stats.decoded),
                    static_cast<unsigned long long>(stats.malformed),
                    static_cast<unsigned long long>(stats.ring_dropped),
                    static_cast<unsigned long long>(stats.appended),
                    static_cast<unsigned long long>(stats.storage_errors));
        db.save(data_dir);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "siren_ingestd: %s\n", e.what());
        return 2;
    }

    std::printf("siren_ingestd: database written to %s\n", data_dir.c_str());
    return 0;
}
