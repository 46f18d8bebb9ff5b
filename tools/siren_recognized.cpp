// siren_recognized — the live recognition daemon: a snapshot-swap registry
// service answering concurrent IDENTIFY/OBSERVE/STATS queries over a
// length-framed TCP protocol, optionally fed by an ingest daemon's durable
// segments, checkpointed for crash recovery, and — since the replication
// layer — deployable as a leader/follower fleet (docs/replication.md).
//
//   siren_recognized PORT [options]
//     --bind ADDR          IPv4 bind address (default 127.0.0.1)
//     --segments DIR       follow this segment directory (FILE_H digests
//                          flow into the live registry; pair with
//                          `siren_ingestd PORT DATA_DIR` on DATA_DIR/segments)
//     --checkpoint FILE    registry checkpoint path: loaded at startup,
//                          written periodically and at shutdown
//     --checkpoint-secs S  checkpoint cadence (default 30, 0 = only final)
//     --threshold N        registry match threshold (default 60)
//     --batch-threads N    fan-out pool for IDENTIFYB batches (default 0)
//     --seconds S          run duration (default: until SIGINT/SIGTERM)
//     --poll-ms MS         fallback segment poll (default 20): the directory
//                          is read when inotify reports a change in it, and
//                          at least this often (NFS or Lustre, which report
//                          no remote writes; the inotify instance limit)
//     --publish-ms MS      min spacing between snapshot publishes (default 5;
//                          amortizes the registry copy under write storms)
//
//   Leader (replication): requires --segments; client observes are
//   journaled into the segment directory (obs- stream) so followers and
//   leader restarts replay them.
//     --replicate PORT     serve segment-shipping replication (0 = ephemeral,
//                          printed in the banner)
//     --replicate-bind A   replication bind address (default: --bind value)
//     --no-wal-fsync       skip the per-batch observe-WAL fsync
//
//   Follower: requires --segments as the *local replica* directory; the
//   daemon serves IDENTIFY from replicated state and rejects OBSERVE.
//     --follow HOST:PORT   stream segments from this leader's --replicate
//                          port and converge to its family assignments
//
//   Sharded fleet (docs/sharding.md): the daemon becomes one leader shard
//   of a partitioned fleet; OBSERVEs whose block size it does not own are
//   rejected with `ERR wrong_shard` and PARTMAP serves the map to clients.
//     --partition-map FILE serialized serve::PartitionMap to load
//     --shard-id N         this daemon's shard id in the map (default 0;
//                          must fit 32 bits)
//
// Crash recovery = last checkpoint + replay of every segment record past
// its watermark (see docs/recognition_service.md). Query with:
//
//   siren_query --identify 127.0.0.1:PORT[,127.0.0.1:PORT2…] DIGEST

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "serve/serve.hpp"
#include "util/strings.hpp"

namespace {

std::atomic<bool> g_stop{false};
void handle_signal(int) { g_stop.store(true); }

int usage() {
    std::fprintf(stderr,
                 "usage: siren_recognized PORT [--bind ADDR] [--segments DIR]\n"
                 "                        [--checkpoint FILE] [--checkpoint-secs S]\n"
                 "                        [--threshold N] [--batch-threads N]\n"
                 "                        [--seconds S] [--poll-ms MS] [--publish-ms MS]\n"
                 "                        [--replicate PORT] [--replicate-bind ADDR]\n"
                 "                        [--no-wal-fsync] [--follow HOST:PORT]\n"
                 "                        [--partition-map FILE] [--shard-id N]\n");
    return 1;
}

/// Strict numeric parse (util::parse_decimal): usage errors in a daemon's
/// command line should be loud, not silently become port 0.
bool parse_number(const char* arg, long& out) { return siren::util::parse_decimal(arg, out); }

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    long port = 0;
    if (!parse_number(argv[1], port) || port > 65535) {
        std::fprintf(stderr, "siren_recognized: bad port '%s'\n", argv[1]);
        return usage();
    }

    siren::serve::ServeOptions options;
    siren::serve::QueryServerOptions server_options;
    server_options.port = static_cast<std::uint16_t>(port);
    long run_seconds = 0;
    long checkpoint_seconds = 30;
    long poll_ms = 20;
    long publish_ms = 5;
    long threshold = 60;
    long batch_threads = 0;
    long replicate_port = -1;  // -1 = replication off
    std::string replicate_bind;
    std::string follow_endpoint;
    std::string partition_map_path;
    std::uint32_t shard_id = 0;
    for (int i = 2; i < argc; ++i) {
        const auto needs_value = [&](const char* flag) {
            return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
        };
        if (needs_value("--bind")) {
            server_options.bind_address = argv[++i];
        } else if (needs_value("--segments")) {
            options.segments_dir = argv[++i];
        } else if (needs_value("--checkpoint")) {
            options.checkpoint_path = argv[++i];
        } else if (needs_value("--checkpoint-secs")) {
            if (!parse_number(argv[++i], checkpoint_seconds)) return usage();
        } else if (needs_value("--threshold")) {
            if (!parse_number(argv[++i], threshold) || threshold < 1 || threshold > 100) {
                return usage();
            }
        } else if (needs_value("--batch-threads")) {
            if (!parse_number(argv[++i], batch_threads)) return usage();
        } else if (needs_value("--seconds")) {
            if (!parse_number(argv[++i], run_seconds)) return usage();
        } else if (needs_value("--poll-ms")) {
            if (!parse_number(argv[++i], poll_ms) || poll_ms < 1) return usage();
        } else if (needs_value("--publish-ms")) {
            if (!parse_number(argv[++i], publish_ms)) return usage();
        } else if (needs_value("--replicate")) {
            if (!parse_number(argv[++i], replicate_port) || replicate_port > 65535) {
                return usage();
            }
        } else if (needs_value("--replicate-bind")) {
            replicate_bind = argv[++i];
        } else if (std::strcmp(argv[i], "--no-wal-fsync") == 0) {
            options.replication.wal_fsync = false;
        } else if (needs_value("--follow")) {
            follow_endpoint = argv[++i];
        } else if (needs_value("--partition-map")) {
            partition_map_path = argv[++i];
        } else if (needs_value("--shard-id")) {
            if (!siren::serve::parse_shard_id(argv[++i], shard_id)) return usage();
        } else {
            std::fprintf(stderr, "siren_recognized: unknown or incomplete option '%s'\n",
                         argv[i]);
            return usage();
        }
    }
    if ((replicate_port >= 0 || !follow_endpoint.empty()) && options.segments_dir.empty()) {
        std::fprintf(stderr,
                     "siren_recognized: --replicate/--follow need --segments DIR "
                     "(the shipped/replica segment directory)\n");
        return usage();
    }
    if (replicate_port >= 0 && !follow_endpoint.empty()) {
        std::fprintf(stderr,
                     "siren_recognized: --replicate and --follow are exclusive "
                     "(chained replication is not supported)\n");
        return usage();
    }
    options.registry.match_threshold = static_cast<int>(threshold);
    options.checkpoint_interval = std::chrono::seconds(checkpoint_seconds);
    options.feed_poll = std::chrono::milliseconds(poll_ms);
    options.publish_interval = std::chrono::milliseconds(publish_ms);
    options.batch_pool_threads = static_cast<std::size_t>(batch_threads);
    options.replication.observe_wal = replicate_port >= 0;
    options.replication.read_only = !follow_endpoint.empty();
    if (!partition_map_path.empty()) {
        try {
            options.partition.map = std::make_shared<const siren::serve::PartitionMap>(
                siren::serve::load_partition_map(partition_map_path));
        } catch (const std::exception& e) {
            std::fprintf(stderr, "siren_recognized: --partition-map: %s\n", e.what());
            return 2;
        }
        options.partition.shard_id = shard_id;
    }

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    try {
        std::unique_ptr<siren::serve::ReplicationFollower> follower;
        if (!follow_endpoint.empty()) {
            const auto leader = siren::serve::parse_replica_list(follow_endpoint);
            if (leader.size() != 1) {
                std::fprintf(stderr, "siren_recognized: --follow takes one HOST:PORT\n");
                return usage();
            }
            siren::serve::ReplicationFollowerOptions follow_options;
            follow_options.leader_host = leader.front().host;
            follow_options.leader_port = leader.front().port;
            follow_options.directory = options.segments_dir;
            // Start shipping before the service constructs, so its catch-up
            // replay already sees whatever arrives during boot; the tail
            // keeps following the rest live.
            follower = std::make_unique<siren::serve::ReplicationFollower>(follow_options);
        }

        siren::serve::RecognitionService service(options);
        siren::serve::QueryServer server(service, server_options);

        std::unique_ptr<siren::serve::ReplicationSource> source;
        if (replicate_port >= 0) {
            siren::serve::ReplicationSourceOptions source_options;
            source_options.port = static_cast<std::uint16_t>(replicate_port);
            source_options.bind_address =
                replicate_bind.empty() ? server_options.bind_address : replicate_bind;
            source_options.segments_dir = options.segments_dir;
            source = std::make_unique<siren::serve::ReplicationSource>(source_options);
        }

        const auto boot = service.snapshot();
        std::printf("siren_recognized: serving on tcp://%s:%u (families=%zu, applied=%llu%s%s%s)\n",
                    server_options.bind_address.c_str(), server.port(),
                    boot->registry.family_count(),
                    static_cast<unsigned long long>(boot->applied),
                    options.segments_dir.empty() ? "" : ", following segments",
                    options.checkpoint_path.empty() ? "" : ", checkpointing",
                    options.replication.read_only ? ", read-only follower" : "");
        if (source) {
            std::printf("siren_recognized: replicating on tcp://%s:%u\n",
                        replicate_bind.empty() ? server_options.bind_address.c_str()
                                               : replicate_bind.c_str(),
                        source->port());
        }
        if (follower) {
            std::printf("siren_recognized: following leader tcp://%s\n",
                        follow_endpoint.c_str());
        }
        if (const auto map = service.partition_map()) {
            std::printf("siren_recognized: shard %u of %zu, partition map v%llu\n",
                        shard_id, map->shard_count(),
                        static_cast<unsigned long long>(map->version()));
        }
        std::fflush(stdout);  // scripted callers parse the ports from these lines

        const auto start = std::chrono::steady_clock::now();
        while (!g_stop.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            if (run_seconds > 0 &&
                std::chrono::steady_clock::now() - start > std::chrono::seconds(run_seconds)) {
                break;
            }
        }

        if (source) source->stop();
        if (follower) follower->stop();
        server.stop();
        service.stop();  // final checkpoint

        const auto counters = service.counters();
        const auto server_stats = server.stats();
        const auto snap = service.snapshot();
        std::printf("siren_recognized: families=%zu sightings=%llu requests=%llu "
                    "feed_file_hashes=%llu feed_malformed=%llu checkpoints=%llu "
                    "checkpoint_errors=%llu observes_journaled=%llu wal_fallbacks=%llu\n",
                    snap->registry.family_count(),
                    static_cast<unsigned long long>(snap->registry.total_sightings()),
                    static_cast<unsigned long long>(server_stats.requests),
                    static_cast<unsigned long long>(counters.feed_file_hashes),
                    static_cast<unsigned long long>(counters.feed_malformed),
                    static_cast<unsigned long long>(counters.checkpoints),
                    static_cast<unsigned long long>(counters.checkpoint_errors),
                    static_cast<unsigned long long>(counters.observes_journaled),
                    static_cast<unsigned long long>(counters.wal_fallbacks));
        if (source) {
            const auto rs = source->stats();
            std::printf("siren_recognized: replication followers=%llu chunks=%llu "
                        "bytes=%llu protocol_errors=%llu\n",
                        static_cast<unsigned long long>(rs.connections),
                        static_cast<unsigned long long>(rs.chunks_sent),
                        static_cast<unsigned long long>(rs.bytes_shipped),
                        static_cast<unsigned long long>(rs.protocol_errors));
        }
        if (follower) {
            const auto fs = follower->stats();
            std::printf("siren_recognized: follower connects=%llu chunks=%llu bytes=%llu "
                        "chunk_drops=%llu\n",
                        static_cast<unsigned long long>(fs.connects),
                        static_cast<unsigned long long>(fs.chunks),
                        static_cast<unsigned long long>(fs.bytes),
                        static_cast<unsigned long long>(fs.chunk_drops));
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "siren_recognized: %s\n", e.what());
        return 2;
    }
}
