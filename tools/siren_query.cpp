// siren_query — post-processing and analysis over a stored message
// database (what the paper's Python scripts do, as a C++ CLI), plus the
// client face of the live recognition service.
//
//   siren_query DB_DIR                print the usage tables
//   siren_query DB_DIR --markdown     full Markdown report (incl. security scan)
//   siren_query DB_DIR --records      dump consolidated per-process records
//
//   siren_query --identify REPLICAS DIGEST...
//                                     ask a running siren_recognized which
//                                     family each digest belongs to
//   siren_query --identify-file REPLICAS FILE
//                                     batch identify: one digest per line
//                                     (blank lines and #-comments skipped),
//                                     sent as a single identify_many round
//                                     trip
//   siren_query --observe REPLICAS DIGEST [LABEL]
//                                     record a sighting (optionally labeled)
//   siren_query --observe-ts REPLICAS DIGEST [LABEL]
//                                     record a behavioral sighting: DIGEST is
//                                     a shapelet digest of a runtime counter
//                                     trace (docs/behavior_fingerprints.md)
//   siren_query --identify2 REPLICAS CONTENT_DIGEST BEHAVIOR_DIGEST [K]
//                                     the K (default 5) best families over
//                                     either or both channels ("-" skips a
//                                     channel): "- TS 1" is the behavior
//                                     channel's best match, "DIGEST - K" the
//                                     ranked content candidates
//   siren_query --serve-stats REPLICAS
//                                     service counters
//   siren_query --serve-checkpoint REPLICAS
//                                     force a registry checkpoint
//   siren_query --partmap REPLICAS
//                                     fetch a partitioned shard's map
//   siren_query --fprange REPLICAS LO HI
//                                     registry fingerprint over the
//                                     block-size range [LO, HI] (the
//                                     rebalance convergence check)
//   siren_query --sharded-observe MAPFILE DIGEST [LABEL]
//                                     route a sighting to its owner shard
//                                     through a serve::PartitionMap file
//   siren_query --sharded-identify2 MAPFILE CONTENT BEHAVIOR [K]
//                                     fused identify fanned across the
//                                     probe ladder's owner shards with a
//                                     client-side ranked merge ("-" skips)
//
// REPLICAS is "HOST:PORT" or a comma-separated list of them (a leader and
// its followers): reads round-robin across the list and fail over on a
// dead replica; --observe seeks the leader, skipping read-only followers
// (see docs/replication.md). MAPFILE is a serialized serve::PartitionMap
// (docs/sharding.md); the sharded modes self-refresh it over the wire on
// `wrong_shard` redirects.
//
// Exit codes: 0 success (including "unknown" identifications), 1 usage
// errors (any unrecognized flag is rejected, not ignored), 2 runtime
// failures (unreadable DB, unreachable service).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "analytics/aggregate.hpp"
#include "analytics/report.hpp"
#include "analytics/tables.hpp"
#include "consolidate/consolidator.hpp"
#include "db/message_store.hpp"
#include "serve/replica_client.hpp"
#include "serve/sharded_client.hpp"
#include "util/strings.hpp"

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: siren_query DB_DIR [--markdown|--records]\n"
                 "       siren_query --identify REPLICAS DIGEST...\n"
                 "       siren_query --identify-file REPLICAS FILE\n"
                 "       siren_query --observe REPLICAS DIGEST [LABEL]\n"
                 "       siren_query --observe-ts REPLICAS DIGEST [LABEL]\n"
                 "       siren_query --identify2 REPLICAS CONTENT BEHAVIOR [K] ('-' skips)\n"
                 "       siren_query --serve-stats REPLICAS\n"
                 "       siren_query --serve-checkpoint REPLICAS\n"
                 "       siren_query --partmap REPLICAS\n"
                 "       siren_query --fprange REPLICAS LO HI\n"
                 "       siren_query --sharded-observe MAPFILE DIGEST [LABEL]\n"
                 "       siren_query --sharded-identify2 MAPFILE CONTENT BEHAVIOR [K]\n"
                 "       (REPLICAS = HOST:PORT[,HOST:PORT...])\n");
    return 1;
}

/// One line per digest of a positional identify_many answer.
void print_identified(const std::vector<std::string>& digests,
                      const std::vector<std::optional<siren::serve::Identified>>& matches) {
    for (std::size_t i = 0; i < digests.size(); ++i) {
        if (matches[i]) {
            std::printf("%s -> %s (family %u, score %d)\n", digests[i].c_str(),
                        matches[i]->name.c_str(), matches[i]->family, matches[i]->score);
        } else {
            std::printf("%s -> unknown\n", digests[i].c_str());
        }
    }
}

/// One line for a recorded sighting.
void print_observed(const std::string& digest, const siren::serve::Identified& result) {
    std::printf("%s -> family %u '%s' (score %d)%s\n", digest.c_str(), result.family,
                result.name.c_str(), result.score, result.new_family ? " [new family]" : "");
}

/// The CONTENT BEHAVIOR [K] arguments of the identify2 modes ("-" skips a
/// channel, K defaults to 5); nullopt on a usage error.
std::optional<siren::serve::Probe> parse_probe(const std::vector<std::string>& args) {
    if (args.size() < 3 || args.size() > 4) return std::nullopt;
    siren::serve::Probe probe;
    probe.content = args[1] == "-" ? std::string() : args[1];
    probe.behavior = args[2] == "-" ? std::string() : args[2];
    if (probe.content.empty() && probe.behavior.empty()) return std::nullopt;
    long k = 5;
    if (args.size() == 4 && (!siren::util::parse_decimal(args[3], k) || k <= 0)) {
        return std::nullopt;
    }
    probe.k = static_cast<std::size_t>(k);
    return probe;
}

/// One line per ranked family, best first.
void print_ranking(const std::vector<siren::serve::FusedIdentified>& matches) {
    if (matches.empty()) {
        std::printf("unknown (no family above threshold on either channel)\n");
        return;
    }
    for (const auto& match : matches) {
        std::printf("%-24s family %-6u fused %-3d content %-3d behavior %d\n",
                    match.name.c_str(), match.family, match.score, match.content_score,
                    match.behavior_score);
    }
}

int serve_mode(const std::string& mode, const std::vector<std::string>& args) {
    if (args.empty()) return usage();
    std::vector<siren::serve::ReplicaEndpoint> replicas;
    try {
        replicas = siren::serve::parse_replica_list(args[0]);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "siren_query: %s\n", e.what());
        return 1;
    }

    try {
        siren::serve::ReplicaClient client(std::move(replicas));

        if (mode == "--identify") {
            if (args.size() < 2) return usage();
            const std::vector<std::string> digests(args.begin() + 1, args.end());
            print_identified(digests, client.identify_many(digests));
            return 0;
        }
        if (mode == "--identify-file") {
            if (args.size() != 2) return usage();
            std::ifstream in(args[1]);
            if (!in) {
                std::fprintf(stderr, "siren_query: cannot read '%s'\n", args[1].c_str());
                return 2;
            }
            std::vector<std::string> digests;
            std::string line;
            while (std::getline(in, line)) {
                const auto digest = siren::util::trim(line);
                if (digest.empty() || digest.front() == '#') continue;
                digests.emplace_back(digest);
            }
            if (digests.empty()) {
                std::fprintf(stderr, "siren_query: '%s' holds no digests\n", args[1].c_str());
                return 2;
            }
            print_identified(digests, client.identify_many(digests));
            return 0;
        }
        if (mode == "--observe" || mode == "--observe-ts") {
            if (args.size() < 2 || args.size() > 3) return usage();
            const std::string hint = args.size() == 3 ? args[2] : std::string();
            print_observed(args[1], mode == "--observe"
                                        ? client.observe(args[1], hint)
                                        : client.observe_behavior(args[1], hint));
            return 0;
        }
        if (mode == "--identify2") {
            const auto probe = parse_probe(args);
            if (!probe) return usage();
            print_ranking(client.identify(*probe));
            return 0;
        }
        if (mode == "--serve-stats") {
            if (args.size() != 1) return usage();
            std::printf("%s", client.stats_text().c_str());
            return 0;
        }
        if (mode == "--serve-checkpoint") {
            if (args.size() != 1) return usage();
            std::printf("checkpoint written: %s\n", client.checkpoint().c_str());
            return 0;
        }
        if (mode == "--partmap") {
            if (args.size() != 1) return usage();
            std::printf("%s", client.partition_map_text().c_str());
            return 0;
        }
        if (mode == "--fprange") {
            if (args.size() != 3) return usage();
            unsigned long long lo = 0, hi = 0;
            if (!siren::util::parse_decimal(args[1], lo) ||
                !siren::util::parse_decimal(args[2], hi) || lo > hi) {
                return usage();
            }
            std::printf("fingerprint_range %llu %llu %llu\n", lo, hi,
                        static_cast<unsigned long long>(client.fingerprint_range(lo, hi)));
            return 0;
        }
        return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "siren_query: %s\n", e.what());
        return 2;
    }
}

/// Modes routed through a PartitionMap file and a ShardedClient rather
/// than a single replica list.
int sharded_mode(const std::string& mode, const std::vector<std::string>& args) {
    if (args.empty()) return usage();
    try {
        siren::serve::ShardedClient client(siren::serve::load_partition_map(args[0]));

        if (mode == "--sharded-observe") {
            if (args.size() < 2 || args.size() > 3) return usage();
            print_observed(args[1],
                           client.observe(args[1], args.size() == 3 ? args[2] : std::string()));
            if (client.redirects_followed() > 0) {
                std::printf("(followed %llu wrong_shard redirect%s; map now v%llu)\n",
                            static_cast<unsigned long long>(client.redirects_followed()),
                            client.redirects_followed() == 1 ? "" : "s",
                            static_cast<unsigned long long>(client.map().version()));
            }
            return 0;
        }
        if (mode == "--sharded-identify2") {
            const auto probe = parse_probe(args);
            if (!probe) return usage();
            print_ranking(client.identify(*probe));
            return 0;
        }
        return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "siren_query: %s\n", e.what());
        return 2;
    }
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string first = argv[1];

    if (first.starts_with("--")) {
        // Service-client modes take the flag first; anything else that
        // looks like a flag is an error, not a silent fall-through.
        static const char* kServeModes[] = {"--identify",    "--identify-file",
                                            "--observe",     "--observe-ts",
                                            "--identify2",   "--serve-stats",
                                            "--serve-checkpoint", "--partmap",
                                            "--fprange"};
        for (const char* mode : kServeModes) {
            if (first == mode) {
                return serve_mode(first, std::vector<std::string>(argv + 2, argv + argc));
            }
        }
        if (first == "--sharded-observe" || first == "--sharded-identify2") {
            return sharded_mode(first, std::vector<std::string>(argv + 2, argv + argc));
        }
        std::fprintf(stderr, "siren_query: unknown option '%s'\n", first.c_str());
        return usage();
    }

    const std::string mode = argc > 2 ? argv[2] : "";
    if (argc > 3 || (argc == 3 && mode != "--markdown" && mode != "--records")) {
        if (!mode.empty() && mode != "--markdown" && mode != "--records") {
            std::fprintf(stderr, "siren_query: unknown option '%s'\n", mode.c_str());
        }
        return usage();
    }

    try {
        const auto db = siren::db::Database::load(argv[1]);
        const auto consolidated = siren::consolidate::consolidate(db);

        if (mode == "--records") {
            for (const auto& r : consolidated.records) {
                std::printf("%llu/%u pid=%lld host=%s exe=%s category=%s%s\n",
                            static_cast<unsigned long long>(r.job_id), r.step_id,
                            static_cast<long long>(r.pid), r.host.c_str(), r.exe_path.c_str(),
                            std::string(to_string(r.category)).c_str(),
                            r.has_missing_fields() ? " [missing fields]" : "");
            }
            return 0;
        }

        siren::analytics::Aggregates agg;
        for (const auto& r : consolidated.records) agg.add(r);

        if (mode == "--markdown") {
            std::printf("%s", siren::analytics::campaign_report_markdown(agg).c_str());
            return 0;
        }

        std::printf("== users/jobs/processes ==\n%s\n",
                    siren::analytics::table2_users(agg).render().c_str());
        std::printf("== system executables ==\n%s\n",
                    siren::analytics::table3_system_execs(agg).render().c_str());
        std::printf("== derived software labels ==\n%s\n",
                    siren::analytics::table5_user_labels(agg).render().c_str());
        std::printf("== python interpreters ==\n%s\n",
                    siren::analytics::table8_python(agg).render().c_str());
        std::printf("jobs with missing fields: %zu of %zu\n",
                    agg.jobs_with_missing_fields.size(), agg.all_jobs.size());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "siren_query: %s\n", e.what());
        return 2;
    }
    return 0;
}
