#include "serve/chaos.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "fuzzy/fuzzy.hpp"
#include "serve/serve.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace fs = std::filesystem;

namespace siren::serve::chaos {

namespace {

using Clock = std::chrono::steady_clock;

ServeOptions fleet_service_options() {
    ServeOptions options;
    options.feed_poll = std::chrono::milliseconds(2);
    options.checkpoint_interval = std::chrono::milliseconds(0);
    return options;
}

/// Leader process: recognition service in WAL mode + its TCP face. The
/// replication source is deliberately NOT part of this node — it reads the
/// segment directory independently, so a leader kill-restart (fresh
/// segment sequence, checkpoint reload) happens under a live source
/// exactly as a daemon restart would under live followers.
struct LeaderNode {
    std::unique_ptr<RecognitionService> service;
    std::unique_ptr<QueryServer> server;

    void start(const std::string& segments_dir, const std::string& checkpoint) {
        auto options = fleet_service_options();
        options.segments_dir = segments_dir;
        options.replication.observe_wal = true;
        options.replication.wal_fsync = false;
        options.checkpoint_path = checkpoint;
        service = std::make_unique<RecognitionService>(std::move(options));
        server = std::make_unique<QueryServer>(*service);
    }

    void kill() {
        server.reset();
        service.reset();  // stop() writes the final checkpoint
    }
};

/// Follower process: shipping sink + read-only service + TCP face.
struct FollowerNode {
    std::unique_ptr<ReplicationFollower> ship;
    std::unique_ptr<RecognitionService> service;
    std::unique_ptr<QueryServer> server;

    void start(std::uint16_t source_port, const std::string& replica_dir,
               const std::string& checkpoint) {
        ReplicationFollowerOptions ship_options;
        ship_options.leader_port = source_port;
        ship_options.directory = replica_dir;
        ship_options.reconnect_backoff = std::chrono::milliseconds(10);
        ship_options.reconnect_backoff_cap = std::chrono::milliseconds(200);
        ship = std::make_unique<ReplicationFollower>(ship_options);
        auto options = fleet_service_options();
        options.segments_dir = replica_dir;
        options.replication.read_only = true;
        options.checkpoint_path = checkpoint;
        service = std::make_unique<RecognitionService>(std::move(options));
        server = std::make_unique<QueryServer>(*service);
    }

    void kill() {
        server.reset();
        service.reset();
        ship.reset();
    }
};

/// The fault menu: failpoints whose injected failures the fleet is
/// contractually able to absorb without losing acknowledged state —
/// connection faults retry, corrupt/short chunks re-request from the
/// watermark, feed-read errors retry next poll. (Faults that legally
/// *lose* un-acknowledged state, like WAL append failures falling back to
/// direct apply, are exercised by targeted unit tests instead: the
/// convergence invariant here demands byte-equal replicas.)
struct Fault {
    const char* name;
    const char* spec;
};

constexpr Fault kFaultMenu[] = {
    {"net.tcp.connect", "error(111)%3"},          // ECONNREFUSED every 3rd connect
    {"net.tcp.send", "short-write%5"},            // torn frame mid-stream
    {"net.tcp.send", "error(104)%7"},             // ECONNRESET
    {"replication.source.chunk", "delay(3000)%2"},// shipping stall
    {"replication.source.corrupt", "corrupt-byte%4"},  // follower must reject
    {"replication.sink.write", "error(28)%5"},    // ENOSPC on the replica disk
    {"serve.tail.read", "error(5)%3"},            // EIO reading the feed
    {"serve.publish.copy", "delay(3000)%2"},      // slow O(delta) registry copy
    {"serve.publish.copy", "error(5)%4"},         // publish aborted pre-copy; retried
    {"serve.publish.swap", "delay(1000)%3"},      // stall between copy and swap
    {"serve.publish.swap", "error(5)%5"},         // assembled snapshot dropped; retried
};

bool eventually(const std::function<bool()>& done, std::chrono::milliseconds limit) {
    const auto deadline = Clock::now() + limit;
    while (Clock::now() < deadline) {
        if (done()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return done();
}

void set_failure(ChaosReport& report, std::string message) {
    if (report.failure.empty()) report.failure = std::move(message);
}

}  // namespace

ChaosReport run_chaos(const ChaosOptions& options) {
    ChaosReport report;
    util::Rng rng(options.seed);
    const bool inject = options.use_failpoints && util::failpoint::compiled_in();
    if (inject) util::failpoint::clear();  // process-global: start pristine

    fs::create_directories(options.root);
    const auto leader_dir = options.root + "/leader";
    const auto leader_ckpt = options.root + "/leader.ckpt";

    std::set<std::string> armed_names;
    try {
        LeaderNode leader;
        leader.start(leader_dir, leader_ckpt);

        ReplicationSourceOptions source_options;
        source_options.segments_dir = leader_dir;
        source_options.poll = std::chrono::milliseconds(2);
        ReplicationSource source(source_options);

        std::vector<FollowerNode> followers(options.followers);
        std::vector<std::string> replica_dirs;
        std::vector<std::string> replica_ckpts;
        for (std::size_t i = 0; i < followers.size(); ++i) {
            replica_dirs.push_back(options.root + "/replica_" + std::to_string(i));
            replica_ckpts.push_back(options.root + "/replica_" + std::to_string(i) + ".ckpt");
            followers[i].start(source.port(), replica_dirs[i], replica_ckpts[i]);
        }

        // The client sees the whole fleet; rebuilt after every kill-restart
        // because restarted servers bind fresh ephemeral ports.
        auto make_client = [&] {
            std::vector<ReplicaEndpoint> endpoints;
            endpoints.push_back({"127.0.0.1", leader.server->port()});
            for (auto& f : followers) endpoints.push_back({"127.0.0.1", f.server->port()});
            ReplicaClientOptions client_options;
            client_options.timeout = options.client_timeout;
            client_options.retry_sweeps = 1;
            client_options.backoff_floor = std::chrono::milliseconds(10);
            client_options.backoff_cap = std::chrono::milliseconds(100);
            client_options.cooldown_floor = std::chrono::milliseconds(50);
            client_options.cooldown_cap = std::chrono::milliseconds(500);
            client_options.jitter_seed = rng.next() | 1;
            return std::make_unique<ReplicaClient>(std::move(endpoints), client_options);
        };
        auto client = make_client();

        // A fixed digest corpus: observes and identifies draw from it, so
        // reads have a chance to hit and family joins actually happen.
        std::vector<fuzzy::FuzzyDigest> corpus;
        for (int i = 0; i < 24; ++i) corpus.push_back(fuzzy::fuzzy_hash(rng.bytes(4096)));
        std::vector<fuzzy::FuzzyDigest> behavior_corpus;
        for (int i = 0; i < 8; ++i) behavior_corpus.push_back(fuzzy::fuzzy_hash(rng.bytes(4096)));

        // Snapshot versions restart from zero with each leader incarnation,
        // so the monotonicity audit below resets on a leader kill.
        std::uint64_t last_snapshot_version = 0;

        for (std::size_t op = 0; op < options.ops; ++op) {
            // Chaos event roughly every 6th op.
            if (rng.below(6) == 0) {
                const auto event = rng.below(12);
                if (event < 7 && inject) {
                    const auto& fault = kFaultMenu[rng.index(std::size(kFaultMenu))];
                    util::failpoint::activate(fault.name, fault.spec);
                    armed_names.insert(fault.name);
                    ++report.faults_armed;
                } else if (event < 9) {
                    if (inject) {
                        // Heal window: tally what landed before disarming.
                        for (const auto& c : util::failpoint::counters()) {
                            report.failpoint_fires += c.fires;
                        }
                        util::failpoint::clear();
                    }
                } else if (event < 11 && options.kill_restart && !followers.empty()) {
                    const auto victim = rng.index(followers.size());
                    followers[victim].kill();
                    followers[victim].start(source.port(), replica_dirs[victim],
                                            replica_ckpts[victim]);
                    ++report.kills_follower;
                    client = make_client();
                } else if (options.kill_restart) {
                    leader.kill();
                    leader.start(leader_dir, leader_ckpt);
                    ++report.kills_leader;
                    last_snapshot_version = 0;
                    client = make_client();
                }
            }

            const auto started = Clock::now();
            try {
                const auto kind = rng.below(10);
                const auto& digest = corpus[rng.index(corpus.size())];
                if (kind < 3) {
                    const std::string hint =
                        rng.chance(0.5) ? "fam-" + std::to_string(rng.below(8)) : std::string();
                    (void)client->observe(digest.to_string(), hint);
                } else if (kind == 3) {
                    (void)client->observe_behavior(
                        behavior_corpus[rng.index(behavior_corpus.size())].to_string(),
                        "beh-" + std::to_string(rng.below(4)));
                } else if (kind < 9) {
                    // Content top-1, content top-3, or a fused top-3.
                    Probe probe{.content = digest.to_string(), .behavior = {},
                                .k = kind < 7 ? 1u : 3u};
                    if (kind == 8) probe.behavior = behavior_corpus[0].to_string();
                    (void)client->identify(probe);
                } else {
                    (void)client->stats_text();
                }
                ++report.ops_ok;
            } catch (const util::Error&) {
                // Typed failure — legal under chaos, as long as it was
                // prompt (checked below) and the fleet heals afterwards.
                ++report.ops_failed_typed;
            }
            const auto elapsed =
                std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - started);
            if (elapsed > options.op_deadline) {
                ++report.deadline_misses;
                set_failure(report, "op " + std::to_string(op) + " took " +
                                        std::to_string(elapsed.count()) + "ms (deadline " +
                                        std::to_string(options.op_deadline.count()) + "ms)");
            }

            // Torn-snapshot audit: whatever the writer is doing — including
            // a publish stalled or aborted by the serve.publish.* faults
            // above — every snapshot a reader can acquire must be internally
            // consistent (the COW copy must not expose a half-mutated
            // registry) and versions must only move forward within one
            // leader incarnation.
            ++report.snapshot_audits;
            const auto snap = leader.service->snapshot();
            std::string why;
            if (!snap->registry.self_check(&why)) {
                ++report.torn_snapshots;
                set_failure(report, "torn snapshot at op " + std::to_string(op) + ": " + why);
            } else if (snap->version < last_snapshot_version) {
                ++report.torn_snapshots;
                set_failure(report, "snapshot version went backwards at op " +
                                        std::to_string(op) + ": " +
                                        std::to_string(snap->version) + " after " +
                                        std::to_string(last_snapshot_version));
            } else {
                last_snapshot_version = snap->version;
            }
        }

        // Heal: disarm everything, tally fires, and let the fleet converge.
        if (inject) {
            for (const auto& c : util::failpoint::counters()) report.failpoint_fires += c.fires;
            util::failpoint::clear();
        }
        leader.service->flush();
        const auto leader_fp = [&] { return leader.service->snapshot()->fingerprint(); };
        report.converged = eventually(
            [&] {
                const auto target = leader_fp();
                return std::all_of(followers.begin(), followers.end(), [&](FollowerNode& f) {
                    return f.service->snapshot()->fingerprint() == target;
                });
            },
            options.converge_deadline);
        report.leader_fingerprint = leader_fp();
        for (auto& f : followers) {
            report.follower_fingerprints.push_back(f.service->snapshot()->fingerprint());
        }
        if (!report.converged) {
            set_failure(report, "fleet did not converge: leader fingerprint " +
                                    std::to_string(report.leader_fingerprint));
        }

        // Checkpoint invariant: a checkpoint taken now must reload into an
        // identical registry (no torn or stale checkpoint after the kills).
        std::string error;
        if (!leader.service->checkpoint_now(&error)) {
            set_failure(report, "leader checkpoint failed: " + error);
        } else {
            auto verify_options = fleet_service_options();
            verify_options.segments_dir = leader_dir;
            verify_options.checkpoint_path = leader_ckpt;
            verify_options.replication.read_only = true;
            RecognitionService reloaded(std::move(verify_options));
            report.checkpoint_reload_ok = eventually(
                [&] { return reloaded.snapshot()->fingerprint() == leader_fp(); },
                std::chrono::milliseconds(5000));
            if (!report.checkpoint_reload_ok) {
                set_failure(report,
                            "checkpoint reload diverged: " +
                                std::to_string(reloaded.snapshot()->fingerprint()) + " vs " +
                                std::to_string(leader_fp()));
            }
            reloaded.stop();
        }

        client.reset();
        for (auto& f : followers) f.kill();
        source.stop();
        leader.kill();
    } catch (const std::exception& e) {
        set_failure(report, std::string("unexpected exception: ") + e.what());
    }
    if (inject) util::failpoint::clear();
    report.distinct_failpoints.assign(armed_names.begin(), armed_names.end());
    return report;
}

std::string format_report(const ChaosReport& report) {
    std::string out;
    const auto line = [&out](std::string_view key, std::uint64_t value) {
        out += key;
        out.push_back(' ');
        util::append_number(out, value);
        out.push_back('\n');
    };
    line("ops_ok", report.ops_ok);
    line("ops_failed_typed", report.ops_failed_typed);
    line("deadline_misses", report.deadline_misses);
    line("faults_armed", report.faults_armed);
    line("failpoint_fires", report.failpoint_fires);
    line("kills_leader", report.kills_leader);
    line("kills_follower", report.kills_follower);
    line("snapshot_audits", report.snapshot_audits);
    line("torn_snapshots", report.torn_snapshots);
    line("converged", report.converged ? 1 : 0);
    line("checkpoint_reload_ok", report.checkpoint_reload_ok ? 1 : 0);
    line("leader_fingerprint", report.leader_fingerprint);
    for (std::size_t i = 0; i < report.follower_fingerprints.size(); ++i) {
        line("follower_" + std::to_string(i) + "_fingerprint",
             report.follower_fingerprints[i]);
    }
    out += "failpoints";
    for (const auto& name : report.distinct_failpoints) {
        out.push_back(' ');
        out += name;
    }
    out.push_back('\n');
    out += report.ok() ? "PASS\n" : "FAIL: " + report.failure + "\n";
    return out;
}

}  // namespace siren::serve::chaos
