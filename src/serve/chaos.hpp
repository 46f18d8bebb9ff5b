#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace siren::serve::chaos {

/// One chaos campaign: a seeded, randomized schedule of failpoint
/// activations and node kill-restarts driven against a live in-process
/// fleet (leader + replication source + N followers), interleaved with
/// client operations through a ReplicaClient. tools/siren_chaos and
/// tests/test_chaos.cpp both run this harness; docs/robustness.md states
/// the invariants it enforces.
struct ChaosOptions {
    /// Schedule seed — the whole campaign (op mix, fault choices, kill
    /// targets, client jitter) derives from it, so a failing seed replays.
    std::uint64_t seed = 1;
    /// Client operations to issue (observe/identify/stats mix).
    std::size_t ops = 200;
    /// Follower replicas behind the leader.
    std::size_t followers = 2;
    /// Scratch directory for segment dirs and checkpoints; the harness
    /// creates subdirectories under it and never deletes the root.
    std::string root;
    /// Per-operation wall-clock bound: every client op must succeed or
    /// fail with a typed error within it.
    std::chrono::milliseconds op_deadline{5000};
    /// How long the healed fleet gets to converge to one fingerprint.
    std::chrono::milliseconds converge_deadline{20000};
    /// Per-endpoint QueryClient timeout inside the ReplicaClient.
    std::chrono::milliseconds client_timeout{250};
    /// Include kill-restart events (leader and follower) in the schedule.
    bool kill_restart = true;
    /// Arm failpoints (requires a SIREN_FAILPOINTS=ON build; ignored —
    /// with a note in the report — when the hooks are compiled out).
    bool use_failpoints = true;
};

/// Campaign outcome. `failure` holds the first violated invariant
/// (empty = every invariant held).
struct ChaosReport {
    std::uint64_t ops_ok = 0;            ///< client ops that returned a result
    std::uint64_t ops_failed_typed = 0;  ///< ops that failed with a typed util::Error
    std::uint64_t deadline_misses = 0;   ///< ops that exceeded op_deadline (violation)
    std::uint64_t faults_armed = 0;      ///< failpoint activations scheduled
    std::uint64_t failpoint_fires = 0;   ///< injections that actually landed
    std::uint64_t kills_leader = 0;
    std::uint64_t kills_follower = 0;
    std::uint64_t snapshot_audits = 0;   ///< leader snapshots inspected mid-chaos
    std::uint64_t torn_snapshots = 0;    ///< snapshots failing self_check or version order (violation)
    bool converged = false;              ///< fleet reached one fingerprint after heal
    bool checkpoint_reload_ok = false;   ///< leader checkpoint reloads to the same state
    std::uint64_t leader_fingerprint = 0;
    std::vector<std::uint64_t> follower_fingerprints;
    /// Distinct failpoint names armed at least once during the campaign.
    std::vector<std::string> distinct_failpoints;
    std::string failure;

    bool ok() const { return failure.empty(); }
};

/// Run one campaign. Does not throw for chaos-induced trouble — every
/// invariant violation (including an unexpected exception out of the
/// fleet) lands in ChaosReport::failure.
ChaosReport run_chaos(const ChaosOptions& options);

/// Human-readable multi-line summary of a report (tool output; the last
/// line is "PASS" or "FAIL: <failure>").
std::string format_report(const ChaosReport& report);

}  // namespace siren::serve::chaos
