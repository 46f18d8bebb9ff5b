#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/partition_map.hpp"  // ReplicaEndpoint, parse_replica_list
#include "serve/query_client.hpp"
#include "util/rng.hpp"

namespace siren::serve {

/// Retry/backoff tuning for one ReplicaClient.
struct ReplicaClientOptions {
    /// Per-call deadline handed to each QueryClient.
    std::chrono::milliseconds timeout{5000};
    /// Extra sweeps across the whole replica list after the first one
    /// fails everywhere, each preceded by a backoff sleep. 0 restores the
    /// single-sweep PR 5 behavior (fail fast, never sleep).
    std::size_t retry_sweeps = 2;
    /// Between-sweep backoff bounds (decorrelated jitter: each sleep is
    /// uniform in [floor, min(cap, 3 * previous sleep)]), so a dead fleet
    /// is probed at a decaying, desynchronized cadence instead of being
    /// hot-spun.
    std::chrono::milliseconds backoff_floor{50};
    std::chrono::milliseconds backoff_cap{2000};
    /// Per-endpoint cooldown after a failure: the endpoint is skipped
    /// (unless every endpoint is cooling) until the cooldown expires.
    /// Doubles per consecutive failure up to the cap; any success resets.
    std::chrono::milliseconds cooldown_floor{200};
    std::chrono::milliseconds cooldown_cap{5000};
    /// Jitter seed; 0 derives one per instance.
    std::uint64_t jitter_seed = 0;
};

/// ReplicaClient counters.
struct ReplicaClientStats {
    std::uint64_t requests = 0;             ///< typed calls issued
    std::uint64_t failovers = 0;            ///< endpoint skipped on a transport error
    std::uint64_t read_only_redirects = 0;  ///< OBSERVE bounced off a follower
    std::uint64_t overload_redirects = 0;   ///< "ERR overloaded" shed replies retried
    std::uint64_t cooldown_skips = 0;       ///< endpoints skipped while cooling down
    std::uint64_t backoffs = 0;             ///< between-sweep sleeps taken
};

/// Replica-aware face of QueryClient — the client side of the scale-out
/// story. Reads (identify/identify_many/stats/checkpoint) spread
/// round-robin across the replica list and fail over to the next replica
/// on any transport error (connect refused/timed out, dead connection,
/// reply deadline) until one answers or every replica failed. OBSERVE is
/// leader-seeking: a follower's read-only rejection (kReadOnlyError) makes
/// the client try the next replica, and whichever endpoint accepts is
/// remembered as the leader for subsequent writes.
///
/// Connections are lazy and cached per endpoint; an endpoint that failed
/// reconnects on its next turn, so a restarted replica rejoins the
/// rotation automatically. Application-level "ERR …" responses (bad
/// digest, unknown verb) are NOT failed over — every replica would answer
/// the same — and surface as util::Error exactly like QueryClient's. Two
/// exceptions participate in failover because they mean "wrong replica
/// right now", not "bad request": kReadOnlyError (OBSERVE hit a follower)
/// and kOverloadedError (the replica shed the request under load).
///
/// A sweep that fails on every endpoint no longer rethrows immediately:
/// up to retry_sweeps more passes run, separated by decorrelated-jitter
/// backoff sleeps, and endpoints that failed recently sit out a growing
/// cooldown (they are only probed when every endpoint is cooling). A dead
/// fleet therefore costs bounded, decaying probe traffic instead of a hot
/// spin, and a briefly-overloaded fleet absorbs the retry.
/// Not thread-safe: one client, one thread (as QueryClient).
class ReplicaClient {
public:
    /// Endpoints are used as given; duplicates are legal. Throws
    /// util::Error when the list is empty. No connection is attempted
    /// until the first call.
    explicit ReplicaClient(std::vector<ReplicaEndpoint> replicas,
                           std::chrono::milliseconds timeout = std::chrono::milliseconds(5000));
    ReplicaClient(std::vector<ReplicaEndpoint> replicas, ReplicaClientOptions options);

    /// The one probe shape (see QueryClient::identify(const Probe&)),
    /// round-robin with failover like every read.
    std::vector<FusedIdentified> identify(const Probe& probe);
    std::vector<std::optional<Identified>> identify_many(const std::vector<std::string>& digests);
    std::string stats_text();
    std::string checkpoint();
    /// Serialized partition map (PARTMAP), round-robin with failover.
    std::string partition_map_text();
    /// Range fingerprint (FPRANGE), round-robin with failover.
    std::uint64_t fingerprint_range(std::uint64_t lo, std::uint64_t hi);

    /// Leader-seeking write; throws util::Error carrying the last
    /// rejection when every replica is read-only or unreachable.
    Identified observe(std::string_view digest, std::string_view hint = {});
    /// Leader-seeking behavioral write (OBSERVETS), same failover contract.
    Identified observe_behavior(std::string_view digest, std::string_view hint = {});

    std::size_t replica_count() const { return replicas_.size(); }
    const ReplicaClientStats& stats() const { return stats_; }

private:
    /// Per-endpoint failure memory for the cooldown policy.
    struct EndpointHealth {
        std::chrono::steady_clock::time_point down_until{};
        std::chrono::milliseconds cooldown{0};  ///< next failure's cooldown span
    };

    /// Connected client for `index`, creating it on demand (throws
    /// util::SystemError when the endpoint is unreachable).
    QueryClient& client(std::size_t index);
    bool cooling(std::size_t index) const;
    void mark_success(std::size_t index);
    void mark_failure(std::size_t index);
    /// Sleep before the next sweep; returns the span actually slept and
    /// advances the decorrelated-jitter state.
    std::chrono::milliseconds backoff_sleep(std::chrono::milliseconds previous);
    /// Which end of the replica list a call seeks.
    enum class Route {
        kRead,   ///< start at the round-robin cursor
        kWrite,  ///< leader-seeking: start at the leader hint, skip followers
    };
    /// Run `fn` against replicas in `route` order, failing over on
    /// transport errors and overload sheds (and, for writes, read-only
    /// rejections); rethrows the last error when every sweep of the retry
    /// budget fails.
    template <typename Fn>
    auto with_failover(Route route, Fn&& fn);

    std::vector<ReplicaEndpoint> replicas_;
    std::vector<std::unique_ptr<QueryClient>> connections_;
    std::vector<EndpointHealth> health_;
    ReplicaClientOptions options_;
    util::Rng rng_;
    std::size_t next_read_ = 0;    ///< round-robin cursor
    std::size_t leader_hint_ = 0;  ///< last endpoint that accepted a write
    ReplicaClientStats stats_;
};

}  // namespace siren::serve
