#include "serve/replica_client.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "serve/query_protocol.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace siren::serve {

namespace {

bool reply_mentions(const util::Error& e, std::string_view marker) {
    return std::string_view(e.what()).find(marker) != std::string_view::npos;
}

}  // namespace

ReplicaClient::ReplicaClient(std::vector<ReplicaEndpoint> replicas,
                             std::chrono::milliseconds timeout)
    : ReplicaClient(std::move(replicas), ReplicaClientOptions{.timeout = timeout}) {}

ReplicaClient::ReplicaClient(std::vector<ReplicaEndpoint> replicas,
                             ReplicaClientOptions options)
    : replicas_(std::move(replicas)),
      options_(options),
      rng_(options.jitter_seed != 0
               ? options.jitter_seed
               : util::mix64(static_cast<std::uint64_t>(
                                 std::chrono::steady_clock::now().time_since_epoch().count()) ^
                             static_cast<std::uint64_t>(
                                 reinterpret_cast<std::uintptr_t>(this)))) {
    if (replicas_.empty()) throw util::Error("replica client needs at least one endpoint");
    connections_.resize(replicas_.size());
    health_.resize(replicas_.size());
}

QueryClient& ReplicaClient::client(std::size_t index) {
    if (!connections_[index]) {
        connections_[index] = std::make_unique<QueryClient>(
            replicas_[index].host, replicas_[index].port, options_.timeout);
    }
    return *connections_[index];
}

bool ReplicaClient::cooling(std::size_t index) const {
    return std::chrono::steady_clock::now() < health_[index].down_until;
}

void ReplicaClient::mark_success(std::size_t index) {
    health_[index] = EndpointHealth{};
}

void ReplicaClient::mark_failure(std::size_t index) {
    auto& health = health_[index];
    const auto floor = std::max(options_.cooldown_floor, std::chrono::milliseconds(1));
    const auto cap = std::max(options_.cooldown_cap, floor);
    health.cooldown = health.cooldown.count() == 0
                          ? floor
                          : std::min(cap, health.cooldown * 2);
    health.down_until = std::chrono::steady_clock::now() + health.cooldown;
}

std::chrono::milliseconds ReplicaClient::backoff_sleep(std::chrono::milliseconds previous) {
    // Decorrelated jitter: uniform in [floor, min(cap, 3 * previous)], so
    // repeated sweeps decay without synchronizing across clients.
    const auto floor = std::max(options_.backoff_floor, std::chrono::milliseconds(1));
    const auto cap = std::max(options_.backoff_cap, floor);
    const auto ceiling = std::clamp(previous * 3, floor, cap);
    const auto span = std::chrono::milliseconds(
        static_cast<long>(floor.count()) +
        static_cast<long>(rng_.below(
            static_cast<std::uint64_t>(ceiling.count() - floor.count() + 1))));
    ++stats_.backoffs;
    std::this_thread::sleep_for(span);
    return span;
}

template <typename Fn>
auto ReplicaClient::with_failover(Route route, Fn&& fn) {
    ++stats_.requests;
    const bool write = route == Route::kWrite;
    const std::size_t start = write ? leader_hint_ : next_read_++;
    std::exception_ptr last_error;
    auto backoff = std::max(options_.backoff_floor, std::chrono::milliseconds(1));
    for (std::size_t sweep = 0;; ++sweep) {
        // Pass 0 respects cooldowns; pass 1 runs only when every endpoint
        // was cooling, so a fully-down fleet is still probed once a sweep.
        for (int pass = 0; pass < 2; ++pass) {
            bool tried = false;
            for (std::size_t attempt = 0; attempt < replicas_.size(); ++attempt) {
                const std::size_t index = (start + attempt) % replicas_.size();
                if (pass == 0 && cooling(index)) {
                    ++stats_.cooldown_skips;
                    continue;
                }
                tried = true;
                try {
                    auto result = fn(client(index));
                    mark_success(index);
                    if (write) leader_hint_ = index;
                    return result;
                } catch (const util::SystemError&) {
                    // Transport trouble: this endpoint is down or
                    // unreachable. Drop its connection (a failed
                    // QueryClient is dead anyway) and move on; the
                    // endpoint gets a fresh connect after its cooldown.
                    connections_[index].reset();
                    mark_failure(index);
                    ++stats_.failovers;
                    last_error = std::current_exception();
                } catch (const util::Error& e) {
                    if (write && reply_mentions(e, kReadOnlyError)) {
                        // A write reached a follower. No cooldown: a
                        // healthy follower stays instantly available for
                        // reads.
                        ++stats_.read_only_redirects;
                    } else if (reply_mentions(e, kOverloadedError)) {
                        // The replica shed us under load: cool it down and
                        // try a less-loaded one instead of surfacing the
                        // error.
                        mark_failure(index);
                        ++stats_.overload_redirects;
                    } else {
                        throw;  // real application error: every replica would agree
                    }
                    last_error = std::current_exception();
                }
            }
            if (tried) break;
        }
        if (sweep >= options_.retry_sweeps) break;
        backoff = backoff_sleep(backoff);
    }
    std::rethrow_exception(last_error);
}

std::vector<FusedIdentified> ReplicaClient::identify(const Probe& probe) {
    return with_failover(Route::kRead, [&](QueryClient& c) { return c.identify(probe); });
}

std::vector<std::optional<Identified>> ReplicaClient::identify_many(
    const std::vector<std::string>& digests) {
    return with_failover(Route::kRead, [&](QueryClient& c) { return c.identify_many(digests); });
}

std::string ReplicaClient::stats_text() {
    return with_failover(Route::kRead, [](QueryClient& c) { return c.stats_text(); });
}

std::string ReplicaClient::checkpoint() {
    return with_failover(Route::kRead, [](QueryClient& c) { return c.checkpoint(); });
}

std::string ReplicaClient::partition_map_text() {
    return with_failover(Route::kRead, [](QueryClient& c) { return c.partition_map_text(); });
}

std::uint64_t ReplicaClient::fingerprint_range(std::uint64_t lo, std::uint64_t hi) {
    return with_failover(Route::kRead,
                         [&](QueryClient& c) { return c.fingerprint_range(lo, hi); });
}

Identified ReplicaClient::observe(std::string_view digest, std::string_view hint) {
    return with_failover(Route::kWrite,
                         [&](QueryClient& c) { return c.observe(digest, hint); });
}

Identified ReplicaClient::observe_behavior(std::string_view digest, std::string_view hint) {
    return with_failover(Route::kWrite,
                         [&](QueryClient& c) { return c.observe_behavior(digest, hint); });
}

}  // namespace siren::serve
