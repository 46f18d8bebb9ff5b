// Microbenchmarks (google-benchmark) for the serving layer: identify QPS
// against a live RecognitionService — the lock-free snapshot read path in
// process and over the TCP query protocol — and the same identify latency
// while a writer thread continuously applies observes. The snapshot-swap
// scheme's headline claim is that the last two numbers match: query
// latency must be independent of write volume.
//
// The cmake target `bench-serve-json` condenses the numbers into
// BENCH_serve.json (ratios: serve_write_interference ~ 1.0,
// serve_tcp_overhead); bench/trajectory/BENCH_serve.json is the committed
// trajectory point.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fuzzy/fuzzy.hpp"
#include "serve/serve.hpp"
#include "util/base64.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace sv = siren::serve;
using siren::fuzzy::FuzzyDigest;

std::string random_part(siren::util::Rng& rng, std::size_t len) {
    std::string s;
    for (std::size_t i = 0; i < len; ++i) s += siren::util::kBase64Alphabet[rng.index(64)];
    return s;
}

FuzzyDigest mutate(siren::util::Rng& rng, FuzzyDigest d, std::size_t edits) {
    for (std::size_t e = 0; e < edits; ++e) {
        std::string& part = rng.below(3) == 0 ? d.digest2 : d.digest1;
        if (part.empty()) continue;
        part[rng.index(part.size())] = siren::util::kBase64Alphabet[rng.index(64)];
    }
    return d;
}

/// A service preloaded with n synthetic digests (families of drifted
/// variants, as in bench_perf_similarity) plus a probe that matches.
struct LiveService {
    std::unique_ptr<sv::RecognitionService> service;
    std::vector<FuzzyDigest> corpus;
    FuzzyDigest probe;
};

LiveService& live_service(std::size_t n) {
    static std::map<std::size_t, LiveService> cache;
    const auto it = cache.find(n);
    if (it != cache.end()) return it->second;

    LiveService& live = cache[n];
    siren::util::Rng rng(2027 * n + 3);
    const std::uint64_t ladder[] = {1536, 3072, 6144};
    constexpr std::size_t kVariants = 8;
    while (live.corpus.size() < n) {
        FuzzyDigest base;
        base.block_size = ladder[rng.index(3)];
        base.digest1 = random_part(rng, 48 + rng.index(16));
        base.digest2 = random_part(rng, 24 + rng.index(8));
        for (std::size_t v = 0; v < kVariants && live.corpus.size() < n; ++v) {
            live.corpus.push_back(v == 0 ? base : mutate(rng, base, 1 + rng.index(5)));
        }
    }

    sv::ServeOptions options;
    // Amortize the snapshot copy across ~10ms of applied batches — the
    // deployment setting for write-heavy feeds (staleness stays bounded).
    options.publish_interval = std::chrono::milliseconds(10);
    live.service = std::make_unique<sv::RecognitionService>(options);
    for (const auto& digest : live.corpus) live.service->observe(digest);
    live.service->flush();
    live.probe = mutate(rng, live.corpus[n / 2], 3);
    return live;
}

/// Steady write pressure: a thread re-observing known digests (score-100
/// sightings — no index growth, so the measured interference is purely the
/// writer's batch/copy/publish cycle, not a registry that changes size).
class WriteChurn {
public:
    explicit WriteChurn(LiveService& live) : live_(live) {
        thread_ = std::thread([this] {
            siren::util::Rng rng(71);
            while (!stop_.load(std::memory_order_relaxed)) {
                for (int burst = 0; burst < 64; ++burst) {
                    live_.service->observe(live_.corpus[rng.index(live_.corpus.size())]);
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
        });
    }
    ~WriteChurn() {
        stop_.store(true, std::memory_order_relaxed);
        thread_.join();
        live_.service->flush();
    }

private:
    LiveService& live_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/// The raw snapshot acquire — what every query pays before it scores.
void BM_ServeSnapshotAcquire(benchmark::State& state) {
    LiveService& live = live_service(1000);
    for (auto _ : state) {
        benchmark::DoNotOptimize(live.service->snapshot());
    }
}
BENCHMARK(BM_ServeSnapshotAcquire);

/// In-process identify on an idle service (the baseline p50).
void BM_ServeIdentify(benchmark::State& state) {
    LiveService& live = live_service(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(live.service->identify(live.probe));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeIdentify)->Arg(1000)->Arg(10000);

/// The same identify while a writer thread applies a continuous observe
/// stream (10k+ over a bench run). Snapshot swap means the two p50s track
/// each other; CI compares this against BM_ServeIdentify.
void BM_ServeIdentifyUnderWrites(benchmark::State& state) {
    LiveService& live = live_service(static_cast<std::size_t>(state.range(0)));
    const auto before = live.service->counters().observes_applied;
    {
        WriteChurn churn(live);
        for (auto _ : state) {
            benchmark::DoNotOptimize(live.service->identify(live.probe));
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.counters["concurrent_observes"] = benchmark::Counter(
        static_cast<double>(live.service->counters().observes_applied - before));
}
BENCHMARK(BM_ServeIdentifyUnderWrites)->Arg(1000)->Arg(10000);

/// Batch identify fan-out through the service's thread pool.
void BM_ServeIdentifyMany(benchmark::State& state) {
    LiveService& live = live_service(10000);
    siren::util::Rng rng(83);
    std::vector<FuzzyDigest> probes;
    for (int i = 0; i < 64; ++i) {
        probes.push_back(mutate(rng, live.corpus[rng.index(live.corpus.size())], 2));
    }
    siren::util::ThreadPool pool(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(live.service->identify_many(probes, &pool));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_ServeIdentifyMany);

/// Full TCP round trip: frame, loopback, execute, frame back. The delta
/// against BM_ServeIdentify is the transport cost per query.
void BM_ServeIdentifyTcp(benchmark::State& state) {
    LiveService& live = live_service(10000);
    sv::QueryServer server(*live.service);
    sv::QueryClient client("127.0.0.1", server.port());
    const sv::Probe probe{.content = live.probe.to_string(), .behavior = {}, .k = 1};
    for (auto _ : state) {
        benchmark::DoNotOptimize(client.identify(probe));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeIdentifyTcp);

/// The service + server the concurrent-TCP benches share, with a batch
/// pool for IDENTIFYB; built lazily on first use (a magic static, safe
/// under ->Threads(n)).
struct TcpFleet {
    std::unique_ptr<sv::RecognitionService> service;
    std::unique_ptr<sv::QueryServer> server;
    sv::Probe probe;
};

TcpFleet& tcp_fleet() {
    static TcpFleet fleet = [] {
        LiveService& live = live_service(10000);
        sv::ServeOptions options;
        options.publish_interval = std::chrono::milliseconds(10);
        options.batch_pool_threads = 2;
        TcpFleet built;
        built.service = std::make_unique<sv::RecognitionService>(options);
        for (const auto& digest : live.corpus) built.service->observe(digest);
        built.service->flush();
        built.server = std::make_unique<sv::QueryServer>(*built.service);
        built.probe.content = live.probe.to_string();
        return built;
    }();
    return fleet;
}

/// N concurrent connections, each issuing singleton IDENTIFYs; every
/// frame executes inline on the server's event loop.
void BM_ServeIdentifyTcpConcurrent(benchmark::State& state) {
    TcpFleet& fleet = tcp_fleet();
    sv::QueryClient client("127.0.0.1", fleet.server->port(),
                           std::chrono::milliseconds(10000));
    for (auto _ : state) {
        benchmark::DoNotOptimize(client.identify(fleet.probe));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeIdentifyTcpConcurrent)->Threads(4)->UseRealTime();

/// A client that batches: 64 probes per IDENTIFYB round trip.
void BM_ServeIdentifyManyTcp(benchmark::State& state) {
    TcpFleet& fleet = tcp_fleet();
    siren::util::Rng rng(97);
    LiveService& live = live_service(10000);
    std::vector<std::string> probes;
    for (int i = 0; i < 64; ++i) {
        probes.push_back(mutate(rng, live.corpus[rng.index(live.corpus.size())], 2).to_string());
    }
    sv::QueryClient client("127.0.0.1", fleet.server->port(),
                           std::chrono::milliseconds(10000));
    for (auto _ : state) {
        benchmark::DoNotOptimize(client.identify_many(probes));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_ServeIdentifyManyTcp)->UseRealTime();

/// Synthetic digest with a chosen block size: random 24-grams essentially
/// never collide on a 7-gram, so every observe founds its own family.
FuzzyDigest synthetic_digest(std::uint64_t block_size, siren::util::Rng& rng) {
    FuzzyDigest digest;
    digest.block_size = block_size;
    digest.digest1 = random_part(rng, 24);
    digest.digest2 = random_part(rng, 12);
    return digest;
}

/// A registry-scale service booted from a synthesized checkpoint — the
/// loader appends exemplars without similarity queries, so 100k families
/// cost parse + index-append at startup, not 100k observe matches.
sv::RecognitionService& registry_scale_service(std::size_t families) {
    static std::map<std::size_t, std::unique_ptr<sv::RecognitionService>> cache;
    auto& slot = cache[families];
    if (slot) return *slot;

    siren::util::Rng rng(47);
    std::string body = "SIRENCKPT 1\napplied 0\nregistry\n";
    for (std::size_t i = 0; i < families; ++i) {
        body += "family " + std::to_string(i) + " 1 fam-" + std::to_string(i) + "\n";
    }
    for (std::size_t i = 0; i < families; ++i) {
        body += "exemplar " + std::to_string(i) + " " +
                synthetic_digest(1536, rng).to_string() + "\n";
    }
    const auto path = std::filesystem::temp_directory_path() /
                      ("siren_bench_publish_" + std::to_string(families) + ".ckpt");
    {
        std::ofstream out(path);
        out << body;
    }
    sv::ServeOptions options;
    options.checkpoint_path = path.string();
    slot = std::make_unique<sv::RecognitionService>(options);
    return *slot;
}

/// The O(delta) acceptance bench: apply-and-publish a 100-record batch of
/// fresh sightings against a 10k vs 100k registry. With COW chunk sharing
/// the publish copies touched chunks only, so publish_cost_per_record must
/// be flat across the two sizes (CI gates the ratio, publish_delta_flatness,
/// at < 2x; the pre-COW full-copy pipeline measured ~10x). The batch uses
/// a block size whose x2 ladder is disjoint from the corpus ladder, so the
/// timed region is enqueue + batch apply + publish copy + swap — no
/// size-dependent bucket scan sneaks into the numerator.
void BM_ServePublishDelta(benchmark::State& state) {
    const auto families = static_cast<std::size_t>(state.range(0));
    sv::RecognitionService& service = registry_scale_service(families);
    siren::util::Rng rng(137 + families);
    constexpr int kBatch = 100;
    std::uint64_t total_ns = 0;
    std::uint64_t records = 0;
    for (auto _ : state) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kBatch - 1; ++i) service.observe(synthetic_digest(192, rng));
        benchmark::DoNotOptimize(service.observe_sync(synthetic_digest(192, rng)));
        total_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                                 t0)
                .count());
        records += kBatch;
    }
    const auto counters = service.counters();
    state.counters["publish_cost_per_record"] = benchmark::Counter(
        static_cast<double>(total_ns) / static_cast<double>(records));
    state.counters["snapshot_shared_fraction"] = benchmark::Counter(
        counters.total_chunks == 0
            ? 0.0
            : static_cast<double>(counters.shared_chunks) /
                  static_cast<double>(counters.total_chunks));
    state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
// Fixed iteration count: each iteration founds 100 new families, so the
// corpus must not grow with --benchmark_min_time.
BENCHMARK(BM_ServePublishDelta)->Arg(10000)->Arg(100000)->Iterations(50);

/// Synchronous observe round trip (enqueue -> batch apply -> publish).
void BM_ServeObserveSync(benchmark::State& state) {
    LiveService& live = live_service(1000);
    siren::util::Rng rng(89);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            live.service->observe_sync(live.corpus[rng.index(live.corpus.size())]));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeObserveSync);

}  // namespace

BENCHMARK_MAIN();
