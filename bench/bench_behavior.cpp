// Microbenchmarks (google-benchmark) for the behavioral fingerprint
// channel: shapelet digest build rate over synthetic counter traces,
// behavior-channel identify QPS against a live RecognitionService, fused
// (content + behavior) identify QPS against the content-only baseline,
// and top-1 accuracy of fused vs content-only identification on a corpus
// whose binaries mutated past content-match range (the renamed/recompiled
// scenario the channel exists for — docs/behavior_fingerprints.md).
//
// The cmake target `bench-behavior-json` condenses the numbers into
// BENCH_behavior.json; CI gates fused_identify_overhead (fused identify
// must stay within 1.25x of content-only latency, i.e. no slower than
// 0.8x the QPS) and the accuracy counters (fused >= content-only).
// bench/trajectory/BENCH_behavior.json is the committed trajectory point.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "behavior/shapelet.hpp"
#include "fuzzy/fuzzy.hpp"
#include "serve/serve.hpp"
#include "sim/traces.hpp"
#include "util/base64.hpp"
#include "util/rng.hpp"

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

std::vector<double> family_trace(std::size_t family, std::uint64_t run_seed) {
    siren::sim::TraceRecipe recipe;
    recipe.lineage = "app/" + std::to_string(family);
    recipe.samples = 256;
    recipe.run_seed = run_seed;
    return siren::sim::synthesize_trace(recipe);
}

/// A service shaped like a deployment: the content index retains drifted
/// per-version exemplars for *every* binary the cluster has seen (1250
/// families x 8 versions, each version 5-14 edits from its base so it
/// lands between match_threshold and exemplar_add_below and is kept —
/// ~10k content exemplars), while the behavior channel holds one shapelet
/// per *instrumented* family only — traces exist just for the
/// applications someone pointed the counter sampler at. The fused gate
/// compares against that asymmetry because it is the asymmetry the fused
/// path runs under in production: content grows with every recompile,
/// behavior grows only with deliberate instrumentation.
struct FusedService {
    std::unique_ptr<sv::RecognitionService> service;
    std::vector<FuzzyDigest> content;   ///< base exemplar per instrumented family
    std::vector<FuzzyDigest> behavior;  ///< one shapelet per instrumented family
    FuzzyDigest content_probe;
    FuzzyDigest behavior_probe;
};

constexpr std::size_t kFamilies = 200;       ///< instrumented (traced) families
constexpr std::size_t kColdFamilies = 1050;  ///< content-only families
constexpr std::size_t kVariants = 8;         ///< drifted versions per family

FusedService& fused_service() {
    static FusedService live = [] {
        FusedService f;
        siren::util::Rng rng(4242);
        sv::ServeOptions options;
        options.publish_interval = std::chrono::milliseconds(10);
        f.service = std::make_unique<sv::RecognitionService>(options);
        const std::uint64_t ladder[] = {1536, 3072, 6144};
        const auto observe_family = [&](const std::string& name, bool keep_base) {
            FuzzyDigest base;
            base.block_size = ladder[rng.index(3)];
            base.digest1 = random_part(rng, 48 + rng.index(16));
            base.digest2 = random_part(rng, 24 + rng.index(8));
            if (keep_base) f.content.push_back(base);
            for (std::size_t v = 0; v < kVariants; ++v) {
                f.service->observe(v == 0 ? base : mutate(rng, base, 5 + rng.index(10)),
                                   name);
            }
        };
        for (std::size_t i = 0; i < kFamilies; ++i) {
            const std::string name = "app-" + std::to_string(i);
            observe_family(name, /*keep_base=*/true);
            f.behavior.push_back(
                siren::behavior::shapelet_digest(family_trace(i, /*run_seed=*/1)));
            f.service->observe_behavior(f.behavior[i], name);
        }
        for (std::size_t i = 0; i < kColdFamilies; ++i) {
            observe_family("cold-" + std::to_string(i), /*keep_base=*/false);
        }
        f.service->flush();
        f.content_probe = mutate(rng, f.content[kFamilies / 2], 2);
        f.behavior_probe = siren::behavior::shapelet_digest(
            family_trace(kFamilies / 2, /*run_seed=*/2));
        return f;
    }();
    return live;
}

/// Shapelet digest build rate: z-normalize + PAA + SAX + CTPH-style
/// digesting of one 256-sample counter trace.
void BM_BehaviorDigestBuild(benchmark::State& state) {
    const auto trace = family_trace(7, 3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(siren::behavior::shapelet_digest(trace));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BehaviorDigestBuild);

/// Trace synthesis itself (the simulated collector's cost per process).
void BM_BehaviorTraceSynthesize(benchmark::State& state) {
    std::uint64_t seed = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(family_trace(11, ++seed));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BehaviorTraceSynthesize);

/// Content-only identify — the baseline the fused path is gated against.
void BM_ContentIdentifyBaseline(benchmark::State& state) {
    FusedService& live = fused_service();
    for (auto _ : state) {
        benchmark::DoNotOptimize(live.service->identify(live.content_probe));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ContentIdentifyBaseline);

/// Behavior-channel identify (an IDENTIFY B probe, k = 1).
void BM_BehaviorIdentify(benchmark::State& state) {
    FusedService& live = fused_service();
    const sv::DigestProbe probe{.content = std::nullopt, .behavior = live.behavior_probe, .k = 1};
    for (auto _ : state) {
        benchmark::DoNotOptimize(live.service->identify(probe));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BehaviorIdentify);

/// Fused identify over both channels (an IDENTIFY C+B probe) — scores
/// both indexes and combines. Gated: must stay within 1.25x of the
/// content-only baseline (>= 0.8x its QPS).
void BM_FusedIdentify(benchmark::State& state) {
    FusedService& live = fused_service();
    const sv::DigestProbe probe{
        .content = live.content_probe, .behavior = live.behavior_probe, .k = 5};
    for (auto _ : state) {
        benchmark::DoNotOptimize(live.service->identify(probe));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FusedIdentify);

/// The gate itself: content-only identify and fused identify measured
/// *interleaved in the same loop*, so CPU frequency drift between two
/// separately-run benchmarks (minutes apart on a shared box) cancels out
/// of the ratio. The fused_identify_overhead counter is what CI gates
/// (<= 1.25, i.e. fused QPS >= 0.8x content-only); the standalone
/// BM_ContentIdentifyBaseline / BM_FusedIdentify numbers above are for
/// reading absolute latencies, not for the gate.
void BM_FusedIdentifyOverhead(benchmark::State& state) {
    FusedService& live = fused_service();
    const sv::DigestProbe probe{
        .content = live.content_probe, .behavior = live.behavior_probe, .k = 5};
    using clock = std::chrono::steady_clock;
    std::chrono::nanoseconds content_ns{0};
    std::chrono::nanoseconds fused_ns{0};
    for (auto _ : state) {
        const auto t0 = clock::now();
        benchmark::DoNotOptimize(live.service->identify(live.content_probe));
        const auto t1 = clock::now();
        benchmark::DoNotOptimize(live.service->identify(probe));
        const auto t2 = clock::now();
        content_ns += t1 - t0;
        fused_ns += t2 - t1;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    const double content_total = static_cast<double>(content_ns.count());
    const double fused_total = static_cast<double>(fused_ns.count());
    if (content_total > 0.0) {
        state.counters["fused_identify_overhead"] =
            benchmark::Counter(fused_total / content_total);
    }
}
BENCHMARK(BM_FusedIdentifyOverhead);

/// Top-1 accuracy on a mutated corpus: every probe binary's content digest
/// is mutated far past match range (recompiled/stripped), while its
/// runtime trace is a fresh run (new noise seed) of the same workload.
/// Content-only identification collapses; the fused path recovers the
/// family through the behavior channel. Rates land as counters for the
/// trajectory (and the CI accuracy gate).
void BM_BehaviorAccuracyMutated(benchmark::State& state) {
    FusedService& live = fused_service();
    siren::util::Rng rng(777);
    std::size_t content_top1 = 0;
    std::size_t fused_top1 = 0;
    for (auto _ : state) {
        content_top1 = 0;
        fused_top1 = 0;
        for (std::size_t i = 0; i < kFamilies; ++i) {
            const sv::DigestProbe probe{
                .content = mutate(rng, live.content[i], 40),  // far past match threshold
                .behavior = siren::behavior::shapelet_digest(family_trace(i, /*run_seed=*/9)),
                .k = 1};
            const std::string want = "app-" + std::to_string(i);
            const auto content_only = live.service->identify(*probe.content);
            if (content_only && content_only->name == want) ++content_top1;
            const auto fused = live.service->identify(probe);
            if (!fused.empty() && fused.front().name == want) ++fused_top1;
        }
        benchmark::DoNotOptimize(fused_top1);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kFamilies));
    state.counters["content_top1_rate"] =
        benchmark::Counter(static_cast<double>(content_top1) / kFamilies);
    state.counters["fused_top1_rate"] =
        benchmark::Counter(static_cast<double>(fused_top1) / kFamilies);
}
BENCHMARK(BM_BehaviorAccuracyMutated);

}  // namespace

BENCHMARK_MAIN();
