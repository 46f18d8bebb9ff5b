#!/usr/bin/env python3
"""Condense google-benchmark JSON output into a flat perf-trajectory record.

Usage:
    bench_perf_pipeline --benchmark_format=json --benchmark_out=raw.json
    tools/bench_to_json.py raw.json -o BENCH_pipeline.json

The cmake target `bench-pipeline-json` runs both steps and writes
BENCH_pipeline.json into the build directory. The output maps benchmark name
to its timings so successive runs diff cleanly:

    {
      "context": {"date": "...", "num_cpus": 16, ...},
      "benchmarks": {
        "BM_Decode":     {"real_time_ns": 410.2, "cpu_time_ns": 410.0, ...},
        "BM_DecodeView": {"real_time_ns": 130.8, ...}
      },
      "ratios": {"decode_view_speedup": 3.14}
    }

`ratios` carries the headline numbers the perf trajectory tracks; unknown or
missing benchmarks simply omit their ratio. Only the Python standard library
is used.
"""

import argparse
import json
import sys


def condense(raw: dict) -> dict:
    context = raw.get("context", {})
    out = {
        "context": {
            "date": context.get("date"),
            "host_name": context.get("host_name"),
            "num_cpus": context.get("num_cpus"),
            "mhz_per_cpu": context.get("mhz_per_cpu"),
            "build_type": context.get("library_build_type"),
        },
        "benchmarks": {},
        "ratios": {},
    }

    median_of = set()
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            # With --benchmark_repetitions, prefer the median aggregate: a
            # noisy shared box can skew any single repetition by 20%+.
            if bench.get("aggregate_name") != "median":
                continue
            name = bench.get("run_name", bench["name"])
            median_of.add(name)
        else:
            name = bench["name"]
            if name in median_of:
                continue  # the median already represents this benchmark
        entry = {
            "real_time_ns": bench.get("real_time"),
            "cpu_time_ns": bench.get("cpu_time"),
            "iterations": bench.get("iterations"),
        }
        for counter in ("items_per_second", "bytes_per_second", "allocs_per_op",
                        "content_top1_rate", "fused_top1_rate",
                        "fused_identify_overhead", "publish_cost_per_record",
                        "snapshot_shared_fraction", "sharded_topn_parity"):
            if counter in bench:
                entry[counter] = bench[counter]
        out["benchmarks"][name] = entry

    def ratio(slow: str, fast: str, key: str = "real_time_ns"):
        a = out["benchmarks"].get(slow, {}).get(key)
        b = out["benchmarks"].get(fast, {}).get(key)
        if a and b and b > 0:
            return round(a / b, 3)
        return None

    for key, slow, fast in (
        ("decode_view_speedup", "BM_Decode", "BM_DecodeView"),
        ("encode_into_speedup", "BM_Encode", "BM_EncodeInto"),
        ("collect_consolidate_view_speedup", "BM_CollectConsolidate",
         "BM_CollectConsolidateView"),
        ("prepared_compare_speedup", "BM_FuzzyCompareLegacy", "BM_FuzzyComparePrepared"),
        ("similarity_search_speedup_1k", "BM_SimilaritySearchBrute/1000",
         "BM_SimilaritySearch/1000"),
        ("similarity_search_speedup_10k", "BM_SimilaritySearchBrute/10000",
         "BM_SimilaritySearch/10000"),
        ("similarity_search_speedup_100k", "BM_SimilaritySearchBrute/100000",
         "BM_SimilaritySearch/100000"),
        ("simd_scan_speedup_10k", "BM_SimilaritySearchScalar/10000",
         "BM_SimilaritySearch/10000"),
        ("simd_scan_speedup_100k", "BM_SimilaritySearchScalar/100000",
         "BM_SimilaritySearch/100000"),
    ):
        value = ratio(slow, fast)
        if value is not None:
            out["ratios"][key] = value

    # Serving layer: identify under concurrent writes vs idle. Compared on
    # CPU time — on a single-core box wall-clock measures kernel time
    # slicing between the reader and the writer thread, not the snapshot
    # scheme; per-query CPU cost is the property the swap design pins.
    for key, under, base in (
        ("serve_write_interference_1k", "BM_ServeIdentifyUnderWrites/1000",
         "BM_ServeIdentify/1000"),
        ("serve_write_interference_10k", "BM_ServeIdentifyUnderWrites/10000",
         "BM_ServeIdentify/10000"),
    ):
        value = ratio(under, base, key="cpu_time_ns")
        if value is not None:
            out["ratios"][key] = value
    value = ratio("BM_ServeIdentifyTcp", "BM_ServeIdentify/10000")
    if value is not None:
        out["ratios"]["serve_tcp_overhead"] = value

    # O(delta) publication: per-record cost of an apply-and-publish batch at
    # 100k families over the same at 10k. Structural sharing makes the
    # publish copy proportional to the touched delta, so this stays ~1x
    # regardless of registry size (a full-copy publish scales with the
    # registry and measured ~10x). CI gates this < 2.0.
    value = ratio("BM_ServePublishDelta/100000/iterations:50",
                  "BM_ServePublishDelta/10000/iterations:50",
                  key="publish_cost_per_record")
    if value is not None:
        out["ratios"]["publish_delta_flatness"] = value

    # Replication: follower catch-up wall time over the leader's local
    # write wall time for the same corpus. Near 1x means shipping the log
    # keeps pace with writing it — the precondition for a follower ever
    # converging under sustained ingest. CI gates this loudly (< 10x).
    value = ratio("BM_ReplicationCatchup/20000", "BM_SegmentWriteLocal/20000")
    if value is not None:
        out["ratios"]["replication_catchup_lag"] = value

    # Behavioral channel. The gated ratio comes from the interleaved
    # benchmark's counter — content-only and fused identify are timed in
    # the same loop, so frequency drift between separately-run benchmarks
    # cancels out. CI gates fused_identify_overhead <= 1.25 (fused QPS no
    # worse than 0.8x content-only). behavior_identify_overhead is the
    # informational cross-benchmark ratio.
    value = (out["benchmarks"].get("BM_FusedIdentifyOverhead", {})
             .get("fused_identify_overhead"))
    if value is not None:
        out["ratios"]["fused_identify_overhead"] = round(value, 3)
    value = ratio("BM_BehaviorIdentify", "BM_ContentIdentifyBaseline",
                  key="cpu_time_ns")
    if value is not None:
        out["ratios"]["behavior_identify_overhead"] = value

    # Sharding: aggregate observe throughput of the 3-shard partitioned
    # fleet over the single-shard baseline on an identical corpus (shards
    # are measured serially; manual time is the worst shard, i.e. the
    # one-box-per-shard wall clock). CI gates >= 2.2x — partitioning must
    # buy real write scale-out — and sharded_topn_parity == 1, the
    # cross-shard ranked merge staying bit-identical to one registry.
    # items/s is the honest metric for manual-time benches.
    def items_ratio(numer: str, denom: str):
        a = out["benchmarks"].get(numer, {}).get("items_per_second")
        b = out["benchmarks"].get(denom, {}).get("items_per_second")
        if a and b and b > 0:
            return round(a / b, 3)
        return None

    value = items_ratio("BM_ShardedObserve/3/manual_time",
                        "BM_ShardedObserve/1/manual_time")
    if value is not None:
        out["ratios"]["sharded_observe_scaling"] = value
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", help="google-benchmark JSON file ('-' for stdin)")
    parser.add_argument("-o", "--output", help="output path (default: stdout)")
    parser.add_argument(
        "--require", action="append", default=[], metavar="BENCHMARK",
        help="fail unless this benchmark appears in the input (repeatable; "
        "a comma-separated list is also accepted). Use this in CI so a "
        "renamed or filtered-out benchmark is a loud, named error instead "
        "of a silently missing ratio.")
    args = parser.parse_args()

    try:
        if args.input == "-":
            raw = json.load(sys.stdin)
        else:
            with open(args.input, encoding="utf-8") as f:
                raw = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_to_json: cannot read {args.input}: {err}", file=sys.stderr)
        return 1

    condensed = condense(raw)

    required = [name for spec in args.require for name in spec.split(",") if name]
    missing = [name for name in required if name not in condensed["benchmarks"]]
    if missing:
        have = ", ".join(sorted(condensed["benchmarks"])) or "(none)"
        for name in missing:
            print(f"bench_to_json: required benchmark '{name}' is missing from "
                  f"{args.input}", file=sys.stderr)
        print(f"bench_to_json: benchmarks present: {have}", file=sys.stderr)
        return 1

    text = json.dumps(condensed, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
