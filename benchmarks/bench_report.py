"""Benchmark report + regression gate for CI.

Runs the full TPC-DS-style workload through the optimizer and writes a
``BENCH_<date>.json`` snapshot of the paper's evaluation metrics:
optimization time, Memo size, job counts, branch-and-bound pruning
effectiveness, and plan-cache hit rate.  When given a committed baseline
JSON it compares every gated metric and exits non-zero if any one
regressed by more than the threshold (default 20%).

Wall-clock time and memory are reported but not gated: CI runners are
too noisy for a hard time gate, while job/Memo counts are fully
deterministic.  Usage::

    PYTHONPATH=src python benchmarks/bench_report.py \
        --out benchmarks/history/BENCH_2026-08-06.json \
        --baseline benchmarks/baseline_bench.json

Reports land in ``benchmarks/history/`` (the parent directory is
created on demand) so the trajectory of snapshots is committed to the
repo rather than evaporating with the CI workspace.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import sys

from repro.config import OptimizerConfig
from repro.optimizer import Orca
from repro.workloads import QUERIES, build_populated_db

#: metric name -> direction ("higher_is_worse" / "lower_is_worse").
#: Only deterministic count/ratio metrics are gated.
GATED_METRICS = {
    "total_jobs": "higher_is_worse",
    "opt_gexpr_jobs": "higher_is_worse",
    "memo_groups": "higher_is_worse",
    "memo_gexprs": "higher_is_worse",
    "pruning_job_savings": "lower_is_worse",
    "pruning_ratio": "lower_is_worse",
    "plan_cache_hit_rate": "lower_is_worse",
    # Cache effectiveness counters (deterministic for a fresh process
    # running this workload, which is how CI invokes this script).
    "intern_hit_rate": "lower_is_worse",
    "derivation_cache_hits": "lower_is_worse",
}

#: Reported for trend tracking, never gated.  The speedup entries are
#: merged in from a microbench report (``--microbench-report``) when one
#: is available.
UNGATED_METRICS = (
    "avg_opt_time_seconds",
    "avg_memory_mb",
    "executor_speedup_geomean",
    "end_to_end_speedup",
    "fused_vs_batch_speedup",
    "fused_vs_row_speedup",
    "parallel_vs_serial_speedup",
)


def run_workload(scale: float, segments: int) -> dict:
    """Collect every metric over the full workload."""
    db = build_populated_db(scale=scale)

    pruned = Orca(db, config=OptimizerConfig(segments=segments))
    rows = [pruned.optimize(q.sql) for q in QUERIES]

    exhaustive = Orca(db, config=OptimizerConfig(segments=segments, enable_cost_bound_pruning=False)
    )
    base_rows = [exhaustive.optimize(q.sql) for q in QUERIES]

    # Plan-cache hit rate: the workload repeated once against a warm cache.
    cached = Orca(db, config=OptimizerConfig(
            segments=segments, enable_plan_cache=True,
            plan_cache_size=len(QUERIES) + 1,
        )
    )
    for _pass in range(2):
        for q in QUERIES:
            cached.optimize(q.sql)
    cache = cached.plan_cache.stats()

    opt_jobs = sum(
        r.search_stats.kind_counts.get("Opt(gexpr,req)", 0) for r in rows
    )
    base_opt_jobs = sum(
        r.search_stats.kind_counts.get("Opt(gexpr,req)", 0) for r in base_rows
    )
    pruned_alts = sum(r.search_stats.pruned_alternatives for r in rows)
    costed_alts = sum(r.search_stats.costed_alternatives for r in rows)
    # Interning / derivation-cache counters from the pruned pass.  These
    # are deterministic because that pass is the first optimizer work in
    # this process (the global intern table starts cold).
    intern_hits = sum(r.search_stats.intern_hits for r in rows)
    intern_misses = sum(r.search_stats.intern_misses for r in rows)
    return {
        "total_jobs": sum(r.search_stats.jobs_executed for r in rows),
        "opt_gexpr_jobs": opt_jobs,
        "memo_groups": sum(r.search_stats.num_groups for r in rows),
        "memo_gexprs": sum(r.search_stats.num_gexprs for r in rows),
        "pruning_job_savings": round(1.0 - opt_jobs / base_opt_jobs, 4),
        "pruning_ratio": round(
            pruned_alts / max(pruned_alts + costed_alts, 1), 4
        ),
        "plan_cache_hit_rate": round(
            cache["hits"] / max(cache["hits"] + cache["misses"], 1), 4
        ),
        "intern_hit_rate": round(
            intern_hits / max(intern_hits + intern_misses, 1), 4
        ),
        "derivation_cache_hits": sum(
            r.search_stats.derivation_cache_hits for r in rows
        ),
        "avg_opt_time_seconds": round(
            statistics.mean(r.opt_time_seconds for r in rows), 4
        ),
        "avg_memory_mb": round(
            statistics.mean(r.search_stats.memory_bytes for r in rows)
            / (1024 * 1024), 3
        ),
    }


def compare(metrics: dict, baseline: dict, threshold: float) -> list[str]:
    """Return a list of regression descriptions (empty when clean)."""
    failures = []
    base_metrics = baseline.get("metrics", baseline)
    for name, direction in GATED_METRICS.items():
        if name not in base_metrics or name not in metrics:
            continue
        base, now = float(base_metrics[name]), float(metrics[name])
        if base == 0:
            continue
        change = (now - base) / abs(base)
        worse = change if direction == "higher_is_worse" else -change
        status = "REGRESSION" if worse > threshold else "ok"
        print(f"  {name:24s} {base:12.4f} -> {now:12.4f} "
              f"({change:+.1%})  {status}")
        if worse > threshold:
            failures.append(
                f"{name}: {base} -> {now} ({change:+.1%}, "
                f"threshold {threshold:.0%})"
            )
    for name in UNGATED_METRICS:
        if base_metrics.get(name) is not None and metrics.get(name) is not None:
            base, now = float(base_metrics[name]), float(metrics[name])
            change = (now - base) / abs(base) if base else 0.0
            print(f"  {name:24s} {base:12.4f} -> {now:12.4f} "
                  f"({change:+.1%})  (not gated)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output JSON path")
    parser.add_argument(
        "--baseline", default=None,
        help="committed baseline JSON to gate against",
    )
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="max tolerated relative regression (default 0.2)")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--segments", type=int, default=8)
    parser.add_argument(
        "--microbench-report", default=None,
        help="MICRO_*.json from microbench.py; its speedups are merged "
             "into the report, and the fused-vs-batch exec-only speedup "
             "is gated absolutely by --min-fused-speedup",
    )
    parser.add_argument(
        "--min-fused-speedup", type=float, default=1.5,
        help="minimum fused-vs-batch exec-only speedup required when a "
             "microbench report is supplied (default 1.5; pass 0 to "
             "disable)",
    )
    parser.add_argument(
        "--min-parallel-speedup", type=float, default=1.3,
        help="minimum morsel-parallel vs serial fused end-to-end speedup "
             "required when a microbench report is supplied (default "
             "1.3; pass 0 to disable).  Auto-skips, with the reason "
             "logged, when the microbench ran on a 1-CPU machine and "
             "recorded no parallel numbers",
    )
    args = parser.parse_args(argv)

    fused_failure = None
    parallel_failure = None
    metrics = run_workload(args.scale, args.segments)
    if args.microbench_report:
        with open(args.microbench_report, encoding="utf-8") as f:
            micro = json.load(f)
        metrics["executor_speedup_geomean"] = micro.get(
            "operator_speedup_geomean"
        )
        metrics["end_to_end_speedup"] = micro.get(
            "end_to_end", {}
        ).get("speedup")
        engines = micro.get("engines_exec_only", {})
        metrics["fused_vs_batch_speedup"] = engines.get("fused_vs_batch")
        metrics["fused_vs_row_speedup"] = engines.get("fused_vs_row")
        fused = metrics["fused_vs_batch_speedup"]
        if args.min_fused_speedup and fused is not None:
            if fused < args.min_fused_speedup:
                fused_failure = (
                    f"fused executor speedup {fused}x vs batch is below "
                    f"the required {args.min_fused_speedup}x"
                )
        parallel = micro.get("parallel", {})
        metrics["parallel_vs_serial_speedup"] = parallel.get(
            "parallel_vs_serial"
        )
        if args.min_parallel_speedup:
            if parallel.get("skipped"):
                print("parallel-speedup gate skipped: "
                      f"{parallel['skipped']}")
            elif parallel.get("parallel_vs_serial") is not None:
                speedup = parallel["parallel_vs_serial"]
                if speedup < args.min_parallel_speedup:
                    parallel_failure = (
                        f"morsel-parallel speedup {speedup}x vs serial "
                        f"fused (on {parallel.get('cpus')} CPUs with "
                        f"{parallel.get('workers')} workers) is below "
                        f"the required {args.min_parallel_speedup}x"
                    )
    report = {
        "date": datetime.date.today().isoformat(),
        "scale": args.scale,
        "segments": args.segments,
        "queries": len(QUERIES),
        "metrics": metrics,
    }
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"benchmark report written to {args.out}")
    for name, value in metrics.items():
        print(f"  {name:24s} {value}")

    if fused_failure:
        print(f"\nfused-engine gate failed: {fused_failure}",
              file=sys.stderr)
        return 1

    if parallel_failure:
        print(f"\nparallel-speedup gate failed: {parallel_failure}",
              file=sys.stderr)
        return 1

    if args.baseline:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)
        print(f"\ncomparison vs {args.baseline} "
              f"(gate: >{args.threshold:.0%} regression fails):")
        failures = compare(metrics, baseline, args.threshold)
        if failures:
            print("\nbenchmark regressions detected:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print("\nno benchmark regressions.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
