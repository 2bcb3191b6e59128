"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload execute_serial --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced and then a traced window and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable table that adds each metric's sample count.  The exit
code is 0 only when every result matched the reference and no child
process outlived the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

#: Set-ups per plain run; setup_s is their median.
SETUP_REPEATS = 3
#: Seconds a run waits for child processes to exit before calling them
#: leaked.
REAP_SECONDS = 5.0
#: SearchStats.kind_counts keys -> metric-name suffixes.
JOB_KINDS = {
    "Exp(g)": "exp_g", "Exp(gexpr)": "exp_gexpr", "Imp(g)": "imp_g",
    "Imp(gexpr)": "imp_gexpr", "Xform": "xform", "Opt(g,req)": "opt_g_req",
    "Opt(gexpr,req)": "opt_gexpr_req",
}
#: Fleet-worker span names (the program's own, adopted by the fleet
#: tracer) -> benchmark layer names.  Unlisted worker spans count toward
#: their nearest listed ancestor.
WORKER_SPANS = {
    "worker:execute": "service", "parse": "sql.parse",
    "plan_cache_lookup": "plancache.lookup", "translate": "sql.translate",
    "normalize": "xforms.normalize", "copy_in": "memo.copy_in",
    "extract": "search.extract", "execute": "engine.execute",
}


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def run_window(client, passes, seconds=None, *, plans=True):
    """Send whole passes (closed loop) until ``seconds`` have elapsed, or,
    with ``seconds=None``, exactly the passes in the list ``passes``.

    Returns ``[(sql, latency_s, outcome_or_None, error_or_None)]``, the
    passes sent and each pass's throughput in requests per second.  Each
    outcome is compacted once its latency is taken, so the client's heap
    does not grow over the window: rows become a digest, and a plan is
    rendered and kept only the first time it is seen (``plans=False``
    drops executed plans unrendered).
    """
    from perfbench.reference import row_key

    samples, sent, rates, seen = [], [], [], set()
    source = iter(passes)
    deadline = None if seconds is None else time.perf_counter() + seconds
    while deadline is None or time.perf_counter() < deadline:
        batch = next(source, None)
        if batch is None:
            break
        sent.append(batch)
        start = time.perf_counter()
        for _, sql in batch:
            t0 = time.perf_counter()
            try:
                out, err = client.request(sql), None
            except Exception as exc:  # counted as a failed request
                out, err = None, exc
            latency = time.perf_counter() - t0
            if out is not None:
                if out.rows is not None:
                    out.rows = row_key(out.rows)
                    if not plans:
                        out.plan = None
                if out.plan is not None:
                    out.render = out.plan.explain()
                    if (sql, out.render) in seen:
                        out.plan = None
                    seen.add((sql, out.render))
            samples.append((sql, latency, out, err))
        rates.append(len(batch) / (time.perf_counter() - start))
    return samples, sent, rates


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def tail_fraction(n: int) -> float:
    """p95, or the highest percentile with at least 10 samples above it."""
    return max(0.5, min(0.95, 1.0 - 10.0 / n))


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child
    (fleet and morsel workers).  Forked children share pages with the
    client, so this bounds the footprint from above."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def leaked_children() -> list[str]:
    """Child processes still running ``REAP_SECONDS`` after shutdown.

    Any survivor is terminated and joined before returning, so a leak
    fails the run without outliving it.
    """
    import multiprocessing

    deadline = time.monotonic() + REAP_SECONDS
    while True:
        alive = multiprocessing.active_children()
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pid = -1
        if not alive and pid == -1:
            return []
        if time.monotonic() > deadline:
            break
        time.sleep(0.05)
    names = [p.name for p in alive] or ["unnamed child"]
    for proc in alive:
        proc.kill()
        proc.join(timeout=5)
    try:
        while os.waitpid(-1, 0):
            pass
    except ChildProcessError:
        pass
    return names


# ----------------------------------------------------------------------
# Correctness and plan quality
# ----------------------------------------------------------------------
def verify(samples, refs, db) -> tuple[list[bool], dict[str, float]]:
    """Per-sample correctness against the reference, and the simulated
    seconds of each distinct query's plan.

    Optimize-only outcomes carry a plan but no rows: each distinct
    (sql, rendered plan) is executed once on the fused engine and every
    request that produced that plan shares the verdict.
    """
    from perfbench.reference import row_key
    from perfbench.workloads import SEGMENTS
    from repro.engine import Cluster, Executor

    executor = Executor(Cluster(db, segments=SEGMENTS))
    runs = {}
    for sql, _, out, _ in samples:
        if out is not None and out.rows is None and out.plan is not None:
            run = executor.execute(out.plan, out.output_cols)
            runs[(sql, out.render)] = (row_key(run.rows), run.simulated_seconds())
    verdicts, sims = [], {}
    for sql, _, out, err in samples:
        if err is not None:
            verdicts.append(False)
            continue
        rows, sim = (
            (out.rows, out.sim_s) if out.rows is not None
            else runs[(sql, out.render)]
        )
        verdicts.append(rows == refs[sql])
        sims.setdefault(sql, sim)
    return verdicts, sims


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def setup(workload, universe, seed: int):
    """Data generation, connect and one warm pass; returns the database,
    the client, the request stream and the first warm request's latency."""
    from perfbench.workloads import build_db

    db = build_db()
    client = workload.connect(db, universe)
    passes = workload.requests(universe, seed)
    first = None
    for _, sql in next(passes):
        t0 = time.perf_counter()
        client.request(sql)
        first = time.perf_counter() - t0 if first is None else first
    return db, client, passes, first


def plain_run(workload, universe, refs, seed: int, seconds: float) -> dict:
    setups, client = [], None
    for _ in range(SETUP_REPEATS):
        if client is not None:
            client.close()
            client = None
        t0 = time.perf_counter()
        db, client, passes, _ = setup(workload, universe, seed)
        setups.append(time.perf_counter() - t0)
    gc.collect()
    gc.freeze()
    try:
        samples, sent, rates = run_window(client, passes, seconds, plans=False)
    finally:
        gc.unfreeze()
        client.close()
    leaks = leaked_children()
    verdicts, sims = verify(samples, refs, db)
    n = len(samples)
    latencies = [s[1] * 1000.0 for s in samples]
    errors = verdicts.count(False)
    fallbacks = sum(
        1 for s in samples
        if s[2] is not None and s[2].source not in ("orca", "cache")
    )
    tail = tail_fraction(n)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "query_p50_ms": (percentile(latencies, 0.5), "ms", n),
        "query_p95_ms": (percentile(latencies, tail), "ms", n),
        "qps": (statistics.median(rates), "1/s", len(rates)),
        "success_frac": (1.0 - errors / n, "ratio", n),
        "orca_plan_frac": (1.0 - fallbacks / n, "ratio", n),
        "plan_sim_s_geomean": (geomean(sims.values()), "sim_s", len(sims)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    notes = [
        f"query_p95_ms is p{tail * 100:.1f} ({n} samples)",
        f"error_frac={errors / n:.4f} fallback_frac={fallbacks / n:.4f}",
        f"{len(sent)} passes, qps is their median rate; setups "
        + ", ".join(f"{s:.2f}s" for s in setups),
    ]
    return finish(metrics, n, errors, leaks, notes)


def traced_run(workload, universe, refs, seed: int, seconds: float,
               out_dir: Path) -> dict:
    """Set up once, run an untraced window of ``seconds / 2``, then send
    the very same passes again with every layer wrapped."""
    from perfbench.layers import LAYER_NOTES, Recorder

    rec = Recorder()
    fleet = workload.client == "fleet"
    if fleet:
        # Set up unwrapped: the workers fork here and would inherit the
        # wrappers, recording spans nobody reads.
        db, client, passes, first = setup(workload, universe, seed)
    else:
        with rec.installed():
            db, client, passes, first = setup(workload, universe, seed)
        execs = [s for s in rec.spans if s[0] == "engine.execute"]
        first = execs[0][2] - execs[0][1] if execs else 0.0
    rec.reset()
    tracer = None
    gc.collect()
    gc.freeze()
    try:
        plain, sent, plain_rates = run_window(client, passes, seconds / 2)
        before = client.counters()
        if fleet:
            from repro import Tracer

            tracer = client.fleet.tracer = Tracer(capture_events=False)
        with rec.installed():
            traced, _, traced_rates = run_window(client, sent)
        if fleet:
            client.fleet.tracer = None
        after = client.counters()
    finally:
        gc.unfreeze()
        client.close()
    leaks = leaked_children()
    if tracer is not None:
        adopt_worker_spans(rec, tracer)
    renders = {sql: out.render for sql, _, out, _ in plain if out is not None}
    render_failures = sum(
        1 for sql, _, out, _ in traced
        if out is not None and out.plan is not None
        and renders.get(sql, out.render) != out.render
    )
    verdicts, _ = verify(plain + traced, refs, db)
    errors = verdicts.count(False) + render_failures
    plain_wall = sum(len(b) / r for b, r in zip(sent, plain_rates))
    traced_wall = sum(len(b) / r for b, r in zip(sent, traced_rates))
    metrics = layer_metrics(
        workload, db, rec, traced, before, after, first,
        traced_wall / plain_wall - 1.0,
    )
    rec.dump(out_dir / f"spans-{workload.name}-seed{seed}.json")
    notes = [f"{name}: {why}" for name, why in LAYER_NOTES.items()]
    notes.append(
        f"untraced window {len(plain)} requests in {plain_wall:.2f}s, "
        f"the same requests traced in {traced_wall:.2f}s; "
        f"{render_failures} traced plans rendered differently"
    )
    return finish(metrics, len(plain) + len(traced), errors, leaks, notes)


def adopt_worker_spans(rec, tracer) -> None:
    """Hang each fleet worker's request spans (recorded by the program in
    the worker, shipped back and adopted by the fleet tracer) under the
    benchmark's matching ``fleet.request`` span, renamed to layers and
    shifted onto the benchmark's clock."""
    by_id = {s.span_id: s for s in tracer.spans}
    requests = [s for s in tracer.spans if s.name == "fleet:execute"]
    roots = [i for i, s in enumerate(rec.spans) if s[0] == "fleet.request"]
    index, shift = {}, {}  # program span id -> recorder index, clock offset
    for root, request in zip(roots, requests):
        index[request.span_id] = root
        shift[request.span_id] = rec.spans[root][1] - request.start
    for span in sorted(tracer.spans, key=lambda s: s.start):
        name = WORKER_SPANS.get(span.name)
        if span.name.startswith("search:"):
            name = "search.stages"
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.span_id not in index:
            parent = by_id.get(parent.parent_id)
        if name is None or parent is None:
            continue
        up = index[parent.span_id]
        offset = shift[span.span_id] = shift[parent.span_id]
        index[span.span_id] = len(rec.spans)
        rec.spans.append([name, span.start + offset, span.end + offset, up,
                          rec.spans[up][4]])


def layer_metrics(workload, db, rec, traced, before, after, first,
                  overhead) -> dict:
    n = len(traced)
    selfs, root_total = rec.self_times()
    wall = sum(s[1] for s in traced)
    outs = [s[2] for s in traced if s[2] is not None]

    def per_req(name):
        return selfs.get(name, 0.0) / n

    searched = [
        stats for source, stats in rec.searches
        if source in ("orca", "orca_partial")
    ]

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    cache_b = _cache_stats(before)
    cache_a = _cache_stats(after)
    lookups = (cache_a["hits"] - cache_b["hits"]) + (
        cache_a["misses"] - cache_b["misses"]
    )
    morsel_b = before.get("morsels", {})
    morsel_a = after.get("morsels", {})

    def morsel(key):
        return morsel_a.get(key, 0) - morsel_b.get(key, 0)

    executed = [
        (sql, out.render) for sql, _, out, _ in traced
        if out is not None and out.rows is not None and out.render
    ]
    plan_of = {
        (sql, out.render): out.plan for sql, _, out, _ in traced
        if out is not None and out.plan is not None
    }
    pipelines = {key: _pipelines(plan_of[key]) for key in set(executed)}
    chains = {key: _chains(plan_of[key]) for key in set(executed)}
    probes, memory = _probe_counts(workload, db, traced, searched)
    worker_opt = sum(
        w["session"]["total_opt_seconds"]
        for w in after.get("workers", {}).values()
    ) - sum(
        w["session"]["total_opt_seconds"]
        for w in before.get("workers", {}).values()
    )
    fb_b, fb_a = _feedback_hits(before), _feedback_hits(after)
    m = {
        "sql.parse_s": (per_req("sql.parse"), "s"),
        "sql.translate_s": (per_req("sql.translate"), "s"),
        "plancache.fingerprint_s": (per_req("plancache.fingerprint"), "s"),
        "plancache.lookup_s": (per_req("plancache.lookup"), "s"),
        "plancache.hit_rate": (
            (cache_a["hits"] - cache_b["hits"]) / lookups if lookups else 0.0,
            "ratio",
        ),
        "plancache.evictions": (cache_a["evictions"] - cache_b["evictions"],
                                "count"),
        "plancache.invalidations": (
            cache_a["stale_evictions"] + cache_a["feedback_invalidations"]
            - cache_b["stale_evictions"] - cache_b["feedback_invalidations"],
            "count",
        ),
        "optimizer.self_s": (per_req("optimizer"), "s"),
        "xforms.normalize_s": (per_req("xforms.normalize"), "s"),
        "memo.copy_in_s": (per_req("memo.copy_in"), "s"),
        "memo.groups": (mean(s.num_groups for s in searched), "count"),
        "memo.gexprs": (mean(s.num_gexprs for s in searched), "count"),
        "search.stages_s": (per_req("search.stages"), "s"),
        "search.extract_s": (per_req("search.extract"), "s"),
        "search.jobs": (mean(s.jobs_executed for s in searched), "count"),
        "search.prune_ratio": (
            mean(
                s.pruned_alternatives
                / max(1, s.pruned_alternatives + s.costed_alternatives)
                for s in searched
            ),
            "ratio",
        ),
        "search.derivation_cache_hits": (
            mean(s.derivation_cache_hits for s in searched), "count"),
        "gpos.deep_sizeof_s": (per_req("gpos.deep_sizeof"), "s"),
        "gpos.memory_probe_s": (per_req("gpos.memory_probe"), "s"),
        "gpos.memory_probes": (
            probes if workload.client == "fleet"
            else sum(1 for s in rec.spans if s[0] == "gpos.memory_probe") / n,
            "count",
        ),
        "gpos.memory_bytes": (memory, "B"),
        "engine.execute_s": (per_req("engine.execute"), "s"),
        "engine.first_execute_s": (first or 0.0, "s"),
        "engine.pipelines": (mean(pipelines[k] for k in executed), "count"),
        "engine.fused_chains": (mean(chains[k] for k in executed), "count"),
        "engine.rows_scanned": (
            mean(o.metrics.rows_scanned for o in outs if o.metrics), "count"),
        "engine.rows_moved": (
            mean(o.metrics.rows_moved for o in outs if o.metrics), "count"),
        "engine.net_bytes": (
            mean(o.metrics.net_bytes for o in outs if o.metrics), "B"),
        "engine.sim_s": (mean(o.sim_s for o in outs if o.sim_s), "s"),
        "engine.parallel.dispatch_s": (
            per_req("engine.parallel.dispatch"), "s"),
        "engine.parallel.morsels": (morsel("morsels_dispatched") / n, "count"),
        "engine.parallel.rows_shipped": (morsel("rows_shipped") / n, "count"),
        "engine.parallel.rows_reused": (morsel("rows_reused") / n, "count"),
        "engine.parallel.dispatch_p95_ms": (
            morsel_a.get("dispatch_p95_ms") or 0.0, "ms"),
        "service.self_s": (per_req("service"), "s"),
        "feedback.hits": ((fb_a[0] - fb_b[0]) / n, "count"),
        "feedback.corrections": ((fb_a[1] - fb_b[1]) / n, "count"),
        "fleet.request_s": (
            sum(s[2] - s[1] for s in rec.spans if s[0] == "fleet.request") / n,
            "s"),
        "fleet.worker_opt_s": (worker_opt / n, "s"),
        "fleet.ipc_s": (per_req("fleet.request"), "s"),
        "fleet.restarts": (
            after.get("restarts", 0) - before.get("restarts", 0), "count"),
        "trace.coverage": (
            root_total / wall if wall else 0.0,
            "ratio",
        ),
        "trace.overhead": (overhead, "ratio"),
    }
    for kind, suffix in JOB_KINDS.items():
        m[f"search.jobs.{suffix}"] = (
            mean(s.kind_counts.get(kind, 0) for s in searched), "count")
    return {k: (v, unit, n) for k, (v, unit) in m.items()}


def _cache_stats(counters: dict) -> dict:
    keys = ("hits", "misses", "evictions", "stale_evictions",
            "feedback_invalidations")
    total = dict.fromkeys(keys, 0)
    caches = [counters["plan_cache"]] if "plan_cache" in counters else [
        w["plan_cache"] for w in counters.get("workers", {}).values()
        if w.get("plan_cache")
    ]
    for cache in caches:
        for key in keys:
            total[key] += cache[key]
    return total


def _feedback_hits(counters: dict) -> tuple[int, int]:
    """(feedback lookup hits, plan-cache entries a feedback correction
    invalidated), summed over fleet workers."""
    hits = sum(
        (w.get("feedback") or {}).get("lookup_hits", 0)
        for w in counters.get("workers", {}).values()
    )
    return hits, _cache_stats(counters)["feedback_invalidations"]


def _pipelines(plan) -> int:
    from repro.engine.pipeline import split_pipelines

    return len(split_pipelines(plan))


def _chains(plan) -> int:
    from repro.engine.fused import fused_chains

    return len(fused_chains(plan))


def _probe_counts(workload, db, traced, searched) -> tuple[float, float]:
    """(memory probes per governed miss, mean Memo bytes per search).

    Fleet misses run inside the workers, which return no search counters,
    so each distinct missed query is re-optimized here, ungoverned, to
    count its jobs; probes are jobs // memory_check_stride as the
    governor polls them.
    """
    if workload.client != "fleet":
        return 0.0, (
            sum(s.memory_bytes for s in searched) / len(searched)
            if searched else 0.0
        )
    import repro
    from perfbench.workloads import SEGMENTS

    config = repro.OptimizerConfig(segments=SEGMENTS)
    orca = repro.Orca(db, config=config)
    stats = {}
    misses = [s[0] for s in traced if s[2] is not None and s[2].source == "orca"]
    for sql in misses:
        if sql not in stats:
            stats[sql] = orca.optimize(sql).search_stats
    if not misses:
        return 0.0, 0.0
    stride = config.memory_check_stride
    return (
        sum(stats[sql].jobs_executed // stride for sql in misses) / len(misses),
        sum(stats[sql].memory_bytes for sql in misses) / len(misses),
    )


def finish(metrics: dict, attempted: int, failed: int, leaks: list,
           notes: list) -> dict:
    for name in leaks:
        notes.append(f"leaked child process: {name}")
    return {
        "correct": failed == 0 and not leaks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
    }


def main(argv=None) -> int:
    root = Path.cwd()
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent))
    args = parse_args(argv)
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: no program at src/repro; run from the repository "
              "root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from perfbench import inputs, reference
    from perfbench.workloads import (
        DATA_SEED, SCALE, SEGMENTS, WORKLOADS, build_db,
    )
    from repro.workloads import QUERIES

    universe, refs = reference.load_or_compute(
        src, build_db, lambda db: inputs.universe(QUERIES, db),
        segments=SEGMENTS, settings=(SCALE, DATA_SEED),
    )
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = traced_run(workload, universe, refs, args.seed, args.seconds,
                            here / "out")
    else:
        result = plain_run(workload, universe, refs, args.seed, args.seconds)

    print(f"# {workload.name} (seed {args.seed}): {workload.why}")
    for note in result.pop("notes"):
        print(f"# {note}")
    for name, (value, unit, n) in result["metrics"].items():
        print(f"{name:34s} {value:16.6f} {unit:6s} n={n}")
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit, _) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
