"""Flight-recorder overhead microbench: the <2% always-on budget.

The flight recorder (repro.obs.flight) claims null-sink-class overhead:
its tracer (a ``repro.obs.trace.Tracer`` on the flight sink) reports
``enabled = False`` so guarded hot-path call sites skip payload
construction, and only the ~dozen unconditional span sites per query do
real work.  This bench measures that claim end
to end — optimize+execute of a query mix through a governed session,
recorder off vs. on — and gates the relative overhead.

Repeats are interleaved (off, on, off, on, ...) so drift in machine
load hits both sides equally; the median of per-repeat wall times is
compared.  Usage::

    PYTHONPATH=src python benchmarks/obs_overhead.py --max-overhead 0.02

Exit status 1 when the measured overhead exceeds ``--max-overhead``
(CI runs this as part of the benchmarks job).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time

from repro.obs import FlightRecorder
from repro.service import connect
from repro.workloads import QUERIES, build_populated_db


def _run_workload(db, queries, *, flight: bool, config_kwargs) -> float:
    recorder = FlightRecorder() if flight else None
    session = connect(db, flight_recorder=recorder, **config_kwargs)
    gc.collect()
    start = time.perf_counter()
    for query in queries:
        session.execute(query.sql)
    elapsed = time.perf_counter() - start
    session.close()
    if flight:
        # Sanity: the recorder actually captured the workload.
        assert len(recorder.records) > 0, "flight recorder captured nothing"
        assert all(r.spans for r in recorder.records), "records without spans"
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=7,
                        help="interleaved repeats per side (default 7)")
    parser.add_argument("--queries", type=int, default=8,
                        help="corpus queries per repeat (default 8)")
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--max-overhead", type=float, default=None,
                        metavar="FRACTION",
                        help="fail (exit 1) if median overhead exceeds "
                             "this fraction (e.g. 0.02 = 2%%)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON result to PATH")
    args = parser.parse_args()

    db = build_populated_db(scale=args.scale, seed=42)
    queries = QUERIES[: args.queries]
    config_kwargs = {"segments": 4}

    # Warm both paths once (imports, scan cache shapes, codegen).
    _run_workload(db, queries, flight=False, config_kwargs=config_kwargs)
    _run_workload(db, queries, flight=True, config_kwargs=config_kwargs)

    off_times: list[float] = []
    on_times: list[float] = []
    for _ in range(args.repeats):
        off_times.append(
            _run_workload(db, queries, flight=False,
                          config_kwargs=config_kwargs)
        )
        on_times.append(
            _run_workload(db, queries, flight=True,
                          config_kwargs=config_kwargs)
        )

    off = statistics.median(off_times)
    on = statistics.median(on_times)
    overhead = (on - off) / off if off > 0 else 0.0
    result = {
        "queries_per_repeat": len(queries),
        "repeats": args.repeats,
        "median_off_seconds": off,
        "median_on_seconds": on,
        "overhead_fraction": overhead,
        "off_seconds": off_times,
        "on_seconds": on_times,
    }
    print(json.dumps(result, indent=2))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=2)
    print(f"\nflight recorder overhead: {overhead * 100:+.2f}% "
          f"(off {off:.3f}s, on {on:.3f}s, median of {args.repeats})")
    if args.max_overhead is not None and overhead > args.max_overhead:
        print(f"FAIL: overhead {overhead * 100:.2f}% exceeds the "
              f"{args.max_overhead * 100:.2f}% budget")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
