"""The correctness reference: every variant run through the legacy Planner
and the row-at-a-time executor, which share no code with Orca's search or
the fused/batch engines that the workloads exercise.

The reference for the whole variant universe costs about a minute (one
corpus query re-runs a correlated subquery per customer under the
Planner), so it is computed once per checkout and stored under
``perfbench/.cache`` together with the variant universe (which depends on
the generated data), keyed by a digest of the program's source and the
data settings.  Any change to ``src/`` therefore recomputes
it; it is never part of a timed window or of ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

CACHE_DIR = Path(__file__).resolve().parent / ".cache"


def row_key(rows) -> dict:
    """The differential suite's comparison rule (order-insensitive rows,
    floats rounded to 6 places) reduced to a digest and a row count."""

    def norm(row):
        return tuple(
            round(v, 6) + 0.0 if isinstance(v, float) else v for v in row
        )

    text = "\n".join(sorted((repr(norm(r)) for r in rows)))
    return {"rows": len(rows), "sha": hashlib.sha256(text.encode()).hexdigest()}


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def compute(db, texts, segments: int) -> dict:
    from repro.config import ExecutionMode, OptimizerConfig
    from repro.engine import Cluster, Executor
    from repro.planner import LegacyPlanner

    config = OptimizerConfig(segments=segments)
    executor = Executor(
        Cluster(db, segments=segments), execution_mode=ExecutionMode.ROW
    )
    out = {}
    for sql in texts:
        planned = LegacyPlanner(db, config).optimize(sql)
        out[sql] = row_key(executor.execute(planned.plan, planned.output_cols).rows)
    return out


def load_or_compute(src: Path, build_db, make_universe, *, segments: int,
                    settings) -> tuple[dict, dict]:
    """(variant universe, sql -> reference row key), computed once per
    program source and data ``settings`` and then read from the cache."""
    key = hashlib.sha256(json.dumps(
        [source_digest(src), segments, list(settings)]
    ).encode()).hexdigest()[:24]
    path = CACHE_DIR / f"reference-{key}.json"
    if path.exists():
        cached = json.loads(path.read_text())
        return cached["universe"], cached["refs"]
    db = build_db()
    universe = make_universe(db)
    texts = [sql for variants in universe.values() for sql in variants]
    refs = compute(db, texts, segments)
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps({"universe": universe, "refs": refs}))
    tmp.replace(path)
    return universe, refs
