"""Seeded inputs: literal variants of the TPC-DS corpus and request orders.

The program under test only ever receives SQL strings built here.  The
variant *universe* is fixed (a function of the corpus text and of the
generated data's column ranges), so the correctness reference can be
computed once for all of it; the seed picks the order in which the
variants are sent.
"""

from __future__ import annotations

import bisect
import random
import re
from typing import Optional

#: Comparison literals that become plan-cache parameters: a number after
#: a comparison operator, or either bound of a BETWEEN.
_BETWEEN = re.compile(
    r"(?:(\w+)\s+)?(\bBETWEEN\s+)(\d+)(\s+AND\s+)(\d+)(?![\d.])", re.I
)
_COMPARE = re.compile(r"(?:(\w+)\s*)?((?:<=|>=|<>|!=|=|<|>)\s*)(\d+)(?![\d.])")
#: Every literal the plan cache parameterizes (numbers and strings); LIMIT
#: counts are structural, not parameters.
_ANY_LITERAL = re.compile(r"'[^']*'|(?<![\w.])\d+(?:\.\d+)?(?![\w.])")
_LIMIT = re.compile(r"\bLIMIT\s+\d+", re.I)

#: Offset patterns tried in order; offset i applies to the i-th literal.
_PATTERNS = (
    lambda i: 1,
    lambda i: -1,
    lambda i: i + 1,
    lambda i: -(i + 1),
    lambda i: 1 if i % 2 == 0 else -1,
)
#: At most this many variants per query shape.
MAX_VARIANTS = 3


def _step(value: int) -> int:
    """Shift unit for one literal: 1 for small numbers and years, else a
    tenth of its order of magnitude (30000 -> 1000, 130 -> 10)."""
    if value < 100 or 1900 <= value <= 2100:
        return 1
    return 10 ** (len(str(value)) - 2)


def column_domains(db) -> dict[str, tuple]:
    """column name -> (min, max) of its numeric values in the data."""
    out = {}
    for table in db.tables():
        rows = db.scan(table.name)
        for i, col in enumerate(table.columns):
            values = [
                r[i] for r in rows
                if isinstance(r[i], (int, float)) and not isinstance(r[i], bool)
            ]
            if values:
                out[col.name] = (min(values), max(values))
    return out


def _literal_slots(sql: str, fixed_columns) -> list[tuple]:
    """(start, end, value, column) of every shiftable literal, in text
    order; ``column`` is the compared column's name, or None.

    Literals compared with a column in ``fixed_columns`` stay put: static
    partition elimination bakes them into the plan, which then can never
    be re-bound, so shifting them would turn cache hits into misses.
    """
    slots, seen = [], set()
    for m in _BETWEEN.finditer(sql):
        seen.update((m.start(3), m.start(5)))
        if m.group(1) not in fixed_columns:
            slots.append((m.start(3), m.end(3), int(m.group(3)), m.group(1)))
            slots.append((m.start(5), m.end(5), int(m.group(5)), m.group(1)))
    for m in _COMPARE.finditer(sql):
        if m.start(3) not in seen and m.group(1) not in fixed_columns:
            slots.append((m.start(3), m.end(3), int(m.group(3)), m.group(1)))
    return sorted(slots)


def _params_distinct(sql: str) -> bool:
    """True when no two parameter literals share a (type, value): the
    plan cache only re-binds plans whose parameters are unambiguous."""
    text = _LIMIT.sub("LIMIT", sql)
    keys = []
    for lit in _ANY_LITERAL.findall(text):
        if lit.startswith("'"):
            keys.append(("str", lit))
        elif "." in lit:
            keys.append(("float", float(lit)))
        else:
            keys.append(("int", int(lit)))
    return len(keys) == len(set(keys))


def _shift(sql: str, slots, pattern, domains) -> Optional[str]:
    """``sql`` with every slot shifted by ``pattern``, or None when a
    shifted value leaves its column's range in the data."""
    out, pos = [], 0
    for i, (start, end, value, column) in enumerate(slots):
        shifted = value + pattern(i) * _step(value)
        lo, hi = domains.get(column, (shifted, shifted))
        if not lo <= shifted <= hi:
            return None
        out.append(sql[pos:start])
        out.append(str(shifted))
        pos = end
    out.append(sql[pos:])
    return "".join(out)


def variants(sql: str, fixed_columns=frozenset(), domains=None) -> list[str]:
    """The fixed literal-variant universe of one corpus query.

    A query without shiftable literals has itself as its only variant.
    Otherwise the variants shift every comparison literal (never the
    original text, whose literals may repeat), keep every shifted value
    inside its column's range in the data (``domains``, column -> (min,
    max)), as real parameter values are, and keep only texts whose
    parameters are pairwise distinct, so every variant's plan can serve
    the others by re-binding.
    """
    slots = _literal_slots(sql, fixed_columns)
    if not slots:
        return [sql]
    out: list[str] = []
    for pattern in _PATTERNS:
        text = _shift(sql, slots, pattern, domains or {})
        if text is not None and text not in out and _params_distinct(text):
            out.append(text)
        if len(out) == MAX_VARIANTS:
            break
    return out or [sql]


def universe(queries, db) -> dict[str, list[str]]:
    """query id -> its variant texts, for the whole corpus over ``db``.

    Literals compared with a partition key are fixed, and shifted values
    stay inside the data's column ranges.
    """
    fixed = frozenset(
        t.partitioning.column for t in db.tables() if t.partitioning
    )
    domains = column_domains(db)
    return {q.id: variants(q.sql, fixed, domains) for q in queries}


def passes(universe: dict[str, list[str]], seed: int):
    """Endless seeded passes: each pass sends every shape once, in a fresh
    seeded order.  Each shape sends its variants in turn, from a seeded
    start, so every run sends the same mix, give or take one request per
    variant.  (With two variants drawn per seed, the median request fell
    between different queries' latencies from seed to seed, and
    query_p50_ms moved by up to a fifth.)

    Yields lists of ``(shape id, sql)``.
    """
    rng = random.Random(seed)
    ids = sorted(universe)
    turn = {qid: rng.randrange(len(universe[qid])) for qid in ids}
    while True:
        rng.shuffle(ids)
        batch = []
        for qid in ids:
            texts = universe[qid]
            batch.append((qid, texts[turn[qid] % len(texts)]))
            turn[qid] += 1
        yield batch


def zipf_passes(universe: dict[str, list[str]], seed: int, length: int,
                skew: float = 1.0):
    """Endless Zipf-skewed passes of ``length`` requests each.

    Shape rank r (corpus order, fixed so every seed has the same hot set)
    has probability proportional to 1 / r**skew.  Each pass draws its
    shapes by systematic sampling of that distribution (one seeded offset,
    then evenly spaced points on the CDF), so a pass holds each shape
    about length * p(r) times and only the order and the rare tail vary
    with the seed.  Each request's variant is drawn uniformly from the
    shape's whole universe.
    """
    rng = random.Random(seed)
    ids = list(universe)
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(ids))]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    while True:
        offset = rng.random()
        shapes = [
            ids[min(bisect.bisect_left(cdf, (i + offset) / length),
                    len(ids) - 1)]
            for i in range(length)
        ]
        rng.shuffle(shapes)
        yield [(qid, rng.choice(universe[qid])) for qid in shapes]
