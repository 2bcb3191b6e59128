"""Outside-in layer tracing: benchmark-side spans around public calls.

:class:`Recorder` swaps each traced public function or method for a thin
wrapper that records a span (name, start, end, parent span, request id)
and restores the original on exit.  Nothing inside ``src/`` changes, so
the traced program is the untraced one plus one Python call per span.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

#: (module or class path, attribute, span name).  ``deep_sizeof`` is
#: timed where Orca sizes each finished memo and, separately, where the
#: governor probes a memo mid-search.  Memo copy-in is handled apart (see
#: :meth:`Recorder.installed`).
TARGETS = (
    ("repro.service.session:Session", "execute", "service"),
    ("repro.fleet.orchestrator:Fleet", "execute", "fleet.request"),
    ("repro.optimizer:Orca", "optimize", "optimizer"),
    ("repro.optimizer", "parse", "sql.parse"),
    ("repro.optimizer", "fingerprint", "plancache.fingerprint"),
    ("repro.plancache:PlanCache", "lookup", "plancache.lookup"),
    ("repro.sql.translator:Translator", "translate", "sql.translate"),
    ("repro.optimizer", "preprocess", "xforms.normalize"),
    ("repro.search.engine:SearchEngine", "optimize", "search.stages"),
    ("repro.search.engine:SearchEngine", "extract", "search.extract"),
    ("repro.optimizer", "deep_sizeof", "gpos.deep_sizeof"),
    ("repro.search.engine", "deep_sizeof", "gpos.memory_probe"),
    ("repro.engine.executor:Executor", "execute", "engine.execute"),
    ("repro.engine.parallel:MorselPool", "run_stage", "engine.parallel.dispatch"),
)

#: SearchStats fields kept per traced optimization (the job log is not:
#: holding it would grow the heap, and so garbage-collection time, over
#: the window).
SEARCH_FIELDS = (
    "num_groups", "num_gexprs", "jobs_executed", "kind_counts",
    "pruned_alternatives", "costed_alternatives", "derivation_cache_hits",
    "memory_bytes",
)

#: How each layer figure that is not a plain wrapped call is obtained
#: (printed with every traced run and written into the span dump).
LAYER_NOTES = {
    "search.stages": "SearchEngine.optimize minus its SearchEngine.extract "
                     "child (the stages have no public entry point)",
    "engine.execute": "Executor.execute (fused compile, streaming, replay "
                      "and motions have no public entry points)",
    "fleet.ipc": "Fleet.execute minus the worker's own request span, "
                 "adopted through the fleet tracer",
    "governed_fleet layers": "read from the worker's own spans (parse, "
                             "plan_cache_lookup, translate, normalize, "
                             "copy_in, search:*, extract, execute), which "
                             "the fleet ships back with each response",
    "engine.first_execute_s": "governed_fleet: the first warm "
                              "Fleet.execute, optimize included",
    "trace.overhead": "the same passes sent untraced, then traced; on "
                      "governed_fleet the second sending meets other cache "
                      "and feedback state, so it is not like for like",
}


def _resolve(path: str):
    import importlib

    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        #: [name, start, end, parent index, request id] per span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request_id = 0
        #: (plan source, SearchStats) of every traced Orca.optimize.
        self.searches: list[tuple] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    def open(self, name: str, start: float) -> int:
        """Open a span under the innermost open one; a span opened with
        none open starts a new request."""
        idx = len(self.spans)
        if self._stack:
            parent = self._stack[-1]
        else:
            parent = -1
            self.request_id += 1
        self.spans.append([name, start, start, parent, self.request_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float) -> None:
        self.spans[idx][2] = end
        self._stack.pop()

    def _wrapper(self, original, name, keep):
        rec = self

        def traced(*args, **kwargs):
            idx = rec.open(name, perf_counter())
            try:
                out = original(*args, **kwargs)
            finally:
                rec.close(idx, perf_counter())
            if keep is not None:
                keep(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block.  Each
        ``Orca.optimize`` result's (plan source, SearchStats) is kept in
        :attr:`searches`."""
        for path, attr, name in TARGETS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            keep = self._keep_search if name == "optimizer" else None
            setattr(owner, attr, self._wrapper(original, name, keep))
            self._patches.append((owner, attr, original))
        optimizer = _resolve("repro.optimizer")
        self._patches.append((optimizer, "Memo", optimizer.Memo))
        optimizer.Memo = self._copy_in_memo(optimizer.Memo)
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def _copy_in_memo(self, memo_cls):
        """A Memo subclass for the optimizer whose first ``insert`` — the
        copy-in of the preprocessed tree — records a span.  ``insert`` is
        recursive, so during copy-in it is rebound on the instance to the
        untraced original; later calls (xforms adding expressions) pass
        straight through."""
        rec = self

        class CopyInMemo(memo_cls):
            def insert(self, expr, target_group=None):
                if "_copied_in" in self.__dict__:
                    return memo_cls.insert(self, expr, target_group)
                self._copied_in = True
                self.insert = memo_cls.insert.__get__(self)
                idx = rec.open("memo.copy_in", perf_counter())
                try:
                    return memo_cls.insert(self, expr, target_group)
                finally:
                    rec.close(idx, perf_counter())
                    # Drop the bound method: kept, it would tie the memo
                    # into a reference cycle that only the collector frees.
                    del self.insert

        return CopyInMemo

    def _keep_search(self, result) -> None:
        stats = result.search_stats
        self.searches.append((result.plan_source, SimpleNamespace(
            **{k: getattr(stats, k) for k in SEARCH_FIELDS}
        )))

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.searches.clear()

    # ------------------------------------------------------------------
    def self_times(self) -> tuple[dict[str, float], float]:
        """(span name -> summed self time, summed root span duration).

        A span's self time is its duration minus the part its children
        cover; children never overlap here (one thread, nested calls).
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        root_total = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own = (end - start) - child[i]
            out[name] = out.get(name, 0.0) + own
            if parent < 0:
                root_total += end - start
        return out, root_total

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.spans[0][1] if self.spans else 0.0
        path.write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent", "request"],
            "notes": LAYER_NOTES,
            "spans": [
                [n, round(s - base, 9), round(e - base, 9), p, r]
                for n, s, e, p, r in self.spans
            ],
        }))
