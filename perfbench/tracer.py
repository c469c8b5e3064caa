"""Spans around calls into the zerosum modules, recorded from outside.

The tracer replaces public names at every place a module binds them (the
defining module, each module that imported the name, the package, and the
conjecture-scan script), so a call from one layer into another opens a span
whatever route it takes.  Nothing under ``src/`` is edited: ``install``
patches module attributes and ``uninstall`` puts the originals back.

A span is ``(name, start, end, parent, pass_id, self_s)``.  Self time is the
span's duration minus the time of the spans it caused; for a generator
(``enumerate_automorphisms``) only the time spent producing items counts,
and that time is charged to whichever span consumed the items.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

# (module that defines the name, attribute, span name).  Span names are
# "<layer>.<what>"; the layer is the package module the function lives in.
WRAPPED_CALLS = (
    ("zerosum.search", "s_L", "search.s_L"),
    ("zerosum.search", "enumerate_extremal", "search.enum"),
    ("zerosum.search", "enumerate_minimal_zero_sum", "search.enum_minimal"),
    ("zerosum.sequences", "feasibility", "sequences.feasibility"),
    ("zerosum.sequences", "subsequence_count_table", "sequences.count_table"),
    ("zerosum.sequences", "orbit_canonical", "sequences.orbit"),
    ("zerosum.criteria", "compute_i0", "criteria.scan"),
    ("zerosum.criteria", "first_nonzero_a_index", "criteria.scan"),
    ("zerosum.criteria", "predict_i0", "criteria.predict"),
    ("zerosum.criteria", "zerosub_guarantee", "criteria.scan"),
    ("zerosum.sweeps", "sweep_i0", "sweeps.i0-predictions"),
    ("zerosum.sweeps", "sweep_row_transform", "sweeps.row-transform"),
    ("zerosum.sweeps", "sweep_congruence", "sweeps.count-congruence"),
    ("zerosum.sweeps", "sweep_zerosub_soundness", "sweeps.zerosub-soundness"),
    ("zerosum.theorems", "conjecture_harness", "theorems.conjecture"),
    ("zerosum.theorems", "lemma_3_6_property", "theorems.lemma"),
    ("zerosum.theorems", "davenport_value", "theorems.davenport_value"),
    ("zerosum.constructions", "match_inverse_structure", "constructions.match"),
    ("zerosum.constructions", "verify_construction", "constructions.verify"),
    ("zerosum.known", "load_bundled", "known.load"),
    ("zerosum.cli", "main", "cli.main"),
)
# Calls whose arguments and return values the summaries read (search counts,
# a_i evaluations, sweep cases, conjecture rows).  Other results are
# dropped: count tables are large.
KEPT_RESULTS = ("search.s_L", "search.enum", "criteria.", "sweeps.", "theorems.conjecture")
# Generators: timed per item produced.
WRAPPED_GENERATORS = (
    ("zerosum.groups", "enumerate_automorphisms", "groups.aut"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.results: list[tuple] = []  # (span name, pass id, fn, args, kwargs, result)
        self.pass_id: int | None = None
        self._stack: list[list] = []  # open: [span index, name, parent, start, child s]
        self._patches: list[tuple] = []

    # --- recording -----------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)  # filled in by _close
        frame = [len(self.spans) - 1, name, parent, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError("spans closed out of order")
        index, name, parent, start, child = frame
        duration = end - start
        self.spans[index] = (name, start, end, parent, self.pass_id, duration - child)
        if self._stack:
            self._stack[-1][4] += duration

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def _wrap_call(self, fn, name):
        tracer = self
        keep = name.startswith(KEPT_RESULTS)

        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if keep:
                tracer.results.append((name, tracer.pass_id, fn, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else None
            items = fn(*args, **kwargs)
            start = perf_counter()
            busy = 0.0
            count = 0
            exhausted = False
            try:
                while True:
                    t = perf_counter()
                    try:
                        item = next(items)
                    except StopIteration:
                        exhausted = True
                        return
                    finally:
                        dt = perf_counter() - t
                        busy += dt
                        if tracer._stack:
                            tracer._stack[-1][4] += dt
                    count += 1
                    yield item
            finally:
                tracer.spans.append((name, start, perf_counter(), parent, tracer.pass_id, busy))
                G = args[0]
                candidates = G.exponent ** (G.rank * G.rank)
                tracer.results.append((name, tracer.pass_id, fn, args, kwargs,
                                       (count, exhausted, candidates)))

        traced.__wrapped__ = fn
        return traced

    # --- patching ------------------------------------------------------------

    def install(self, extra_modules=()) -> None:
        """Wrap every binding of the traced names in the loaded zerosum
        modules and in ``extra_modules`` (scripts that import from zerosum)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "zerosum" or n.startswith("zerosum."))]
        modules.extend(extra_modules)
        plan = ([(spec, self._wrap_call) for spec in WRAPPED_CALLS]
                + [(spec, self._wrap_generator) for spec in WRAPPED_GENERATORS])
        for (home, attr, name), wrap in plan:
            original = getattr(sys.modules[home], attr)
            wrapper = wrap(original, name)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # --- summaries -----------------------------------------------------------

    def calls(self, name: str, pass_ids) -> list:
        """(fn, args, kwargs, result) of each kept call in these passes."""
        return [r[2:] for r in self.results if r[0] == name and r[1] in pass_ids]

    def returned(self, name: str, pass_ids) -> list:
        return [r[5] for r in self.results if r[0] == name and r[1] in pass_ids]

    def self_seconds(self, prefix: str, pass_ids=None) -> float:
        return sum(s[5] for s in self.spans
                   if s[0].startswith(prefix) and (pass_ids is None or s[4] in pass_ids))

    def total_seconds(self, name: str, pass_ids=None) -> float:
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] == name and (pass_ids is None or s[4] in pass_ids))

    def span_count(self, name: str, pass_ids=None) -> int:
        return sum(1 for s in self.spans
                   if s[0] == name and (pass_ids is None or s[4] in pass_ids))

    def dump(self) -> list:
        return [list(s) for s in self.spans]

