"""Spans and counts at tbmc's public-function boundaries, recorded from outside.

A :class:`Tracer` replaces public functions of ``tbmc.corpus``,
``tbmc.lexicon``, ``tbmc.engine``, ``tbmc.realizer``, ``tbmc.estimator`` and
``tbmc.oracle`` with timing wrappers while it is installed, and puts the
originals back on ``uninstall``.  Nothing under ``src/`` is edited.

Engine calls are wrapped only where they enter the engine: the modules that
call into it (corpus, cli, realizer, estimator) and the benchmark see a proxy
of ``tbmc.engine`` whose ``transfer``, ``trace`` and ``render_trace`` are
wrapped, while the engine's own ``transfer``/``shift_record`` recursion keeps
calling the unwrapped functions.  A chain that resolves untraced therefore
resolves traced, with the same stack depth.

Each span is ``[name, start_ns, end_ns, parent_span_id, op_id]``.  Spans stay
in memory (the first ``SPAN_CAP``) and are written once, at the end of a run.
Self time per name is accumulated exactly as spans close: a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

import tbmc.cli
from tbmc import corpus, engine, estimator, lexicon, oracle, realizer

# (module, attribute, span name) replaced on install
_MODULE_FUNCTIONS = (
    (corpus, "parse", "corpus.parse"),
    (corpus, "load", "corpus.load"),
    (corpus, "validate", "corpus.validate"),
    (corpus, "serialize", "corpus.serialize"),
    (realizer, "realization_audit", "realizer.audit"),
    (realizer, "realize", "realizer.realize"),
    (estimator, "estimate_initial_templates", "estimator.estimate"),
    (oracle, "default_suite", "oracle.suite"),
)
_STATE_METHODS = (
    ("add_item", "lexicon.add_item"),
    ("apply_formation", "lexicon.apply_formation"),
)
# modules whose ``engine`` global is swapped for the proxy
_ENGINE_CALLERS = (corpus, realizer, estimator, tbmc.cli)
# spans kept in memory per run; later ones still count towards the totals
SPAN_CAP = 100_000


class _EngineProxy:
    """``tbmc.engine`` as its callers see it while tracing."""

    def __init__(self, wrapped: Dict[str, Callable]):
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(engine, name)


def _memo(state) -> dict:
    # the snapshot's memo; a later layout without one reads as empty
    return getattr(state, "_cache", None) or {}


class Tracer:
    def __init__(self):
        # spans in columns, so that recording one allocates no container the
        # garbage collector would have to walk; -1 stands for "none"
        self._names: List[str] = []
        self._cols = {key: array("q") for key in ("start", "end", "parent", "op")}
        self.op: Optional[int] = None
        self._next_id = 0
        self._stack: List[list] = []  # [span id, child time ns]
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_resolve = 0
        self._saved: list = []
        self.engine = _EngineProxy({
            "transfer": self._transfer(self.wrap("engine.transfer", engine.transfer)),
            "trace": self.wrap("engine.trace", engine.trace),
            "render_trace": self.wrap("engine.render_trace", engine.render_trace),
        })

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, parent: int, op: int) -> None:
        self._names.append(name)
        for key, value in (("start", 0), ("end", 0), ("parent", parent), ("op", op)):
            self._cols[key].append(value)

    def wrap(self, name: str, fn: Callable) -> Callable:
        starts, ends = self._cols["start"], self._cols["end"]

        def traced(*args, **kwargs):
            # a span's id is its index in the columns: it is opened on entry
            sid = self._next_id
            self._next_id += 1
            kept = sid < SPAN_CAP
            if kept:
                self._open(name, self._stack[-1][0] if self._stack else -1,
                           -1 if self.op is None else self.op)
            frame = [sid, 0]
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                duration = end - start
                self.self_ns[name] += duration - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += duration
                if kept:
                    starts[sid], ends[sid] = start, end

        traced.__wrapped__ = fn
        return traced

    def _transfer(self, traced_transfer: Callable) -> Callable:
        """Count memo hits and memo entries computed per entering call."""
        def transfer(state, item_id):
            memo = _memo(state)
            before = len(memo)
            if ("transfer", item_id) in memo:
                self.counts["engine.memo_hits"] += 1
            try:
                return traced_transfer(state, item_id)
            finally:
                computed = len(_memo(state)) - before
                self.counts["engine.transfer_computed"] += computed
                self.max_resolve = max(self.max_resolve, computed)

        return transfer

    def _count_statements(self, traced_parse: Callable) -> Callable:
        def parse(text):
            document = traced_parse(text)
            self.counts["corpus.statements"] += len(document.statements)
            return document

        return parse

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module, attr, name in _MODULE_FUNCTIONS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        corpus.parse = self._count_statements(corpus.parse)
        for attr, name in _STATE_METHODS:
            original = getattr(lexicon.LexiconState, attr)
            self._saved.append((lexicon.LexiconState, attr, original))
            setattr(lexicon.LexiconState, attr, self.wrap(name, original))
        for module in _ENGINE_CALLERS:
            self._saved.append((module, "engine", module.engine))
            module.engine = self.engine

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals so far, as plain data (the child entry point ships these)."""
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "max_resolve": self.max_resolve,
        }

    def absorb(self, data: dict, op: int) -> None:
        """Merge what a traced child process wrote (see ``cli_entry.py``)."""
        base = self._next_id
        for name, start, end, parent, _ in data["spans"]:
            if self._next_id < SPAN_CAP:
                self._open(name, -1 if parent is None else base + parent, op)
                self._cols["start"][-1], self._cols["end"][-1] = start, end
            self._next_id += 1
        self.self_ns.update(data["self_ns"])
        self.calls.update(data["calls"])
        self.counts.update(data["counts"])
        self.max_resolve = max(self.max_resolve, data["max_resolve"])

    def write(self, path, header: dict) -> None:
        cols = self._cols
        spans = [[name, start, end, None if parent < 0 else parent, None if op < 0 else op]
                 for name, start, end, parent, op in zip(
                     self._names, cols["start"], cols["end"], cols["parent"], cols["op"])]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "dropped_spans": max(0, self._next_id - SPAN_CAP),
                       "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": spans}, handle)
