"""One run of one workload, in the pinned interpreter that run.py starts.

Each workload is one closed-loop client: the next op starts when the
previous one has returned and been checked.  Only the program's calls are
timed; generating inputs, checking outputs and merging spans are not.

With ``--trace 0`` the run reports the end-to-end metrics.  With ``--trace
1`` every op runs twice, untraced and then traced, and the run reports the
per-layer metrics of the traced ops together with the tracing overhead, the
traced minus the untraced median op time.

The last line of stdout is the result JSON; the line before it holds the
run's context: sample counts, the failure ratio and a machine-speed probe
taken at the start and the end of the run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import synth
from spans import Tracer
from tbmc import corpus, engine
from tbmc.lexicon import EdgeSpec, Formation

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "tbmcbench"
CORPORA = ROOT / "src" / "tbmc" / "corpora"

# set-up is repeated before the first op and then again at intervals during
# the run, so that its median spans the same stretch of machine time as the ops
SETUP_BEFORE = 3


def _median_ms(values_ns):
    return statistics.median(values_ns) / 1e6 if values_ns else 0.0


def import_seconds(module: str) -> float:
    """Import time of ``module`` in a fresh interpreter, interpreter start excluded."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, check=True)
    return float(proc.stdout)


def machine_probe_ms() -> float:
    """A fixed pure-Python loop; context only, nothing is normalised by it."""
    times = []
    for _ in range(5):
        start = perf_counter_ns()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append(perf_counter_ns() - start)
    return _median_ms(times)


# -- workloads -------------------------------------------------------------------

class CliCold:
    """Each op is one fresh ``python -m tbmc ...`` on a bundled corpus."""

    in_process = False
    README_OUTPUTS = {  # outputs the README states, checked against the goldens
        "solve": "{+M, -M, +F, -F}\n",
        "enumerate": "64 candidates\n",
        "enumerate-well-formed": "8 well-formed templates\n",
    }

    def __init__(self, seed: int):
        golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
        self.commands = golden["commands"]
        self.problems = [f"golden {name} does not end with the README's {text!r}"
                         for name, text in self.README_OUTPUTS.items()
                         if not next(c for c in self.commands if c["name"] == name)["stdout"].endswith(text)]
        self.rng = random.Random(seed)
        self.interp_ns = []
        self.spans_path = OUT / f"cli-child-{os.getpid()}.json"

    setup_every_s = 2.0

    def setup_once(self) -> float:
        return import_seconds("tbmc.cli")

    def ops(self):
        while True:  # every command once per cycle, in a seeded order
            order = list(self.commands)
            self.rng.shuffle(order)
            yield from order

    def run(self, command, tracer):
        if tracer is None:
            argv = [sys.executable, "-m", "tbmc", *command["argv"]]
        else:
            argv = [sys.executable, str(BENCH / "cli_entry.py"), str(self.spans_path), *command["argv"]]
        return subprocess.run(argv, capture_output=True, cwd=ROOT)

    def check(self, command, proc) -> bool:
        return (proc.returncode == command["exit"]
                and proc.stdout == command["stdout"].encode("utf-8"))

    def after_traced(self, tracer, op_id):
        data = json.loads(self.spans_path.read_text(encoding="utf-8"))
        self.spans_path.unlink()
        tracer.absorb(data, op_id)
        tracer.self_ns["cli.import"] += data["import_ns"]
        start = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True)
        self.interp_ns.append(perf_counter_ns() - start)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class BulkValidate:
    """Each op is parse -> validate -> serialize of one synthetic corpus."""

    in_process = True
    COPIES, CHAINS = 10, 100

    def __init__(self, seed: int):
        self.corpus = synth.bulk_corpus(seed, CORPORA, self.COPIES, self.CHAINS)
        self.canonical = corpus.serialize(corpus.parse(self.corpus.text))
        self.problems = []
        if corpus.serialize(corpus.parse(self.canonical)) != self.canonical:
            self.problems.append("serialize(parse(text)) is not a fixpoint")

    setup_every_s = 2.5

    def setup_once(self) -> float:
        return import_seconds("tbmc")

    def ops(self):
        return itertools.repeat(None)

    def run(self, _op, _tracer):
        document = corpus.parse(self.corpus.text)
        report = corpus.validate(document)
        return document, report, corpus.serialize(document)

    def check(self, _op, output) -> bool:
        document, report, text = output
        ref = self.corpus
        if not document.ok or len(document.statements) != ref.statements:
            return False
        if report.errors or not report.passed:
            return False
        if (report.item_count, report.live_count) != (ref.items, ref.items - ref.superseded):
            return False
        rows = {r.item_id: r for r in report.template_rows}
        if rows.keys() != ref.templates.keys():
            return False
        for item_id, expect in ref.templates.items():
            row = rows[item_id]
            if synth.parse_body(row.actual) != synth.parse_body(expect.template):
                return False
            if expect.rule is not None and row.via != expect.rule:
                return False
        rows = {r.item_id: r for r in report.surface_rows}
        if rows.keys() != ref.surfaces.keys():
            return False
        if any(synth.comparable_surface(rows[i].actual) != synth.comparable_surface(surface)
               for i, surface in ref.surfaces.items()):
            return False
        return text == self.canonical

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class WhatIfDeep:
    """Each op applies one what-if edge to the loaded snapshot and resolves it cold."""

    in_process = True
    CHAINS, DEEP_CHAINS, DEPTH, MIN_STRATUM = 260, 3, 400, 300
    ID = "whatif"

    def __init__(self, seed: int):
        self.corpus = synth.deep_corpus(seed, self.CHAINS, self.DEEP_CHAINS, self.DEPTH)
        self.cases = [
            (EdgeSpec(derived_id=self.ID, process=Formation(w.process), base_id=w.base,
                      target=w.target, animate=w.animate), w)
            for w in synth.what_ifs(seed, self.corpus, 512, self.MIN_STRATUM)
        ]
        self.problems = []
        self.state = None

    setup_every_s = 4.0

    def setup_once(self) -> float:
        self.state = None  # one snapshot alive at a time, so peak RSS is the program's
        start = perf_counter()
        loaded = corpus.load(corpus.parse(self.corpus.text))
        elapsed = perf_counter() - start
        ref, state = self.corpus, loaded.state
        if loaded.errors or (len(state.items), state.live_count) != (ref.items, ref.items - ref.superseded):
            self.problems.append("the what-if corpus did not load as generated")
        self.state = state
        return elapsed

    def ops(self):
        return itertools.cycle(self.cases)

    def run(self, case, tracer):
        api = engine if tracer is None else tracer.engine
        state = self.state.apply_formation(case[0])
        result = api.transfer(state, self.ID)
        return state, result, api.render_trace(api.trace(state, self.ID))

    def check(self, case, output) -> bool:
        state, result, text = output
        what, expect = case[1], case[1].expect
        if (result.template.render(), result.rule_id, result.stratum) != (
                expect.template, expect.rule, expect.stratum):
            return False
        if state.live_count != self.state.live_count + (what.process != "WIDEN"):
            return False
        lines = text.split("\n")
        last = "  " * expect.stratum + (
            f"{self.ID}  [{what.process} {expect.rule}, stratum {expect.stratum}]  {expect.template}")
        return len(lines) == expect.stratum + 1 and lines[-1] == last

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {"cli-cold": CliCold, "bulk-validate": BulkValidate, "whatif-deep": WhatIfDeep}


# -- the measurement loop --------------------------------------------------------

class Loop:
    """Ops until the deadline; with a tracer, each op untraced then traced."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.plain_ns, self.traced_ns = [], []
        self.setup_s = []
        self.attempted = self.failed = 0
        self.first_error = None

    def run(self, seconds: float) -> None:
        workload = self.workload
        self.setup_s += [workload.setup_once() for _ in range(SETUP_BEFORE)]
        now = perf_counter()
        deadline, next_setup = now + seconds, now + workload.setup_every_s
        for op_id, op in enumerate(workload.ops()):
            now = perf_counter()
            if now >= deadline:
                break
            if self.tracer is None and now >= next_setup:
                self.setup_s.append(workload.setup_once())
                next_setup = now + workload.setup_every_s
            self.one(op, op_id, None)
            if self.tracer is not None:
                self.one(op, op_id, self.tracer)

    def one(self, op, op_id, tracer) -> None:
        workload = self.workload
        self.attempted += 1
        try:
            if tracer is not None and workload.in_process:
                tracer.op = op_id
                tracer.install()
            try:
                start = perf_counter_ns()
                output = workload.run(op, tracer)
                elapsed = perf_counter_ns() - start
            finally:
                if tracer is not None and workload.in_process:
                    tracer.uninstall()
            if tracer is not None and not workload.in_process:
                workload.after_traced(tracer, op_id)
            ok = workload.check(op, output)
        except Exception:  # an op that raises counts as failed; the run goes on
            ok, elapsed = False, None
            self.first_error = self.first_error or traceback.format_exc()
        if not ok:
            self.failed += 1
        if elapsed is not None:
            (self.plain_ns if tracer is None else self.traced_ns).append(elapsed)


def end_to_end(loop: Loop, workload) -> dict:
    lat = loop.plain_ns
    return {
        "setup_s": (statistics.median(loop.setup_s), "s"),
        "op_ms_p50": (_median_ms(lat), "ms"),
        "op_ms_p90": (statistics.quantiles(lat, n=10)[8] / 1e6, "ms"),
        "ops_per_s": (len(lat) / (sum(lat) / 1e9), "1/s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }


# layer metric -> the span names whose self time it sums, per traced op
LAYER_MS = {
    "cli.import_ms": ("cli.import",),
    "cli.command_ms": ("cli.main",),
    "oracle.suite_ms": ("oracle.suite",),
    "estimator.estimate_ms": ("estimator.estimate",),
    "corpus.parse_ms": ("corpus.parse",),
    "corpus.serialize_ms": ("corpus.serialize",),
    "corpus.validate_self_ms": ("corpus.validate",),
    "corpus.load_self_ms": ("corpus.load",),
    "lexicon.add_item_ms": ("lexicon.add_item",),
    "lexicon.apply_formation_ms": ("lexicon.apply_formation",),
    "engine.transfer_ms": ("engine.transfer",),
    "engine.trace_ms": ("engine.trace",),
    "engine.render_trace_ms": ("engine.render_trace",),
    "realizer.audit_ms": ("realizer.audit", "realizer.realize"),
}


def per_layer(loop: Loop, workload) -> dict:
    tracer = loop.tracer
    ops = max(len(loop.traced_ns), 1)
    self_ns, calls, counts = tracer.self_ns, tracer.calls, tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    interp_ms = _median_ms(getattr(workload, "interp_ns", []))
    metrics = {name: (sum(self_ns[s] for s in spans) / ops / 1e6, "ms")
               for name, spans in LAYER_MS.items()}
    transfer_calls = calls["engine.transfer"]
    accounted_ms = sum(self_ns.values()) / ops / 1e6 + interp_ms
    metrics.update({
        "cli.interp_ms": (interp_ms, "ms"),
        "corpus.parse_stmts_per_s": (ratio(counts["corpus.statements"], self_ns["corpus.parse"] / 1e9), "1/s"),
        "lexicon.apply_formation_calls": (calls["lexicon.apply_formation"] / ops, "count"),
        "lexicon.us_per_formation": (ratio(self_ns["lexicon.apply_formation"] / 1e3,
                                           calls["lexicon.apply_formation"]), "us"),
        "engine.transfer_calls": (transfer_calls / ops, "count"),
        "engine.transfer_computed": (counts["engine.transfer_computed"] / ops, "count"),
        "engine.memo_hit_ratio": (ratio(counts["engine.memo_hits"], transfer_calls), "1"),
        "engine.resolve_depth": (tracer.max_resolve, "count"),
        "realizer.realize_calls": (calls["realizer.realize"] / ops, "count"),
        "trace.overhead_ms": (_median_ms(loop.traced_ns) - _median_ms(loop.plain_ns), "ms"),
        "trace.self_coverage": (ratio(accounted_ms, statistics.fmean(loop.plain_ns) / 1e6), "1"),
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    OUT.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    probe_start = machine_probe_ms()
    loop = Loop(workload, Tracer() if args.trace else None)
    loop.run(args.seconds)
    probe_end = machine_probe_ms()

    if loop.first_error:
        print(loop.first_error, file=sys.stderr)
    if len(loop.plain_ns) < 2:
        print("fewer than two ops completed; no metrics", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(loop, workload)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        loop.tracer.write(spans_file, {"workload": args.workload, "seed": args.seed})
    else:
        metrics = end_to_end(loop, workload)
        spans_file = None
    for problem in workload.problems:
        print(f"set-up problem: {problem}", file=sys.stderr)

    correct = loop.failed == 0 and not workload.problems
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": len(loop.plain_ns), "traced_samples": len(loop.traced_ns),
        "setup_samples": len(loop.setup_s),
        "fail_ratio": loop.failed / loop.attempted if loop.attempted else 1.0,
        "probe_ms_start": probe_start, "probe_ms_end": probe_end,
        "loadavg": os.getloadavg(), "python": platform.python_version(),
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct, "attempted": loop.attempted, "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
