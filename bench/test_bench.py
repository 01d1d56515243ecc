"""Self-tests of the benchmark: its references, its checks and its tracing.

    python3 -m pytest bench -q      # from the root of the repository

The generator's answers must agree with the engine, a corrupted reference
must be counted as a failed op, and tracing must not change how deep a
chain can resolve.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pytest  # noqa: E402

import synth  # noqa: E402
import worker  # noqa: E402
from spans import Tracer  # noqa: E402
from tbmc import corpus, engine  # noqa: E402


@pytest.fixture(autouse=True)
def child_env(monkeypatch):
    """Child interpreters find tbmc in ``src/`` and write no bytecode there."""
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")


class SmallBulk(worker.BulkValidate):
    COPIES, CHAINS = 2, 12


class SmallWhatIf(worker.WhatIfDeep):
    CHAINS, DEEP_CHAINS, DEPTH, MIN_STRATUM = 8, 2, 40, 20


def _corrupt(expect: synth.Expect) -> synth.Expect:
    """The same expectation with the gender flipped."""
    language = "french" if "DEF" in expect.template else "riffian"
    body = synth.parse_body(expect.template) ^ synth.GENDER_FLIP
    return synth.Expect(synth.render(language, body), expect.rule, expect.stratum)


def _run(workload, seconds=0.3, tracer=None) -> worker.Loop:
    loop = worker.Loop(workload, tracer)
    loop.run(seconds)
    assert loop.attempted >= 1
    return loop


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generator_answers_match_the_engine(seed):
    ref = synth.bulk_corpus(seed, worker.CORPORA, copies=2, chains=20)
    state = corpus.load(corpus.parse(ref.text)).state
    generated = 0
    for item_id, expect in ref.templates.items():
        result = engine.transfer(state, item_id)
        assert synth.parse_body(result.template.render()) == synth.parse_body(expect.template), item_id
        if expect.rule is not None:
            generated += 1
            assert (result.rule_id, result.stratum) == (expect.rule, expect.stratum), item_id
    assert generated > 50


def test_what_if_answers_match_the_engine():
    workload = SmallWhatIf(5)
    loop = _run(workload)
    assert loop.failed == 0
    assert {w.expect.rule for _, w in workload.cases} == {"R1", "R2", "R4"}


def test_bulk_ops_pass_and_a_corrupted_expectation_fails():
    workload = SmallBulk(4)
    assert not workload.problems
    assert _run(workload).failed == 0
    item_id, expect = next((i, e) for i, e in workload.corpus.templates.items() if e.rule is not None)
    workload.corpus.templates[item_id] = _corrupt(expect)
    loop = _run(workload)
    assert loop.failed == loop.attempted


def test_a_corrupted_what_if_reference_fails():
    workload = SmallWhatIf(6)
    edge, what = workload.cases[0]
    workload.cases[:] = [(edge, synth.WhatIf(what.base, what.base_stratum, what.process, what.target,
                                            what.animate, _corrupt(what.expect)))]
    loop = _run(workload)
    assert loop.failed == loop.attempted


def test_cli_ops_match_the_goldens_and_a_corrupted_golden_fails():
    workload = worker.CliCold(1)
    assert not workload.problems
    solve = next(c for c in workload.commands if c["name"] == "solve")
    workload.commands = [solve]
    assert _run(workload, seconds=0.1).failed == 0
    workload.commands = [{**solve, "stdout": "{+M, -M}\n"}]
    loop = _run(workload, seconds=0.1)
    assert loop.failed == loop.attempted


def test_traced_runs_report_every_declared_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = SmallBulk(8)
    plain = _run(workload)
    assert set(worker.end_to_end(plain, workload)) == {m["name"] for m in declared["end_to_end"]}
    traced = _run(workload, tracer=Tracer())
    assert traced.failed == 0 and traced.traced_ns
    metrics = worker.per_layer(traced, workload)
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    assert metrics["lexicon.apply_formation_calls"][0] > 0
    assert metrics["realizer.realize_calls"][0] > 0


def _deepest_limit(chain_depth: int, traced: bool) -> int:
    """The lowest recursion limit at which a cold transfer of the chain's tip succeeds."""
    text = synth.HEADER + "\n".join(
        ['item id=x_0 lang=riffian radical="ka" cogset=C template={N, +SG, -PL, +M, -F, -COL, +SING}']
        + [f"derive id=x_{k} base=x_{k - 1} via=CONV target=C" for k in range(1, chain_depth + 1)]) + "\n"
    document = corpus.parse(text)
    tracer = Tracer()
    api = tracer.engine if traced else engine
    low, high = 10, 2000
    old = sys.getrecursionlimit()
    while low < high:
        mid = (low + high) // 2
        state = corpus.load(document).state
        try:
            sys.setrecursionlimit(mid)
            api.transfer(state, f"x_{chain_depth}")
            high = mid
        except RecursionError:
            low = mid + 1
        finally:
            sys.setrecursionlimit(old)
    return low


def test_tracing_adds_no_frames_inside_the_resolution_recursion():
    shallow = _deepest_limit(50, traced=True) - _deepest_limit(50, traced=False)
    deep = _deepest_limit(150, traced=True) - _deepest_limit(150, traced=False)
    # the entry wrappers cost a fixed few frames, however deep the chain
    assert shallow == deep <= 3
