"""Brute-force verification battery and its independence from the engine."""

import pytest

from tbmc import algebra, oracle
from tbmc.cli import main
from tbmc.lexicon import EdgeSpec, Formation, Item, LexiconState
from tbmc.oracle import (
    UniverseTooLarge,
    VerificationResult,
    all_subsets,
    naive_symmetric_difference,
    verify_formulation_agreement,
    verify_group_axioms,
    verify_operand_uniqueness,
)
from tbmc.templates import BUILTIN_INITIALS, RIFFIAN, make_template


def test_three_atom_universe_passes_with_full_triple_coverage():
    result = verify_group_axioms(["a", "b", "c"])
    assert result.passed
    assert result.checks >= 8 ** 3  # at least every associativity triple


def test_four_atom_universe_passes():
    assert verify_group_axioms(["a", "b", "c", "d"]).passed


def test_empty_universe_passes_vacuously():
    result = verify_group_axioms([])
    assert result.passed


def test_union_masquerading_as_delta_is_caught_on_inverse():
    result = verify_group_axioms(["a", "b"], delta=lambda a, b: a | b)
    assert not result.passed
    assert "inverse" in result.counterexample


def test_intersection_masquerading_as_delta_is_caught():
    assert not verify_group_axioms(["a", "b"], delta=lambda a, b: a & b).passed


def test_universe_caps_are_enforced():
    with pytest.raises(UniverseTooLarge):
        verify_group_axioms(list("abcde"))
    with pytest.raises(UniverseTooLarge):
        verify_formulation_agreement(list("abcdefg"))
    with pytest.raises(UniverseTooLarge):
        verify_operand_uniqueness(list("abcdefg"))


def test_formulation_agreement_counts_every_pair():
    result = verify_formulation_agreement(["a", "b", "c", "d"])
    assert result.passed
    assert result.checks == 16 * 16


def test_hand_checkable_pair():
    assert naive_symmetric_difference(frozenset("ab"), frozenset("bc")) == frozenset("ac")
    assert algebra.symmetric_difference_via_differences(
        frozenset("ab"), frozenset("bc")) == frozenset("ac")
    assert algebra.symmetric_difference_via_envelope(
        frozenset("ab"), frozenset("bc")) == frozenset("ac")


def test_operand_uniqueness_bijection():
    result = verify_operand_uniqueness(["a", "b", "c", "d"])
    assert result.passed
    # 16 operands per base, all images distinct: implied by the pass, spot
    # check one base by hand
    base = frozenset("ab")
    images = {naive_symmetric_difference(base, p) for p in all_subsets("abcd")}
    assert len(images) == 16


def test_naive_reference_is_not_the_engine():
    assert naive_symmetric_difference.__module__ == "tbmc.oracle"
    import inspect

    source = inspect.getsource(naive_symmetric_difference)
    assert "algebra" not in source and "^" not in source


def test_subset_enumeration_is_binary_ordered():
    subsets = all_subsets(["a", "b"])
    assert subsets == [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")]


def verify_ledger_step(before, edge, after):
    """Live-count delta of one applied edge matches its process kind:
    +1 for conversion, derivation and borrowing; 0 for widening."""
    expected = 1 if edge.process is not Formation.WIDENING else 0
    actual = after.live_count - before.live_count
    if actual != expected:
        return VerificationResult(
            "ledger-step", False, 1,
            f"{edge.process.value} edge {edge.derived_id}: live count moved by {actual}, expected {expected}")
    return VerificationResult("ledger-step", True, 1)


def verify_ledger_replay(initial, specs):
    """Replay an edge list checking every step plus the closing balance:
    final live count = initial + number of non-widening edges."""
    state = initial
    checks = 0
    for spec in specs:
        nxt = state.apply_formation(spec)
        step = verify_ledger_step(state, spec, nxt)
        checks += step.checks
        if not step.passed:
            return VerificationResult("ledger-replay", False, checks, step.counterexample)
        state = nxt
    additions = sum(1 for s in specs if s.process is not Formation.WIDENING)
    checks += 1
    if state.live_count != initial.live_count + additions:
        return VerificationResult(
            "ledger-replay", False, checks,
            f"final live count {state.live_count} != {initial.live_count} + {additions}")
    return VerificationResult("ledger-replay", True, checks)


def _tiny_state():
    state = LexiconState({"riffian": RIFFIAN}, BUILTIN_INITIALS)
    return state.add_item(Item(
        id="w0", language="riffian", radical="rad", cogset="C",
        template=make_template(RIFFIAN, "{N, +SG, -PL, -M, +F, -COL, +SING}")))


def test_ledger_step_for_each_process():
    state = _tiny_state()
    grow = EdgeSpec(derived_id="d1", process=Formation.CONVERSION, base_id="w0", target="U")
    after = state.apply_formation(grow)
    assert verify_ledger_step(state, grow, after).passed
    keep = EdgeSpec(derived_id="d2", process=Formation.WIDENING, base_id="d1", target="C")
    kept = after.apply_formation(keep)
    assert verify_ledger_step(after, keep, kept).passed
    assert not verify_ledger_step(state, grow, state).passed  # stale pair


def test_ledger_replay_over_the_fig2_corpus(fig2):
    # rebuild the pre-derivation state, then replay the recorded edges
    heads = LexiconState(fig2.profiles, fig2.initials)
    for item_id, item in fig2.items.items():
        if item_id not in fig2.edges:
            heads = heads.add_item(item)
    result = verify_ledger_replay(heads, list(fig2.edges.values()))
    assert result.passed
    replayed = heads
    for spec in fig2.edges.values():
        replayed = replayed.apply_formation(spec)
    assert replayed.live_count == fig2.live_count
    assert replayed.superseded == fig2.superseded


def test_default_suite_passes():
    results = oracle.default_suite()
    assert all(r.passed for r in results)
    assert [r.name for r in results] == [
        "group-axioms", "formulation-agreement", "operand-uniqueness"]


def test_result_rendering():
    passed = verify_group_axioms(["a"])
    assert passed.render().startswith("pass")
    failed = verify_group_axioms(["a"], delta=lambda a, b: a | b)
    assert failed.render().startswith("FAIL")


def test_selfcheck_fails_and_shows_the_counterexample_when_a_formulation_is_wrong(monkeypatch, capsys):
    # a union agrees with Δ on disjoint operands and nowhere else
    monkeypatch.setattr(algebra, "symmetric_difference_via_envelope", lambda a, b: a | b)
    assert main(["selfcheck", "--atoms", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("pass  group-axioms")
    assert lines[1] == "FAIL  formulation-agreement  (18 checks)  {a} Δ {a}: {} vs {a} vs {}"
    assert main(["selfcheck", "--atoms", "2", "--format", "records"]) == 1
    records = capsys.readouterr().out.splitlines()
    assert records[1] == "check=formulation-agreement\tstatus=fail\tchecks=18"
    assert [line.split("\t")[1] for line in records] == ["status=pass", "status=fail", "status=pass"]
