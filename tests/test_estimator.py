"""Initial-template estimation over the deverbal sample."""

import pytest

from tbmc.estimator import (
    DEFAULT_FILTER,
    EstimationError,
    EstimationFilter,
    estimate_initial_templates,
    render_report,
)
from tbmc.lexicon import Item, LexiconState
from tbmc.templates import BUILTIN_INITIALS, RIFFIAN, make_template

C_INITIAL = "{N, +SG, -PL, -M, +F, -COL, +SING}"
U_INITIAL = "{N, +SG, -PL, -M, +F, +COL, -SING}"
NA_INITIAL = "{N, +SG, -PL, +M, -F, -COL, +SING}"


def observed(i, cogset, text, **kw):
    return Item(id=f"x{i}", language="riffian", radical=f"r{i}", cogset=cogset,
                template=make_template(RIFFIAN, text), **kw)


def estimate_for(estimates, cogset):
    (est,) = [e for e in estimates if e.cogset == cogset]
    return est


def small_state(items):
    state = LexiconState({"riffian": RIFFIAN}, BUILTIN_INITIALS)
    for item in items:
        state = state.add_item(item)
    return state


def test_deverbal_sample_recovers_the_registry(table3):
    estimates = estimate_initial_templates(table3)
    assert estimate_for(estimates, "C").winner.render() == C_INITIAL
    assert estimate_for(estimates, "U").winner.render() == U_INITIAL
    assert estimate_for(estimates, "NA").winner.render() == NA_INITIAL
    for est in estimates:
        assert not est.tie and not est.insufficient
    assert estimate_for(estimates, "C").sample_size == 7
    assert estimate_for(estimates, "U").sample_size == 7
    assert estimate_for(estimates, "NA").sample_size == 3


def test_winners_match_the_default_initials(table3):
    for est in estimate_initial_templates(table3):
        if est.winner is not None:
            assert est.winner.body == BUILTIN_INITIALS[("riffian", est.cogset)].body


def test_singleton_group():
    state = small_state([observed(0, "C", C_INITIAL, typical=True)])
    est = estimate_for(estimate_initial_templates(state), "C")
    assert est.sample_size == 1
    assert est.winner.render() == C_INITIAL


def test_tie_yields_no_winner():
    state = small_state([
        observed(0, "C", C_INITIAL, typical=True),
        observed(1, "C", NA_INITIAL, typical=True),
    ])
    est = estimate_for(estimate_initial_templates(state), "C")
    assert est.tie and est.winner is None
    assert est.status == "tie"


def test_filtered_out_group_is_insufficient():
    state = small_state([observed(0, "C", C_INITIAL, common=True)])
    est = estimate_for(estimate_initial_templates(state), "C")
    assert est.insufficient and est.winner is None
    assert est.status == "insufficient data for cognitive set"


def test_exclusion_beats_inclusion():
    state = small_state([observed(0, "C", C_INITIAL, typical=True, common=True)])
    assert estimate_for(estimate_initial_templates(state), "C").insufficient


def test_nouns_of_action_bypass_the_filter():
    state = small_state([observed(0, "NA", NA_INITIAL)])  # no flags at all
    assert estimate_for(estimate_initial_templates(state), "NA").sample_size == 1
    strict = EstimationFilter(unfiltered_sets=frozenset())
    assert estimate_for(estimate_initial_templates(state, strict), "NA").insufficient


def test_filter_monotonicity():
    items = [
        observed(0, "C", C_INITIAL, typical=True),
        observed(1, "C", C_INITIAL, typical=True),
        observed(2, "C", NA_INITIAL, typical=True),
    ]
    before = estimate_for(estimate_initial_templates(small_state(items)), "C")
    # marking one item as common removes exactly its own contribution
    items[1] = observed(1, "C", C_INITIAL, typical=True, common=True)
    after = estimate_for(estimate_initial_templates(small_state(items)), "C")
    assert after.sample_size == before.sample_size - 1
    assert dict(after.histogram)[NA_INITIAL] == dict(before.histogram)[NA_INITIAL]
    assert dict(after.histogram)[C_INITIAL] == dict(before.histogram)[C_INITIAL] - 1


def test_reports_are_reproducible(table3):
    first = estimate_initial_templates(table3)
    second = estimate_initial_templates(table3)
    assert first == second
    assert render_report(first) == render_report(second)


def test_histogram_keys_are_canonical_renderings(table3):
    for est in estimate_initial_templates(table3):
        for key, _ in est.histogram:
            assert key.startswith("{N, ")


def test_unknown_set_raises(table3):
    # a cognitive set with no live items has no estimate at all
    assert "NAdr" not in {est.cogset for est in estimate_initial_templates(table3)}


def test_default_filter_fields():
    assert DEFAULT_FILTER.require_any == {"recent_loan", "typical"}
    assert DEFAULT_FILTER.exclude == {"common"}
    assert DEFAULT_FILTER.unfiltered_sets == {"NA"}


@pytest.mark.parametrize("kwargs, name", [
    ({"require_any": frozenset({"typical", "zzz"})}, "zzz"),
    ({"exclude": frozenset({"nonsense"})}, "nonsense"),
    # exclude is checked before require_any, each in sorted order
    ({"exclude": frozenset({"b", "a"}), "require_any": frozenset({"c"})}, "a"),
    ({"exclude": frozenset({"common"}), "require_any": frozenset({"zz", "yy"})}, "yy"),
])
def test_unknown_flag_names_are_rejected_on_construction(kwargs, name):
    with pytest.raises(EstimationError) as info:
        EstimationFilter(**kwargs)
    assert str(info.value) == f"unknown corpus flag {name!r}"
