"""Initial-template estimation over the deverbal sample."""

import pytest

from tbmc.estimator import (
    DEFAULT_FILTER,
    EstimationFilter,
    estimate_initial_templates,
    render_report,
)
from tbmc.lexicon import Item, new_state
from tbmc.templates import RIFFIAN, default_initials, make_template

C_INITIAL = "{N, +SG, -PL, -M, +F, -COL, +SING}"
U_INITIAL = "{N, +SG, -PL, -M, +F, +COL, -SING}"
NA_INITIAL = "{N, +SG, -PL, +M, -F, -COL, +SING}"


def observed(i, cogset, text, **kw):
    return Item(id=f"x{i}", language="riffian", radical=f"r{i}", cogset=cogset,
                template=make_template(RIFFIAN, text), **kw)


def small_state(items):
    state = new_state({"riffian": RIFFIAN}, default_initials())
    for item in items:
        state = state.add_item(item)
    return state


def test_deverbal_sample_recovers_the_registry(table3):
    report = estimate_initial_templates(table3)
    assert report.for_set("C").winner.render() == C_INITIAL
    assert report.for_set("U").winner.render() == U_INITIAL
    assert report.for_set("NA").winner.render() == NA_INITIAL
    for est in report.estimates:
        assert not est.tie and not est.insufficient
    assert report.for_set("C").sample_size == 7
    assert report.for_set("U").sample_size == 7
    assert report.for_set("NA").sample_size == 3


def test_winners_match_the_default_initials(table3):
    registry = default_initials()
    for est in estimate_initial_templates(table3).estimates:
        if est.winner is not None:
            assert est.winner.body == registry.get("riffian", est.cogset).body


def test_singleton_group():
    state = small_state([observed(0, "C", C_INITIAL, typical=True)])
    est = estimate_initial_templates(state).for_set("C")
    assert est.sample_size == 1
    assert est.winner.render() == C_INITIAL


def test_tie_yields_no_winner():
    state = small_state([
        observed(0, "C", C_INITIAL, typical=True),
        observed(1, "C", NA_INITIAL, typical=True),
    ])
    est = estimate_initial_templates(state).for_set("C")
    assert est.tie and est.winner is None
    assert est.status == "tie"


def test_filtered_out_group_is_insufficient():
    state = small_state([observed(0, "C", C_INITIAL, common=True)])
    est = estimate_initial_templates(state).for_set("C")
    assert est.insufficient and est.winner is None
    assert est.status == "insufficient data for cognitive set"


def test_exclusion_beats_inclusion():
    state = small_state([observed(0, "C", C_INITIAL, typical=True, common=True)])
    assert estimate_initial_templates(state).for_set("C").insufficient


def test_nouns_of_action_bypass_the_filter():
    state = small_state([observed(0, "NA", NA_INITIAL)])  # no flags at all
    assert estimate_initial_templates(state).for_set("NA").sample_size == 1
    strict = EstimationFilter(unfiltered_sets=frozenset())
    assert estimate_initial_templates(state, strict).for_set("NA").insufficient


def test_filter_monotonicity():
    items = [
        observed(0, "C", C_INITIAL, typical=True),
        observed(1, "C", C_INITIAL, typical=True),
        observed(2, "C", NA_INITIAL, typical=True),
    ]
    before = estimate_initial_templates(small_state(items)).for_set("C")
    # marking one item as common removes exactly its own contribution
    items[1] = observed(1, "C", C_INITIAL, typical=True, common=True)
    after = estimate_initial_templates(small_state(items)).for_set("C")
    assert after.sample_size == before.sample_size - 1
    assert dict(after.histogram)[NA_INITIAL] == dict(before.histogram)[NA_INITIAL]
    assert dict(after.histogram)[C_INITIAL] == dict(before.histogram)[C_INITIAL] - 1


def test_reports_are_reproducible(table3):
    first = estimate_initial_templates(table3)
    second = estimate_initial_templates(table3)
    assert first == second
    assert render_report(first) == render_report(second)


def test_histogram_keys_are_canonical_renderings(table3):
    for est in estimate_initial_templates(table3).estimates:
        for key, _ in est.histogram:
            assert key.startswith("{N, ")


def test_unknown_set_raises(table3):
    with pytest.raises(ValueError, match="no live items"):
        estimate_initial_templates(table3).for_set("NAdr")


def test_default_filter_fields():
    assert DEFAULT_FILTER.require_any == {"recent_loan", "typical"}
    assert DEFAULT_FILTER.exclude == {"common"}
    assert DEFAULT_FILTER.unfiltered_sets == {"NA"}
