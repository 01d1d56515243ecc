"""The contracts of tbmc's records, over one instance of every record class:
their fields cannot be assigned or deleted, equal values hash equal, the
values survive copies and pickles, and a trace's rows compare by identity."""

import copy
import pickle

import pytest

from tbmc import corpus, engine, estimator, oracle, realizer
from tbmc.corpora import fixture_path
from tbmc.lexicon import EdgeSpec, Formation, Item
from tbmc.templates import FRENCH, RIFFIAN, make_template

C_TEMPLATE = "{N, +SG, -PL, -M, +F, -COL, +SING}"


def _instances():
    """One instance of each record class, by class name."""
    with open(fixture_path("riffian_fig2"), encoding="utf-8") as handle:
        document = corpus.parse(handle.read())
    loaded = corpus.load(document)
    state = loaded.state
    report = corpus.validate(document)
    rules = engine.DEFAULT_RULES
    found = [
        corpus.ParseIssue(1, 2, "message"), *{type(s): s for s in document.statements}.values(),
        document, loaded, report.rows[0], report, *rules.rules[0].clauses[:1], rules.rules[0].mode, rules.rules[3].mode,
        rules.rules[0], rules, engine.shift_record(state, "sendu_2"), engine.transfer(state, "sendu_2"),
        estimator.estimate_initial_templates(state)[0], estimator.DEFAULT_FILTER,
        oracle.verify_group_axioms(("a", "b")), realizer.realization_audit(state)[0],
        realizer.realize(state.items["sendu_2"], engine.transfer(state, "sendu_2").template),
        *FRENCH.slots[1:3], RIFFIAN, make_template(RIFFIAN, C_TEMPLATE), state.items["sendu_2"],
        state.edges["sendu_2"], state, engine.trace(state, "sendu_2")[0],
    ]
    return {type(instance).__name__: instance for instance in found}


RECORDS = _instances()
# the snapshot's identity is its lineage's, and a loaded corpus holds one
HOLDS_A_SNAPSHOT = {"LexiconState", "LoadResult"}
VALUES = sorted(set(RECORDS) - HOLDS_A_SNAPSHOT - {"TraceNode"})


def test_every_record_class_has_an_instance():
    assert sorted(RECORDS) == sorted([
        "AuditEntry", "CheckRow", "Clause", "CorpusDocument", "DeltaOperand", "DeriveStmt", "EdgeSpec",
        "EstimationFilter", "Free", "GradRule", "InitialAssign", "InitialStmt", "Item", "ItemStmt",
        "LanguageProfile", "LexiconState", "LoadResult", "Opposition", "ParseIssue", "ProfileStmt",
        "RuleRegistry", "SetEstimate", "ShiftRecord", "ShiftResult", "SurfaceForm", "Template",
        "TraceNode", "ValidationReport", "VerificationResult"])


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"TraceNode"}))
def test_a_field_cannot_be_assigned_or_deleted(name):
    record = RECORDS[name]
    for field in record._fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"TraceNode"}))
def test_a_record_equals_one_built_from_its_fields(name):
    record = RECORDS[name]
    rebuilt = type(record)(**record._asdict())
    assert rebuilt == record and not rebuilt != record
    assert list(record._asdict()) == list(record._fields)


@pytest.mark.parametrize("name", VALUES)
def test_equal_records_hash_equal(name):
    record = RECORDS[name]
    assert hash(type(record)(**record._asdict())) == hash(record)


@pytest.mark.parametrize("name", VALUES)
def test_a_record_survives_copy_deepcopy_and_pickle(name):
    record = RECORDS[name]
    for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is type(record) and copied == record
        assert hash(copied) == hash(record)


def test_a_snapshot_is_unhashable():
    with pytest.raises(TypeError):
        hash(RECORDS["LexiconState"])


def test_a_slotted_record_keeps_each_field_it_is_given():
    template = make_template(RIFFIAN, C_TEMPLATE)
    given = dict(id="i", language="l", radical="r", category="c", cogset="s", meanings=frozenset({"m"}),
                 gloss="g", animate=1, recent_loan=2, typical=3, common=4, template=template,
                 surface_override="o", expected_surface="e", fem_prefix=5, fem_suffix=6)
    assert Item(**given)._asdict() == given
    given = dict(derived_id="d", process=Formation.CONVERSION, base_id="b", target="t", language="l",
                 radical="r", gloss="g", animate=1, donor_gender="M", gradcond="R1", surface_override="o",
                 expected_surface="e", fem_prefix=2, fem_suffix=3, expect_template=template.body)
    assert EdgeSpec(**given)._asdict() == given
    given = dict(template=template, rule_id="R1", operand=frozenset({"+M"}), stratum=4)
    assert engine.ShiftResult(**given)._asdict() == given
    for record in (Item("i", "l", "r"), RECORDS["ShiftResult"]):
        assert not hasattr(record, "__dict__")


def test_a_trace_row_compares_by_identity():
    node = RECORDS["TraceNode"]
    again = engine.TraceNode(*(getattr(node, name) for name in engine.TraceNode.__slots__))
    assert node == node and again != node and hash(again) != hash(node)
    assert not hasattr(node, "__dict__")
    again.depth += 1  # a row is built in place, so it stays mutable
    assert again.depth == node.depth + 1
