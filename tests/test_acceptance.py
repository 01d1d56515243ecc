"""Acceptance criteria, one test per criterion.

Each test prints a single ``criterion N PASS`` line once its assertions
hold, so ``pytest tests/test_acceptance.py -v -s`` reads as a checklist.
Tolerances are exact throughout: template checks are set equality after
canonical rendering, surface checks are hyphen-insensitive string equality,
and the two timed suites must finish under 1 s and 10 s respectively.
"""

import itertools
import random
import time

from tbmc import algebra, corpus, estimator, oracle, realizer
from tbmc.cli import main
from tbmc.corpora import BUNDLED, fixture_path
from tbmc.engine import GENDER_FLIP, shift_record, solve_operand, transfer
from tbmc.lexicon import EdgeSpec, Formation, Item, LexiconState
from tbmc.templates import (
    BUILTIN_INITIALS,
    FRENCH,
    RIFFIAN,
    Opposition,
    canonical_render,
    enumerate_candidates,
    make_template,
)


def report(number, text):
    print(f"criterion {number} PASS: {text}")


def body(text):
    from tbmc.templates import parse_template_text
    return parse_template_text(text)


# -- 1: the six gender-shift computations -------------------------------------

SIX_CASES = [
    # (profile, base, operand, result) -- ground/sole, memory/dissertation,
    # hexagon/France; beam/crutch, spoon/ladle, discussing/confidante
    (FRENCH, "{N,+SG,-PL,+M,-F,+DEF,-COL}", GENDER_FLIP, "{N, +SG, -PL, -M, +F, +DEF, -COL}"),
    (FRENCH, "{N,+SG,-PL,-M,+F,+DEF,-COL}", GENDER_FLIP, "{N, +SG, -PL, +M, -F, +DEF, -COL}"),
    (FRENCH, "{N,+SG,-PL,+M,-F,+DEF,-COL}", frozenset(), "{N, +SG, -PL, +M, -F, +DEF, -COL}"),
    (RIFFIAN, "{N,+SG,-PL,+M,-F,-COL,+SING}", GENDER_FLIP, "{N, +SG, -PL, -M, +F, -COL, +SING}"),
    (RIFFIAN, "{N,+SG,-PL,-M,+F,-COL,+SING}", GENDER_FLIP, "{N, +SG, -PL, +M, -F, -COL, +SING}"),
    (RIFFIAN, "{N,+SG,-PL,+M,-F,-COL,+SING}", frozenset(), "{N, +SG, -PL, +M, -F, -COL, +SING}"),
]


def test_criterion_1_gender_shift_computations(example1):
    started = time.perf_counter()
    for profile, base_text, operand, expected in SIX_CASES:
        derived = algebra.symmetric_difference(body(base_text), operand)
        assert canonical_render(derived, profile) == expected
    # the same six cases as corpus derivations
    for item_id, expected in [
        ("sol_2", "{N, +SG, -PL, -M, +F, +DEF, -COL}"),
        ("memoire_2", "{N, +SG, -PL, +M, -F, +DEF, -COL}"),
        ("hexagone_2", "{N, +SG, -PL, +M, -F, +DEF, -COL}"),
        ("kemaf_2", "{N, +SG, -PL, -M, +F, -COL, +SING}"),
        ("venza_2", "{N, +SG, -PL, +M, -F, -COL, +SING}"),
        ("mhawad_2", "{N, +SG, -PL, +M, -F, -COL, +SING}"),
    ]:
        assert transfer(example1, item_id).template.render() == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"six shift computations reproduced exactly in {elapsed:.3f}s")


# -- 2: the worked chains, record contents included -----------------------------

def test_criterion_2_worked_examples(example1, fig2):
    record = shift_record(example1, "gland_2")
    assert record.process is Formation.CONVERSION
    assert record.base_template.render() == "{N, +SG, -PL, +M, -F, +DEF, -COL}"
    assert record.target == "C"
    assert record.base_id == "gland_1"
    assert transfer(example1, "gland_2").template.render() == \
        "{N, +SG, -PL, -M, +F, +DEF, -COL}"

    record = shift_record(fig2, "samer_2")
    assert record.process is Formation.CONVERSION
    assert record.base_template.render() == "{N, +SG, -PL, -M, +F, +COL, -SING}"
    assert record.target == "C"
    assert record.base_id == "samer_1"
    assert transfer(fig2, "samer_2").template.render() == \
        "{N, +SG, -PL, +M, -F, +COL, -SING}"
    report(2, "acorn and sunny-place chains reproduce record and template exactly")


# -- 3: the full chain corpus validates with zero template mismatches ----------

def test_criterion_3_chain_corpus(fig2, fig2_document):
    roots = set()
    for item_id in fig2.items:
        while item_id in fig2.edges and fig2.edges[item_id].base_id is not None:
            item_id = fig2.edges[item_id].base_id
        roots.add(item_id)
    assert len(roots) == 11  # one per derivation chain

    report_obj = corpus.validate(fig2_document)
    assert not report_obj.errors
    template_rows = report_obj.template_rows
    assert len(template_rows) == 22
    assert all(row.ok for row in template_rows)
    # the double-flip edge is annotated, not inferred
    assert fig2.edges["refin_2"].gradcond == "R3"
    report(3, "11 chains, 22 template expectations, 0 mismatches")


# -- 4: the estimation corpus recovers the built-in initial templates -----------

def test_criterion_4_initial_template_recovery(table3):
    estimates = estimator.estimate_initial_templates(table3)
    recovered = {e.cogset: e.winner for e in estimates if e.winner is not None}
    assert set(recovered) == {"C", "U", "NA"}
    for cogset, winner in recovered.items():
        assert winner.body == BUILTIN_INITIALS[("riffian", cogset)].body
    assert all(not e.tie and not e.insufficient for e in estimates)
    report(4, "estimation recovers all three initial templates with no ties")


# -- 5: candidate enumeration -----------------------------------------------------

def test_criterion_5_enumeration():
    assert len(enumerate_candidates(RIFFIAN)) == 64
    assert len(enumerate_candidates(RIFFIAN, well_formed_only=True)) == 8
    for profile in (RIFFIAN, FRENCH):
        per_slot = []
        for slot in profile.slots:
            if isinstance(slot, Opposition):
                per_slot.append((frozenset({"+" + slot.a, "-" + slot.b}),
                                 frozenset({"-" + slot.a, "+" + slot.b})))
            else:
                per_slot.append((frozenset({"+" + slot.name}),
                                 frozenset({"-" + slot.name})))
        direct = {
            frozenset({profile.category}).union(*choice)
            for choice in itertools.product(*per_slot)
        }
        assert set(enumerate_candidates(profile, well_formed_only=True)) == direct
    report(5, "64 candidates, 8 well-formed; filter equals direct construction")


# -- 6: the oracle battery ---------------------------------------------------------

def test_criterion_6_oracle_suite():
    started = time.perf_counter()
    axioms = oracle.verify_group_axioms(["a", "b", "c", "d"])
    agreement = oracle.verify_formulation_agreement(list("abcdef"))
    uniqueness = oracle.verify_operand_uniqueness(list("abcdef"))
    bijection = oracle.verify_operand_uniqueness(["a", "b", "c", "d"])
    elapsed = time.perf_counter() - started
    for result in (axioms, agreement, uniqueness, bijection):
        assert result.passed, result.counterexample
    assert elapsed < 10.0
    # the reference side never touches the algebra module
    import inspect
    source = inspect.getsource(oracle.naive_symmetric_difference)
    assert "algebra." not in source and "^" not in source
    report(6, f"axioms, agreement, uniqueness and round trips verified in {elapsed:.2f}s")


# -- 7: the property suite -----------------------------------------------------------

def test_criterion_7_properties(fig2):
    # gender flip is an involution on every well-formed template
    well_formed = enumerate_candidates(RIFFIAN, well_formed_only=True)
    for template_body in well_formed:
        flipped = algebra.symmetric_difference(template_body, GENDER_FLIP)
        assert algebra.symmetric_difference(flipped, GENDER_FLIP) == template_body

    # solve/apply identities over all templates x 64 operands
    operands = [frozenset(c - {"N"}) for c in enumerate_candidates(RIFFIAN)]
    for base_body in well_formed:
        base = make_template(RIFFIAN, "{" + ", ".join(sorted(base_body)) + "}")
        for target_body in well_formed:
            target = make_template(RIFFIAN, "{" + ", ".join(sorted(target_body)) + "}")
            assert algebra.symmetric_difference(
                base.body, solve_operand(base, target)) == target.body
        for operand in operands:
            image = algebra.symmetric_difference(base_body, operand)
            assert algebra.symmetric_difference(base_body, image) == operand

    # widening preserves templates across the whole bundled corpus
    for derived_id, edge in fig2.edges.items():
        if edge.process is Formation.WIDENING:
            assert transfer(fig2, derived_id).template.body == \
                transfer(fig2, edge.base_id).template.body

    # randomized replay: the ledger balances and widening never reshapes
    rng = random.Random(20240 + 1)
    state = LexiconState({"riffian": RIFFIAN}, BUILTIN_INITIALS)
    cogsets = ["C", "U", "NA", "NAdr"]
    for i, text in enumerate(c for c in map(
            lambda b: "{" + ", ".join(sorted(b)) + "}", well_formed[:6])):
        state = state.add_item(Item(
            id=f"h{i}", language="riffian", radical=f"rad{i}",
            cogset=cogsets[i % 4], template=make_template(RIFFIAN, text)))
    initial_live = state.live_count
    additions = 0
    for step in range(100):
        process = rng.choice(list(Formation))
        live_nouns = sorted(
            i for i in state.live_ids() if state.items[i].category == "N")
        spec = EdgeSpec(
            derived_id=f"d{step}",
            process=process,
            base_id=None if process is Formation.BORROWING else rng.choice(live_nouns),
            target=rng.choice(cogsets),
            language="riffian" if process is Formation.BORROWING else None,
            radical=f"loan{step}" if process is Formation.BORROWING else None,
            animate=rng.random() < 0.3,
            donor_gender=rng.choice(["M", "F"]) if process is Formation.BORROWING else None,
        )
        after = state.apply_formation(spec)
        assert after.live_count - state.live_count == (1 if spec.process is not Formation.WIDENING else 0)
        resolved = transfer(after, spec.derived_id).template
        assert not resolved.violations()
        if process is Formation.WIDENING:
            assert resolved.body == transfer(after, spec.base_id).template.body
        else:
            additions += 1
        state = after
    assert state.live_count - initial_live == additions
    report(7, "involution, solve identities, widening preservation, 100-edge ledger")


# -- 8: realizer fidelity ---------------------------------------------------------------

def test_criterion_8_realizer(fig2, table3):
    dog = Item(id="qzin", language="riffian", radical="qzin", cogset="C")
    paradigm = [
        ("{N, +SG, -PL, +M, -F, -COL, +SING}", "aqzin"),
        ("{N, +SG, -PL, -M, +F, -COL, +SING}", "ð-aqzin-t"),
        ("{N, -SG, +PL, +M, -F, -COL, +SING}", "iqzin-en"),
        ("{N, -SG, +PL, -M, +F, -COL, +SING}", "ð-iqzin-in"),
    ]
    for text, expected in paradigm:
        form = realizer.realize(dog, make_template(RIFFIAN, text))
        assert not form.from_override
        assert form.matches(expected)

    audited = rule_matched = 0
    for state in (fig2, table3):
        audit = realizer.realization_audit(state)
        # never a silent (or any) mismatch
        assert not [e for e in audit if e.classification == realizer.MISMATCH]
        for entry in audit:
            assert entry.classification in ("rule-match", "override-used")
        audited += len(audit)
        rule_matched += sum(1 for e in audit if e.classification == realizer.RULE_MATCH)
    assert rule_matched / audited >= 0.80
    report(8, f"paradigm by rule; {rule_matched}/{audited} attested surfaces rule-matched")


# -- 9: determinism -----------------------------------------------------------------------

CLI_MATRIX = [
    ("validate", "riffian_fig2"),
    ("validate", "french_example1"),
    ("validate", "table3_estimation"),
    ("validate", "riffian_fig2", "--format", "records"),
    ("derive", "riffian_fig2", "sendu_2"),
    ("derive", "riffian_fig2", "refin_2", "--format", "records"),
    ("trace", "riffian_fig2", "ieis_v"),
    ("trace", "riffian_fig2", "samer_2", "--format", "records"),
    ("estimate", "table3_estimation"),
    ("estimate", "table3_estimation", "--format", "records"),
    ("enumerate", None, "--profile", "riffian"),
    ("enumerate", None, "--profile", "french", "--well-formed"),
    ("solve", None, "--base", "{N,+SG,-PL,+M,-F,+DEF,-COL}",
     "--result", "{N,+SG,-PL,-M,+F,+DEF,-COL}"),
    ("selfcheck", None, "--atoms", "3"),
]


def test_criterion_9_determinism(capsys, structurally_equal):
    for command, fixture, *flags in CLI_MATRIX:
        argv = [command] + ([str(fixture_path(fixture))] if fixture else []) + list(flags)
        first_code = main(argv)
        first = capsys.readouterr()
        second_code = main(argv)
        second = capsys.readouterr()
        assert first_code == second_code, argv
        assert first.out == second.out, argv
        assert first.out.encode("utf-8") == second.out.encode("utf-8")

    for name in BUNDLED:
        with open(fixture_path(name), encoding="utf-8") as handle:
            document = corpus.parse(handle.read())
        reparsed = corpus.parse(corpus.serialize(document))
        assert structurally_equal(document, reparsed)
    with capsys.disabled():
        print()
        report(9, "all commands byte-identical across runs; round trip structure-preserving")
