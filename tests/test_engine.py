"""Gradient rules, the transfer map, operand solving, and traces."""

import copy
import pickle
import random
import sys
import threading

import pytest

from tbmc import algebra, corpus, engine
from tbmc.cli import main
from tbmc.corpora import fixture_path
from tbmc.engine import (
    Clause,
    DEFAULT_RULES,
    DeltaOperand,
    GENDER_FLIP,
    GradRule,
    InitialAssign,
    InputHeadError,
    NoRuleError,
    RegistryError,
    RuleRegistry,
    ShiftError,
    TraceNode,
    apply_gradient,
    render_trace,
    shift_record,
    solve_operand,
    trace,
    transfer,
    what_if,
)
from tbmc.lexicon import (
    EMPTY_RECORD,
    EdgeSpec,
    Formation,
    Item,
    LexiconError,
    LexiconState,
    ShiftRecord,
)
from tbmc.templates import (
    BUILTIN_INITIALS,
    RIFFIAN,
    InitialTemplateError,
    LanguageProfile,
    enumerate_candidates,
    make_template,
)


def rt(text):
    return make_template(RIFFIAN, text)


NA_INITIAL = rt("{N, +SG, -PL, +M, -F, -COL, +SING}")
U_INITIAL = rt("{N, +SG, -PL, -M, +F, +COL, -SING}")


# -- worked derivations off the bundled corpora ------------------------------

def test_acorn_chain_record_and_result(example1):
    record = shift_record(example1, "gland_2")
    assert record.process is Formation.CONVERSION
    assert record.base_template.render() == "{N, +SG, -PL, +M, -F, +DEF, -COL}"
    assert record.target == "C"
    assert record.base_id == "gland_1"
    result = transfer(example1, "gland_2")
    assert result.template.render() == "{N, +SG, -PL, -M, +F, +DEF, -COL}"
    assert result.rule_id == "R1"


def test_sunny_place_chain_record_and_result(fig2):
    record = shift_record(fig2, "samer_2")
    assert record.process is Formation.CONVERSION
    assert record.base_template.render() == "{N, +SG, -PL, -M, +F, +COL, -SING}"
    assert record.target == "C"
    assert record.base_id == "samer_1"
    assert transfer(fig2, "samer_2").template.render() == \
        "{N, +SG, -PL, +M, -F, +COL, -SING}"


def test_input_heads_have_the_empty_record(fig2):
    assert shift_record(fig2, "rgaz_1") is EMPTY_RECORD
    assert shift_record(fig2, "raza_v") is EMPTY_RECORD


@pytest.mark.parametrize("item_id, expected", [
    ("sendu_2", "{N, +SG, -PL, -M, +F, -COL, +SING}"),
    ("rgaz_2", "{N, +SG, -PL, -M, +F, -COL, +SING}"),
    ("refin_2", "{N, +SG, -PL, -M, +F, -COL, +SING}"),
])
def test_transfer_on_fig2_items(fig2, item_id, expected):
    assert transfer(fig2, item_id).template.render() == expected


def test_transfer_memoizes_per_state(fig2):
    assert transfer(fig2, "sendu_2") is transfer(fig2, "sendu_2")


def test_transfer_rejects_verbs(fig2):
    with pytest.raises(ShiftError, match="template inventory"):
        transfer(fig2, "fad_v")


def test_head_transfer_reports_itself(fig2):
    result = transfer(fig2, "rgaz_1")
    assert result.rule_id == "head"
    assert result.stratum == 0


# -- the gradient map on records ----------------------------------------------

def test_empty_record_has_no_template():
    with pytest.raises(InputHeadError, match="input head"):
        apply_gradient(EMPTY_RECORD, RIFFIAN, BUILTIN_INITIALS)


def test_animate_conversion_keeps_the_template():
    record = ShiftRecord(
        process=Formation.CONVERSION,
        base_template=rt("{N, +SG, -PL, +M, -F, +COL, -SING}"),
        target="C", base_id="mieis_1", animate=True, stratum=2)
    result = apply_gradient(record, RIFFIAN, BUILTIN_INITIALS)
    assert result.rule_id == "R2"
    assert result.template.body == record.base_template.body
    assert result.operand == frozenset()


def test_widening_keeps_the_template_even_across_sets():
    record = ShiftRecord(
        process=Formation.WIDENING,
        base_template=U_INITIAL, target="C", base_id="saa_1", stratum=1)
    result = apply_gradient(record, RIFFIAN, BUILTIN_INITIALS)
    assert result.rule_id == "R2"
    assert result.template.body == U_INITIAL.body


def test_inanimate_conversion_flips_the_gender():
    record = ShiftRecord(
        process=Formation.CONVERSION, base_template=NA_INITIAL,
        target="U", base_id="x", stratum=1)
    result = apply_gradient(record, RIFFIAN, BUILTIN_INITIALS)
    assert result.rule_id == "R1"
    assert result.operand == GENDER_FLIP
    assert result.template.render() == "{N, +SG, -PL, -M, +F, -COL, +SING}"


def test_borrowing_assigns_the_initial_with_donor_gender():
    record = ShiftRecord(
        process=Formation.BORROWING, base_template=None, target="U",
        base_id=None, donor_gender="M", stratum=0)
    result = apply_gradient(record, RIFFIAN, BUILTIN_INITIALS)
    assert result.rule_id == "R5"
    assert result.template.render() == "{N, +SG, -PL, +M, -F, +COL, -SING}"
    feminine = ShiftRecord(
        process=Formation.BORROWING, base_template=None, target="U",
        base_id=None, donor_gender="F", stratum=0)
    assert apply_gradient(feminine, RIFFIAN, BUILTIN_INITIALS).template.body == \
        U_INITIAL.body


def test_borrowing_without_donor_gender_errors():
    record = ShiftRecord(process=Formation.BORROWING, base_template=None,
                         target="U", base_id=None, stratum=0)
    with pytest.raises(ShiftError, match="donor gender"):
        apply_gradient(record, RIFFIAN, BUILTIN_INITIALS)


def test_derivation_assigns_the_target_initial():
    record = ShiftRecord(process=Formation.DERIVATION, base_template=NA_INITIAL,
                         target="C", base_id="x", stratum=1)
    result = apply_gradient(record, RIFFIAN, BUILTIN_INITIALS)
    assert result.rule_id == "R4"
    assert result.template.render() == "{N, +SG, -PL, -M, +F, -COL, +SING}"


def test_conversion_from_a_verb_base_assigns_the_initial():
    record = ShiftRecord(process=Formation.CONVERSION, base_template=None,
                         target="U", base_id="some_verb", stratum=1)
    result = apply_gradient(record, RIFFIAN, BUILTIN_INITIALS)
    assert result.rule_id == "R4"
    assert result.template.body == U_INITIAL.body


def test_unknown_target_set_has_no_initial():
    record = ShiftRecord(process=Formation.DERIVATION, base_template=None,
                         target="XYZ", base_id="v", stratum=1)
    with pytest.raises(InitialTemplateError, match="no initial template"):
        apply_gradient(record, RIFFIAN, BUILTIN_INITIALS)


def test_widening_a_verb_finds_no_rule():
    record = ShiftRecord(process=Formation.WIDENING, base_template=None,
                         target="U", base_id="v", stratum=1)
    with pytest.raises(NoRuleError):
        apply_gradient(record, RIFFIAN, BUILTIN_INITIALS)


def test_explicit_gradcond_overrides_the_table():
    record = ShiftRecord(
        process=Formation.CONVERSION,
        base_template=rt("{N, +SG, -PL, +M, -F, +COL, -SING}"),
        target="C", base_id="refin_1", gradcond="R3", stratum=1)
    result = apply_gradient(record, RIFFIAN, BUILTIN_INITIALS)
    assert result.rule_id == "R3"
    assert result.operand == frozenset(
        {"+M", "-M", "+F", "-F", "+COL", "-COL", "+SING", "-SING"})
    assert result.template.render() == "{N, +SG, -PL, -M, +F, -COL, +SING}"


def test_unknown_gradcond_errors():
    record = ShiftRecord(process=Formation.CONVERSION, base_template=NA_INITIAL,
                         target="C", base_id="x", gradcond="R99", stratum=1)
    with pytest.raises(NoRuleError, match="R99"):
        apply_gradient(record, RIFFIAN, BUILTIN_INITIALS)


def test_gender_flip_is_an_involution():
    for body in enumerate_candidates(RIFFIAN, well_formed_only=True):
        once = algebra.symmetric_difference(body, GENDER_FLIP)
        twice = algebra.symmetric_difference(once, GENDER_FLIP)
        assert twice == body
        record = ShiftRecord(process=Formation.CONVERSION,
                             base_template=rt("{" + ", ".join(sorted(body)) + "}"),
                             target="C", base_id="x", stratum=1)
        shifted = apply_gradient(record, RIFFIAN, BUILTIN_INITIALS).template.body
        assert algebra.symmetric_difference(shifted, GENDER_FLIP) == body


def test_every_rule_output_is_well_formed(fig2, example1):
    for state in (fig2, example1):
        for item_id, item in state.items.items():
            if item.category == "V":
                continue
            assert not transfer(state, item_id).template.violations()


# -- operand solving ------------------------------------------------------------

def test_solve_recovers_the_gender_shift_operand():
    cream = rt("{N, +SG, -PL, -M, +F, -COL, +SING}")
    assert solve_operand(NA_INITIAL, cream) == GENDER_FLIP


def test_solving_a_template_against_itself_is_empty():
    assert solve_operand(NA_INITIAL, NA_INITIAL) == frozenset()


def test_solve_motivates_the_double_flip_rule():
    borrowed = rt("{N, +SG, -PL, +M, -F, +COL, -SING}")
    orange = rt("{N, +SG, -PL, -M, +F, -COL, +SING}")
    # independent check: assemble the difference from raw set operations
    expected = (borrowed.body - orange.body) | (orange.body - borrowed.body)
    operand = solve_operand(borrowed, orange)
    assert operand == expected
    assert operand == frozenset(
        {"+M", "-M", "+F", "-F", "+COL", "-COL", "+SING", "-SING"})


def test_solve_requires_matching_profiles():
    from tbmc.templates import FRENCH
    french = make_template(FRENCH, "{N, +SG, -PL, +M, -F, +DEF, -COL}")
    with pytest.raises(ShiftError, match="profiles"):
        solve_operand(NA_INITIAL, french)


def test_solve_requires_well_formed_templates():
    from tbmc.templates import Template
    broken = Template(RIFFIAN, frozenset({"N", "+SG"}))
    with pytest.raises(ShiftError, match="ill-formed"):
        solve_operand(NA_INITIAL, broken)


def test_apply_then_solve_and_solve_then_apply_exhaustively():
    wf = enumerate_candidates(RIFFIAN, well_formed_only=True)
    operands = [frozenset(c - {"N"}) for c in enumerate_candidates(RIFFIAN)]
    assert len(operands) == 64
    for base_body in wf:
        base = rt("{" + ", ".join(sorted(base_body)) + "}")
        # apply-then-solve over every well-formed pair
        for target_body in wf:
            target = rt("{" + ", ".join(sorted(target_body)) + "}")
            p = solve_operand(base, target)
            assert algebra.symmetric_difference(base.body, p) == target.body
        # solve-then-apply over the full operand space (results may be
        # ill-formed bodies; the group identity holds regardless)
        for p in operands:
            image = algebra.symmetric_difference(base_body, p)
            assert algebra.symmetric_difference(base_body, image) == p


def test_solutions_are_unique_per_base():
    wf = enumerate_candidates(RIFFIAN, well_formed_only=True)
    for base_body in wf:
        base = rt("{" + ", ".join(sorted(base_body)) + "}")
        images = {
            solve_operand(base, rt("{" + ", ".join(sorted(t)) + "}")) for t in wf
        }
        assert len(images) == len(wf)


# -- rule registry hygiene --------------------------------------------------------

def test_duplicate_rule_ids_are_rejected():
    rule = DEFAULT_RULES.by_id("R1")
    with pytest.raises(RegistryError, match="duplicate"):
        RuleRegistry((rule, rule))


def test_overlapping_triggers_are_rejected():
    a = GradRule(id="A", mode=DeltaOperand(fixed=frozenset()),
                 clauses=(Clause(processes=frozenset({Formation.CONVERSION})),))
    b = GradRule(id="B", mode=DeltaOperand(fixed=GENDER_FLIP),
                 clauses=(Clause(processes=frozenset({Formation.CONVERSION}),
                                 animate=True),))
    with pytest.raises(RegistryError) as info:
        RuleRegistry((a, b))
    assert str(info.value) == "rules A and B have overlapping triggers"


@pytest.mark.parametrize("field", ["base_cogsets", "target_cogsets"])
def test_a_clause_with_an_empty_cogset_set_overlaps_nothing(field):
    never = Clause(processes=frozenset({Formation.CONVERSION}), **{field: frozenset()})
    plain = Clause(processes=frozenset({Formation.CONVERSION}))
    assert not never.overlaps(plain) and not plain.overlaps(never)
    registry = RuleRegistry((
        GradRule(id="A", mode=DeltaOperand(fixed=frozenset()), clauses=(never,)),
        GradRule(id="B", mode=DeltaOperand(fixed=GENDER_FLIP), clauses=(plain,)),
    ))
    record = ShiftRecord(process=Formation.CONVERSION, base_template=NA_INITIAL, target="C",
                         base_id="w", base_cogset="C", stratum=1)
    assert not never.matches(record)
    assert registry.select(record).id == "B"
    assert RuleRegistry(DEFAULT_RULES.rules) == DEFAULT_RULES  # the built-in table still builds


def test_shared_operands_are_rejected():
    a = GradRule(id="A", mode=DeltaOperand(fixed=GENDER_FLIP),
                 clauses=(Clause(processes=frozenset({Formation.CONVERSION}),
                                 animate=True),))
    b = GradRule(id="B", mode=DeltaOperand(fixed=GENDER_FLIP),
                 clauses=(Clause(processes=frozenset({Formation.WIDENING})),))
    with pytest.raises(RegistryError, match="operand"):
        RuleRegistry((a, b))


def test_operands_must_be_category_free():
    with pytest.raises(RegistryError, match="category"):
        DeltaOperand(fixed=frozenset({"N", "+M"}))


def test_custom_registry_is_honored():
    always_initial = RuleRegistry((
        GradRule(id="X1", mode=InitialAssign(),
                 clauses=(Clause(processes=frozenset(Formation)),)),
    ))
    record = ShiftRecord(process=Formation.CONVERSION, base_template=NA_INITIAL,
                         target="U", base_id="w", stratum=1)
    result = apply_gradient(record, RIFFIAN, BUILTIN_INITIALS, always_initial)
    assert result.rule_id == "X1"
    assert result.template.body == U_INITIAL.body


# -- traces --------------------------------------------------------------------

def test_trace_of_a_two_step_chain():
    state = LexiconState({"riffian": RIFFIAN}, BUILTIN_INITIALS)
    state = state.add_item(Item(id="w1", language="riffian", radical="sam:er",
                                cogset="U", template=U_INITIAL))
    state = state.apply_formation(EdgeSpec(
        derived_id="w2", process=Formation.CONVERSION, base_id="w1", target="C"))
    node, child = trace(state, "w2")
    assert node.item_id == "w1" and node.depth == 0
    assert node.rule_id == "head" and node.stratum == 0
    assert node.template.body == U_INITIAL.body
    assert child.item_id == "w2" and child.depth == 1
    assert child.process is Formation.CONVERSION
    assert child.rule_id == "R1" and child.stratum == 1


def test_trace_of_a_head_is_a_single_node(fig2):
    node, child = trace(fig2, "kuh_1")
    assert (node.item_id, node.depth) == ("kuh_1", 0)
    assert (child.item_id, child.depth) == ("kkuh_1", 1)
    lone, *below = trace(fig2, "fad_1")
    assert (lone.item_id, lone.depth) == ("fad_1", 0)
    assert all(node.depth > 0 for node in below)  # one root


def test_trace_path_versus_tree(fig2):
    path = trace(fig2, "mieis_2")
    # path from the verb head down to the requested item only
    assert [(node.item_id, node.depth) for node in path] == [
        ("ieis_v", 0), ("mieis_1", 1), ("mieis_2", 2)]
    tree = trace(fig2, "ieis_v")
    assert [node.item_id for node in tree if node.depth == 1] == ["ieis_1", "mieis_1"]


def test_every_fig2_item_traces_to_a_stratum_zero_root(fig2):
    for item_id in fig2.items:
        root = item_id
        while root in fig2.edges and fig2.edges[root].base_id is not None:
            root = fig2.edges[root].base_id
        assert fig2.strata[root] == 0
        assert root not in fig2.edges or fig2.edges[root].base_id is None


def test_trace_rendering_is_deterministic(fig2):
    text = render_trace(trace(fig2, "ieis_v"))
    assert text == render_trace(trace(fig2, "ieis_v"))
    assert "superseded" in text  # the widened-over intelligence reading


def _children(nodes, k):
    """The rows of row ``k``'s children: the later rows one level deeper,
    up to the next row no deeper than row ``k``."""
    kids = []
    for j in range(k + 1, len(nodes)):
        if nodes[j].depth <= nodes[k].depth:
            break
        if nodes[j].depth == nodes[k].depth + 1:
            kids.append(j)
    return kids


def _render_trace_recursively(nodes, k=0, indent=0):
    # the former recursive rendering, kept as the reference for the output
    # bytes: the indent counts levels of recursion, not the rows' depth
    node = nodes[k]
    shown = node.template.render() if node.template else "(no template)"
    step = "head" if node.process is None else f"{node.process.value} {node.rule_id or '-'}"
    mark = " superseded" if node.superseded else ""
    gloss = f" '{node.gloss}'" if node.gloss else ""
    line = f"{'  ' * indent}{node.item_id}  [{step}, stratum {node.stratum}{mark}]  {shown}{gloss}"
    return "\n".join([line, *(_render_trace_recursively(nodes, j, indent + 1)
                              for j in _children(nodes, k))])


def test_trace_rendering_matches_the_recursive_reference(fig2):
    for item_id in fig2.items:
        nodes = trace(fig2, item_id)
        assert render_trace(nodes) == _render_trace_recursively(nodes)


def test_rendering_a_5000_deep_path_needs_no_recursion():
    template = rt("{N, +SG, -PL, -M, +F, -COL, +SING}")
    nodes = tuple(TraceNode(
        item_id=f"n{depth}", process=Formation.WIDENING if depth else None,
        rule_id="R2" if depth else "head", template=template, stratum=depth,
        gloss=None, superseded=False, depth=depth) for depth in range(5001))
    lines = render_trace(nodes).split("\n")
    assert len(lines) == 5001
    assert lines[-1].startswith(" " * 10000 + "n5000  [WIDEN R2, stratum 5000]")


def test_unknown_item_errors(fig2):
    with pytest.raises(LexiconError) as raised:
        trace(fig2, "nope")
    assert str(raised.value) == "unknown item 'nope'"


def test_cycle_detection_on_a_corrupted_state():
    # strata fall strictly along base links, so no strata admit a cycle
    a = Item(id="a", language="riffian", radical="x", cogset="C")
    b = Item(id="b", language="riffian", radical="y", cogset="C")
    edges = {
        "a": EdgeSpec(derived_id="a", process=Formation.CONVERSION, base_id="b"),
        "b": EdgeSpec(derived_id="b", process=Formation.CONVERSION, base_id="a"),
    }
    for strata, message in (({"a": 0, "b": 1}, "item a: stratum 0, not 2"),
                            ({"a": 1, "b": 0}, "item b: stratum 0, not 2")):
        with pytest.raises(LexiconError) as raised:
            LexiconState({"riffian": RIFFIAN}, BUILTIN_INITIALS, items={"a": a, "b": b}, edges=edges,
                         strata=strata)
        assert str(raised.value) == message


def test_a_cycle_reached_from_a_tail_is_detected_before_anything_resolves():
    # the constructor rejects it, so no snapshot holds it
    items = {i: Item(id=i, language="riffian", radical="x", cogset="C") for i in "xab"}
    with pytest.raises(LexiconError) as raised:
        LexiconState(
            {"riffian": RIFFIAN}, BUILTIN_INITIALS, items=items,
            edges={derived: EdgeSpec(derived_id=derived, process=Formation.CONVERSION, base_id=base)
                   for derived, base in (("x", "a"), ("a", "b"), ("b", "a"))},
            strata={"x": 2, "a": 1, "b": 0},
        )
    assert str(raised.value) == "item b: stratum 0, not 2"


@pytest.mark.parametrize("depth", [1, 2, 50])
def test_a_snapshot_that_is_one_chain_traces_from_its_tip_without_a_false_cycle(depth):
    # the walk from the tip follows every edge of the snapshot once: the
    # longest walk that is not a cycle
    state = LexiconState({"riffian": RIFFIAN}, BUILTIN_INITIALS)
    state = state.add_item(Item(id="c0", language="riffian", radical="ka", cogset="C",
                                template=NA_INITIAL))
    for k in range(1, depth + 1):
        state = state.apply_formation(EdgeSpec(
            derived_id=f"c{k}", process=Formation.CONVERSION, base_id=f"c{k - 1}"))
    assert len(state.edges) == depth
    nodes = trace(state, f"c{depth}")
    assert [(node.item_id, node.depth) for node in nodes] == [(f"c{k}", k) for k in range(depth + 1)]
    assert nodes[-1].rule_id == "R1"


# -- resolutions: filled at load, carried forward, filled lazily ----------------

def _deep_corpus_text(depth=400, chains=3, seed=7):
    """Riffian chains ``depth`` long mixing the four processes, plus short
    chains off a verb head and a borrowing."""
    rng = random.Random(seed)
    lines = [
        'item id=v lang=riffian radical="fk"',
        "derive id=v_1 base=v via=CONV target=U",
        "derive id=v_2 base=v_1 via=CONV",
        'derive id=b_0 via=BORROW lang=riffian radical="br" target=U donor_gender=M',
        "derive id=b_1 base=b_0 via=WIDEN",
    ]
    for c in range(chains):
        lines.append(f'item id=h{c} lang=riffian radical="ka" cogset=C '
                     "template={N, +SG, -PL, +M, -F, -COL, +SING}")
        tip = f"h{c}"
        for k in range(1, depth + 1):
            via = rng.choice(["CONV", "CONV", "CONV", "WIDEN", "MDERIV"])
            extra = ""
            if via == "CONV":
                extra = rng.choice(["", " animate=true", " gradcond=R3", " target=U"])
            elif via == "MDERIV":
                extra = " target=" + rng.choice(["C", "U", "NA"])
            lines.append(f"derive id=h{c}_{k} base={tip} via={via}{extra}")
            tip = f"h{c}_{k}"
    return "\n".join(lines) + "\n"


def _deep_state():
    loaded = corpus.load(corpus.parse(_deep_corpus_text()))
    assert not loaded.errors
    return loaded.state


def _by_transitions(state):
    """The same snapshot rebuilt by add_item/apply_formation alone, on fresh
    profiles, so nothing is resolved and nothing is shared with ``state``."""
    profiles = {name: LanguageProfile(p.language, p.category, p.slots)
                for name, p in state.profiles.items()}
    cold = LexiconState(profiles, state.initials)
    for item_id, item in state.items.items():
        edge = state.edges.get(item_id)
        cold = cold.add_item(item) if edge is None else cold.apply_formation(edge)
    assert not cold._resolved
    return cold


def _key(result):
    return result.template, result.rule_id, result.stratum, result.operand


def test_loaded_resolutions_equal_cold_ones(fig2, example1, table3):
    for state in (fig2, example1, table3, _deep_state()):
        nouns = [i for i, item in state.items.items() if item.category != "V"]
        assert set(state._resolved) == set(nouns)  # load resolved every noun
        cold = _by_transitions(state)
        for item_id in reversed(nouns):  # tips first, so misses walk whole chains
            assert _key(transfer(state, item_id)) == _key(transfer(cold, item_id)), item_id
        for name, profile in state.profiles.items():
            fresh = LanguageProfile(profile.language, profile.category, profile.slots)
            assert profile == fresh and hash(profile) == hash(fresh)
            assert repr(profile) == repr(fresh)


def test_resolutions_share_templates_and_operands():
    state = _deep_state()
    results = list(state._resolved.values())
    derived = [r for r in results if r.rule_id != "head"]
    templates = {r.template.body: r.template for r in derived}
    operands = {r.operand: r.operand for r in derived if r.operand is not None}
    assert len(templates) <= 8 and len(operands) <= 3
    assert all(r.template is templates[r.template.body] for r in derived)
    assert all(r.operand is operands[r.operand] for r in derived if r.operand is not None)


def test_a_5000_deep_chain_resolves_lazily_without_recursion():
    state = LexiconState({"riffian": RIFFIAN}, BUILTIN_INITIALS)
    state = state.add_item(Item(id="c0", language="riffian", radical="ka", cogset="C",
                                template=NA_INITIAL))
    for k in range(1, 5000):
        state = state.apply_formation(EdgeSpec(
            derived_id=f"c{k}", process=Formation.CONVERSION, base_id=f"c{k - 1}"))
    result = transfer(state, "c4999")
    assert (result.rule_id, result.stratum) == ("R1", 4999)
    assert result.template.body == algebra.symmetric_difference(NA_INITIAL.body, GENDER_FLIP)
    assert len(state._resolved) == 5000


def test_a_1000_deep_trace_compares_prints_and_renders_at_the_default_limit(tmp_path, capsys):
    path = tmp_path / "deep.tbmc"
    path.write_text(_deep_corpus_text(depth=1000, chains=1), encoding="utf-8")
    state = corpus.load_path(str(path)).state
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        nodes = trace(state, "h0_1000")
        head = nodes[0]
        assert head == head and head != trace(state, "h0_1000")[0]  # equality is identity
        assert repr(head).startswith("<tbmc.engine.TraceNode object at ")
        lines = render_trace(nodes).split("\n")
        assert main(["trace", str(path), "h0_1000", "--format", "records"]) == 0
    finally:
        sys.setrecursionlimit(limit)
    records = capsys.readouterr().out.splitlines()
    assert len(lines) == len(records) == 1001
    assert lines[-1].startswith(" " * 2000 + "h0_1000  [")
    assert records[-1].startswith("id=h0_1000\tdepth=1000\tstratum=1000\t")


def _outcome_of(state, item_id):
    try:
        return _key(transfer(state, item_id))
    except ValueError as exc:
        return type(exc), str(exc)


def test_concurrent_readers_of_one_snapshot_agree():
    def build():
        state = LexiconState({"riffian": RIFFIAN}, BUILTIN_INITIALS)
        # a failing chain: a head without a template, and nine items under it
        state = state.add_item(Item(id="f", language="riffian", radical="ka", cogset="C"))
        for k in range(1, 10):
            state = state.apply_formation(EdgeSpec(
                derived_id=f"f_{k}", process=Formation.CONVERSION, base_id=f"f_{k - 1}" if k > 1 else "f"))
        for c in range(3):
            state = state.add_item(Item(id=f"h{c}", language="riffian", radical="ka",
                                        cogset="C", template=NA_INITIAL))
            for k in range(1, 10):
                state = state.apply_formation(EdgeSpec(
                    derived_id=f"h{c}_{k}", process=Formation.CONVERSION,
                    base_id=f"h{c}_{k - 1}" if k > 1 else f"h{c}", animate=k % 3 == 0))
        return state

    expected = {i: _outcome_of(build(), i) for i in build().items}
    ids = list(expected)
    assert len(ids) == 40
    failure = (ShiftError, "item f: no declared template and no derivation edge")
    assert [i for i in ids if expected[i] == failure] == ["f"] + [f"f_{k}" for k in range(1, 10)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            state = build()  # lazy: nothing resolved yet
            start = threading.Barrier(4)
            failures, results = [], []

            def read(order):
                start.wait()
                try:
                    results.append({i: _outcome_of(state, i) for i in order})
                except Exception as exc:  # a false cycle or any other error
                    failures.append(exc)

            orders = [ids, ids[::-1], ids[1::2] + ids[::2], sorted(ids)]
            threads = [threading.Thread(target=read, args=(o,)) for o in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert failures == []
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(switch)


def test_a_failure_is_resolved_once_and_raised_again_with_the_same_text(monkeypatch):
    steps = []
    gradient = engine.apply_gradient
    monkeypatch.setattr(engine, "apply_gradient", lambda *args: steps.append(args[0]) or gradient(*args))
    state = LexiconState({"riffian": RIFFIAN}, BUILTIN_INITIALS)
    state = state.add_item(Item(id="h", language="riffian", radical="ka", cogset="C",
                                template=NA_INITIAL))
    for edge in (
        EdgeSpec(derived_id="f1", process=Formation.DERIVATION, base_id="h", target="ZZ"),
        EdgeSpec(derived_id="f2", process=Formation.CONVERSION, base_id="f1"),
        # R4 ignores the base's template, but a failed base still fails it
        EdgeSpec(derived_id="f3", process=Formation.DERIVATION, base_id="f2", target="C"),
    ):
        state = state.apply_formation(edge)
    raised = []
    for item_id in ("f3", "f2", "f1", "f3", "f1"):
        with pytest.raises(ValueError) as info:
            transfer(state, item_id)
        raised.append(info.value)
    assert {(type(exc), str(exc)) for exc in raised} == {
        (InitialTemplateError, "no initial template for cognitive set 'ZZ' in 'riffian'")}
    assert len({id(exc) for exc in raised}) == len(raised)  # a fresh exception per call
    assert [record.base_id for record in steps] == ["h"]  # f1's one step; f2 and f3 take its failure
    assert transfer(state, "h").rule_id == "head"


def test_sibling_what_ifs_keep_their_own_results(fig2):
    before = dict(fig2._resolved)
    inanimate = fig2.apply_formation(EdgeSpec(
        derived_id="whatif", process=Formation.CONVERSION, base_id="sendu_2"))
    animate = fig2.apply_formation(EdgeSpec(
        derived_id="whatif", process=Formation.CONVERSION, base_id="sendu_2", animate=True))
    derived = fig2.apply_formation(EdgeSpec(
        derived_id="whatif", process=Formation.DERIVATION, base_id="samer_1", target="NA"))
    first = transfer(inanimate, "whatif")
    assert (first.rule_id, first.stratum) == ("R1", 3)
    assert transfer(animate, "whatif").rule_id == "R2"
    assert transfer(animate, "whatif").template == transfer(fig2, "sendu_2").template
    assert transfer(derived, "whatif").rule_id == "R4"
    assert transfer(inanimate, "whatif") is first
    assert fig2._resolved == before and "whatif" not in fig2._resolved
    with pytest.raises(ValueError, match="unknown item"):
        transfer(fig2, "whatif")


# -- what-ifs: one edge off a snapshot, by the corpus path's own step -----------

def _outcome(derive):
    try:
        return derive()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("process", [Formation.CONVERSION, Formation.DERIVATION, Formation.WIDENING])
def test_what_if_agrees_with_apply_formation_and_transfer(fig2, example1, table3, process):
    def inserted(state, edge):
        after = state.apply_formation(edge)
        return (after.items[edge.derived_id], shift_record(after, edge.derived_id),
                transfer(after, edge.derived_id))

    compared = 0
    for state in (fig2, example1, table3):
        for base_id in state.live_ids():
            if state.items[base_id].category == "V":
                continue
            edge = EdgeSpec(derived_id="probe", process=process, base_id=base_id)
            assert _outcome(lambda: what_if(state, edge)) == _outcome(lambda: inserted(state, edge))
            compared += 1
    assert compared == 53  # the live nouns of the three corpora


def test_what_if_adds_nothing_to_the_snapshot(fig2):
    def tables():
        return (dict(fig2.items), dict(fig2.edges), dict(fig2._resolved), dict(fig2.strata),
                fig2.superseded, fig2.warnings)

    before = tables()
    item, record, result = what_if(fig2, EdgeSpec(
        derived_id="probe", process=Formation.WIDENING, base_id="sendu_2", gloss="more"))
    assert (item.id, record.stratum, result.rule_id) == ("probe", 3, "R2")
    assert tables() == before


def test_one_snapshot_gives_an_edge_one_initial_template(fig2):
    # transfer, what_if and apply_formation's successor share one memoized
    # step, so a write to the initials would leave it answering by the old one
    with pytest.raises(TypeError):
        fig2.initials[("riffian", "NA")] = U_INITIAL
    assert not hasattr(fig2.initials, "register")
    edge = EdgeSpec(**{**fig2.edges["razi_1"]._asdict(), "derived_id": "razi_x"})
    stored = transfer(fig2, "razi_1")
    assert stored.rule_id == "R4" and stored.template == NA_INITIAL
    assert what_if(fig2, edge)[2].template == stored.template
    assert transfer(fig2.apply_formation(edge), "razi_x").template == stored.template


def test_a_what_if_may_start_from_a_superseded_base(example1):
    edge = EdgeSpec(derived_id="probe", process=Formation.WIDENING, base_id="hexagone_1")
    assert not example1.is_live("hexagone_1")
    _, record, result = what_if(example1, edge)
    assert (record.base_id, result.rule_id) == ("hexagone_1", "R2")
    assert result.template == transfer(example1, "hexagone_1").template
    with pytest.raises(ValueError, match="is superseded"):
        example1.apply_formation(edge)


def test_what_ifs_and_a_transition_of_one_step_key_run_one_gradient_step(monkeypatch):
    state = corpus.load_path(fixture_path("riffian_fig2")).state  # a memo of its own
    calls = []
    gradient = engine.apply_gradient
    monkeypatch.setattr(engine, "apply_gradient", lambda *args: calls.append(args[0]) or gradient(*args))
    edge = EdgeSpec(derived_id="probe", process=Formation.CONVERSION, base_id="sendu_2")
    first, second = what_if(state, edge), what_if(state, edge)
    inserted = transfer(state.apply_formation(edge), "probe")
    assert [(record.process, record.base_id) for record in calls] == [(Formation.CONVERSION, "sendu_2")]
    assert first[1] == second[1] == calls[0]
    assert {(r.template, r.rule_id, r.stratum) for r in (first[2], second[2], inserted)} == {
        (first[2].template, "R1", 3)}
    assert "probe" not in state._resolved


@pytest.mark.parametrize("warm", [False, True])
def test_an_edge_whose_base_is_gone_raises_unknown_item(warm):
    # "b" and "x" differ in their base only: the constructor rejects "x", a what-if raises
    borrowing = dict(process=Formation.BORROWING, target="U", donor_gender="M", language="riffian",
                     radical="br")
    edges = {"b": EdgeSpec(derived_id="b", **borrowing),
             "x": EdgeSpec(derived_id="x", base_id="gone", **borrowing)}
    items = {i: Item(id=i, language="riffian", radical="br", cogset="U") for i in edges}
    with pytest.raises(LexiconError, match="^item x: dangling base reference 'gone'$"):
        LexiconState({"riffian": RIFFIAN}, BUILTIN_INITIALS, edges=edges, strata={"b": 0, "x": 1}, items=items)
    state = LexiconState({"riffian": RIFFIAN}, BUILTIN_INITIALS, edges={"b": edges["b"]}, strata={"b": 0},
                         items={"b": items["b"]})
    if warm:  # the memo then holds the step key of the borrowing with no base
        assert transfer(state, "b").rule_id == "R5" and len(state._steps) == 1
    probe = EdgeSpec(**{**edges["x"]._asdict(), "derived_id": "probe"})
    with pytest.raises(LexiconError, match="^unknown item 'gone'$"):
        what_if(state, probe)
    assert "probe" not in state._resolved


# -- one gradient step per distinct step key -------------------------------------

def _step_corpus_text(copies=3):
    """Chains that mix the four processes, off noun heads, verb heads and
    borrowings with a donor gender, with ``gradcond=R3``; ``copies`` chains of
    each kind, so most steps repeat a step key, and pairs of steps whose keys
    differ in one part only."""
    lines = ["initial french.U = {N, +SG, -PL, -M, +F, -DEF, +COL}"]
    for c in range(copies):
        lines += [
            f'item id=v{c} lang=riffian radical="fk"',
            f'item id=h{c} lang=riffian radical="ka" cogset=C template={{N, +SG, -PL, +M, -F, -COL, +SING}}',
            f'item id=g{c} lang=riffian radical="ga" cogset=U template={{N, +SG, -PL, -M, +F, +COL, -SING}}',
            f"derive id=v{c}_1 base=v{c} via=CONV target=U",
            f"derive id=v{c}_2 base=v{c}_1 via=CONV animate=true",
            f'derive id=v{c}_3 base=v{c} via=MDERIV target=NA radical="afk"',
            f"derive id=v{c}_r3 base=v{c} via=CONV target=U gradcond=R3",
            f"derive id=v{c}_r3_1 base=v{c}_r3 via=CONV",
            f'derive id=b{c}_m via=BORROW lang=riffian radical="br" target=U donor_gender=M',
            f'derive id=b{c}_f via=BORROW lang=riffian radical="bf" target=U donor_gender=F',
            f"derive id=b{c}_w base=b{c}_m via=WIDEN",
            f'derive id=fb{c} via=BORROW lang=french radical="fr" target=U donor_gender=M',
            f"derive id=h{c}_1 base=h{c} via=CONV",
            f"derive id=h{c}_1a base=h{c} via=CONV animate=true",
            f'derive id=h{c}_m base=h{c} via=MDERIV radical="hm"',
            f'item id=k{c} lang=riffian radical="ka" cogset=NA template={{N, +SG, -PL, +M, -F, -COL, +SING}}',
            f'derive id=k{c}_m base=k{c} via=MDERIV radical="km"',
            f"derive id=h{c}_2 base=h{c}_1 via=CONV animate=true",
            f"derive id=h{c}_3 base=h{c}_2 via=CONV gradcond=R3",
            f"derive id=h{c}_4 base=h{c}_3 via=WIDEN",
            f'derive id=h{c}_5 base=h{c}_4 via=MDERIV target=NA radical="kb"',
            f"derive id=h{c}_6 base=h{c}_5 via=CONV target=U",
            f"derive id=g{c}_1 base=g{c} via=CONV target=C",
            f"derive id=g{c}_2 base=g{c}_1 via=CONV gradcond=R3",
            f"derive id=g{c}_3 base=g{c}_2 via=CONV target=V",
        ]
    return "\n".join(lines) + "\n"


def _outcome_of_call(call):
    try:
        return _key(call())
    except ValueError as exc:
        return type(exc), str(exc)


def test_each_step_equals_the_gradient_map_of_its_record(fig2, example1, table3):
    written = corpus.load(corpus.parse(_step_corpus_text()))
    assert not written.errors
    for state in (fig2, example1, table3, written.state):
        for item_id in [i for i in state.edges if state.items[i].category != "V"]:
            profile = state.profiles[state.items[item_id].language]
            expected = _outcome_of_call(lambda: apply_gradient(
                shift_record(state, item_id), profile, state.initials))
            assert _outcome_of_call(lambda: transfer(state, item_id)) == expected, item_id
    state = written.state
    steps = [i for i in state.edges
             if state.items[i].category != "V" and state.edges[i].base_id is not None]
    assert 0 < len(state._steps) < len(steps) / 2  # most steps repeat a key


def test_derives_that_share_a_step_key_run_one_gradient_step(monkeypatch):
    calls = []
    gradient = engine.apply_gradient

    def counted(record, *args):
        calls.append(record)
        return gradient(record, *args)

    monkeypatch.setattr(engine, "apply_gradient", counted)
    template = "template={N, +SG, -PL, +M, -F, -COL, +SING}"
    lines = [f'item id=h lang=riffian radical="ka" cogset=C {template}']
    lines += [f"derive id=w{k} base={f'w{k - 1}' if k > 1 else 'h'} via=WIDEN" for k in range(1, 7)]
    lines += [f'item id=c{k} lang=riffian radical="ka" cogset=C {template}' for k in range(5)]
    lines += [f"derive id=c{k}_1 base=c{k} via=CONV" for k in range(5)]
    state = corpus.load(corpus.parse("\n".join(lines))).state
    assert [(r.process, r.base_id) for r in calls] == [
        (Formation.WIDENING, "h"), (Formation.CONVERSION, "c0")]
    widened = [transfer(state, f"w{k}") for k in range(1, 7)]
    assert [(r.rule_id, r.stratum) for r in widened] == [("R2", k) for k in range(1, 7)]
    assert len({id(r) for r in widened}) == 6  # each item its own result
    assert len({id(r.template) for r in widened}) == 1
    converted = [transfer(state, f"c{k}_1") for k in range(5)]
    assert {(r.rule_id, r.stratum, r.template.render()) for r in converted} == {
        ("R1", 1, "{N, +SG, -PL, -M, +F, -COL, +SING}")}
    assert len({id(r.operand) for r in converted}) == 1
    # a transition's successor shares the memo, so its new step is a lookup too
    successor = state.apply_formation(EdgeSpec(
        derived_id="c0_2", process=Formation.WIDENING, base_id="c0_1"))
    assert successor._steps is state._steps
    before = len(calls)
    assert transfer(successor, "c0_2").stratum == 2
    assert len(calls) == before + 1
    assert transfer(successor.apply_formation(EdgeSpec(
        derived_id="c1_2", process=Formation.WIDENING, base_id="c1_1")), "c1_2").stratum == 2
    assert len(calls) == before + 1


def test_a_failing_step_is_not_stored_and_names_its_own_base():
    lines = [f'item id=v{k} lang=riffian radical="fk{k}"' for k in range(2)]
    lines += [f"derive id=d{k} base=v{k} via=CONV target=U gradcond=R3" for k in range(2)]
    state = corpus.load(corpus.parse("\n".join(lines))).state
    for k in range(2):
        for _ in range(2):
            with pytest.raises(ShiftError) as raised:
                transfer(state, f"d{k}")
            assert str(raised.value) == f"rule R3 needs a base template, but {{CONV, —, U, v{k}}} has none"
    assert state._steps == {}


# -- a snapshot the constructor makes from another's tables resolves afresh ------

_KAB_TEXT = """\
profile kab category=N slots=[SG|PL, M|F, COL|SING]
initial kab.C = {N, +SG, -PL, -M, +F, -COL, +SING}
initial kab.U = {N, +SG, -PL, -M, +F, +COL, -SING}
item id=v lang=kab radical="fk"
derive id=a base=v via=CONV target=C
derive id=a1 base=a via=CONV
derive id=a2 base=a1 via=CONV gradcond=R3
derive id=b via=BORROW lang=kab radical="br" target=U donor_gender=M
derive id=b1 base=b via=CONV target=C
"""


def _answers(state):
    return {i: _outcome_of(state, i) for i, item in state.items.items() if item.category != "V"}


def test_a_replaced_snapshot_answers_like_a_fresh_load():
    with open(fixture_path("riffian_fig2"), encoding="utf-8") as handle:
        fig2_text = handle.read()
    # riffian.C takes the NA initial; the kab profile lists its slots in another order
    other_initial = fig2_text.replace("initial riffian.C = {N, +SG, -PL, -M, +F, -COL, +SING}",
                                      "initial riffian.C = {N, +SG, -PL, +M, -F, -COL, +SING}")
    other_slots = _KAB_TEXT.replace("slots=[SG|PL, M|F, COL|SING]", "slots=[M|F, SG|PL, COL|SING]")
    assert other_initial != fig2_text and other_slots != _KAB_TEXT
    cases = [
        (fig2_text, "initials", corpus.load(corpus.parse(other_initial)).state),
        (_KAB_TEXT, "profiles", corpus.load(corpus.parse(other_slots)).state),
    ]
    for text, name, fresh in cases:
        parent = corpus.load(corpus.parse(text)).state
        before = _answers(parent)
        replaced = LexiconState(**{**parent._asdict(), name: getattr(fresh, name)})
        assert replaced._resolved == {} and replaced._steps == {}, name
        assert _answers(replaced) == _answers(fresh) != before, name
        assert _answers(parent) == before, name


def test_a_snapshot_is_shared_not_copied(fig2):
    shallow = copy.copy(fig2)
    assert shallow == fig2 and shallow.items is fig2.items
    assert shallow._resolved is fig2._resolved and shallow._steps is fig2._steps
    assert _answers(shallow) == _answers(fig2)
    assert render_trace(trace(shallow, "rgaz_1")) == render_trace(trace(fig2, "rgaz_1"))
    for deep_copy in (copy.deepcopy, pickle.dumps):
        with pytest.raises(TypeError, match="mappingproxy"):
            deep_copy(fig2)


# -- traces against a reference built from public calls ----------------------------

def _flat(nodes):
    """A trace's nodes as tuples of their fields; ``TraceNode`` equality is
    identity.  Depths in depth-first order fix the tree's shape, so the
    rows need no count of children."""
    return [(node.depth, node.item_id, node.process, node.rule_id, node.template,
             node.stratum, node.gloss, node.superseded) for node in nodes]


def _reference_rows(state, item_id):
    """The rows ``trace`` should give, from ``state.item``, ``transfer``,
    ``state.is_live``, ``state.strata`` and ``state.edges`` alone."""
    state.item(item_id)
    path = [item_id]
    while state.edges.get(path[-1]) is not None and state.edges[path[-1]].base_id is not None:
        path.append(state.edges[path[-1]].base_id)
    if len(path) > 1:  # a derived item: the path from its head
        children = {base: [derived] for derived, base in zip(path, path[1:])}
    else:  # a head: all of its descendants
        children = {}
        for derived, edge in state.edges.items():
            if edge.base_id is not None:
                children.setdefault(edge.base_id, []).append(derived)
    rows, stack = [], [(path[-1], 0)]
    while stack:
        current, depth = stack.pop()
        item, edge = state.item(current), state.edges.get(current)
        rule_id = template = None
        if item.category != "V":
            result = transfer(state, current)
            rule_id, template = result.rule_id, result.template
        kids = sorted(children.get(current, []))
        rows.append((depth, current, edge.process if edge else None, rule_id, template,
                     state.strata[current], item.gloss, not state.is_live(current)))
        stack.extend((kid, depth + 1) for kid in reversed(kids))
    return rows


def _first_difference(rows, expected):
    """The first row that differs, or None; a failing assert then shows one
    row, not a diff of hundreds."""
    for k, (row, want) in enumerate(zip(rows, expected)):
        if row != want:
            return k, row, want
    return None if len(rows) == len(expected) else (len(rows), len(expected))


def _assert_traces_match(state, item_ids, reference=None):
    """``trace`` on ``state`` agrees with the reference rows of ``reference``
    (``state`` itself by default); each trace runs before its reference, so
    on a cold snapshot the trace does the resolving."""
    for item_id in item_ids:
        nodes = trace(state, item_id)
        rows = _flat(nodes)
        assert _first_difference(rows, _reference_rows(reference or state, item_id)) is None, item_id
        if max(row[0] for row in rows) < 100:  # the recursive reference's own depth limit
            assert render_trace(nodes) == _render_trace_recursively(nodes), item_id


def test_trace_agrees_with_a_reference_from_public_calls(fig2, example1, table3):
    for state in (fig2, example1, table3):
        ids = list(state.items)
        _assert_traces_match(state, ids)
        _assert_traces_match(_by_transitions(state), ids[::-1], reference=state)
    deep = _deep_state()
    heads = [i for i in deep.items if deep.edges.get(i) is None or deep.edges[i].base_id is None]
    tips = [f"h{c}_400" for c in range(3)]
    sample = heads + tips + list(deep.items)[::25]
    _assert_traces_match(deep, sample)
    _assert_traces_match(_by_transitions(deep), tips + sample, reference=deep)


def test_trace_shows_superseded_bases_and_verb_heads(fig2):
    widened = fig2.apply_formation(EdgeSpec(
        derived_id="probe", process=Formation.WIDENING, base_id="sendu_2", gloss="more"))
    _assert_traces_match(widened, ["probe", "sendu_v"])
    lines = render_trace(trace(widened, "probe")).split("\n")
    assert lines[0].startswith("sendu_v  [head, stratum 0]  (no template)")
    assert lines[2].startswith("    sendu_2  [CONV R1, stratum 2 superseded]")
    assert lines[3].startswith("      probe  [WIDEN R2, stratum 3]")
    assert not any("superseded" in line for line in render_trace(trace(fig2, "sendu_2")).split("\n"))


def _failing_chain():
    state = LexiconState({"riffian": RIFFIAN}, BUILTIN_INITIALS)
    state = state.add_item(Item(id="h", language="riffian", radical="ka", cogset="C",
                                template=NA_INITIAL))
    for edge in (
        EdgeSpec(derived_id="f1", process=Formation.DERIVATION, base_id="h", target="ZZ"),
        EdgeSpec(derived_id="f2", process=Formation.CONVERSION, base_id="f1"),
        EdgeSpec(derived_id="f3", process=Formation.DERIVATION, base_id="f2", target="C"),
    ):
        state = state.apply_formation(edge)
    return state


def _traced(state, item_id):
    try:
        return render_trace(trace(state, item_id))
    except ValueError as exc:
        return type(exc), str(exc)


def test_tracing_a_failing_chain_raises_what_transfer_raises():
    warm = _failing_chain()
    failure = _outcome_of(warm, "f3")
    assert failure == (InitialTemplateError, "no initial template for cognitive set 'ZZ' in 'riffian'")
    for item_id in ("f1", "f2", "f3", "h"):
        cold = _failing_chain()
        assert _traced(cold, item_id) == failure, item_id  # the trace does the resolving
        assert _traced(warm, item_id) == failure, item_id
        assert _outcome_of(cold, item_id) == _outcome_of(warm, item_id)


# ``f`` fails (X has no initial template), ``v`` is a verb off it, and ``w``
# fails on its own under the verb (Z has none)
_TWO_FAILURES = """\
item id=h lang=riffian radical="ka" cogset=C template={N, +SG, -PL, +M, -F, -COL, +SING}
derive id=f base=h via=MDERIV target=X
derive id=v base=f via=CONV target=V
derive id=w base=v via=MDERIV target=Z
"""


def test_a_trace_raises_the_failure_its_transfers_meet_first():
    # a path builds its item first, so it raises what the item's transfer
    # raises; a head's tree builds each node after its children, so w's
    # failure comes before f's
    x, z = ((InitialTemplateError, f"no initial template for cognitive set '{s}' in 'riffian'")
            for s in "XZ")
    warm = corpus.load(corpus.parse(_TWO_FAILURES)).state
    for item_id, failure in (("h", z), ("f", x), ("v", x), ("w", z)):
        assert _traced(_by_transitions(warm), item_id) == failure, item_id  # the trace resolves
        assert _traced(warm, item_id) == failure, item_id


def test_tracing_a_loaded_snapshot_runs_no_gradient_step(fig2, example1, table3, monkeypatch):
    deep = _deep_state()
    calls = []
    gradient = engine.apply_gradient
    monkeypatch.setattr(engine, "apply_gradient", lambda *args: calls.append(args) or gradient(*args))
    for state in (fig2, example1, table3):
        for item_id in state.items:
            render_trace(trace(state, item_id))
    for item_id in [i for i in deep.items if i not in deep.edges] + ["h0_400", "b_1"]:
        render_trace(trace(deep, item_id))
    assert calls == []


def test_concurrent_tracers_of_one_cold_snapshot_agree():
    def build():
        state = _by_transitions(corpus.load(corpus.parse(_deep_corpus_text(depth=30, chains=2))).state)
        state = state.add_item(Item(id="f", language="riffian", radical="ka", cogset="C"))
        for k in range(1, 6):  # a failing chain: a head without a template
            state = state.apply_formation(EdgeSpec(
                derived_id=f"f_{k}", process=Formation.CONVERSION, base_id=f"f_{k - 1}" if k > 1 else "f"))
        return state

    expected = {i: _traced(build(), i) for i in build().items}
    ids = list(expected)
    assert sum(type(text) is tuple for text in expected.values()) == 6
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            state = build()  # cold: nothing resolved yet
            start = threading.Barrier(4)
            failures, results = [], []

            def read(order):
                start.wait()
                try:
                    results.append({i: _traced(state, i) for i in order})
                except Exception as exc:  # a false cycle or any other error
                    failures.append(exc)

            orders = [ids, ids[::-1], ids[1::2] + ids[::2], sorted(ids)]
            threads = [threading.Thread(target=read, args=(o,)) for o in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert failures == []
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(switch)

