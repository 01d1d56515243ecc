"""Item store, formation ledger, supersession, and determinism."""

import ast
from pathlib import Path
from types import MappingProxyType

import pytest

from tbmc import lexicon
from tbmc.lexicon import (
    EdgeSpec,
    Formation,
    Item,
    LexiconError,
    LexiconState,
)
from tbmc.templates import BUILTIN_INITIALS, FRENCH, RIFFIAN, make_template

C_TEMPLATE = "{N, +SG, -PL, -M, +F, -COL, +SING}"


def riffian_state():
    return LexiconState({"riffian": RIFFIAN}, BUILTIN_INITIALS)


def head(i, cogset="C", **kw):
    return Item(
        id=f"w{i}", language="riffian", radical=f"rad{i}", cogset=cogset,
        template=make_template(RIFFIAN, C_TEMPLATE), meanings=frozenset({f"sense{i}"}), **kw,
    )


def five_item_state():
    state = riffian_state()
    for i in range(5):
        state = state.add_item(head(i))
    return state


def replay(state, specs):
    for spec in specs:
        state = state.apply_formation(spec)
    return state


def conv(derived, base, **kw):
    return EdgeSpec(derived_id=derived, process=Formation.CONVERSION, base_id=base,
                    target="U", **kw)


def test_conversion_grows_the_live_count_by_one():
    state = five_item_state()
    after = state.apply_formation(conv("d1", "w0", gloss="new sense"))
    assert state.live_count == 5
    assert after.live_count == 6
    assert after.is_live("w0") and after.is_live("d1")


def test_widening_keeps_the_live_count():
    state = five_item_state()
    after = state.apply_formation(EdgeSpec(
        derived_id="d1", process=Formation.WIDENING, base_id="w0", target="U",
        gloss="wider sense"))
    assert after.live_count == 5
    assert not after.is_live("w0")
    assert after.is_live("d1")
    assert "w0" in after.items  # retained for tracing


def test_two_conversions_from_one_base():
    state = five_item_state()
    state = state.apply_formation(conv("d1", "w0"))
    state = state.apply_formation(conv("d2", "w0"))
    assert state.live_count == 7
    assert state.strata["w0"] == 0
    assert state.strata["d1"] == 1
    assert state.strata["d2"] == 1


def test_duplicate_ids_are_rejected():
    state = five_item_state()
    with pytest.raises(LexiconError, match="duplicate"):
        state.add_item(head(0))
    with pytest.raises(LexiconError, match="duplicate"):
        state.apply_formation(conv("w3", "w0"))


def test_dangling_base_is_rejected():
    with pytest.raises(LexiconError, match="dangling"):
        five_item_state().apply_formation(conv("d1", "nope"))


def test_superseded_base_cannot_derive():
    state = five_item_state().apply_formation(EdgeSpec(
        derived_id="d1", process=Formation.WIDENING, base_id="w0", target="U"))
    with pytest.raises(LexiconError, match="superseded"):
        state.apply_formation(conv("d2", "w0"))


@pytest.mark.parametrize("process", [f for f in Formation if f is not Formation.BORROWING],
                         ids=lambda f: f.value)
def test_a_donor_gender_off_a_borrowing_is_rejected(process):
    state = five_item_state()
    spec = EdgeSpec(derived_id="d1", process=process, base_id="w0", target="U",
                    radical="y", donor_gender="M")
    with pytest.raises(LexiconError) as info:
        state.apply_formation(spec)
    assert str(info.value) == "edge d1: donor_gender is only meaningful on BORROW"
    assert "d1" not in state.items


def test_borrowing_needs_language_and_radical():
    state = riffian_state()
    with pytest.raises(LexiconError, match="language"):
        state.apply_formation(EdgeSpec(derived_id="b1", process=Formation.BORROWING,
                                       target="U", radical="loan"))
    with pytest.raises(LexiconError, match="radical"):
        state.apply_formation(EdgeSpec(derived_id="b1", process=Formation.BORROWING,
                                       target="U", language="riffian"))
    after = state.apply_formation(EdgeSpec(
        derived_id="b1", process=Formation.BORROWING, target="U",
        language="riffian", radical="loan", donor_gender="F"))
    assert after.live_count == 1
    assert after.strata["b1"] == 0


def test_non_borrow_needs_a_base():
    with pytest.raises(LexiconError, match="needs a base"):
        riffian_state().apply_formation(EdgeSpec(
            derived_id="d1", process=Formation.CONVERSION, target="U",
            language="riffian", radical="x"))


def test_widening_direction_is_flagged_not_fatal():
    state = five_item_state()
    after = state.apply_formation(EdgeSpec(
        derived_id="d1", process=Formation.WIDENING, base_id="w0", target="U",
        gloss="extra sense"))
    assert any("widen d1" in w for w in after.warnings)
    # equal meaning sets draw no warning
    again = five_item_state().apply_formation(EdgeSpec(
        derived_id="d2", process=Formation.WIDENING, base_id="w1", target="U",
        gloss="sense1"))
    assert again.warnings == ()


def test_widened_item_inherits_and_extends_meanings():
    state = five_item_state().apply_formation(EdgeSpec(
        derived_id="d1", process=Formation.WIDENING, base_id="w0", target="U",
        gloss="extra"))
    assert state.items["d1"].meanings == {"sense0", "extra"}


def test_verbs_carry_no_cogset_or_template():
    state = riffian_state()
    with pytest.raises(LexiconError, match="verbs"):
        state.add_item(Item(id="v1", language="riffian", radical="x", category="V",
                            cogset="C"))
    state = state.add_item(Item(id="v1", language="riffian", radical="x", category="V"))
    assert state.items["v1"].cogset is None


def test_nouns_need_a_cognitive_set():
    with pytest.raises(LexiconError, match="cognitive set"):
        riffian_state().add_item(Item(id="n1", language="riffian", radical="x",
                                      category="N"))


def test_declared_template_must_match_the_item_language():
    from tbmc.templates import FRENCH

    foreign = make_template(FRENCH, "{N, +SG, -PL, +M, -F, +DEF, -COL}")
    with pytest.raises(LexiconError, match="another language"):
        riffian_state().add_item(Item(id="n1", language="riffian", radical="x",
                                      cogset="C", template=foreign))


def test_target_defaults_to_the_base_cogset():
    state = five_item_state().apply_formation(EdgeSpec(
        derived_id="d1", process=Formation.CONVERSION, base_id="w0"))
    assert state.items["d1"].cogset == "C"


def test_cognitive_set_partition(fig2):
    sets = fig2.cognitive_sets()
    union = []
    for cogset in sets:
        union.extend(fig2.cognitive_set_members(cogset))
    live_nouns = sorted(i for i in fig2.live_ids() if fig2.items[i].category != "V")
    assert sorted(union) == live_nouns
    assert len(union) == len(set(union))


def test_fig2_noun_of_action_members(fig2):
    members = fig2.cognitive_set_members("NA")
    # the act-of nouns survive; the waiting NA was superseded by its widening
    assert {"sendu_1", "sumer_1", "ndah_1"} <= set(members)
    assert "ieis_2" in members
    assert "razi_1" not in members
    assert not fig2.is_live("razi_1")


def test_empty_lexicon_has_no_members():
    assert riffian_state().cognitive_set_members("C") == []


def test_replay_is_deterministic():
    specs = [
        conv("d1", "w0", gloss="a"),
        EdgeSpec(derived_id="d2", process=Formation.WIDENING, base_id="w1",
                 target="U", gloss="b"),
        EdgeSpec(derived_id="d3", process=Formation.DERIVATION, base_id="w2",
                 target="NA", radical="radX", gloss="c"),
    ]
    first = replay(five_item_state(), specs)
    second = replay(five_item_state(), specs)
    assert first == second
    assert first.items == second.items
    assert first.strata == second.strata
    assert first.superseded == second.superseded


def test_live_count_ledger():
    specs = [
        conv("d1", "w0"),
        EdgeSpec(derived_id="d2", process=Formation.WIDENING, base_id="w1", target="U"),
        EdgeSpec(derived_id="d3", process=Formation.DERIVATION, base_id="w2",
                 target="NA", radical="y"),
        EdgeSpec(derived_id="d4", process=Formation.BORROWING, target="U",
                 language="riffian", radical="z", donor_gender="M"),
        EdgeSpec(derived_id="d5", process=Formation.WIDENING, base_id="d1", target="C"),
    ]
    state = replay(five_item_state(), specs)
    additions = sum(1 for s in specs if s.process is not Formation.WIDENING)
    assert state.live_count == 5 + additions
    assert len(state.items) == 5 + len(specs)


def _snapshot(how, fig2):
    if how == "new_state":
        # a fresh snapshot: profiles and initials only, the other tables at their defaults
        return riffian_state()
    if how == "constructor":
        return LexiconState(profiles={"riffian": RIFFIAN}, initials=BUILTIN_INITIALS,
                            items={"w0": head(0)}, edges={}, strata={"w0": 0})
    if how == "loaded":
        return fig2
    if how == "add_item":
        return riffian_state().add_item(head(0))
    return five_item_state().apply_formation(conv("d1", "w0"))


@pytest.mark.parametrize("how", ["new_state", "constructor", "loaded", "add_item", "apply_formation"])
@pytest.mark.parametrize("table", ["items", "edges", "strata", "profiles", "initials"])
def test_a_snapshot_rejects_writes_to_its_tables(fig2, how, table):
    view = getattr(_snapshot(how, fig2), table)
    with pytest.raises(TypeError):
        view["x"] = None
    for key in list(view)[:1]:
        with pytest.raises(TypeError):
            del view[key]


def test_a_snapshot_has_no_writable_field(fig2):
    # the seven public fields; _resolved and _steps are the private memos
    for state in (riffian_state(), fig2, five_item_state().apply_formation(conv("d1", "w0"))):
        for name in ("profiles", "initials", "items", "edges", "superseded", "strata", "warnings"):
            assert type(getattr(state, name)) in (MappingProxyType, frozenset, tuple), name


def test_the_constructor_copies_the_tables_it_is_given():
    built = five_item_state().apply_formation(conv("d1", "w0"))
    profiles, initials = {"riffian": RIFFIAN}, dict(BUILTIN_INITIALS)
    items, edges, strata = dict(built.items), dict(built.edges), dict(built.strata)
    state = LexiconState(profiles, initials, items=items, edges=edges, strata=strata)
    profiles["french"] = FRENCH
    initials[("riffian", "C")] = initials[("riffian", "U")]
    del initials[("riffian", "NA")]
    items["w9"] = head(9)
    del items["d1"], edges["d1"], strata["d1"]
    strata["w0"] = 5
    assert set(state.profiles) == {"riffian"}
    assert state.initials == BUILTIN_INITIALS
    assert state.items == built.items and state.edges == built.edges
    assert state.strata == built.strata


def test_the_constructor_freezes_what_it_is_given():
    widened = five_item_state().apply_formation(
        EdgeSpec(derived_id="d1", process=Formation.WIDENING, base_id="w0"))
    state = LexiconState(profiles={"riffian": RIFFIAN}, initials=BUILTIN_INITIALS,
                         items=dict(widened.items), edges=dict(widened.edges), strata=dict(widened.strata),
                         superseded={"w0"}, warnings=["w"])
    assert type(state.superseded) is frozenset and state.warnings == ("w",)
    assert state.draft().freeze() == state
    # a superseded id must be the base of a widening
    with pytest.raises(LexiconError, match="^item w0: superseded, but no widening has it as its base$"):
        LexiconState(profiles={"riffian": RIFFIAN}, initials=BUILTIN_INITIALS,
                     items={"w0": head(0)}, strata={"w0": 0}, superseded={"w0"}, warnings=["w"])


_DERIVED = Item(id="d1", language="riffian", radical="rad0", cogset="U")


@pytest.mark.parametrize("tables, message", [
    ({"items": {"w0": head(0), "d1": _DERIVED}, "edges": {"d1": conv("d2", "w0")},
      "strata": {"w0": 0, "d1": 1}}, "item d1: its edge derives 'd2'"),
    ({"items": {"w0": head(0)}, "strata": {"w0": 1}}, "item w0: stratum 1, not 0"),
    ({"items": {"w0": head(0), "w1": head(1)}}, "item w0: stratum None, not 0"),
    ({"items": {"w0": head(0)}, "strata": {"w0": 0}, "profiles": {"french": FRENCH}},
     "item w0: no profile for language 'riffian'"),
    ({"items": {"w0": head(0)}, "edges": {"zz": conv("zz", "w0")}, "strata": {"w0": 0}},
     "unknown item 'zz' in the ledger"),
    ({"items": {"w0": head(0)}, "strata": {"w0": 0, "zz": 1}}, "unknown item 'zz' in the ledger"),
    ({"items": {"w0": head(0)}, "strata": {"w0": 0}, "superseded": {"zz"}}, "unknown item 'zz' in the ledger"),
], ids=["edge-key", "head-stratum", "first-in-items-order", "profile", "stray-edge", "stray-stratum",
        "stray-superseded"])
def test_the_constructor_names_the_first_id_that_breaks_the_ledger(tables, message):
    with pytest.raises(LexiconError) as raised:
        LexiconState(**{"profiles": {"riffian": RIFFIAN}, "initials": BUILTIN_INITIALS, **tables})
    assert str(raised.value) == message


def test_the_lexicon_imports_nothing_from_the_engine():
    # the engine builds on the lexicon, so not even a type hint may point back
    imported = []
    for node in ast.walk(ast.parse(Path(lexicon.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = "." * node.level + (node.module or "")
            imported.extend(f"{package.rstrip('.')}.{alias.name}" for alias in node.names)
    assert imported and not [name for name in imported if "engine" in name.split(".")]
