"""Profiles, template well-formedness, rendering, and enumeration."""

import itertools

import pytest

from tbmc.templates import (
    BUILTIN_PROFILES,
    FRENCH,
    RIFFIAN,
    Free,
    InitialTemplateError,
    LanguageProfile,
    Opposition,
    Template,
    TemplateError,
    canonical_render,
    default_initials,
    enumerate_candidates,
    make_template,
    parse_template_text,
    render_operand,
    shared_operand,
    shared_template,
    validate,
)


def body(text):
    return parse_template_text(text)


def test_riffian_feminine_singular_validates():
    assert validate(body("{N, +SG, -PL, -M, +F, -COL, +SING}"), RIFFIAN) == []


def test_double_positive_gender_is_a_violation():
    problems = validate(body("{N, +SG, -PL, +M, +F, -COL, +SING}"), RIFFIAN)
    assert problems and any("M|F" in p for p in problems)


def test_french_definite_masculine_validates():
    assert validate(body("{N, +SG, -PL, +M, -F, +DEF, -COL}"), FRENCH) == []


def test_missing_slot_and_foreign_feature_are_reported():
    problems = validate(body("{N, +SG, -PL, +M, -F, +DEF}"), RIFFIAN)
    assert any("DEF" in p for p in problems)
    assert any("COL|SING" in p for p in problems)


def test_category_must_match_profile():
    problems = validate(body("{V, +SG, -PL, +M, -F, -COL, +SING}"), RIFFIAN)
    assert any("category" in p for p in problems)


def test_canonical_render_examples():
    assert canonical_render(body("{N,+SG,-PL,-M,+F,-COL,+SING}"), RIFFIAN) == \
        "{N, +SG, -PL, -M, +F, -COL, +SING}"
    assert canonical_render(body("{N,+SG,-PL,+M,-F,-COL,+SING}"), RIFFIAN) == \
        "{N, +SG, -PL, +M, -F, -COL, +SING}"
    assert canonical_render(body("{N,+SG,-PL,-M,+F,+DEF,-COL}"), FRENCH) == \
        "{N, +SG, -PL, -M, +F, +DEF, -COL}"


def test_render_is_input_order_independent():
    scrambled = body("{+F, -COL, N, +SING, -PL, -M, +SG}")
    assert canonical_render(scrambled, RIFFIAN) == "{N, +SG, -PL, -M, +F, -COL, +SING}"


def test_render_rejects_ill_formed():
    with pytest.raises(TemplateError):
        canonical_render(body("{N, +SG, -PL}"), RIFFIAN)


def test_render_parse_round_trip_on_all_well_formed():
    for profile in (RIFFIAN, FRENCH):
        for candidate in enumerate_candidates(profile, well_formed_only=True):
            text = canonical_render(candidate, profile)
            assert parse_template_text(text) == candidate


def test_riffian_candidate_counts():
    assert len(enumerate_candidates(RIFFIAN)) == 64
    assert len(enumerate_candidates(RIFFIAN, well_formed_only=True)) == 8


def test_well_formed_filter_equals_direct_construction():
    # build the legal space straight from the slot structure and compare
    for profile in (RIFFIAN, FRENCH):
        direct = set()
        per_slot = []
        for slot in profile.slots:
            if isinstance(slot, Opposition):
                per_slot.append((frozenset({"+" + slot.a, "-" + slot.b}),
                                 frozenset({"-" + slot.a, "+" + slot.b})))
            else:
                per_slot.append((frozenset({"+" + slot.name}), frozenset({"-" + slot.name})))
        for choice in itertools.product(*per_slot):
            direct.add(frozenset({profile.category}).union(*choice))
        filtered = set(enumerate_candidates(profile, well_formed_only=True))
        assert filtered == direct
    assert len(set(enumerate_candidates(FRENCH, well_formed_only=True))) == 16


def test_single_free_slot_profile_has_two_candidates():
    tiny = LanguageProfile("toy", "N", (Free("DEF"),))
    assert len(enumerate_candidates(tiny)) == 2
    assert len(enumerate_candidates(tiny, well_formed_only=True)) == 2


def test_same_profile_templates_share_inventory_and_cardinality():
    from tbmc.algebra import base_of

    candidates = enumerate_candidates(RIFFIAN, well_formed_only=True)
    inventories = {frozenset(base_of(atom) for atom in c) for c in candidates}
    assert len(inventories) == 1
    assert {len(c) for c in candidates} == {1 + len(RIFFIAN.feature_names())}


def test_initial_registry_carries_the_recovered_templates():
    registry = default_initials()
    assert registry.get("riffian", "C").render() == "{N, +SG, -PL, -M, +F, -COL, +SING}"
    assert registry.get("riffian", "U").render() == "{N, +SG, -PL, -M, +F, +COL, -SING}"
    assert registry.get("riffian", "NA").render() == "{N, +SG, -PL, +M, -F, -COL, +SING}"
    assert registry.get("riffian", "NAdr").render() == "{N, +SG, -PL, +M, -F, +COL, -SING}"


def test_unregistered_cognitive_set_errors():
    registry = default_initials()
    with pytest.raises(InitialTemplateError, match="no initial template"):
        registry.get("riffian", "XYZ")


def test_registry_rejects_ill_formed_entries():
    registry = default_initials()
    with pytest.raises(TemplateError):
        registry.register("riffian", "C", Template(RIFFIAN, body("{N, +SG}")))


def test_profile_rejects_duplicate_features():
    with pytest.raises(TemplateError):
        LanguageProfile("bad", "N", (Opposition("SG", "PL"), Free("SG")))


@pytest.mark.parametrize("category, slots, name", [
    ("N", (Opposition("SG", "PL|DU"), Opposition("M", "F")), "PL|DU"),
    ("N", (Opposition("SG", ""), Opposition("M", "F")), ""),
    ("N", (Free("DE F"),), "DE F"),
    ("N", (Free("DEF,COL"),), "DEF,COL"),
    ("N", (Free("{DEF}"),), "{DEF}"),
    ("N", (Free("[DEF]"),), "[DEF]"),
    ("N", (Free("+DEF"),), "+DEF"),
    ("N", (Free("-DEF"),), "-DEF"),
    ("", (Free("DEF"),), ""),
    ("-N", (Free("DEF"),), "-N"),
])
def test_profile_rejects_names_template_text_cannot_spell(category, slots, name):
    with pytest.raises(TemplateError) as info:
        LanguageProfile("bad", category, slots)
    assert str(info.value) == f"profile bad: name {name!r} cannot appear in template text"


def test_make_template_validates():
    t = make_template(RIFFIAN, "{N, +SG, -PL, +M, -F, -COL, +SING}")
    assert not t.violations()
    assert "+M" in t.body and "-M" not in t.body
    assert "-F" in t.body and "+F" not in t.body
    with pytest.raises(TemplateError):
        make_template(RIFFIAN, "{N, +SG, -PL, +M, +F, -COL, +SING}")


def test_operand_rendering_follows_profile_order():
    assert render_operand(frozenset({"-M", "+F", "+M", "-F"}), RIFFIAN) == "{+M, -M, +F, -F}"
    assert render_operand(
        frozenset({"+M", "-M", "+F", "-F", "+COL", "-COL", "+SING", "-SING"}), RIFFIAN
    ) == "{+M, -M, +F, -F, +COL, -COL, +SING, -SING}"
    assert render_operand(frozenset(), RIFFIAN) == "{}"
    # without a profile: alphabetical fallback
    assert render_operand(frozenset({"+b", "-a"})) == "{-a, +b}"


def test_builtin_profile_registry():
    assert set(BUILTIN_PROFILES) == {"riffian", "french"}
    assert 1 + len(BUILTIN_PROFILES["riffian"].feature_names()) == 7
    assert 1 + len(BUILTIN_PROFILES["french"].feature_names()) == 7


# -- the per-profile memo of well-formed bodies --------------------------------

def _corpus_profile():
    from tbmc import corpus

    loaded = corpus.load(corpus.parse("profile breton category=N slots=[SG|PL, M|F, DEF]\n"))
    assert not loaded.errors
    return loaded.state.profiles["breton"]


def _fresh(profile):
    return LanguageProfile(profile.language, profile.category, profile.slots)


def _outcome(candidate, profile):
    try:
        text = canonical_render(candidate, profile)
    except TemplateError as exc:
        text = f"TemplateError: {exc}"
    return validate(candidate, profile), text


@pytest.mark.parametrize("profile", [RIFFIAN, FRENCH, _corpus_profile()],
                         ids=["riffian", "french", "corpus"])
def test_memo_gives_the_results_of_a_fresh_profile(profile):
    warmed = _fresh(profile)
    candidates = enumerate_candidates(profile)
    for _ in range(2):  # the first pass fills the memo, the second reads it
        for candidate in candidates:
            assert _outcome(candidate, warmed) == _outcome(candidate, _fresh(profile))
    assert set(warmed._shared) == set(enumerate_candidates(profile, well_formed_only=True))


def test_ill_formed_bodies_never_enter_the_memo():
    profile = _fresh(RIFFIAN)
    ill_formed = body("{N, +SG, -PL, +M, +F, -COL, +SING}")
    for _ in range(2):
        assert validate(ill_formed, profile)
        with pytest.raises(TemplateError, match="cannot render ill-formed template"):
            canonical_render(ill_formed, profile)
        assert shared_template(profile, ill_formed).body == ill_formed
    assert profile._shared == {}


def test_a_warmed_profile_equals_a_fresh_one():
    warmed, fresh = _fresh(FRENCH), _fresh(FRENCH)
    for candidate in enumerate_candidates(warmed, well_formed_only=True):
        canonical_render(candidate, warmed)
    shared_operand(warmed, frozenset({"+M", "-M", "+F", "-F"}))
    assert warmed._shared and not fresh._shared
    assert warmed == fresh == FRENCH
    assert hash(warmed) == hash(fresh)
    assert repr(warmed) == repr(fresh)


def test_equal_bodies_and_operands_share_one_object():
    profile = _fresh(RIFFIAN)
    text = "{N, +SG, -PL, -M, +F, -COL, +SING}"
    first, second = body(text), body(text)
    assert first is not second
    shared = shared_template(profile, first)
    assert shared == Template(profile, second)
    assert shared_template(profile, second) is shared
    assert canonical_render(second, profile) == text
    operand = frozenset({"+M", "-M", "+F", "-F"})
    kept = shared_operand(profile, operand)
    assert kept is operand
    assert shared_operand(profile, frozenset(sorted(operand))) is kept
    # an operand is never a well-formed body, so it does not validate
    assert validate(operand, profile)
    assert set(profile._shared) == {first, operand}
