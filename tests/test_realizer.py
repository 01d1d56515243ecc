"""Riffian spell-out: exponents, allomorphy, overrides, and the audit."""

import pytest

from tbmc.lexicon import Item
from tbmc.realizer import (
    MISMATCH,
    OVERRIDE_USED,
    RULE_MATCH,
    RealizeError,
    comparable_surface,
    normalize_phonetic,
    realization_audit,
    realize,
)
from tbmc.templates import FRENCH, RIFFIAN, make_template


def rt(text):
    return make_template(RIFFIAN, text)


SG_M = rt("{N, +SG, -PL, +M, -F, -COL, +SING}")
SG_F = rt("{N, +SG, -PL, -M, +F, -COL, +SING}")
PL_M = rt("{N, -SG, +PL, +M, -F, -COL, +SING}")
PL_F = rt("{N, -SG, +PL, -M, +F, -COL, +SING}")
COL_F = rt("{N, +SG, -PL, -M, +F, +COL, -SING}")
COL_M = rt("{N, +SG, -PL, +M, -F, +COL, -SING}")


def item(radical, **kw):
    kw.setdefault("cogset", "C")
    return Item(id=radical, language="riffian", radical=radical, **kw)


def test_nominal_inflection_paradigm():
    dog = item("qzin")
    assert realize(dog, SG_M).joined == "aqzin"
    assert realize(dog, SG_F).matches("ð-aqzin-t")
    assert realize(dog, SG_F).joined == "ðaqzint"
    assert realize(dog, PL_M).matches("iqzin-en")
    assert realize(dog, PL_F).matches("ð-iqzin-in")


def test_cow_and_cream():
    assert realize(item("funas"), SG_F).matches("ða-funast")
    assert realize(item("sendu"), SG_F).matches("ða-senduθ")


def test_suffix_allomorph_follows_the_final_segment():
    # vowel- and glide-final radicals take the spirant, consonants the stop
    assert realize(item("sendu"), SG_F).segments[-1][0] == "θ"
    assert realize(item("venzaj"), SG_F).segments[-1][0] == "θ"
    assert realize(item("nedhiw"), SG_F).segments[-1][0] == "θ"
    assert realize(item("funas"), SG_F).segments[-1][0] == "t"
    assert realize(item("qzin"), SG_F).segments[-1][0] == "t"


def test_prefix_allomorph_follows_the_next_segment():
    # collective templates drop the countability prefix, exposing the radical
    assert realize(item("sam:er"), COL_F).joined.startswith("t")
    assert realize(item("r:z:u"), COL_F).joined.startswith("ð")
    # singulatives interpose a vowel, so the prefix stays voiced
    assert realize(item("sendu"), SG_F).joined.startswith("ð")


def test_null_exponence():
    # action nominal: only the countability prefix surfaces
    assert realize(item("mhawað"), SG_M).joined == "amhawað"
    # masculine collective: every marker null, radical comes back unchanged
    assert realize(item("muðrus"), COL_M).joined == "muðrus"


def test_allomorphy_is_local():
    base = realize(item("sendu"), SG_F)
    reshaped_tail = realize(item("sendur"), SG_F)
    assert base.segments[0][0] == reshaped_tail.segments[0][0]  # prefix unmoved
    assert base.segments[-1][0] != reshaped_tail.segments[-1][0]
    fronted = realize(item("nendu"), COL_F)
    hardened = realize(item("tendu"), COL_F)
    assert fronted.segments[0][0] == "ð"
    assert hardened.segments[0][0] == "t"
    assert fronted.segments[-1][0] == hardened.segments[-1][0]  # suffix unmoved


def test_asymmetric_encoding_switches():
    no_suffix = item("kem:af", fem_suffix=False)
    assert realize(no_suffix, SG_F).matches("ða-kem:af")
    no_prefix = item("d:ahi", fem_prefix=False)
    assert realize(no_prefix, COL_F).matches("d:ahiθ")


def test_override_is_verbatim_and_marked():
    lex = item("sam:er", surface_override="t-sam:erθ")
    form = realize(lex, COL_F)
    assert form.from_override
    assert form.hyphenated == "t-sam:erθ"
    assert form.joined == "tsam:erθ"


def test_hyphenation_scheme():
    assert realize(item("qzin"), SG_F).hyphenated == "ða-qzint"
    assert realize(item("qzin"), PL_M).hyphenated == "i-qzin-en"
    assert realize(item("muðrus"), COL_M).hyphenated == "muðrus"


def test_verbs_and_foreign_profiles_are_rejected():
    with pytest.raises(RealizeError, match="verbs"):
        realize(Item(id="v", language="riffian", radical="x", category="V"), SG_M)
    with pytest.raises(RealizeError, match="riffian"):
        realize(item("gland"), make_template(FRENCH, "{N, +SG, -PL, +M, -F, +DEF, -COL}"))


def test_normalization_collapses_transliteration_variants():
    assert normalize_phonetic("ḍa-funast") == "ða-funast"
    assert comparable_surface("δ-aqzin-t") == "ðaqzint"


def classes(entries):
    return [e.classification for e in entries]


def test_audit_over_the_fig2_corpus(fig2):
    entries = realization_audit(fig2)
    assert MISMATCH not in classes(entries)
    assert classes(entries).count(OVERRIDE_USED) == 3
    assert classes(entries).count(RULE_MATCH) == len(entries) - 3


def test_audit_over_the_estimation_corpus(table3):
    entries = realization_audit(table3)
    assert MISMATCH not in classes(entries)
    assert classes(entries).count(RULE_MATCH) == 13
    assert classes(entries).count(OVERRIDE_USED) == 4


def test_audit_entries_are_in_item_id_order(fig2, table3):
    for state in (fig2, table3):
        ids = [e.item_id for e in realization_audit(state)]
        assert ids == sorted(ids)


def test_audit_never_counts_an_override_as_a_rule_match(fig2, table3):
    for state in (fig2, table3):
        for entry in realization_audit(state):
            if state.items[entry.item_id].surface_override is not None:
                assert entry.classification == OVERRIDE_USED


def test_audit_reports_mismatches_loudly():
    from tbmc.lexicon import LexiconState
    from tbmc.templates import BUILTIN_INITIALS

    state = LexiconState({"riffian": RIFFIAN}, BUILTIN_INITIALS)
    state = state.add_item(Item(
        id="bad", language="riffian", radical="qzin", cogset="C",
        template=SG_M, expected_surface="wrong"))
    (entry,) = realization_audit(state)
    assert entry.classification == MISMATCH
    assert (entry.expected, entry.produced) == ("wrong", "a-qzin")


def test_rule_match_classification():
    from tbmc.lexicon import LexiconState
    from tbmc.templates import BUILTIN_INITIALS

    state = LexiconState({"riffian": RIFFIAN}, BUILTIN_INITIALS)
    state = state.add_item(Item(
        id="dog", language="riffian", radical="qzin", cogset="C",
        template=SG_M, expected_surface="aqzin"))
    (entry,) = realization_audit(state)
    assert entry.classification == RULE_MATCH
