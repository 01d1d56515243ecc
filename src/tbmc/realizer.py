"""Surface realization for Riffian item-template pairs.

A deliberately thin spell-out layer: enough exponence to round-trip the
bundled corpora, not a morphophonology of the language.  Masculine,
singular and collective are null markers; what gets spelled out is:

* the feminine prefix ``ð``, realized ``t`` before a voiceless consonant;
* the countability prefix for singulatives, ``a`` in the singular and ``i``
  in the plural (collectives take none);
* the feminine suffix ``t``, realized ``θ`` after a vowel or glide;
* the plural suffixes ``en`` (masculine) and ``in`` (feminine, replacing
  the feminine suffix).

Nouns with asymmetric gender encoding switch off the feminine prefix or
suffix per item; anything beyond that (epenthetic vowels, internal plurals,
lexicalized allomorphs) is carried by a per-item surface override, which
audits report separately from rule output.

Attested spellings hyphenate inconsistently, so all surface comparisons --
the ``matches`` helper and the corpus audit -- ignore hyphens and compare
NFC-normalized text.
"""

from __future__ import annotations

import unicodedata
from typing import List, NamedTuple, Tuple

from . import engine
from .lexicon import Item, LexiconState, VERB
from .templates import Template

_TRANSLIT = {"ḍ": "ð", "δ": "ð"}  # d-underdot, Greek delta -> eth


class RealizeError(ValueError):
    pass


def normalize_phonetic(text: str) -> str:
    """NFC plus the transliteration variants collapsed to one alphabet."""
    out = unicodedata.normalize("NFC", text)
    for src, dst in _TRANSLIT.items():
        out = out.replace(src, dst)
    return out


def comparable_surface(text: str) -> str:
    """The form used for surface equality: normalized, hyphens removed."""
    return normalize_phonetic(text).replace("-", "")


# Riffian exponents and the phonological contexts that pick their allomorphs.
LANGUAGE = "riffian"
FEM_PREFIX = "ð"
FEM_PREFIX_VOICELESS = "t"
FEM_SUFFIX = "t"
FEM_SUFFIX_POSTVOCALIC = "θ"
SING_PREFIX_SINGULAR = "a"
SING_PREFIX_PLURAL = "i"
PLURAL_SUFFIX_MASC = "en"
PLURAL_SUFFIX_FEM = "in"
VOICELESS = ("ts", "tʃ", "t", "θ", "f", "s", "ʃ", "k", "q", "ħ", "χ")
VOWELS_AND_GLIDES = ("a", "e", "i", "o", "u", "w", "j")


class SurfaceForm(NamedTuple):
    """Assembled surface: plain join and display hyphenation.

    ``hyphenated`` separates the prefix block (gender and countability fused)
    from the radical and sets number suffixes off with a hyphen; the
    feminine suffix stays attached, which is the dominant attested style.
    """

    joined: str
    hyphenated: str
    from_override: bool = False

    def matches(self, expected: str) -> bool:
        return comparable_surface(self.joined) == comparable_surface(expected)


def realize(item: Item, template: Template) -> SurfaceForm:
    """Spell out one item under one template.

    A per-item surface override is returned verbatim (marked as such);
    otherwise the Riffian exponents assemble prefix block, radical and
    suffix block.
    """
    if item.category == VERB:
        raise RealizeError(f"item {item.id}: verbs are not realized")
    if template.profile.language != LANGUAGE:
        raise RealizeError(f"exponents cover {LANGUAGE!r}, template is {template.profile.language!r}")
    problems = template.violations()
    if problems:
        raise RealizeError("cannot realize ill-formed template: " + "; ".join(problems))

    if item.surface_override is not None:
        given = normalize_phonetic(item.surface_override)
        return SurfaceForm(
            joined=given.replace("-", ""),
            hyphenated=given,
            from_override=True,
        )

    radical = normalize_phonetic(item.radical)
    feminine = "+F" in template.body
    plural = "+PL" in template.body
    singulative = "+SING" in template.body

    count_prefix = ""
    if singulative:
        count_prefix = SING_PREFIX_PLURAL if plural else SING_PREFIX_SINGULAR

    fem_prefix = ""
    if feminine and item.fem_prefix:
        following = count_prefix or radical
        fem_prefix = FEM_PREFIX_VOICELESS if following.startswith(VOICELESS) else FEM_PREFIX

    fem_suffix = ""
    plural_suffix = ""
    if plural:
        plural_suffix = PLURAL_SUFFIX_FEM if feminine else PLURAL_SUFFIX_MASC
    elif feminine and item.fem_suffix:
        fem_suffix = FEM_SUFFIX_POSTVOCALIC if radical.endswith(VOWELS_AND_GLIDES) else FEM_SUFFIX

    prefix_block = fem_prefix + count_prefix
    joined = prefix_block + radical + fem_suffix + plural_suffix
    hyphenated = radical + fem_suffix
    if prefix_block:
        hyphenated = prefix_block + "-" + hyphenated
    if plural_suffix:
        hyphenated += "-" + plural_suffix
    return SurfaceForm(joined=joined, hyphenated=hyphenated)


RULE_MATCH = "rule-match"
OVERRIDE_USED = "override-used"
MISMATCH = "mismatch"


class AuditEntry(NamedTuple):
    """One audited item: its attested and produced surfaces, and whether the
    rules, an override or neither account for the attestation."""

    item_id: str
    expected: str
    produced: str
    classification: str


def realization_audit(state: LexiconState) -> Tuple[AuditEntry, ...]:
    """Compare every attested surface in the lexicon against the realizer.

    Returns one entry per audited item, in item-id order.  Items are
    audited when they carry an expected surface (or an override, which
    doubles as the attestation).  An override is never counted as a
    rule match, even when the rules would have produced the same string; a
    mismatch is always listed, never swallowed.
    """
    entries: List[AuditEntry] = []
    for item_id in sorted(state.items):
        item = state.items[item_id]
        expected = item.expected_surface or item.surface_override
        if expected is None:
            continue
        if item.category == VERB or item.language != LANGUAGE:
            continue
        template = engine.transfer(state, item_id).template
        form = realize(item, template)
        if form.from_override:
            clazz = OVERRIDE_USED if form.matches(expected) else MISMATCH
        else:
            clazz = RULE_MATCH if form.matches(expected) else MISMATCH
        entries.append(AuditEntry(item_id, expected, form.hyphenated, clazz))
    return tuple(entries)
