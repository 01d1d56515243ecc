"""Signed grammatical features and the set algebra over them.

Feature sets are plain ``frozenset`` values whose members (atoms) are
strings of two shapes:

* signed features: a polarity sign followed by a name, e.g. ``"+SG"``,
  ``"-PL"``, ``"+F"`` -- the positive and negative halves of a binary
  grammatical opposition;
* category atoms: a bare name with no sign, e.g. ``"N"`` -- the syntactic
  category carried inside a full template body.

The one operation that matters is the symmetric difference: gradient
conditions are equations of the form ``base Δ operand = derived``.  Under
the symmetric difference the subsets of any finite atom universe form an
abelian group (empty set as identity, every set its own inverse), which is
what makes those equations solvable for any single unknown.  Both textbook
formulations of the operation are provided so they can be checked against
each other.

Category atoms need no special handling: two same-category operands share
the atom, so it cancels out of their symmetric difference by itself.
Gradient *operands*, however, must never contain a category atom; that is
enforced where rules are registered, not here.
"""

from __future__ import annotations

from typing import FrozenSet

FeatureSet = FrozenSet[str]

POSITIVE = "+"
NEGATIVE = "-"
POLARITIES = (POSITIVE, NEGATIVE)

EMPTY: FeatureSet = frozenset()

# largest universes the brute-force checks of this algebra enumerate (oracle)
TRIPLE_CAP = 4  # associativity quantifies over triples: 16**3 states at most
PAIR_CAP = 6    # pairwise checks: 64**2 states at most


class AtomError(ValueError):
    """A malformed feature atom (empty name, stray sign, whitespace)."""


def signed(name: str, polarity: str) -> str:
    """Build a signed feature atom such as ``signed("SG", "+") == "+SG"``."""
    if polarity not in POLARITIES:
        raise AtomError(f"polarity must be one of {POLARITIES}, got {polarity!r}")
    if not name or any(ch.isspace() for ch in name) or name[0] in POLARITIES:
        raise AtomError(f"invalid feature name {name!r}")
    return polarity + name


def parse_atom(text: str) -> str:
    """Validate one atom token (signed feature or bare category atom)."""
    text = text.strip()
    if not text:
        raise AtomError("empty atom")
    if text[0] in POLARITIES:
        return signed(text[1:], text[0])
    if any(ch.isspace() for ch in text):
        raise AtomError(f"invalid category atom {text!r}")
    return text


def is_signed(atom: str) -> bool:
    return atom[:1] in POLARITIES


def is_category(atom: str) -> bool:
    return not is_signed(atom)


def base_of(atom: str) -> str:
    """The unsigned feature name; category atoms pass through unchanged."""
    return atom[1:] if is_signed(atom) else atom


# -- the symmetric difference ------------------------------------------------

def symmetric_difference_via_differences(a: FeatureSet, b: FeatureSet) -> FeatureSet:
    """(a \\ b) ∪ (b \\ a): members of exactly one operand."""
    return (a - b) | (b - a)


def symmetric_difference_via_envelope(a: FeatureSet, b: FeatureSet) -> FeatureSet:
    """(a ∪ b) \\ (a ∩ b): the union minus the common core."""
    return (a | b) - (a & b)


def symmetric_difference(a: FeatureSet, b: FeatureSet) -> FeatureSet:
    """The canonical Δ.  Identical to both explicit formulations above."""
    return a ^ b
