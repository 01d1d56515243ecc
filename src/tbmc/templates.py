"""Language profiles, grammatical templates, and the built-in initial templates.

A profile fixes, for one language and one syntactic category, the ordered
slot structure every template body must instantiate:

* ``Opposition(a, b)`` -- a linked pair like SG|PL: a well-formed body
  carries both names with opposite polarities ({+SG, -PL} or {-SG, +PL});
* ``Free(a)`` -- an independently signed feature like DEF: the body carries
  exactly one of {+DEF, -DEF}.

Well-formedness gives every same-category template the same cardinality and
the same unsigned feature inventory, which is precisely what lets the shift
engine move between any two of them by a symmetric difference.

The module also owns the canonical text form (``{N, +SG, -PL, ...}``), the
candidate enumeration used by the initial-template heuristic (all sign
assignments, well-formed or not), and the read-only table of built-in
initial templates: the template the members of a cognitive set receive on
entry, by language and cognitive set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple, Union

from . import algebra
from .algebra import NEGATIVE, POSITIVE, FeatureSet


class TemplateError(ValueError):
    """Raised when a template is used where a well-formed one is required."""


@dataclass(frozen=True)
class Opposition:
    """A linked feature pair; members must carry opposite polarities."""

    a: str
    b: str

    @property
    def names(self) -> Tuple[str, ...]:
        return (self.a, self.b)


@dataclass(frozen=True)
class Free:
    """An independently signed feature; exactly one polarity present."""

    name: str

    @property
    def names(self) -> Tuple[str, ...]:
        return (self.name,)


Slot = Union[Opposition, Free]


@dataclass(frozen=True)
class LanguageProfile:
    """A language's template shape: its category atom and its feature slots,
    in declaration order."""

    language: str
    category: str
    slots: Tuple[Slot, ...]
    # feature sets met under this profile -> (their one shared object, canonical
    # text): a well-formed body maps to its Template and text, a gradient
    # operand to itself and None; see validate(), shared_template(), shared_operand()
    _shared: Dict[FeatureSet, Tuple[object, Optional[str]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = self.feature_names()
        if self.category in names:
            raise TemplateError(f"profile {self.language}: category clashes with a feature")
        if len(set(names)) != len(names):
            raise TemplateError(f"profile {self.language}: duplicate slot features")
        for name in (self.category, *names):
            # template text splits on these, and reads a leading sign as a polarity
            if not name or name[0] in algebra.POLARITIES or any(c.isspace() or c in "|,{}[]" for c in name):
                raise TemplateError(f"profile {self.language}: name {name!r} cannot appear in template text")

    def feature_names(self) -> Tuple[str, ...]:
        """Unsigned inventory in declaration order (category excluded)."""
        return tuple(n for slot in self.slots for n in slot.names)


@dataclass(frozen=True)
class Template:
    """A profile reference plus a validated-or-not body."""

    profile: LanguageProfile
    body: FeatureSet

    def violations(self) -> List[str]:
        return validate(self.body, self.profile)

    def render(self) -> str:
        return canonical_render(self.body, self.profile)


def validate(body: FeatureSet, profile: LanguageProfile) -> List[str]:
    """All well-formedness violations of ``body`` under ``profile``.

    Returns an empty list when the body is a valid template: exactly the
    profile category plus, per slot, a legal sign assignment.  Never raises.

    Memoized per profile: a body found well-formed is stored with its
    canonical text and its one shared :class:`Template`, so later calls on
    it return at once.  Ill-formed bodies are never stored and are checked
    afresh each time, so the table holds at most the well-formed bodies
    actually seen (plus the few operands :func:`shared_operand` keeps).
    """
    if profile._shared.get(body, (None, None))[1] is not None:
        return []
    problems: List[str] = []
    categories = sorted(a for a in body if algebra.is_category(a))
    if categories != [profile.category]:
        problems.append(
            f"category: expected exactly {{{profile.category}}}, found "
            f"{{{', '.join(categories) or ''}}}"
        )
    known = set(profile.feature_names())
    for atom in sorted(body):
        if algebra.is_signed(atom) and algebra.base_of(atom) not in known:
            problems.append(f"feature {algebra.base_of(atom)}: not in the {profile.language} inventory")
    for slot in profile.slots:
        if isinstance(slot, Opposition):
            pa, pb = _slot_signs(body, slot.a), _slot_signs(body, slot.b)
            ok = (pa, pb) in (([POSITIVE], [NEGATIVE]), ([NEGATIVE], [POSITIVE]))
            if not ok:
                problems.append(f"slot {slot.a}|{slot.b}: needs opposite polarities, one each")
        else:
            if len(_slot_signs(body, slot.name)) != 1:
                problems.append(f"slot {slot.name}: needs exactly one polarity")
    if not problems:
        parts = [profile.category]
        for name in profile.feature_names():
            parts.append((POSITIVE if POSITIVE + name in body else NEGATIVE) + name)
        # first writer wins, so concurrent validations share one Template
        profile._shared.setdefault(body, (Template(profile, body), "{" + ", ".join(parts) + "}"))
    return problems


def _slot_signs(body: FeatureSet, name: str) -> List[str]:
    return [p for p in (POSITIVE, NEGATIVE) if p + name in body]


def canonical_render(body: FeatureSet, profile: LanguageProfile) -> str:
    """Render a body in profile declaration order, e.g. ``{N, +SG, -PL, ...}``.

    Requires a well-formed body; this is the display form used everywhere a
    template is printed or tallied, so it must be total and deterministic.
    The text is the one :func:`validate` stored in the profile's table, so a
    body already seen is rendered by one lookup.
    """
    text = profile._shared.get(body, (None, None))[1]
    if text is None:
        problems = validate(body, profile)
        if problems:
            raise TemplateError("cannot render ill-formed template: " + "; ".join(problems))
        text = profile._shared[body][1]
    return text


def shared_template(profile: LanguageProfile, body: FeatureSet) -> Template:
    """The profile's one :class:`Template` for ``body`` when it is well-formed.

    Resolved snapshots hold one result per item but only a handful of
    distinct bodies, so equal bodies share one object.  An ill-formed body
    gets a new Template that is never stored, for the caller to report.
    """
    if validate(body, profile):
        return Template(profile, body)
    return profile._shared[body][0]


def shared_operand(profile: LanguageProfile, operand: FeatureSet) -> FeatureSet:
    """The profile's one object for a gradient operand equal to ``operand``.

    Operands are category-free, so they never collide with a well-formed
    body in the profile's table.
    """
    return profile._shared.setdefault(operand, (operand, None))[0]


def render_assignment(body: FeatureSet, profile: LanguageProfile) -> str:
    """Render any full sign assignment, well-formed or not.

    Used by the candidate enumeration, whose space is mostly ill-formed.
    """
    parts = [profile.category]
    for name in profile.feature_names():
        parts.extend(p + name for p in (POSITIVE, NEGATIVE) if p + name in body)
    return "{" + ", ".join(parts) + "}"


def render_operand(operand: FeatureSet, profile: LanguageProfile) -> str:
    """Render a category-free operand set like ``{+M, -M, +F, -F}``.

    The operand lies within the profile's inventory, as a successful
    gradient step's and a solved operand always do.  Features follow
    profile declaration order; within one feature the positive member
    comes first.
    """
    parts = []
    for name in profile.feature_names():
        parts.extend(p + name for p in (POSITIVE, NEGATIVE) if p + name in operand)
    return "{" + ", ".join(parts) + "}"


def parse_template_text(text: str) -> FeatureSet:
    """Parse ``{N, +SG, -PL, ...}`` into a feature set.

    Whitespace after commas is optional.  The inverse of canonical_render on
    validated templates.
    """
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise TemplateError(f"template text must be brace-delimited: {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return algebra.EMPTY
    atoms = [algebra.parse_atom(tok) for tok in inner.split(",")]
    if len(set(atoms)) != len(atoms):
        raise TemplateError(f"duplicate atoms in {text!r}")
    return frozenset(atoms)


def make_template(profile: LanguageProfile, text: str) -> Template:
    """Build and validate a Template from text like ``{N, +SG, -PL, ...}``."""
    body = parse_template_text(text)
    t = Template(profile, body)
    problems = t.violations()
    if problems:
        raise TemplateError(f"ill-formed {profile.language} template {sorted(body)}: " + "; ".join(problems))
    return t


def enumerate_candidates(profile: LanguageProfile, well_formed_only: bool = False) -> List[FeatureSet]:
    """Every sign assignment over the profile inventory, category fixed.

    The full space has 2**(cardinality - 1) members; linked oppositions make
    most of them ill-formed, and the ``well_formed_only`` flag keeps just the
    bodies that validate.  Enumeration order is the binary counting order of
    signs, so output is deterministic.
    """
    names = profile.feature_names()
    out: List[FeatureSet] = []
    for signs in itertools.product((POSITIVE, NEGATIVE), repeat=len(names)):
        body = frozenset([profile.category, *(p + n for p, n in zip(signs, names))])
        if well_formed_only and validate(body, profile):
            continue
        out.append(body)
    return out


class InitialTemplateError(TemplateError, KeyError):
    """No initial template is given for a language and cognitive set."""

    # KeyError's str() would quote the message
    __str__ = ValueError.__str__


# -- built-in profiles and defaults ------------------------------------------
#
# Riffian nominals: three linked oppositions (number, gender, countability).
# French nominals: number and gender linked, definiteness and collectivity
# free.  These are the only slot shapes the bundled corpora instantiate.

RIFFIAN = LanguageProfile(
    language="riffian",
    category="N",
    slots=(Opposition("SG", "PL"), Opposition("M", "F"), Opposition("COL", "SING")),
)

FRENCH = LanguageProfile(
    language="french",
    category="N",
    slots=(Opposition("SG", "PL"), Opposition("M", "F"), Free("DEF"), Free("COL")),
)

BUILTIN_PROFILES: Mapping[str, LanguageProfile] = MappingProxyType(
    {p.language: p for p in (RIFFIAN, FRENCH)})

# Cognitive-set entry templates for Riffian.  C, U and NA carry the values
# recovered by the frequency heuristic over the deverbal corpus; NAdr (nouns
# of address) is read off its masculine-collective members and may be
# overridden by a corpus declaration.
COUNTABLE = "C"
UNCOUNTABLE = "U"
NOUN_OF_ACTION = "NA"
NOUN_OF_ADDRESS = "NAdr"

BUILTIN_INITIALS: Mapping[Tuple[str, str], Template] = MappingProxyType({
    ("riffian", COUNTABLE): make_template(RIFFIAN, "{N, +SG, -PL, -M, +F, -COL, +SING}"),
    ("riffian", UNCOUNTABLE): make_template(RIFFIAN, "{N, +SG, -PL, -M, +F, +COL, -SING}"),
    ("riffian", NOUN_OF_ACTION): make_template(RIFFIAN, "{N, +SG, -PL, +M, -F, -COL, +SING}"),
    ("riffian", NOUN_OF_ADDRESS): make_template(RIFFIAN, "{N, +SG, -PL, +M, -F, +COL, -SING}"),
})
