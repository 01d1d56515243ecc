"""The item store, formation edges, and the derivation bookkeeping.

A :class:`LexiconState` is an immutable snapshot: read-only tables of the
items by id, one :class:`EdgeSpec` per derived item and a stratum
(derivation depth) per item, and the frozen set of superseded ids.
``apply_formation`` is a pure transition returning a new snapshot, so
replaying an edge list over the same initial items always reproduces the
same state.  Every write goes through one builder, :class:`Draft`: a
transition makes a draft off its snapshot, inserts, and freezes it;
``corpus.load`` inserts every statement into one draft and freezes it once,
so loading a corpus is linear in its size.

Word and meaning formation comes in four kinds with different ledger
semantics:

* conversion, morphological derivation, and borrowing each add one live
  item (the base, when there is one, stays live);
* semantic widening replaces its base: the derived item enters the live
  set and the base is marked superseded -- kept for tracing, excluded
  from the live count.

Chains terminate at input heads: items declared with an explicit template,
or borrow-created items with no base.  Everything else reaches its template
through the shift engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from .algebra import FeatureSet
from .templates import LanguageProfile, Template

VERB = "V"


class LexiconError(ValueError):
    pass


class Formation(enum.Enum):
    """The four word/meaning formation processes."""

    CONVERSION = "CONV"
    BORROWING = "BORROW"
    DERIVATION = "MDERIV"
    WIDENING = "WIDEN"


_FORMATIONS: Dict[str, Formation] = {formation.value: formation for formation in Formation}


def formation_from_token(token: str) -> Formation:
    formation = _FORMATIONS.get(token)
    if formation is None:
        raise LexiconError(f"unknown formation process {token!r}")
    return formation


@dataclass(frozen=True)
class Item:
    """One lexical entry.

    ``template`` is only set on input heads; derived items resolve theirs
    through the shift engine.  ``fem_prefix``/``fem_suffix`` switch off the
    corresponding feminine exponent for nouns with asymmetric gender
    encoding.  ``surface_override`` short-circuits realization entirely;
    ``expected_surface`` is the attested form the realizer is audited
    against.
    """

    id: str
    language: str
    radical: str
    category: str = "N"
    cogset: Optional[str] = None
    meanings: FrozenSet[str] = frozenset()
    gloss: Optional[str] = None
    animate: bool = False
    recent_loan: bool = False
    typical: bool = False
    common: bool = False
    template: Optional[Template] = None
    surface_override: Optional[str] = None
    expected_surface: Optional[str] = None
    fem_prefix: bool = True
    fem_suffix: bool = True


@dataclass(frozen=True)
class EdgeSpec:
    """Construction data for one derived item.

    ``base_id`` is absent only for borrowings, which start their own chain.
    ``radical`` defaults to the base's (conversion and widening never change
    it; morphological derivation and borrowing usually supply one).
    ``expect_template`` and ``expected_surface`` are corpus expectations
    carried along for validation, inert during derivation itself.
    """

    derived_id: str
    process: Formation
    base_id: Optional[str] = None
    target: Optional[str] = None
    language: Optional[str] = None
    radical: Optional[str] = None
    gloss: Optional[str] = None
    meanings: Optional[FrozenSet[str]] = None
    animate: bool = False
    donor_gender: Optional[str] = None
    gradcond: Optional[str] = None
    surface_override: Optional[str] = None
    expected_surface: Optional[str] = None
    fem_prefix: bool = True
    fem_suffix: bool = True
    expect_template: Optional[FeatureSet] = None


@dataclass(frozen=True)
class ShiftRecord:
    """The retrospective determinant of one item's template.

    Input heads map to the distinguished EMPTY record.  For derived items
    the record carries the process (with its qualifiers), the base item's
    resolved template (None when the base is a verb or absent), the target
    cognitive set, and the base id.
    """

    process: Optional[Formation]
    base_template: Optional[Template]
    target: Optional[str]
    base_id: Optional[str]
    base_cogset: Optional[str] = None
    animate: bool = False
    donor_gender: Optional[str] = None
    gradcond: Optional[str] = None
    stratum: int = 0

    @property
    def is_empty(self) -> bool:
        return self.process is None

    def render(self) -> str:
        if self.is_empty:
            return "{}"
        base_t = self.base_template.render() if self.base_template else "—"
        return "{%s, %s, %s, %s}" % (
            self.process.value,
            base_t,
            self.target or "—",
            self.base_id or "—",
        )


EMPTY_RECORD = ShiftRecord(process=None, base_template=None, target=None, base_id=None)


@dataclass(frozen=True)
class LexiconState:
    """Immutable lexicon snapshot; all transitions return a new state.

    The tables ``items``, ``edges``, ``strata``, ``profiles`` and
    ``initials`` (the initial template of each language and cognitive set,
    by ``(language, cogset)``) are read-only views
    (``types.MappingProxyType``), ``superseded`` is a frozenset and
    ``warnings`` a tuple, so nothing can change a snapshot once it is made.
    That holds however the snapshot is built: given a plain dict, a set or
    a list, the constructor wraps a copy of the dict in a view and freezes
    the others; a table given as a view is kept.  Every write happens in
    one builder, :class:`Draft`: ``add_item`` and ``apply_formation`` on a
    snapshot make a draft off it, insert, and freeze the draft into the
    successor; on a draft they insert in place, which is how
    ``corpus.load`` builds its snapshot.

    Beside the lexicon, a snapshot keeps two private maps, left out of the
    constructor, equality and repr, so ``dataclasses.replace`` starts both
    empty; only ``draft`` and ``freeze`` hand them on.  ``engine.transfer``
    adds entries on a miss, by idempotent writes.

    * ``_resolved``: the outcome of each item resolved so far, an
      ``engine.ShiftResult`` or the failure's exception type and message.
      ``corpus.load`` resolves every noun item when it builds a snapshot,
      and ``add_item`` and ``apply_formation`` carry the parent's outcomes
      forward as a copy.  That is sound because an insert never changes an
      existing item's outcome: bases precede derivatives, and profiles
      and initials are fixed along a lineage.
    * ``_steps``: the successful gradient steps met so far, by step key
      (see ``engine._step``).  A step depends only on its key and on the
      profiles and initials, which are fixed along a lineage, so drafts
      and successors share this map itself, uncopied.
    """

    profiles: Mapping[str, LanguageProfile]
    initials: Mapping[Tuple[str, str], Template]
    items: Mapping[str, Item] = field(default_factory=dict)
    edges: Mapping[str, EdgeSpec] = field(default_factory=dict)
    superseded: FrozenSet[str] = frozenset()
    strata: Mapping[str, int] = field(default_factory=dict)
    warnings: Tuple[str, ...] = ()
    # item id -> engine.ShiftResult or (exception type, message), filled by
    # engine.transfer; see the class docstring
    _resolved: Dict[str, object] = field(default_factory=dict, init=False, repr=False, compare=False)
    # step key -> engine.ShiftResult, shared along a lineage; see the class docstring
    _steps: Dict[tuple, object] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("items", "edges", "strata", "profiles", "initials"):
            table = getattr(self, name)
            if type(table) is not MappingProxyType:
                object.__setattr__(self, name, MappingProxyType(dict(table)))
        if type(self.superseded) is not frozenset:
            object.__setattr__(self, "superseded", frozenset(self.superseded))
        if type(self.warnings) is not tuple:
            object.__setattr__(self, "warnings", tuple(self.warnings))

    # -- queries ---------------------------------------------------------

    def item(self, item_id: str) -> Item:
        try:
            return self.items[item_id]
        except KeyError:
            raise LexiconError(f"unknown item {item_id!r}") from None

    def profile_for(self, item: Item) -> LanguageProfile:
        try:
            return self.profiles[item.language]
        except KeyError:
            raise LexiconError(f"no profile for language {item.language!r}") from None

    def is_live(self, item_id: str) -> bool:
        return item_id in self.items and item_id not in self.superseded

    def live_ids(self) -> List[str]:
        return [i for i in self.items if i not in self.superseded]

    @property
    def live_count(self) -> int:
        return len(self.items) - len(self.superseded)

    def cognitive_set_members(self, cogset: str) -> List[str]:
        """Live noun items of one cognitive set, sorted by id.

        Distinct sets are disjoint and together cover every live noun, so
        iterating the declared sets enumerates the nominal lexicon exactly
        once.
        """
        return sorted(
            i for i in self.live_ids()
            if self.items[i].category != VERB and self.items[i].cogset == cogset
        )

    def cognitive_sets(self) -> List[str]:
        return sorted({
            it.cogset for i, it in self.items.items()
            if self.is_live(i) and it.cogset is not None
        })

    # -- transitions -------------------------------------------------------

    def add_item(self, item: Item) -> "LexiconState":
        """Insert one item: in place on a draft, else into a new snapshot."""
        if isinstance(self, Draft):
            return self._insert_item(item)
        return self.draft()._insert_item(item).freeze()

    def apply_formation(self, spec: EdgeSpec) -> "LexiconState":
        """Apply one formation edge and return the successor state.

        Conversion/derivation/borrowing grow the live count by exactly one;
        widening swaps the derived item in for its base.  A snapshot is
        never modified; a draft inserts in place and returns itself.
        """
        if isinstance(self, Draft):
            return self._insert_edge(spec)
        return self.draft()._insert_edge(spec).freeze()

    def draft(self) -> "Draft":
        """A private builder holding copies of this snapshot's tables; see :class:`Draft`."""
        draft = Draft(
            profiles=self.profiles, initials=self.initials, items=self.items.copy(),
            edges=self.edges.copy(), superseded=self.superseded, strata=self.strata.copy(),
            warnings=self.warnings)
        draft._resolved, draft._steps = self._resolved.copy(), self._steps
        return draft

    def derived_item(self, spec: EdgeSpec) -> Item:
        """The item ``spec`` would insert, checked against this snapshot.

        Runs every check of an edge except the ledger's (a fresh id, a live
        base) and writes nothing, so a what-if may start from a superseded
        base; ``apply_formation`` adds those two checks and the write.
        """
        if spec.donor_gender is not None and spec.process is not Formation.BORROWING:
            raise LexiconError(f"edge {spec.derived_id}: donor_gender is only meaningful on BORROW")
        base: Optional[Item] = None
        if spec.base_id is not None:
            if spec.base_id not in self.items:
                raise LexiconError(
                    f"edge {spec.derived_id}: dangling base reference {spec.base_id!r}"
                )
            base = self.items[spec.base_id]
        elif spec.process is not Formation.BORROWING:
            raise LexiconError(f"edge {spec.derived_id}: {spec.process.value} needs a base item")

        language = spec.language or (base.language if base else None)
        if language is None:
            raise LexiconError(f"edge {spec.derived_id}: borrowing needs an explicit language")
        if language not in self.profiles:
            raise LexiconError(f"edge {spec.derived_id}: no profile for language {language!r}")
        radical = spec.radical if spec.radical is not None else (base.radical if base else None)
        if radical is None:
            raise LexiconError(f"edge {spec.derived_id}: borrowing needs an explicit radical")

        target = spec.target
        if target is None:
            target = base.cogset if base else None
        if target is None:
            raise LexiconError(f"edge {spec.derived_id}: no target cognitive set")
        category = VERB if target == VERB else "N"

        meanings = spec.meanings
        if meanings is None:
            meanings = frozenset([spec.gloss]) if spec.gloss else frozenset()
            if spec.process is Formation.WIDENING and base is not None:
                meanings = base.meanings | meanings
        if spec.process is Formation.WIDENING:
            assert base is not None
            if not (meanings <= base.meanings or base.meanings <= meanings):
                raise LexiconError(
                    f"edge {spec.derived_id}: widening needs comparable meaning sets "
                    f"(base {sorted(base.meanings)} vs derived {sorted(meanings)})"
                )

        return Item(
            id=spec.derived_id,
            language=language,
            radical=radical,
            category=category,
            cogset=None if category == VERB else target,
            meanings=meanings,
            gloss=spec.gloss,
            animate=spec.animate,
            surface_override=spec.surface_override,
            expected_surface=spec.expected_surface,
            fem_prefix=spec.fem_prefix,
            fem_suffix=spec.fem_suffix,
        )


class Draft(LexiconState):
    """A snapshot under construction: the one place where tables are written.

    ``LexiconState.draft`` makes one with its own copies of the tables;
    ``add_item`` and ``apply_formation`` insert into the draft itself and
    return it, so building a lexicon of n items copies nothing per
    statement.  ``superseded`` and ``warnings`` stay the parent's frozenset
    and tuple until a widening adds to them, so a draft that widens nothing
    copies neither.  A failing insert leaves the draft as it was, because
    the insert steps run every check before their first write.  ``freeze``
    hands back a plain :class:`LexiconState` whose tables are read-only
    views of the draft's; the draft must not be used after that.
    """

    # a draft is the builder, so unlike a snapshot it may rebind its attributes
    __setattr__ = object.__setattr__

    def __post_init__(self) -> None:
        pass  # a draft keeps the writable tables it is given

    def freeze(self) -> LexiconState:
        state = LexiconState(
            profiles=self.profiles, initials=self.initials, items=MappingProxyType(self.items),
            edges=MappingProxyType(self.edges), superseded=self.superseded,
            strata=MappingProxyType(self.strata), warnings=self.warnings)
        object.__setattr__(state, "_resolved", self._resolved)
        object.__setattr__(state, "_steps", self._steps)
        return state

    def _insert_item(self, item: Item) -> "Draft":
        if item.id in self.items:
            raise LexiconError(f"duplicate item id {item.id!r}")
        if item.language not in self.profiles:
            raise LexiconError(f"item {item.id}: no profile for language {item.language!r}")
        if item.category == VERB:
            if item.cogset is not None or item.template is not None:
                raise LexiconError(f"item {item.id}: verbs carry no cognitive set or template")
        else:
            if item.cogset is None:
                raise LexiconError(f"item {item.id}: noun items need a cognitive set")
            if item.template is not None:
                if item.template.profile != self.profiles[item.language]:
                    raise LexiconError(
                        f"item {item.id}: template belongs to another language profile"
                    )
                problems = item.template.violations()
                if problems:
                    raise LexiconError(f"item {item.id}: " + "; ".join(problems))
        self.items[item.id] = item
        self.strata[item.id] = 0
        return self

    def _insert_edge(self, spec: EdgeSpec) -> "Draft":
        if spec.derived_id in self.items:
            raise LexiconError(f"duplicate item id {spec.derived_id!r}")
        if spec.base_id in self.superseded:
            raise LexiconError(f"edge {spec.derived_id}: base {spec.base_id!r} is superseded")
        derived = self.derived_item(spec)
        self.items[derived.id] = derived
        self.edges[derived.id] = spec
        self.strata[derived.id] = self.strata[spec.base_id] + 1 if spec.base_id is not None else 0
        if spec.process is Formation.WIDENING:
            base = self.items[spec.base_id]
            if isinstance(self.superseded, frozenset):
                self.superseded = set(self.superseded)  # the first widening copies it
            self.superseded.add(base.id)
            if not derived.meanings <= base.meanings:
                if isinstance(self.warnings, tuple):
                    self.warnings = list(self.warnings)
                self.warnings.append(
                    f"widen {spec.derived_id}: derived meanings strictly contain the base's")
        return self
