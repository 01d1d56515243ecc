"""Gradient rules and the template transfer machinery.

Every derived item's template is the unique solution of a gradient
condition: an equation on the symmetric difference between the base
template and the derived one.  A rule either supplies the difference
operand directly (``base Δ operand = derived``) or assigns the target
cognitive set's initial template, optionally forcing the gender calqued
from a donor language.

The default rule table:

=====  =============================================================  ================================
rule   fires on                                                       effect
=====  =============================================================  ================================
R2     widening; conversion whose derived referent is animate         Δ {} (template preserved)
R1     conversion, derived referent inanimate                         Δ {+M, -M, +F, -F} (gender flip)
R3     only by explicit ``gradcond=R3`` annotation                    Δ gender + countability flip
R4     morphological derivation; any word formation off a verb base   initial template of the target set
R5     borrowing                                                      initial template, donor gender kept
=====  =============================================================  ================================

Animacy is read off the derived item's referent: an animate base does not
block the shift (courage from man), an animate derivative does (clever from
clever one).  Rules resolve by first match over the declared order; the
built-in triggers are pairwise disjoint, and a custom registry whose
triggers can both fire on one record is rejected when it is built.
"""

from __future__ import annotations

from typing import FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from . import algebra
from ._record import Record
from .algebra import NEGATIVE, POSITIVE, FeatureSet
from .lexicon import (
    EMPTY_RECORD,
    EdgeSpec,
    Formation,
    Item,
    LexiconState,
    ShiftRecord,
    VERB,
)
from .templates import (
    InitialTemplateError,
    LanguageProfile,
    Template,
    shared_operand,
    shared_template,
)

GENDER_FLIP: FeatureSet = frozenset({"+M", "-M", "+F", "-F"})


class ShiftError(ValueError):
    pass


class NoRuleError(ShiftError):
    pass


class InputHeadError(ShiftError):
    pass


class RegistryError(ValueError):
    pass


class Clause(NamedTuple):
    """One conjunctive trigger condition over a shift record."""

    processes: FrozenSet[Formation]
    animate: Optional[bool] = None            # None matches either
    base_has_template: Optional[bool] = None  # None matches either
    base_cogsets: Optional[FrozenSet[str]] = None
    target_cogsets: Optional[FrozenSet[str]] = None

    def matches(self, record: ShiftRecord) -> bool:
        if record.process not in self.processes:
            return False
        if self.animate is not None and record.animate != self.animate:
            return False
        if self.base_has_template is not None:
            if (record.base_template is not None) != self.base_has_template:
                return False
        if self.base_cogsets is not None and record.base_cogset not in self.base_cogsets:
            return False
        if self.target_cogsets is not None and record.target not in self.target_cogsets:
            return False
        return True

    def overlaps(self, other: "Clause") -> bool:
        """Whether some record could satisfy both clauses."""
        if not self.processes & other.processes:
            return False
        for name in ("animate", "base_has_template"):
            a, b = getattr(self, name), getattr(other, name)
            if a is not None and b is not None and a != b:
                return False
        for name in ("base_cogsets", "target_cogsets"):
            sets = [s for s in (getattr(self, name), getattr(other, name)) if s is not None]
            if sets and not frozenset.intersection(*sets):  # None accepts every set
                return False
        return True


class DeltaOperand(Record):
    """Rule mode: derived = base Δ operand.

    ``fixed`` atoms are used as-is; ``flip`` names contribute both polarities
    of each listed feature the profile actually has, which keeps one rule
    usable across profiles with different countability slots.  Operands must
    be category-free.
    """

    __slots__ = _fields = ("fixed", "flip")

    def __init__(self, fixed: FeatureSet = frozenset(), flip: Tuple[str, ...] = ()) -> None:
        self._set_fields(fixed, flip)
        bad = sorted(a for a in self.fixed if algebra.is_category(a))
        if bad:
            raise RegistryError(f"gradient operand may not contain category atoms: {bad}")

    def build(self, profile: LanguageProfile) -> FeatureSet:
        if not self.flip:
            return self.fixed
        atoms = set(self.fixed)
        inventory = set(profile.feature_names())
        for name in self.flip:
            if name in inventory:
                atoms.add(POSITIVE + name)
                atoms.add(NEGATIVE + name)
        return frozenset(atoms)


class InitialAssign(NamedTuple):
    """Rule mode: derived = initial template of the target cognitive set."""

    use_donor_gender: bool = False


RuleMode = Union[DeltaOperand, InitialAssign]


class GradRule(NamedTuple):
    """One member of the gradient-condition family.

    A rule with no clauses never fires on its own and is reachable only
    through an explicit ``gradcond=<id>`` annotation on an edge.
    """

    id: str
    mode: RuleMode
    clauses: Tuple[Clause, ...] = ()

    def matches(self, record: ShiftRecord) -> bool:
        return any(c.matches(record) for c in self.clauses)


class RuleRegistry(Record):
    """First-match rule table over a declared priority order."""

    __slots__ = _fields = ("rules",)

    def __init__(self, rules: Tuple[GradRule, ...]) -> None:
        self._set_fields(rules)
        ids = [r.id for r in self.rules]
        if len(set(ids)) != len(ids):
            raise RegistryError(f"duplicate rule ids in registry: {ids}")
        for i, left in enumerate(self.rules):
            for right in self.rules[i + 1:]:
                for cl, cr in ((a, b) for a in left.clauses for b in right.clauses):
                    if cl.overlaps(cr):
                        raise RegistryError(
                            f"rules {left.id} and {right.id} have overlapping triggers"
                        )
        fixed = [
            (r.id, r.mode.fixed)
            for r in self.rules
            if isinstance(r.mode, DeltaOperand) and not r.mode.flip
        ]
        for i, (lid, lop) in enumerate(fixed):
            for rid, rop in fixed[i + 1:]:
                if lop == rop:
                    raise RegistryError(
                        f"rules {lid} and {rid} share the operand; distinct conditions "
                        "need distinct operands"
                    )

    def by_id(self, rule_id: str) -> GradRule:
        for rule in self.rules:
            if rule.id == rule_id:
                return rule
        raise NoRuleError(f"no gradient rule {rule_id!r} in the registry")

    def select(self, record: ShiftRecord) -> GradRule:
        if record.gradcond is not None:
            return self.by_id(record.gradcond)
        for rule in self.rules:
            if rule.matches(record):
                return rule
        raise NoRuleError(
            f"no gradient rule triggers on {record.render()} "
            f"(process {record.process.value if record.process else '-'})"
        )


DEFAULT_RULES = RuleRegistry((
    GradRule(
        id="R2",
        mode=DeltaOperand(fixed=frozenset()),
        clauses=(
            Clause(processes=frozenset({Formation.WIDENING}), base_has_template=True),
            Clause(processes=frozenset({Formation.CONVERSION}), animate=True, base_has_template=True),
        ),
    ),
    GradRule(
        id="R1",
        mode=DeltaOperand(fixed=GENDER_FLIP),
        clauses=(
            Clause(processes=frozenset({Formation.CONVERSION}), animate=False, base_has_template=True),
        ),
    ),
    GradRule(
        id="R3",
        mode=DeltaOperand(fixed=GENDER_FLIP, flip=("COL", "SING")),
    ),
    GradRule(
        id="R4",
        mode=InitialAssign(),
        clauses=(
            Clause(processes=frozenset({Formation.DERIVATION})),
            Clause(processes=frozenset({Formation.CONVERSION}), base_has_template=False),
        ),
    ),
    GradRule(
        id="R5",
        mode=InitialAssign(use_donor_gender=True),
        clauses=(Clause(processes=frozenset({Formation.BORROWING})),),
    ),
))


class ShiftResult(Record):
    """A resolved template together with how it was reached."""

    __slots__ = _fields = ("template", "rule_id", "operand", "stratum")

    def __init__(self, template: Template, rule_id: str, operand: Optional[FeatureSet], stratum: int) -> None:
        self._set_fields(template, rule_id, operand, stratum)


def _force_gender(body: FeatureSet, donor: str) -> FeatureSet:
    if donor not in ("M", "F"):
        raise ShiftError(f"donor gender must be M or F, got {donor!r}")
    keep = {"+M", "-F"} if donor == "M" else {"-M", "+F"}
    return (body - GENDER_FLIP) | frozenset(keep)


def apply_gradient(
    record: ShiftRecord,
    profile: LanguageProfile,
    initials: Mapping[Tuple[str, str], Template],
    rules: RuleRegistry = DEFAULT_RULES,
) -> ShiftResult:
    """Resolve one shift record to the derived template (the gradient map).

    ``initials`` maps ``(language, cogset)`` to the initial template an
    ``InitialAssign`` rule assigns.  Raises for the EMPTY record (input
    heads carry their own template), for a verb target, when no rule
    triggers, when the target set has no initial template
    (``InitialTemplateError``), and when a rule would manufacture an
    ill-formed template.
    """
    if record.is_empty:
        raise InputHeadError("input head has no computed template")
    rule = rules.select(record)
    # a verb target has no template, and an initial template needs a target set
    if record.target == VERB or (record.target is None and isinstance(rule.mode, InitialAssign)):
        raise ShiftError(f"rule {rule.id} cannot assign a template to target {record.target!r}")
    if isinstance(rule.mode, DeltaOperand):
        if record.base_template is None:
            raise ShiftError(
                f"rule {rule.id} needs a base template, but {record.render()} has none"
            )
        if record.base_template.profile != profile:
            raise ShiftError(
                f"base template belongs to {record.base_template.profile.language}, "
                f"not {profile.language}"
            )
        operand = shared_operand(profile, rule.mode.build(profile))
        body = algebra.symmetric_difference(record.base_template.body, operand)
        used: Optional[FeatureSet] = operand
    else:
        initial = initials.get((profile.language, record.target))
        if initial is None:
            raise InitialTemplateError(
                f"no initial template for cognitive set {record.target!r} in {profile.language!r}")
        body = initial.body
        if rule.mode.use_donor_gender:
            if record.donor_gender is None:
                raise ShiftError(f"rule {rule.id} needs a donor gender on {record.render()}")
            body = _force_gender(body, record.donor_gender)
        used = None
    derived = shared_template(profile, body)
    problems = derived.violations()
    if problems:
        raise ShiftError(
            f"rule {rule.id} produced an ill-formed template: " + "; ".join(problems)
        )
    return ShiftResult(template=derived, rule_id=rule.id, operand=used, stratum=record.stratum)


def shift_record(state: LexiconState, item_id: str) -> ShiftRecord:
    """The retrospective determinant of an item (the backward map): the EMPTY
    record for an input head, its edge's record (``_record``) otherwise."""
    state.item(item_id)
    edge = state.edges.get(item_id)
    return EMPTY_RECORD if edge is None else _record(state, edge)


def what_if(state: LexiconState, edge: EdgeSpec) -> Tuple[Item, ShiftRecord, ShiftResult]:
    """Derive one edge off a snapshot without adding it to the snapshot.

    Returns the item the edge would insert, its record and its resolution,
    reached by ``_step``, the step of a corpus ``derive`` line: like
    ``transfer``, it may add that step to the step memo, and it adds nothing
    else.  The ledger's checks (a fresh id, a live base) do not apply, so a
    what-if may start from a superseded base.
    """
    record = _record(state, edge)
    item = state.derived_item(edge)
    return item, record, _step(state, item, edge)


def _record(state: LexiconState, edge: EdgeSpec) -> ShiftRecord:
    """An edge's record; nothing else builds a ShiftRecord but EMPTY_RECORD.
    An unknown base raises ``unknown item``, a failing noun base its failure."""
    base_template = transfer(state, edge.base_id).template if _resolves_through(state, edge) else None
    base_cogset = state.item(edge.base_id).cogset if edge.base_id is not None else None
    return ShiftRecord(
        process=edge.process,
        base_template=base_template,
        target=edge.target if edge.target is not None else base_cogset,
        base_id=edge.base_id,
        base_cogset=base_cogset,
        animate=edge.animate,
        donor_gender=edge.donor_gender,
        gradcond=edge.gradcond,
        stratum=state.strata[edge.base_id] + 1 if edge.base_id is not None else 0,
    )


def _resolves_through(state: LexiconState, edge: Optional[EdgeSpec]) -> bool:
    """Whether an item's template depends on its base's (a noun base)."""
    return (edge is not None and edge.base_id is not None
            and state.item(edge.base_id).category != VERB)


def transfer(state: LexiconState, item_id: str) -> ShiftResult:
    """Item to template: declared for heads, gradient output otherwise.

    A lookup in the snapshot's resolution map, which ``corpus.load`` fills
    for every noun item and transitions carry forward.  The map keeps
    failures too, as their exception type and message, so a failing item
    raises a fresh exception of the same type with the same text on every
    call and is resolved once.  On a miss the map is filled without
    recursion: walk up to the nearest resolved ancestor or the chain's
    head, then resolve downward one step per item by ``_step``, which
    memoizes its gradient step.  An item whose noun base failed takes the
    base's failure, so a derivative fails with the first failure up its
    chain.  The writes are idempotent, so several threads may read one
    snapshot.
    """
    outcome = state._resolved.get(item_id)
    if outcome is None:
        outcome = _resolve(state, item_id)
    if type(outcome) is ShiftResult:
        return outcome
    kind, message = outcome
    raise kind(message)


def _resolve(state: LexiconState, item_id: str):
    """Fill the resolution map up to ``item_id``; its outcome."""
    resolved = state._resolved
    item = state.item(item_id)
    if item.category == VERB:
        raise ShiftError(f"item {item_id}: category {VERB} has no registered template inventory")
    pending = [item_id]  # the walk up to a resolved ancestor or the head
    edge = state.edges.get(item_id)
    while _resolves_through(state, edge) and edge.base_id not in resolved:
        pending.append(edge.base_id)
        edge = state.edges.get(edge.base_id)
    for current in reversed(pending):
        try:
            outcome = _step(state, state.items[current], state.edges.get(current))
        except ValueError as exc:
            # the failure as data: an exception would keep its frames alive
            outcome = (type(exc), str(exc))
        # first writer wins, so racing readers return one object per item
        outcome = resolved.setdefault(current, outcome)
    return outcome


def _step(state: LexiconState, item: Item, edge: Optional[EdgeSpec]):
    """The one gradient step: ``item``'s outcome by ``edge``, its noun base
    already resolved; a ShiftResult, or the base's failure.

    A successful gradient step depends only on its step key (the derived
    item's language, the edge's process, target and qualifiers, and the
    base's template and cogset) and on the profiles and initials, which
    are fixed along the snapshot's lineage.  So it runs once per distinct
    key, an item's or a what-if's, and later edges with that key take the
    stored result with their record's stratum.  A failing step is never
    stored: its message names the edge's own base.
    """
    if edge is None:
        if item.template is None:
            raise ShiftError(f"item {item.id}: no declared template and no derivation edge")
        return ShiftResult(template=item.template, rule_id="head", operand=None,
                           stratum=state.strata[item.id])
    base = state.items[edge.base_id] if edge.base_id is not None else None
    base_key = None
    if base is not None and base.category != VERB:
        outcome = state._resolved[edge.base_id]
        if type(outcome) is not ShiftResult:
            return outcome
        # the language and body, not the Template: hashing one walks its profile
        base_key = (outcome.template.profile.language, outcome.template.body)
    key = (item.language, edge.process, base_key, edge.target, base.cogset if base else None,
           edge.animate, edge.donor_gender, edge.gradcond)
    known = state._steps.get(key)
    if known is None:
        result = apply_gradient(_record(state, edge), state.profiles[item.language], state.initials)
        state._steps.setdefault(key, result)  # a racing reader may have stored its own
        return result
    return ShiftResult(template=known.template, rule_id=known.rule_id, operand=known.operand,
                       stratum=state.strata[edge.base_id] + 1 if base else 0)


def solve_operand(base: Template, derived: Template) -> FeatureSet:
    """Isolate the operand connecting two templates: base Δ derived.

    The returned set is the unique solution of ``base Δ p = derived``; the
    shared category atom cancels, so the operand is always category-free.
    """
    if base.profile != derived.profile:
        raise ShiftError(
            f"cannot solve across profiles ({base.profile.language} vs {derived.profile.language})"
        )
    for name, t in (("base", base), ("derived", derived)):
        problems = t.violations()
        if problems:
            raise ShiftError(f"{name} template is ill-formed: " + "; ".join(problems))
    return algebra.symmetric_difference(base.body, derived.body)


# -- phylotemplatic traces ----------------------------------------------------

class TraceNode:
    """One row of a trace: an item, the step that produced it, and its depth
    below the traced root.  Slotted; equality is identity, the repr ``object``'s."""

    __slots__ = ("item_id", "process", "rule_id", "template", "stratum", "gloss", "superseded", "depth")

    def __init__(self, item_id: str, process: Optional[Formation], rule_id: Optional[str],
                 template: Optional[Template], stratum: int, gloss: Optional[str], superseded: bool,
                 depth: int) -> None:
        self.item_id = item_id
        self.process = process
        self.rule_id = rule_id
        self.template = template
        self.stratum = stratum
        self.gloss = gloss
        self.superseded = superseded
        self.depth = depth


def _chain(state: LexiconState, item_id: str) -> List[Tuple[str, Optional[EdgeSpec]]]:
    """The item and its bases up to its chain's head, the item first, each with its edge."""
    edges = state.edges
    edge = edges.get(item_id)
    path = [(item_id, edge)]
    while edge is not None and edge.base_id is not None:
        current = edge.base_id
        edge = edges.get(current)
        path.append((current, edge))
    return path


def trace(state: LexiconState, item_id: str) -> Tuple[TraceNode, ...]:
    """An item's phylotemplatic tree, as rows in depth-first order, children by
    id: on a head, all of its descendants; on a derived item, the path from its
    head down to it.  Each node reads its resolution from the snapshot's map,
    calling ``transfer`` only on a miss or a stored failure, so a loaded snapshot
    traces a path at constant cost per node; a head's tree also pays one pass
    over the snapshot's edges.  Nodes are built item first on a path and
    children first in a tree, so a failing trace raises what its first
    ``transfer`` on the way up raises.
    """
    state.item(item_id)
    path = _chain(state, item_id)
    items, edges, strata = state.items, state.edges, state.strata
    resolved, superseded = state._resolved, state.superseded

    def node(current: str, edge: Optional[EdgeSpec], depth: int) -> TraceNode:
        item = items[current]
        if item.category == VERB:
            rule_id = template = None
        else:
            result = resolved.get(current)
            if type(result) is not ShiftResult:
                result = transfer(state, current)
            rule_id, template = result.rule_id, result.template
        return TraceNode(current, edge.process if edge else None, rule_id, template,
                         strata[current], item.gloss, current in superseded, depth)

    if len(path) > 1:
        top = len(path) - 1
        return tuple([node(current, edge, top - k) for k, (current, edge) in enumerate(path)][::-1])
    derived_of = {}
    for did, edge in edges.items():
        if edge.base_id is not None:
            derived_of.setdefault(edge.base_id, []).append(did)
    # a visit reserves its slot and comes back, after its children, to fill it
    rows: List[Optional[TraceNode]] = []
    stack: List[Tuple[str, int, Optional[int]]] = [(item_id, 0, None)]
    while stack:
        current, depth, slot = stack.pop()
        if slot is None:
            stack.append((current, depth, len(rows)))
            rows.append(None)
            kids = sorted(derived_of.get(current, ()), reverse=True)
            stack.extend((kid, depth + 1, None) for kid in kids)
        else:
            rows[slot] = node(current, edges.get(current), depth)
    return tuple(rows)


def render_trace(nodes: Sequence[TraceNode]) -> str:
    """A trace's rows, one line each, indented two spaces per level of depth.
    Each distinct template object is rendered once per call, keyed by ``id()``
    (the rows keep it alive); the step reads the member's ``_value_``, which
    skips the slower ``Enum.value`` descriptor."""
    texts = {id(None): "(no template)"}
    lines: List[str] = []
    for node in nodes:
        shown = texts.get(id(node.template))
        if shown is None:
            shown = texts[id(node.template)] = node.template.render()
        step = "head" if node.process is None else f"{node.process._value_} {node.rule_id or '-'}"
        mark = " superseded" if node.superseded else ""
        gloss = f" '{node.gloss}'" if node.gloss else ""
        lines.append(f"{'  ' * node.depth}{node.item_id}  [{step}, stratum {node.stratum}{mark}]  {shown}{gloss}")
    return "\n".join(lines)
