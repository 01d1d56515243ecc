"""The ``.tbmc`` corpus format: parse, load, validate, serialize.

One statement per line, ``#`` comments, blank lines ignored:

    profile NAME category=ATOM slots=[A|B, C|D, E]
    initial LANG.COGSET = {TEMPLATE}
    item id=.. lang=.. radical=".." [cogset=..] [template={..}] [gloss=".."]
         [animate=..] [surface=".."] [expect_surface=".."]
         [recent_loan=..] [typical=..] [common=..] [fem_prefix=none] [fem_suffix=none]
    derive id=.. base=.. via=CONV|MDERIV|WIDEN|BORROW [target=COGSET|V]
         [lang=..] [radical=".."] [animate=..] [donor_gender=M|F] [gradcond=ID]
         [gloss=".."] [surface=".."] [expect_template={..}] [expect_surface=".."]

Slot syntax ``A|B`` declares a linked opposition, a bare name a free signed
feature.  An item with neither cogset nor template is a verb.  ``base`` may
be omitted only for borrowings, which start their own chain; borrowings and
radical-changing derivations carry ``lang``/``radical`` explicitly, other
derives inherit both from the base.  ``surface`` is a hard spell-out
override; ``expect_surface`` and ``expect_template`` are expectations the
validator checks against the engine.

Forward references are forbidden (a derive's base must be declared on an
earlier line), ids are unique, and parsing is recoverable: all errors are
collected with line and column before anything is rejected.

Built-in profiles and initial templates are seeded first, so corpus
declarations override them; documents normalize to NFC with the
transliteration variants collapsed, making serialization byte-stable.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

from . import engine, realizer
from .algebra import FeatureSet
from .lexicon import (
    EdgeSpec,
    Formation,
    Item,
    LexiconState,
    VERB,
    formation_from_token,
    new_state,
)
from .realizer import MISMATCH, OVERRIDE_USED, normalize_phonetic
from .templates import (
    BUILTIN_PROFILES,
    Free,
    InitialTemplates,
    LanguageProfile,
    Opposition,
    Slot,
    Template,
    TemplateError,
    default_initials,
    parse_template_text,
)

FILE_EXTENSION = ".tbmc"


@dataclass(frozen=True)
class ParseIssue:
    line: int
    column: int
    message: str

    def render(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


class CorpusParseError(ValueError):
    def __init__(self, issues: List[ParseIssue]):
        self.issues = issues
        super().__init__("; ".join(i.render() for i in issues))


@dataclass(frozen=True)
class ProfileStmt:
    line: int
    name: str
    category: str
    slots: Tuple[Slot, ...]


@dataclass(frozen=True)
class InitialStmt:
    line: int
    language: str
    cogset: str
    body: FeatureSet


@dataclass(frozen=True)
class ItemStmt:
    line: int
    id: str
    language: str
    radical: str
    cogset: Optional[str] = None
    template: Optional[FeatureSet] = None
    gloss: Optional[str] = None
    animate: bool = False
    recent_loan: bool = False
    typical: bool = False
    common: bool = False
    surface: Optional[str] = None
    expect_surface: Optional[str] = None
    fem_prefix: bool = True
    fem_suffix: bool = True


@dataclass(frozen=True)
class DeriveStmt:
    line: int
    id: str
    via: Formation
    base: Optional[str] = None
    target: Optional[str] = None
    language: Optional[str] = None
    radical: Optional[str] = None
    gloss: Optional[str] = None
    animate: bool = False
    donor_gender: Optional[str] = None
    gradcond: Optional[str] = None
    surface: Optional[str] = None
    expect_template: Optional[FeatureSet] = None
    expect_surface: Optional[str] = None
    fem_prefix: bool = True
    fem_suffix: bool = True


Statement = Union[ProfileStmt, InitialStmt, ItemStmt, DeriveStmt]


@dataclass(frozen=True)
class CorpusDocument:
    statements: Tuple[Statement, ...]
    issues: Tuple[ParseIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues

    def structurally_equal(self, other: "CorpusDocument") -> bool:
        """Equality up to line numbers; the serialize round-trip law."""
        mine = [replace(s, line=0) for s in self.statements]
        theirs = [replace(s, line=0) for s in other.statements]
        return mine == theirs


# -- tokenizing ----------------------------------------------------------------

def _strip_comment(raw: str) -> str:
    if "#" not in raw:
        return raw
    depth = 0
    in_quote = False
    for pos, ch in enumerate(raw):
        if in_quote:
            in_quote = ch != '"'
        elif ch == '"':
            in_quote = True
        elif ch in "{[":
            depth += 1
        elif ch in "}]":
            depth = max(0, depth - 1)
        elif ch == "#" and depth == 0:
            return raw[:pos]
    return raw


# ``\s`` matches exactly the characters for which ``str.isspace()`` is true
_SPACES = re.compile(r"\s*")
_SPACE = re.compile(r"\s")
_BARE = re.compile(r"\S*")


def _scan_fields(text: str, line: int, offset: int, issues: List[ParseIssue]) -> List[Tuple[str, str, int]]:
    """Split ``key=value`` fields; values may be quoted, braced or bracketed."""
    fields: List[Tuple[str, str, int]] = []
    n = len(text)
    pos = _SPACES.match(text).end()
    while pos < n:
        start = pos
        eq = text.find("=", pos)
        if eq < 0 or _SPACE.search(text, pos, eq):
            issues.append(ParseIssue(line, offset + pos + 1, f"expected key=value, found {text[pos:].split()[0]!r}"))
            return fields
        key = text[pos:eq]
        pos = eq + 1
        if pos >= n:
            issues.append(ParseIssue(line, offset + pos, f"missing value for {key!r}"))
            return fields
        opener = text[pos]
        if opener == '"':
            end = text.find('"', pos + 1)
            if end < 0:
                issues.append(ParseIssue(line, offset + pos + 1, f"unterminated string for {key!r}"))
                return fields
            value = text[pos + 1:end]
            pos = end + 1
        elif opener in "{[":
            closer = "}" if opener == "{" else "]"
            end = text.find(closer, pos + 1)
            if end < 0:
                issues.append(ParseIssue(line, offset + pos + 1, f"unterminated {opener!r} value for {key!r}"))
                return fields
            value = text[pos:end + 1]
            pos = end + 1
        else:
            end = _BARE.match(text, pos).end()
            value = text[pos:end]
            pos = end
        fields.append((key, value, offset + start + 1))
        pos = _SPACES.match(text, pos).end()
    return fields


def _fields_to_dict(
    fields: List[Tuple[str, str, int]],
    allowed: Tuple[str, ...],
    line: int,
    issues: List[ParseIssue],
) -> Dict[str, Tuple[str, int]]:
    out: Dict[str, Tuple[str, int]] = {}
    for key, value, col in fields:
        if key not in allowed:
            issues.append(ParseIssue(line, col, f"unknown key {key!r}"))
            continue
        if key in out:
            issues.append(ParseIssue(line, col, f"duplicate key {key!r}"))
            continue
        out[key] = (value, col)
    return out


def _bool(raw: str, key: str, line: int, col: int, issues: List[ParseIssue]) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    issues.append(ParseIssue(line, col, f"{key} must be true or false, got {raw!r}"))
    return False


def _switch(raw: str, key: str, line: int, col: int, issues: List[ParseIssue]) -> bool:
    # exponent-suppression switches: only the literal "none" turns one off
    if raw == "none":
        return False
    issues.append(ParseIssue(line, col, f"{key} accepts only 'none', got {raw!r}"))
    return True


def _template_value(
    raw: str, line: int, col: int, issues: List[ParseIssue], templates: Dict[str, FeatureSet],
) -> Optional[FeatureSet]:
    """A template body; ``templates`` holds the bodies one ``parse`` call has read."""
    body = templates.get(raw)
    if body is not None:
        return body
    try:
        body = templates[raw] = parse_template_text(raw)
    except ValueError as exc:
        # failures are not memoized: each one reports its own column
        issues.append(ParseIssue(line, col, str(exc)))
        return None
    return body


_ITEM_KEYS = (
    "id", "lang", "radical", "cogset", "template", "gloss", "animate",
    "surface", "expect_surface", "recent_loan", "typical", "common",
    "fem_prefix", "fem_suffix",
)
_DERIVE_KEYS = (
    "id", "base", "via", "target", "lang", "radical", "gloss", "animate",
    "donor_gender", "gradcond", "surface", "expect_template", "expect_surface",
    "fem_prefix", "fem_suffix",
)


def _prescan_ids(text: str) -> Dict[str, int]:
    """First declaration line of every item/derive id, for error messages."""
    ids: Dict[str, int] = {}
    throwaway: List[ParseIssue] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw).strip()
        head, _, rest = stripped.partition(" ")
        if head not in ("item", "derive"):
            continue
        for key, value, _ in _scan_fields(rest, line_no, 0, throwaway):
            if key == "id":
                ids.setdefault(value, line_no)
                break
    return ids


def parse(text: str) -> CorpusDocument:
    """Parse corpus text; all problems are collected, nothing raises."""
    issues: List[ParseIssue] = []
    statements: List[Statement] = []
    declared: Dict[str, int] = {}  # item/derive id -> line
    templates: Dict[str, FeatureSet] = {}  # template text -> body, for this call only
    all_ids = functools.cache(lambda: _prescan_ids(text))  # scanned once an undeclared base needs it
    profiles_seen: Dict[str, int] = {}
    initials_seen: Dict[Tuple[str, str], int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw).strip()
        if not stripped:
            continue
        head, _, rest = stripped.partition(" ")
        body_offset = raw.find(stripped) + len(head) + 1

        if head == "profile":
            stmt = _parse_profile(rest, line_no, body_offset, issues)
            if stmt is not None:
                if stmt.name in profiles_seen:
                    issues.append(ParseIssue(
                        line_no, 1,
                        f"profile {stmt.name!r} already declared at line {profiles_seen[stmt.name]}"))
                else:
                    profiles_seen[stmt.name] = line_no
                    statements.append(stmt)
        elif head == "initial":
            stmt = _parse_initial(rest, line_no, body_offset, issues, templates)
            if stmt is not None:
                key = (stmt.language, stmt.cogset)
                if key in initials_seen:
                    issues.append(ParseIssue(
                        line_no, 1,
                        f"initial {stmt.language}.{stmt.cogset} already declared at line {initials_seen[key]}"))
                else:
                    initials_seen[key] = line_no
                    statements.append(stmt)
        elif head == "item":
            stmt = _parse_item(rest, line_no, body_offset, issues, templates)
            if stmt is not None and _check_id(stmt.id, line_no, declared, issues):
                statements.append(stmt)
        elif head == "derive":
            stmt = _parse_derive(rest, line_no, body_offset, issues, templates, declared, all_ids)
            if stmt is not None and _check_id(stmt.id, line_no, declared, issues):
                statements.append(stmt)
        else:
            issues.append(ParseIssue(line_no, 1, f"unknown statement {head!r}"))

    return CorpusDocument(statements=tuple(statements), issues=tuple(issues))


def _check_id(item_id: str, line: int, declared: Dict[str, int], issues: List[ParseIssue]) -> bool:
    if item_id in declared:
        issues.append(ParseIssue(
            line, 1, f"id {item_id!r} already declared at line {declared[item_id]}"))
        return False
    declared[item_id] = line
    return True


def _parse_profile(rest: str, line: int, offset: int, issues: List[ParseIssue]) -> Optional[ProfileStmt]:
    name, _, tail = rest.strip().partition(" ")
    if not name or "=" in name:
        issues.append(ParseIssue(line, offset, "profile needs a name before its keys"))
        return None
    fields = _fields_to_dict(
        _scan_fields(tail, line, offset + len(name) + 1, issues),
        ("category", "slots"), line, issues)
    if "category" not in fields or "slots" not in fields:
        issues.append(ParseIssue(line, offset, "profile needs category= and slots=[...]"))
        return None
    raw_slots, col = fields["slots"]
    if not (raw_slots.startswith("[") and raw_slots.endswith("]")):
        issues.append(ParseIssue(line, col, "slots must be bracketed, e.g. slots=[SG|PL, DEF]"))
        return None
    slots: List[Slot] = []
    for part in raw_slots[1:-1].split(","):
        part = part.strip()
        if not part:
            continue
        if "|" in part:
            a, _, b = part.partition("|")
            slots.append(Opposition(a.strip(), b.strip()))
        else:
            slots.append(Free(part))
    try:
        LanguageProfile(name, fields["category"][0], tuple(slots))
    except ValueError as exc:
        issues.append(ParseIssue(line, col, str(exc)))
        return None
    return ProfileStmt(line=line, name=name, category=fields["category"][0], slots=tuple(slots))


def _parse_initial(
    rest: str, line: int, offset: int, issues: List[ParseIssue], templates: Dict[str, FeatureSet],
) -> Optional[InitialStmt]:
    lhs, eq, rhs = rest.partition("=")
    if not eq:
        issues.append(ParseIssue(line, offset, "initial needs the form LANG.COGSET = {TEMPLATE}"))
        return None
    ref = lhs.strip()
    if "." not in ref:
        issues.append(ParseIssue(line, offset, f"initial reference {ref!r} must be LANG.COGSET"))
        return None
    language, _, cogset = ref.partition(".")
    body = _template_value(rhs.strip(), line, offset, issues, templates)
    if body is None:
        return None
    return InitialStmt(line=line, language=language, cogset=cogset, body=body)


class _Fields:
    """Typed accessors over scanned key=value pairs for one statement."""

    def __init__(self, fields: Dict[str, Tuple[str, int]], line: int, issues: List[ParseIssue],
                 templates: Dict[str, FeatureSet]):
        self.fields = fields
        self.line = line
        self.issues = issues
        self.templates = templates

    def __contains__(self, key: str) -> bool:
        return key in self.fields

    def raw(self, key: str) -> Optional[str]:
        return self.fields[key][0] if key in self.fields else None

    def text(self, key: str) -> Optional[str]:
        value = self.raw(key)
        return unicodedata.normalize("NFC", value) if value is not None else None

    def phonetic(self, key: str) -> Optional[str]:
        value = self.raw(key)
        return normalize_phonetic(value) if value is not None else None

    def boolean(self, key: str) -> bool:
        if key not in self.fields:
            return False
        value, col = self.fields[key]
        return _bool(value, key, self.line, col, self.issues)

    def switch(self, key: str) -> bool:
        if key not in self.fields:
            return True
        value, col = self.fields[key]
        return _switch(value, key, self.line, col, self.issues)

    def template(self, key: str) -> Optional[FeatureSet]:
        if key not in self.fields:
            return None
        value, col = self.fields[key]
        return _template_value(value, self.line, col, self.issues, self.templates)


def _parse_item(
    rest: str, line: int, offset: int, issues: List[ParseIssue], templates: Dict[str, FeatureSet],
) -> Optional[ItemStmt]:
    scanned = _fields_to_dict(_scan_fields(rest, line, offset, issues), _ITEM_KEYS, line, issues)
    missing = [k for k in ("id", "lang", "radical") if k not in scanned]
    if missing:
        issues.append(ParseIssue(line, offset, f"item is missing {', '.join(missing)}"))
        return None
    f = _Fields(scanned, line, issues, templates)
    template = f.template("template")
    if "template" in f and template is None:
        return None
    return ItemStmt(
        line=line,
        id=f.raw("id"),
        language=f.raw("lang"),
        radical=f.phonetic("radical"),
        cogset=f.raw("cogset"),
        template=template,
        gloss=f.text("gloss"),
        animate=f.boolean("animate"),
        recent_loan=f.boolean("recent_loan"),
        typical=f.boolean("typical"),
        common=f.boolean("common"),
        surface=f.phonetic("surface"),
        expect_surface=f.phonetic("expect_surface"),
        fem_prefix=f.switch("fem_prefix"),
        fem_suffix=f.switch("fem_suffix"),
    )


def _parse_derive(
    rest: str,
    line: int,
    offset: int,
    issues: List[ParseIssue],
    templates: Dict[str, FeatureSet],
    declared: Dict[str, int],
    all_ids: Callable[[], Dict[str, int]],
) -> Optional[DeriveStmt]:
    scanned = _fields_to_dict(_scan_fields(rest, line, offset, issues), _DERIVE_KEYS, line, issues)
    missing = [k for k in ("id", "via") if k not in scanned]
    if missing:
        issues.append(ParseIssue(line, offset, f"derive is missing {', '.join(missing)}"))
        return None
    f = _Fields(scanned, line, issues, templates)
    try:
        via = formation_from_token(f.raw("via"))
    except ValueError as exc:
        issues.append(ParseIssue(line, scanned["via"][1], str(exc)))
        return None

    base = f.raw("base")
    if base is None and via is not Formation.BORROWING:
        issues.append(ParseIssue(line, offset, f"{via.value} derives need base=; only BORROW may omit it"))
        return None
    if base is not None and base not in declared:
        later = all_ids()
        if base in later:
            message = (
                f"forward reference: base {base!r} is declared at line {later[base]}, "
                f"after this derive at line {line}"
            )
        else:
            message = f"base {base!r} is never declared"
        issues.append(ParseIssue(line, scanned["base"][1], message))
        return None

    expect_template = f.template("expect_template")
    if "expect_template" in f and expect_template is None:
        return None
    donor = f.raw("donor_gender")
    if donor is not None and donor not in ("M", "F"):
        issues.append(ParseIssue(line, scanned["donor_gender"][1], f"donor_gender must be M or F, got {donor!r}"))
        return None
    if donor is not None and via is not Formation.BORROWING:
        issues.append(ParseIssue(line, scanned["donor_gender"][1], "donor_gender is only meaningful on BORROW"))
        return None
    return DeriveStmt(
        line=line,
        id=f.raw("id"),
        via=via,
        base=base,
        target=f.raw("target"),
        language=f.raw("lang"),
        radical=f.phonetic("radical"),
        gloss=f.text("gloss"),
        animate=f.boolean("animate"),
        donor_gender=donor,
        gradcond=f.raw("gradcond"),
        surface=f.phonetic("surface"),
        expect_template=expect_template,
        expect_surface=f.phonetic("expect_surface"),
        fem_prefix=f.switch("fem_prefix"),
        fem_suffix=f.switch("fem_suffix"),
    )


# -- loading -------------------------------------------------------------------

@dataclass
class LoadResult:
    state: LexiconState
    document: CorpusDocument
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and self.document.ok


def load(document: CorpusDocument, rules: Optional[object] = None) -> LoadResult:
    """Build a lexicon state from a parsed document.

    Built-in profiles and initial templates are seeded first; corpus
    declarations override them, and a declaration equal to a built-in
    profile reuses the built-in object, with the tables it has filled.
    Statement-level failures are collected with their line numbers rather
    than aborting the rest of the load; a failing statement leaves nothing
    behind.  The statements are inserted in place into one private
    :class:`~tbmc.lexicon.Draft`, returned frozen as a plain
    ``LexiconState``, so load is linear in the corpus size.

    Every noun item is then resolved once, in insertion order, so each
    resolution is one gradient step off its already resolved base; the
    snapshot and the snapshots derived from it answer ``engine.transfer``
    by lookup.  Items that fail to resolve, and their derivatives, are left
    unresolved for ``validate`` and the CLI to report.
    """
    profiles: Dict[str, LanguageProfile] = dict(BUILTIN_PROFILES)
    initials: InitialTemplates = default_initials()
    errors: List[str] = []

    for stmt in document.statements:
        if isinstance(stmt, ProfileStmt):
            profiles[stmt.name] = _declared_profile(stmt)
    for stmt in document.statements:
        if isinstance(stmt, InitialStmt):
            if stmt.language not in profiles:
                errors.append(f"line {stmt.line}: initial for unknown language {stmt.language!r}")
                continue
            try:
                initials.register(stmt.language, stmt.cogset, Template(profiles[stmt.language], stmt.body))
            except TemplateError as exc:
                errors.append(f"line {stmt.line}: {exc}")

    draft = new_state(profiles, initials, rules=rules).draft()
    for stmt in document.statements:
        try:
            if isinstance(stmt, ItemStmt):
                draft.add_item(_to_item(stmt, profiles))
            elif isinstance(stmt, DeriveStmt):
                draft.apply_formation(_to_edge(stmt))
        except ValueError as exc:
            errors.append(f"line {stmt.line}: {exc}")
    state = draft.freeze()
    _resolve_all(state)  # failures are reported again by validate and the CLI
    return LoadResult(state=state, document=document, errors=errors)


def _resolve_all(state: LexiconState) -> Dict[str, str]:
    """Resolve every noun item in insertion order; the failures' messages by item.

    An item whose noun base failed fails with the base's message and is not
    walked again, so a failing chain costs one walk: ``engine.transfer``
    raises the first failure at the top of the chain, which is the base's.
    """
    failed: Dict[str, str] = {}
    for item_id, item in state.items.items():
        if item.category == VERB:
            continue
        edge = state.edges.get(item_id)
        if edge is not None and edge.base_id in failed:
            failed[item_id] = failed[edge.base_id]
            continue
        try:
            engine.transfer(state, item_id)
        except ValueError as exc:
            failed[item_id] = str(exc)
    return failed


def _declared_profile(stmt: ProfileStmt) -> LanguageProfile:
    declared = LanguageProfile(stmt.name, stmt.category, stmt.slots)
    builtin = BUILTIN_PROFILES.get(stmt.name)
    return builtin if builtin == declared else declared


def _to_item(stmt: ItemStmt, profiles: Dict[str, LanguageProfile]) -> Item:
    template = None
    if stmt.template is not None:
        if stmt.language not in profiles:
            raise TemplateError(f"no profile for language {stmt.language!r}")
        template = Template(profiles[stmt.language], stmt.template)
    category = VERB if stmt.cogset is None and template is None else "N"
    return Item(
        id=stmt.id,
        language=stmt.language,
        radical=stmt.radical,
        category=category,
        cogset=stmt.cogset,
        meanings=frozenset([stmt.gloss]) if stmt.gloss else frozenset(),
        gloss=stmt.gloss,
        animate=stmt.animate,
        recent_loan=stmt.recent_loan,
        typical=stmt.typical,
        common=stmt.common,
        template=template,
        surface_override=stmt.surface,
        expected_surface=stmt.expect_surface,
        fem_prefix=stmt.fem_prefix,
        fem_suffix=stmt.fem_suffix,
    )


def _to_edge(stmt: DeriveStmt) -> EdgeSpec:
    return EdgeSpec(
        derived_id=stmt.id,
        process=stmt.via,
        base_id=stmt.base,
        target=stmt.target,
        language=stmt.language,
        radical=stmt.radical,
        gloss=stmt.gloss,
        animate=stmt.animate,
        donor_gender=stmt.donor_gender,
        gradcond=stmt.gradcond,
        surface_override=stmt.surface,
        expected_surface=stmt.expect_surface,
        fem_prefix=stmt.fem_prefix,
        fem_suffix=stmt.fem_suffix,
        expect_template=stmt.expect_template,
    )


# -- validation ----------------------------------------------------------------

@dataclass(frozen=True)
class CheckRow:
    kind: str  # "template" or "surface"
    item_id: str
    expected: str
    actual: str
    ok: bool
    via: str  # rule id or audit classification


@dataclass(frozen=True)
class ValidationReport:
    errors: Tuple[str, ...]
    rows: Tuple[CheckRow, ...]
    warnings: Tuple[str, ...]
    live_count: int
    item_count: int

    @property
    def template_rows(self) -> Tuple[CheckRow, ...]:
        return tuple(r for r in self.rows if r.kind == "template")

    @property
    def surface_rows(self) -> Tuple[CheckRow, ...]:
        return tuple(r for r in self.rows if r.kind == "surface")

    @property
    def mismatches(self) -> Tuple[CheckRow, ...]:
        return tuple(r for r in self.rows if not r.ok)

    @property
    def passed(self) -> bool:
        return not self.errors and not self.mismatches

    def render(self) -> str:
        lines: List[str] = []
        for err in self.errors:
            lines.append(f"error: {err}")
        for row in self.rows:
            status = "ok      " if row.ok else "MISMATCH"
            lines.append(f"{status}  {row.kind:8s}  {row.item_id:14s}  {row.actual}  [{row.via}]")
            if not row.ok:
                lines.append(f"          expected: {row.expected}")
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        t_all, t_bad = len(self.template_rows), sum(1 for r in self.template_rows if not r.ok)
        s_rows = self.surface_rows
        s_rule = sum(1 for r in s_rows if r.via == "rule-match")
        s_over = sum(1 for r in s_rows if r.via == OVERRIDE_USED)
        s_bad = sum(1 for r in s_rows if not r.ok)
        lines.append(f"items: {self.item_count} ({self.live_count} live)")
        lines.append(f"template expectations: {t_all} checked, {t_all - t_bad} matched")
        lines.append(
            f"surface expectations: {len(s_rows)} checked, {s_rule} rule-matched, "
            f"{s_over} via override, {s_bad} mismatched")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def validate(document: CorpusDocument, rules: Optional[object] = None) -> ValidationReport:
    """Load a document, resolve every item, and check all expectations.

    Template expectations compare canonical renderings of the expected and
    resolved bodies; surface expectations go through the realization audit,
    so overrides are reported as overrides and never as rule output.
    """
    loaded = load(document, rules=rules)
    state = loaded.state
    errors = list(loaded.errors)
    rows: List[CheckRow] = []

    for item_id, message in _resolve_all(state).items():
        prefix = f"item {item_id}: "
        errors.append(message if message.startswith(prefix) else prefix + message)

    for item_id, edge in state.edges.items():
        if edge.expect_template is None or item_id not in state.items:
            continue
        item = state.items[item_id]
        try:
            profile = state.profile_for(item)
            expected = Template(profile, edge.expect_template)
            expected_text = expected.render()
        except ValueError as exc:
            errors.append(f"item {item_id}: bad expected template: {exc}")
            continue
        try:
            actual = engine.transfer(state, item_id).template
        except ValueError:
            continue  # already reported above
        rows.append(CheckRow(
            kind="template",
            item_id=item_id,
            expected=expected_text,
            actual=actual.render(),
            ok=actual.body == expected.body,
            via=engine.transfer(state, item_id).rule_id,
        ))

    if not errors:
        audit = realizer.realization_audit(state)
        for entry in audit.entries:
            rows.append(CheckRow(
                kind="surface",
                item_id=entry.item_id,
                expected=entry.expected,
                actual=entry.produced,
                ok=entry.classification != MISMATCH,
                via=entry.classification,
            ))

    return ValidationReport(
        errors=tuple(errors),
        rows=tuple(rows),
        warnings=state.warnings,
        live_count=state.live_count,
        item_count=len(state.items),
    )


# -- serialization ---------------------------------------------------------------

def serialize(document: CorpusDocument) -> str:
    """Canonical text for a document; parse(serialize(parse(x))) is
    structurally equal to parse(x).  LF line endings, NFC throughout."""
    profiles = dict(BUILTIN_PROFILES)
    languages: Dict[str, Optional[str]] = {}
    for stmt in document.statements:
        if isinstance(stmt, ProfileStmt):
            profiles[stmt.name] = _declared_profile(stmt)
        elif isinstance(stmt, ItemStmt):
            languages[stmt.id] = stmt.language
        elif isinstance(stmt, DeriveStmt):
            languages[stmt.id] = stmt.language or languages.get(stmt.base)

    lines: List[str] = []
    for stmt in document.statements:
        if isinstance(stmt, ProfileStmt):
            slots = ", ".join(
                f"{s.a}|{s.b}" if isinstance(s, Opposition) else s.name for s in stmt.slots
            )
            lines.append(f"profile {stmt.name} category={stmt.category} slots=[{slots}]")
        elif isinstance(stmt, InitialStmt):
            body = _render_body(stmt.body, profiles.get(stmt.language))
            lines.append(f"initial {stmt.language}.{stmt.cogset} = {body}")
        elif isinstance(stmt, ItemStmt):
            lines.append("item " + " ".join(_item_fields(stmt, profiles)))
        else:
            profile = profiles.get(languages.get(stmt.id) or "")
            lines.append("derive " + " ".join(_derive_fields(stmt, profile)))
    return "\n".join(lines) + "\n"


def _render_body(body: FeatureSet, profile: Optional[LanguageProfile]) -> str:
    if profile is not None:
        try:
            return Template(profile, body).render()
        except ValueError:
            pass
    return "{" + ", ".join(sorted(body)) + "}"


def _item_fields(stmt: ItemStmt, profiles: Dict[str, LanguageProfile]) -> List[str]:
    parts = [f"id={stmt.id}", f"lang={stmt.language}", f'radical="{stmt.radical}"']
    if stmt.cogset is not None:
        parts.append(f"cogset={stmt.cogset}")
    if stmt.template is not None:
        parts.append(f"template={_render_body(stmt.template, profiles.get(stmt.language))}")
    if stmt.gloss is not None:
        parts.append(f'gloss="{stmt.gloss}"')
    if stmt.animate:
        parts.append("animate=true")
    for flag in ("recent_loan", "typical", "common"):
        if getattr(stmt, flag):
            parts.append(f"{flag}=true")
    if not stmt.fem_prefix:
        parts.append("fem_prefix=none")
    if not stmt.fem_suffix:
        parts.append("fem_suffix=none")
    if stmt.surface is not None:
        parts.append(f'surface="{stmt.surface}"')
    if stmt.expect_surface is not None:
        parts.append(f'expect_surface="{stmt.expect_surface}"')
    return parts


def _derive_fields(stmt: DeriveStmt, profile: Optional[LanguageProfile]) -> List[str]:
    parts = [f"id={stmt.id}"]
    if stmt.base is not None:
        parts.append(f"base={stmt.base}")
    parts.append(f"via={stmt.via.value}")
    if stmt.target is not None:
        parts.append(f"target={stmt.target}")
    if stmt.language is not None:
        parts.append(f"lang={stmt.language}")
    if stmt.radical is not None:
        parts.append(f'radical="{stmt.radical}"')
    if stmt.gloss is not None:
        parts.append(f'gloss="{stmt.gloss}"')
    if stmt.animate:
        parts.append("animate=true")
    if stmt.donor_gender is not None:
        parts.append(f"donor_gender={stmt.donor_gender}")
    if stmt.gradcond is not None:
        parts.append(f"gradcond={stmt.gradcond}")
    if not stmt.fem_prefix:
        parts.append("fem_prefix=none")
    if not stmt.fem_suffix:
        parts.append("fem_suffix=none")
    if stmt.surface is not None:
        parts.append(f'surface="{stmt.surface}"')
    if stmt.expect_template is not None:
        parts.append(f"expect_template={_render_body(stmt.expect_template, profile)}")
    if stmt.expect_surface is not None:
        parts.append(f'expect_surface="{stmt.expect_surface}"')
    return parts


def load_path(path, rules: Optional[object] = None) -> LoadResult:
    """Parse and load a corpus file; parse issues raise CorpusParseError."""
    with open(path, encoding="utf-8") as handle:
        document = parse(handle.read())
    if not document.ok:
        raise CorpusParseError(list(document.issues))
    return load(document, rules=rules)
