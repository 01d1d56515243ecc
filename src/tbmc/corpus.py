"""The ``.tbmc`` corpus format: parse, load, validate, serialize.

One statement per line, ``#`` comments, blank lines ignored; whitespace
separates the keyword and the fields:

    profile NAME category=ATOM slots=[A|B, C|D, E]
    initial LANG.COGSET = {TEMPLATE}
    item id=.. lang=.. radical=".." [cogset=..] [template={..}] [gloss=".."]
         [animate=..] [recent_loan=..] [typical=..] [common=..]
         [fem_prefix=none] [fem_suffix=none] [surface=".."] [expect_surface=".."]
    derive id=.. base=.. via=CONV|MDERIV|WIDEN|BORROW [target=COGSET|V]
         [lang=..] [radical=".."] [gloss=".."] [animate=..] [donor_gender=M|F]
         [gradcond=ID] [fem_prefix=none] [fem_suffix=none] [surface=".."]
         [expect_template={..}] [expect_surface=".."]

The keys of ``item`` and ``derive`` lines are defined once, in the key
tables ``_ITEM_KEYS`` and ``_DERIVE_KEYS``: the sketch above summarizes
them.  Parse and serialize read those tables, and a statement carries the
lexicon's own :class:`~tbmc.lexicon.Item` or :class:`~tbmc.lexicon.EdgeSpec`
and its line number; load binds an item's template body to its profile and
otherwise takes them as they are.

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
from typing import Callable, Container, Dict, List, NamedTuple, Optional, Tuple, Union

from . import engine, realizer
from .algebra import FeatureSet
from .lexicon import (
    EdgeSpec,
    Formation,
    Item,
    LexiconState,
    VERB,
    formation_from_token,
)
from .realizer import MISMATCH, OVERRIDE_USED, normalize_phonetic
from .templates import (
    BUILTIN_INITIALS,
    BUILTIN_PROFILES,
    Free,
    LanguageProfile,
    Opposition,
    Slot,
    Template,
    TemplateError,
    canonical_render,
    parse_template_text,
)


class ParseIssue(NamedTuple):
    """One problem found while parsing, at its 1-based line and column."""

    line: int
    column: int
    message: str

    def render(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


class CorpusParseError(ValueError):
    def __init__(self, issues: List[ParseIssue]):
        self.issues = issues
        super().__init__("; ".join(i.render() for i in issues))


class ProfileStmt(NamedTuple):
    """A ``profile`` line and the profile it declares: the built-in profile
    object when the two are equal, so its filled tables are reused."""

    profile: LanguageProfile


class InitialStmt(NamedTuple):
    """An ``initial`` line: the initial template body of one cognitive set of a
    language, bare until ``load`` binds it to the language's profile."""

    line: int
    language: str
    cogset: str
    body: FeatureSet


class ItemStmt(NamedTuple):
    """An ``item`` line: its item, and its template body bare until ``load``
    binds it to the item's profile."""

    line: int
    item: Item
    template: Optional[FeatureSet]


class DeriveStmt(NamedTuple):
    """A ``derive`` line: the formation edge that ``load`` applies."""

    line: int
    edge: EdgeSpec


Statement = Union[ProfileStmt, InitialStmt, ItemStmt, DeriveStmt]


class CorpusDocument(NamedTuple):
    """A parsed corpus: a statement per line that could be kept, in file
    order, and every issue found on the way."""

    statements: Tuple[Statement, ...]
    issues: Tuple[ParseIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues


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
# one well-formed field and the whitespace after it: the key, then the text
# of a quoted value, or a braced, bracketed or bare value, or an empty one
# before whitespace
_FIELD = re.compile(r'([^\s=]*)=(?:"([^"]*)"|(\{[^}]*\}|\[[^\]]*\]|(?!["{\[])\S+|(?=\s)))\s*')


def _scan_fields(text: str, line: int, offset: int, issues: List[ParseIssue]) -> List[Tuple[str, str, int]]:
    """Split ``key=value`` fields; values may be quoted, braced or bracketed."""
    fields: List[Tuple[str, str, int]] = []
    n = len(text)
    pos = _SPACES.match(text).end()
    match = _FIELD.match
    while pos < n:
        field_match = match(text, pos)
        if field_match is None:
            issues.append(_field_issue(text, pos, line, offset))
            return fields
        key, quoted, value = field_match.groups()
        fields.append((key, value if quoted is None else quoted, offset + pos + 1))
        pos = field_match.end()
    return fields


def _field_issue(text: str, pos: int, line: int, offset: int) -> ParseIssue:
    """Why no well-formed field starts at ``pos``."""
    eq = text.find("=", pos)
    if eq < 0 or _SPACE.search(text, pos, eq):
        return ParseIssue(line, offset + pos + 1, f"expected key=value, found {text[pos:].split()[0]!r}")
    key, pos = text[pos:eq], eq + 1
    if pos >= len(text):
        return ParseIssue(line, offset + pos, f"missing value for {key!r}")
    # only a quote, brace or bracket that never closes stops a value here
    opener = text[pos]
    if opener == '"':
        return ParseIssue(line, offset + pos + 1, f"unterminated string for {key!r}")
    return ParseIssue(line, offset + pos + 1, f"unterminated {opener!r} value for {key!r}")


def _fields_to_dict(
    fields: List[Tuple[str, str, int]],
    allowed: Container[str],
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


# -- the key tables --------------------------------------------------------------
#
# One row per key of an ``item`` or ``derive`` line: the key, the ``Item`` or
# ``EdgeSpec`` attribute it fills, how its value is read and written, the
# value of an absent key, and whether the key is required.  Parse and
# serialize read these tables, load takes the objects they fill, and nothing
# else lists the keys; a table's order is the order in which ``serialize``
# writes its keys.

class _BadFlag(ValueError):
    """A bad true/false or none value: reported, and the key keeps its default."""


def _read_plain(raw: str, key: str) -> str:
    return raw


def _read_text(raw: str, key: str) -> str:
    return unicodedata.normalize("NFC", raw)


def _read_phonetic(raw: str, key: str) -> str:
    return normalize_phonetic(raw)


def _read_bool(raw: str, key: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise _BadFlag(f"{key} must be true or false, got {raw!r}")


def _read_switch(raw: str, key: str) -> bool:
    # exponent-suppression switches: only the literal "none" turns one off
    if raw == "none":
        return False
    raise _BadFlag(f"{key} accepts only 'none', got {raw!r}")


# a corpus repeats a few template texts many times; failures are not cached,
# so each one reports its own column
_template_body = functools.lru_cache(maxsize=1024)(parse_template_text)


def _read_template(raw: str, key: str) -> FeatureSet:
    return _template_body(raw)


def _read_via(raw: str, key: str) -> Formation:
    return formation_from_token(raw)


def _read_donor(raw: str, key: str) -> str:
    if raw not in ("M", "F"):
        raise ValueError(f"donor_gender must be M or F, got {raw!r}")
    return raw


def _write_plain(value: str, profile: Optional[LanguageProfile]) -> str:
    return value


def _write_quoted(value: str, profile: Optional[LanguageProfile]) -> str:
    return f'"{value}"'


def _write_true(value: bool, profile: Optional[LanguageProfile]) -> str:
    return "true"


def _write_none(value: bool, profile: Optional[LanguageProfile]) -> str:
    return "none"


def _write_via(value: Formation, profile: Optional[LanguageProfile]) -> str:
    return value.value


def _render_body(body: FeatureSet, profile: Optional[LanguageProfile]) -> str:
    if profile is not None:
        try:
            return canonical_render(body, profile)
        except ValueError:
            pass
    return "{" + ", ".join(sorted(body)) + "}"


class _Key(NamedTuple):
    name: str
    attr: str
    read: Callable[[str, str], object]  # raises ValueError on a bad value
    write: Callable[[object, Optional[LanguageProfile]], str]
    default: object = None  # an absent key's value, never written
    required: bool = False


# value kinds: (read, write, default)
_PLAIN = (_read_plain, _write_plain, None)
_TEXT = (_read_text, _write_quoted, None)
_PHONETIC = (_read_phonetic, _write_quoted, None)
_BOOL = (_read_bool, _write_true, False)
_SWITCH = (_read_switch, _write_none, True)
_TEMPLATE = (_read_template, _render_body, None)


class _Table:
    """The keys of one statement kind, in the order ``serialize`` writes them."""

    def __init__(self, kind: str, *keys: _Key):
        self.kind = kind
        self.keys = {key.name: key for key in keys}
        self.required = [key.name for key in keys if key.required]
        self._rows = tuple(tuple(key) for key in keys)  # plain tuples unpack faster

    def read(
        self, scanned: Dict[str, Tuple[str, int]], line: int, offset: int, issues: List[ParseIssue],
    ) -> Tuple[Dict[str, object], bool]:
        """A line's values by attribute, and whether the line may be kept.

        A missing required key is reported alone, and nothing is read.
        Otherwise every bad value is reported, in table order: a bad flag
        keeps its default, and any other bad value is left out and drops the
        line.
        """
        missing = [name for name in self.required if name not in scanned]
        if missing:
            issues.append(ParseIssue(line, offset, f"{self.kind} is missing {', '.join(missing)}"))
            return {}, False
        values: Dict[str, object] = {}
        kept = True
        for name, attr, read, _, default, _ in self._rows:
            if name not in scanned:
                values[attr] = default
                continue
            raw, col = scanned[name]
            try:
                values[attr] = read(raw, name)
            except _BadFlag as exc:
                issues.append(ParseIssue(line, col, str(exc)))
                values[attr] = default
            except ValueError as exc:
                issues.append(ParseIssue(line, col, str(exc)))
                kept = False
        return values, kept

    def write(self, record: Union[Item, EdgeSpec], profile: Optional[LanguageProfile],
              template: Optional[FeatureSet] = None) -> str:
        """The ``key=value`` fields of every value of ``record`` that is not its
        key's default; an item's bare ``template`` body stands in for its own."""
        parts = []
        for name, attr, _, write, default, _ in self._rows:
            value = template if attr == "template" else getattr(record, attr)
            if value != default:
                parts.append(f"{name}={write(value, profile)}")
        return " ".join(parts)


_ITEM_KEYS = _Table(
    "item",
    _Key("id", "id", *_PLAIN, required=True),
    _Key("lang", "language", *_PLAIN, required=True),
    _Key("radical", "radical", *_PHONETIC, required=True),
    _Key("cogset", "cogset", *_PLAIN),
    _Key("template", "template", *_TEMPLATE),  # kept on the ItemStmt, bare
    _Key("gloss", "gloss", *_TEXT),
    _Key("animate", "animate", *_BOOL),
    _Key("recent_loan", "recent_loan", *_BOOL),
    _Key("typical", "typical", *_BOOL),
    _Key("common", "common", *_BOOL),
    _Key("fem_prefix", "fem_prefix", *_SWITCH),
    _Key("fem_suffix", "fem_suffix", *_SWITCH),
    _Key("surface", "surface_override", *_PHONETIC),
    _Key("expect_surface", "expected_surface", *_PHONETIC),
)
_DERIVE_KEYS = _Table(
    "derive",
    _Key("id", "derived_id", *_PLAIN, required=True),
    _Key("base", "base_id", *_PLAIN),
    _Key("via", "process", _read_via, _write_via, required=True),
    _Key("target", "target", *_PLAIN),
    _Key("lang", "language", *_PLAIN),
    _Key("radical", "radical", *_PHONETIC),
    _Key("gloss", "gloss", *_TEXT),
    _Key("animate", "animate", *_BOOL),
    _Key("donor_gender", "donor_gender", _read_donor, _write_plain),
    _Key("gradcond", "gradcond", *_PLAIN),
    _Key("fem_prefix", "fem_prefix", *_SWITCH),
    _Key("fem_suffix", "fem_suffix", *_SWITCH),
    _Key("surface", "surface_override", *_PHONETIC),
    _Key("expect_template", "expect_template", *_TEMPLATE),
    _Key("expect_surface", "expected_surface", *_PHONETIC),
)


def _split_head(text: str) -> Tuple[str, str]:
    """``text`` split at its first whitespace character."""
    match = _SPACE.search(text)
    return (text, "") if match is None else (text[:match.start()], text[match.end():])


def _prescan_ids(text: str) -> Dict[str, int]:
    """First declaration line of every item/derive id, for error messages."""
    ids: Dict[str, int] = {}
    throwaway: List[ParseIssue] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        head, rest = _split_head(_strip_comment(raw).strip())
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
    all_ids = functools.cache(lambda: _prescan_ids(text))  # scanned once an undeclared base needs it
    profiles_seen: Dict[str, int] = {}
    initials_seen: Dict[Tuple[str, str], int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw).strip()
        if not stripped:
            continue
        head, rest = _split_head(stripped)
        body_offset = raw.find(stripped) + len(head) + 1

        if head == "profile":
            stmt = _parse_profile(rest, line_no, body_offset, issues)
            if stmt is not None:
                name = stmt.profile.language
                if name in profiles_seen:
                    issues.append(ParseIssue(
                        line_no, 1, f"profile {name!r} already declared at line {profiles_seen[name]}"))
                else:
                    profiles_seen[name] = line_no
                    statements.append(stmt)
        elif head == "initial":
            stmt = _parse_initial(rest, line_no, body_offset, issues)
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
            stmt = _parse_item(rest, line_no, body_offset, issues)
            if stmt is not None and _check_id(stmt.item.id, line_no, declared, issues):
                statements.append(stmt)
        elif head == "derive":
            stmt = _parse_derive(rest, line_no, body_offset, issues, declared, all_ids)
            if stmt is not None and _check_id(stmt.edge.derived_id, line_no, declared, issues):
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
    name, tail = _split_head(rest.strip())
    if not name or "=" in name:
        issues.append(ParseIssue(line, offset, "profile needs a name before its keys"))
        return None
    fields = _fields_to_dict(
        _scan_fields(tail, line, offset + len(name) + 1, issues),
        ("category", "slots"), line, issues)
    if "category" not in fields or "slots" not in fields:
        issues.append(ParseIssue(line, offset, "profile needs category= and slots=[...]"))
        return None
    raw_slots, slots_col = fields["slots"]
    if not (raw_slots.startswith("[") and raw_slots.endswith("]")):
        issues.append(ParseIssue(line, slots_col, "slots must be bracketed, e.g. slots=[SG|PL, DEF]"))
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
    category, category_col = fields["category"]
    # the category first, with the slots that hold its name: its faults are reported at category=
    clashing = tuple(slot for slot in slots if category in slot.names)
    for col, checked in ((category_col, clashing), (slots_col, tuple(slots))):
        try:
            profile = LanguageProfile(name, category, checked)
        except ValueError as exc:
            issues.append(ParseIssue(line, col, str(exc)))
            return None
    builtin = BUILTIN_PROFILES.get(name)
    return ProfileStmt(profile=builtin if builtin == profile else profile)


def _parse_initial(rest: str, line: int, offset: int, issues: List[ParseIssue]) -> Optional[InitialStmt]:
    lhs, eq, rhs = rest.partition("=")
    if not eq:
        issues.append(ParseIssue(line, offset, "initial needs the form LANG.COGSET = {TEMPLATE}"))
        return None
    ref = lhs.strip()
    if "." not in ref:
        issues.append(ParseIssue(line, offset, f"initial reference {ref!r} must be LANG.COGSET"))
        return None
    language, _, cogset = ref.partition(".")
    try:
        body = _template_body(rhs.strip())
    except ValueError as exc:
        issues.append(ParseIssue(line, offset, str(exc)))
        return None
    return InitialStmt(line=line, language=language, cogset=cogset, body=body)


def _parse_item(rest: str, line: int, offset: int, issues: List[ParseIssue]) -> Optional[ItemStmt]:
    scanned = _fields_to_dict(_scan_fields(rest, line, offset, issues), _ITEM_KEYS.keys, line, issues)
    values, kept = _ITEM_KEYS.read(scanned, line, offset, issues)
    if not kept:
        return None
    template = values.pop("template")
    gloss = values["gloss"]
    item = Item(
        **values,
        category=VERB if values["cogset"] is None and template is None else "N",
        meanings=frozenset([gloss]) if gloss else frozenset(),
    )
    return ItemStmt(line=line, item=item, template=template)


def _parse_derive(
    rest: str,
    line: int,
    offset: int,
    issues: List[ParseIssue],
    declared: Dict[str, int],
    all_ids: Callable[[], Dict[str, int]],
) -> Optional[DeriveStmt]:
    scanned = _fields_to_dict(_scan_fields(rest, line, offset, issues), _DERIVE_KEYS.keys, line, issues)
    values, kept = _DERIVE_KEYS.read(scanned, line, offset, issues)
    via = values.get("process")
    if via is None:
        return None
    # the checks across keys run on what was read; the first that fails ends the line
    base = values["base_id"]
    if base is None and via is not Formation.BORROWING:
        issues.append(ParseIssue(line, offset, f"{via.value} derives need base=; only BORROW may omit it"))
        return None
    if base is not None and base not in declared:
        declared_at = all_ids().get(base)
        if declared_at is None:
            message = f"base {base!r} is never declared"
        elif declared_at < line:
            message = f"base {base!r} on line {declared_at} was not loaded because that line has errors"
        elif declared_at == line:
            message = f"base {base!r} is this derive's own id"
        else:
            message = (
                f"forward reference: base {base!r} is declared at line {declared_at}, "
                f"after this derive at line {line}"
            )
        issues.append(ParseIssue(line, scanned["base"][1], message))
        return None
    if values.get("donor_gender") is not None and via is not Formation.BORROWING:
        issues.append(ParseIssue(line, scanned["donor_gender"][1], "donor_gender is only meaningful on BORROW"))
        return None
    return DeriveStmt(line=line, edge=EdgeSpec(**values)) if kept else None


# -- loading -------------------------------------------------------------------

class LoadResult(NamedTuple):
    """A loaded corpus: its lexicon snapshot and one ``line N: ...`` message
    per statement that ``load`` rejected."""

    state: LexiconState
    errors: List[str]


def load(document: CorpusDocument) -> LoadResult:
    """Build a lexicon state from a parsed document.

    The snapshot resolves under the built-in rules, ``engine.DEFAULT_RULES``,
    and starts from copies of the read-only ``BUILTIN_PROFILES`` and
    ``BUILTIN_INITIALS``; corpus declarations override entries of the
    copies, and a declaration equal to a built-in profile reuses the
    built-in object, with the tables it has filled.  An ``initial`` line
    whose template is ill-formed is reported and adds nothing.
    Statement-level failures are collected with their line numbers rather
    than aborting the rest of the load; a failing statement leaves nothing
    behind.  The statements are inserted in place into one private
    :class:`~tbmc.lexicon.Draft`, returned frozen as a plain
    ``LexiconState``, so load is linear in the corpus size.

    Every noun item is then resolved once, in insertion order, so each
    resolution is one gradient step off its already resolved base, and the
    gradient step itself runs once per distinct step key: derives that
    repeat a key read the snapshot's step memo.  The snapshot and the
    snapshots derived from it answer ``engine.transfer`` by lookup and share
    that memo.  The snapshot stores a failure like a result, so
    ``validate`` and the CLI read an item that fails, or a derivative of
    one, without resolving it again.
    """
    profiles: Dict[str, LanguageProfile] = dict(BUILTIN_PROFILES)
    initials: Dict[Tuple[str, str], Template] = dict(BUILTIN_INITIALS)
    errors: List[str] = []

    for stmt in document.statements:
        if isinstance(stmt, ProfileStmt):
            profiles[stmt.profile.language] = stmt.profile
    for stmt in document.statements:
        if isinstance(stmt, InitialStmt):
            if stmt.language not in profiles:
                errors.append(f"line {stmt.line}: initial for unknown language {stmt.language!r}")
                continue
            template = Template(profiles[stmt.language], stmt.body)
            problems = template.violations()
            if problems:
                errors.append(f"line {stmt.line}: initial template for {stmt.language}.{stmt.cogset} "
                              "is ill-formed: " + "; ".join(problems))
            else:
                initials[(stmt.language, stmt.cogset)] = template

    draft = LexiconState(profiles, initials).draft()
    for stmt in document.statements:
        try:
            if isinstance(stmt, ItemStmt):
                draft.add_item(_to_item(stmt, profiles))
            elif isinstance(stmt, DeriveStmt):
                draft.apply_formation(stmt.edge)
        except ValueError as exc:
            errors.append(f"line {stmt.line}: {exc}")
    state = draft.freeze()
    for item_id, item in state.items.items():
        if item.category != VERB:
            try:
                engine.transfer(state, item_id)
            except ValueError:
                pass  # the snapshot keeps the failure for validate and the CLI
    return LoadResult(state=state, errors=errors)


def _to_item(stmt: ItemStmt, profiles: Dict[str, LanguageProfile]) -> Item:
    """The statement's item, its template body bound to the item's profile."""
    if stmt.template is None:
        return stmt.item
    language = stmt.item.language
    if language not in profiles:
        raise TemplateError(f"no profile for language {language!r}")
    return Item(**{**stmt.item._asdict(), "template": Template(profiles[language], stmt.template)})


# -- validation ----------------------------------------------------------------

class CheckRow(NamedTuple):
    """One checked expectation: an item's expected and actual template or
    surface, and whether they match."""

    kind: str  # "template" or "surface"
    item_id: str
    expected: str
    actual: str
    ok: bool
    via: str  # rule id or audit classification


class ValidationReport(NamedTuple):
    """What ``validate`` found: input errors, one row per checked expectation,
    the snapshot's warnings, and its item and live counts."""

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


def validate(document: CorpusDocument) -> ValidationReport:
    """Load a document, read every item's resolution, and check all expectations.

    Template expectations compare canonical renderings of the expected and
    resolved bodies; surface expectations go through the realization audit,
    so overrides are reported as overrides and never as rule output.
    """
    loaded = load(document)
    state = loaded.state
    errors = list(loaded.errors)
    rows: List[CheckRow] = []

    for item_id, item in state.items.items():
        if item.category == VERB:
            continue
        try:
            engine.transfer(state, item_id)  # a lookup: load resolved every noun
        except ValueError as exc:
            message, prefix = str(exc), f"item {item_id}: "
            errors.append(message if message.startswith(prefix) else prefix + message)

    for item_id, edge in state.edges.items():
        if edge.expect_template is None:
            continue
        try:
            expected_text = canonical_render(edge.expect_template, state.profiles[state.items[item_id].language])
        except ValueError as exc:
            errors.append(f"item {item_id}: bad expected template: {exc}")
            continue
        try:
            result = engine.transfer(state, item_id)
        except ValueError:
            continue  # already reported above
        rows.append(CheckRow(
            kind="template",
            item_id=item_id,
            expected=expected_text,
            actual=result.template.render(),
            ok=result.template.body == edge.expect_template,
            via=result.rule_id,
        ))

    if not errors:
        for entry in realizer.realization_audit(state):
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
    for stmt in document.statements:
        if isinstance(stmt, ProfileStmt):
            profiles[stmt.profile.language] = stmt.profile

    # an item's language; a derive's base is on an earlier line
    languages: Dict[str, Optional[str]] = {}
    lines: List[str] = []
    for stmt in document.statements:
        if isinstance(stmt, ProfileStmt):
            profile = stmt.profile
            slots = ", ".join(
                f"{s.a}|{s.b}" if isinstance(s, Opposition) else s.name for s in profile.slots
            )
            lines.append(f"profile {profile.language} category={profile.category} slots=[{slots}]")
        elif isinstance(stmt, InitialStmt):
            body = _render_body(stmt.body, profiles.get(stmt.language))
            lines.append(f"initial {stmt.language}.{stmt.cogset} = {body}")
        elif isinstance(stmt, ItemStmt):
            languages[stmt.item.id] = stmt.item.language
            lines.append("item " + _ITEM_KEYS.write(stmt.item, profiles.get(stmt.item.language), stmt.template))
        else:
            edge = stmt.edge
            language = languages[edge.derived_id] = edge.language or languages.get(edge.base_id)
            lines.append("derive " + _DERIVE_KEYS.write(edge, profiles.get(language or "")))
    return "\n".join(lines) + "\n"


def load_path(path) -> LoadResult:
    """Parse and load a corpus file; parse issues raise CorpusParseError."""
    with open(path, encoding="utf-8") as handle:
        document = parse(handle.read())
    if not document.ok:
        raise CorpusParseError(list(document.issues))
    return load(document)
