"""The corpus tokenizer against its former character-by-character version."""

from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from tbmc import corpus
from tbmc.corpora import BUNDLED, fixture_path
from tbmc.corpus import ParseIssue, parse

# -- the former tokenizer, kept as the reference ---------------------------------


def _strip_comment_reference(raw: str) -> str:
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


def _scan_fields_reference(text: str, line: int, offset: int,
                           issues: List[ParseIssue]) -> List[Tuple[str, str, int]]:
    fields: List[Tuple[str, str, int]] = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        start = pos
        eq = text.find("=", pos)
        if eq < 0 or any(text[i].isspace() for i in range(pos, eq)):
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
            end = pos
            while end < n and not text[end].isspace():
                end += 1
            value = text[pos:end]
            pos = end
        fields.append((key, value, offset + start + 1))
    return fields


def _prescan_ids_reference(text: str) -> Dict[str, int]:
    ids: Dict[str, int] = {}
    throwaway: List[ParseIssue] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment_reference(raw).strip()
        cut = next((pos for pos, ch in enumerate(stripped) if ch.isspace()), len(stripped))
        head, rest = stripped[:cut], stripped[cut + 1:]
        if head not in ("item", "derive"):
            continue
        for key, value, _ in _scan_fields_reference(rest, line_no, 0, throwaway):
            if key == "id":
                ids.setdefault(value, line_no)
                break
    return ids


# -- generated lines ---------------------------------------------------------------

# whitespace the tokenizer must treat as str.isspace() does: no-break space,
# ideographic space, and the file separator control character
_ODD_SPACES = ("\xa0", "　", "\x1c")
_PIECES = st.sampled_from((
    "id", "key", "x", "=", "key=", "k=v", '"', "{", "}", "[", "]", "#", ",", "|",
    " ", "  ", "\t", *_ODD_SPACES, "ä", "ḍ",
    '"a # b"', '"#"', "{N, # +SG}", "{#}", "[A|B # C]", "[#",
))
_LINES = st.lists(_PIECES, max_size=14).map("".join)
_STATEMENT_LINES = st.tuples(
    st.sampled_from(("item ", "derive ", "derive\tid=t ", "item", "", "# ")), _LINES).map("".join)


@settings(max_examples=400)
@given(_LINES, st.integers(min_value=0, max_value=12))
def test_scan_fields_matches_the_reference(text, offset):
    assert corpus._strip_comment(text) == _strip_comment_reference(text)
    new: List[ParseIssue] = []
    old: List[ParseIssue] = []
    assert corpus._scan_fields(text, 3, offset, new) == _scan_fields_reference(text, 3, offset, old)
    assert new == old


@settings(max_examples=200)
@given(st.lists(_STATEMENT_LINES, max_size=8))
def test_prescan_ids_matches_the_reference(lines):
    text = "\n".join(lines)
    assert corpus._prescan_ids(text) == _prescan_ids_reference(text)


def test_lines_named_in_the_tokenizer_contract():
    for text in ('id=a gloss="x # y" template={N, #} # tail',
                 "id= key=", "id=", 'gloss="open', "template={N, +SG", "slots=[A|B",
                 "id=a\xa0lang=b", "id=a　lang=b", "id=a\x1clang=b", "ke y=v", "\xa0\x1c",
                 # each branch of the field pattern and each issue it leaves to report
                 "k= v", "k=\xa0v", "=v", "k=", 'k="a"b=c', 'k={a "b"}', 'k="{"', "k=[A|B",
                 'k="open', "k=v=w", "k=[A] x", "k={a}}"):
        assert corpus._strip_comment(text) == _strip_comment_reference(text)
        new: List[ParseIssue] = []
        old: List[ParseIssue] = []
        assert corpus._scan_fields(text, 1, 5, new) == _scan_fields_reference(text, 1, 5, old)
        assert new == old


# -- whole documents ---------------------------------------------------------------

def _parse_with_reference_tokenizer(text, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(corpus, "_strip_comment", _strip_comment_reference)
        patch.setattr(corpus, "_scan_fields", _scan_fields_reference)
        patch.setattr(corpus, "_prescan_ids", _prescan_ids_reference)
        return parse(text)


_HEADER = "profile riffian category=N slots=[SG|PL, M|F, COL|SING]\n"
_FORWARD_AND_UNDECLARED = (
    _HEADER
    + "derive id=d1 base=late via=CONV target=U  # forward reference\n"
    + "derive id=d2 base=ghost via=CONV target=U\n"
    + 'item id=late lang=riffian radical="x" cogset=C template={N, +SG, -PL, +M, -F, -COL, +SING}\n'
    + "derive id=d3 base=late via=CONV target=U expect_template={N, +SG}\n"
    + "derive id=d4 base=late via=CONV target=C expect_template={N, +SG\n"
    + 'item id=bad lang=riffian radical="y" cogset=C template={N, +SG, +SG}\n'
    + 'item id=bad2 lang=riffian radical="y" cogset=C   template={N, +SG, +SG}\n'
    + 'item id=good lang=riffian radical="z" cogset=C template={N, +SG, -PL, +M, -F, -COL, +SING}\n'
)


def test_parse_matches_the_reference_tokenizer(monkeypatch):
    texts = []
    for name in BUNDLED:
        with open(fixture_path(name), encoding="utf-8") as handle:
            texts.append(handle.read())
    texts.append(_FORWARD_AND_UNDECLARED)
    for text in texts:
        assert parse(text) == _parse_with_reference_tokenizer(text, monkeypatch)


def test_a_failing_template_reports_its_own_column_each_time():
    doc = parse(_FORWARD_AND_UNDECLARED)
    bad = [i for i in doc.issues if i.line in (7, 8)]
    assert [(i.line, i.column) for i in bad] == [(7, 47), (8, 50)]
    assert bad[0].message == bad[1].message == "duplicate atoms in '{N, +SG, +SG}'"
    assert [i.line for i in doc.issues] == [2, 3, 6, 7, 8]
    late, good = (s for s in doc.statements if getattr(getattr(s, "item", None), "id", None) in ("late", "good"))
    assert good.template == late.template  # the second one read from the memo
