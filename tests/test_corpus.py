"""The corpus format: grammar, error recovery, validation, round trips."""

import pytest

from tbmc import corpus
from tbmc.corpora import BUNDLED, fixture_path
from tbmc.corpus import (
    DeriveStmt,
    InitialStmt,
    ItemStmt,
    ProfileStmt,
    load,
    load_path,
    parse,
    serialize,
    validate,
)
from tbmc.lexicon import EdgeSpec, Formation, Item, LexiconState
from tbmc.templates import FRENCH, RIFFIAN

HEADER = 'profile riffian category=N slots=[SG|PL, M|F, COL|SING]\n'
GLAND = (
    'profile french category=N slots=[SG|PL, M|F, DEF, COL]\n'
    'item id=gland_1 lang=french radical="gland" cogset=C '
    'template={N, +SG, -PL, +M, -F, +DEF, -COL} gloss="acorn"\n'
    'derive id=gland_2 base=gland_1 via=CONV target=C '
    'expect_template={N,+SG,-PL,-M,+F,+DEF,-COL}\n'
)


def test_single_derive_statement():
    doc = parse(GLAND)
    assert doc.ok
    derive = doc.statements[-1]
    assert isinstance(derive, DeriveStmt)
    assert derive.id == "gland_2" and derive.base == "gland_1"
    assert derive.via is Formation.CONVERSION
    assert derive.target == "C"
    assert derive.expect_template == frozenset(
        {"N", "+SG", "-PL", "-M", "+F", "+DEF", "-COL"})


def test_empty_document():
    doc = parse("")
    assert doc.ok and doc.statements == ()
    assert load(doc).state.live_count == 0


def test_comments_and_blank_lines():
    doc = parse(
        "# a full-line comment\n"
        "\n"
        + HEADER +
        'item id=a lang=riffian radical="fa#ð" cogset=U '
        "template={N, +SG, -PL, +M, -F, +COL, -SING}  # trailing comment\n")
    assert doc.ok
    item = doc.statements[-1]
    assert item.radical == "fa#ð"  # hash inside quotes is data


def test_forward_reference_names_both_lines():
    doc = parse(
        HEADER
        + "derive id=d1 base=late via=CONV target=U\n"
        + 'item id=late lang=riffian radical="x" cogset=C '
          "template={N, +SG, -PL, +M, -F, -COL, +SING}\n")
    assert not doc.ok
    (issue,) = doc.issues
    assert issue.line == 2
    assert "line 3" in issue.message and "forward reference" in issue.message


def test_undeclared_base():
    doc = parse(HEADER + "derive id=d1 base=ghost via=CONV target=U\n")
    assert any("never declared" in i.message for i in doc.issues)


def test_duplicate_ids_are_collected():
    doc = parse(
        HEADER
        + 'item id=a lang=riffian radical="x" cogset=C template={N, +SG, -PL, +M, -F, -COL, +SING}\n'
        + 'item id=a lang=riffian radical="y" cogset=C template={N, +SG, -PL, +M, -F, -COL, +SING}\n')
    assert any("already declared at line 2" in i.message for i in doc.issues)


def test_unknown_keys_and_statements():
    doc = parse("frobnicate id=a\n" + HEADER + 'item id=a lang=riffian radical="x" color=red\n')
    messages = [i.message for i in doc.issues]
    assert any("unknown statement" in m for m in messages)
    assert any("unknown key 'color'" in m for m in messages)


def test_malformed_values_carry_line_and_column():
    doc = parse(HEADER + 'item id=a lang=riffian radical="unterminated\n')
    issue = doc.issues[0]
    assert issue.line == 2
    assert issue.column > 1
    assert "unterminated" in issue.message
    assert "line 2" in issue.render() and "column" in issue.render()


def test_bad_process_and_bad_donor():
    doc = parse(
        HEADER
        + 'item id=a lang=riffian radical="x" cogset=C template={N, +SG, -PL, +M, -F, -COL, +SING}\n'
        + "derive id=b base=a via=XEROX\n"
        + "derive id=c base=a via=CONV donor_gender=F\n"
        + "derive id=d via=BORROW target=U donor_gender=X lang=riffian radical=\"y\"\n")
    messages = " | ".join(i.message for i in doc.issues)
    assert "unknown formation process" in messages
    assert "only meaningful on BORROW" in messages
    assert "donor_gender must be M or F" in messages


def test_conversion_requires_base():
    doc = parse(HEADER + "derive id=a via=CONV target=U\n")
    assert any("only BORROW may omit it" in i.message for i in doc.issues)


def test_parse_never_raises_on_garbage():
    noise = "\x00\t{{{]]] === ###\nitem\nderive id==\nprofile\n"
    doc = parse(noise)
    assert not doc.ok
    assert all(isinstance(i.line, int) for i in doc.issues)


def test_duplicate_profile_and_initial():
    doc = parse(HEADER + HEADER)
    assert any("already declared" in i.message for i in doc.issues)
    doc = parse(
        HEADER
        + "initial riffian.C = {N, +SG, -PL, -M, +F, -COL, +SING}\n"
        + "initial riffian.C = {N, +SG, -PL, +M, -F, -COL, +SING}\n")
    assert any("already declared" in i.message for i in doc.issues)


def test_corpus_initial_overrides_the_builtin():
    doc = parse(
        HEADER + "initial riffian.C = {N, +SG, -PL, +M, -F, -COL, +SING}\n")
    loaded = load(doc)
    assert loaded.state.initials.get("riffian", "C").render() == \
        "{N, +SG, -PL, +M, -F, -COL, +SING}"


def test_declared_builtin_profiles_reuse_the_builtin_objects(fig2_document):
    assert load(fig2_document).state.profiles["riffian"] is RIFFIAN
    assert load(parse(GLAND)).state.profiles["french"] is FRENCH
    other = load(parse("profile riffian category=N slots=[SG|PL, M|F]\n")).state
    assert other.profiles["riffian"] != RIFFIAN


def test_item_without_cogset_or_template_is_a_verb():
    doc = parse(HEADER + 'item id=v lang=riffian radical="ndeh" gloss="to drive"\n')
    loaded = load(doc)
    assert loaded.ok
    assert loaded.state.items["v"].category == "V"


def test_load_reports_semantic_errors_with_lines():
    doc = parse(
        HEADER
        + 'item id=a lang=riffian radical="x" cogset=C template={N, +SG, -PL, +M, -F, -COL, +SING}\n'
        + "derive id=b base=a via=WIDEN target=U\n"
        + "derive id=c base=a via=CONV target=U\n")  # a is superseded by b
    loaded = load(doc)
    assert any(err.startswith("line 4") and "superseded" in err for err in loaded.errors)


def test_validation_passes_on_all_bundled_corpora():
    for name in BUNDLED:
        with open(fixture_path(name), encoding="utf-8") as handle:
            report = validate(parse(handle.read()))
        assert report.passed, f"{name}: {report.mismatches}"
        assert not report.errors


def test_validation_flags_a_wrong_expectation():
    text = GLAND.replace(
        "expect_template={N,+SG,-PL,-M,+F,+DEF,-COL}",
        "expect_template={N,+SG,-PL,+M,-F,+DEF,-COL}")
    report = validate(parse(text))
    assert not report.passed
    (row,) = report.mismatches
    assert row.item_id == "gland_2" and row.kind == "template"
    assert "MISMATCH" in report.render()


def test_validation_resolves_every_item():
    # a noun head without a template cannot be resolved, and validate says so
    doc = parse(HEADER + 'item id=a lang=riffian radical="x" cogset=C\n')
    report = validate(doc)
    assert report.errors and "no declared template" in report.errors[0]
    assert report.render().split("\n")[0] == \
        "error: item a: no declared template and no derivation edge"  # one prefix, not two


def test_a_long_chain_under_an_unresolvable_head_reports_every_item():
    depth = 4000
    text = HEADER + 'item id=h lang=riffian radical="ka" cogset=C\n' + "".join(
        f"derive id=c{k} base={'h' if k == 0 else f'c{k - 1}'} via=CONV target=C\n"
        for k in range(depth))
    failure = "item h: no declared template and no derivation edge"
    expected = [f"error: {failure}"] + [f"error: item c{k}: {failure}" for k in range(depth)]
    lines = validate(parse(text)).render().split("\n")
    assert [line for line in lines if line.startswith("error:")] == expected


def test_serialize_parse_round_trip_on_fixtures():
    for name in BUNDLED:
        with open(fixture_path(name), encoding="utf-8") as handle:
            original = parse(handle.read())
        assert original.ok
        emitted = serialize(original)
        reparsed = parse(emitted)
        assert reparsed.ok
        assert original.structurally_equal(reparsed)
        assert serialize(reparsed) == emitted  # serialization is a fixpoint


def test_serialize_is_byte_stable():
    doc = parse(GLAND)
    assert serialize(doc) == serialize(doc)
    assert serialize(doc).endswith("\n")
    assert "\r" not in serialize(doc)


def test_transliteration_normalizes_at_parse_time():
    doc = parse(HEADER + 'item id=a lang=riffian radical="ḍa-funast" cogset=C '
                         "template={N, +SG, -PL, -M, +F, -COL, +SING}\n")
    assert doc.statements[-1].radical == "ða-funast"


def test_load_path_raises_on_parse_errors(tmp_path):
    bad = tmp_path / "bad.tbmc"
    bad.write_text("item\n", encoding="utf-8")
    with pytest.raises(corpus.CorpusParseError):
        load_path(bad)


def test_statement_kinds_round_trip_individually():
    text = (
        HEADER
        + "initial riffian.C = {N, +SG, -PL, -M, +F, -COL, +SING}\n"
        + 'item id=a lang=riffian radical="qzin" cogset=C '
          'template={N, +SG, -PL, +M, -F, -COL, +SING} gloss="dog" animate=true '
          'typical=true fem_suffix=none expect_surface="aqzin"\n'
        + 'derive id=b base=a via=CONV target=U gloss="dogness" '
          'expect_template={N, +SG, -PL, -M, +F, -COL, +SING}\n'
        + 'derive id=c via=BORROW lang=riffian radical="loan" target=U donor_gender=F '
          'surface="t-loan"\n')
    doc = parse(text)
    assert doc.ok, doc.issues
    kinds = [type(s) for s in doc.statements]
    assert kinds == [ProfileStmt, InitialStmt, ItemStmt, DeriveStmt, DeriveStmt]
    assert parse(serialize(doc)).structurally_equal(doc)


# -- loading in place ------------------------------------------------------------

_FAILING_ITEM = 'item id=bad lang=riffian radical="y" cogset=C template={N, +SG, +PL, +M, -F, -COL, +SING}'
_FAILING_DERIVES = ("derive id=late base=a via=CONV target=U", "derive id=t base=v via=CONV")
_LOAD_LINES = (
    'item id=a lang=riffian radical="x" cogset=C template={N, +SG, -PL, +M, -F, -COL, +SING} gloss="first"',
    'derive id=w base=a via=WIDEN target=U gloss="more"',
    _FAILING_ITEM,
    _FAILING_DERIVES[0],
    'item id=v lang=riffian radical="ndeh" gloss="to drive"',
    _FAILING_DERIVES[1],
    "derive id=c base=w via=CONV target=C",
    "derive id=n base=v via=MDERIV target=NA",
    "initial klingon.C = {N, +SG}",
)


def _load_lines(lines):
    doc = parse(HEADER + "\n".join(lines) + "\n")
    assert doc.ok, doc.issues
    return load(doc)


def test_load_returns_a_plain_snapshot():
    for name in BUNDLED:
        assert type(load_path(fixture_path(name)).state) is LexiconState
    assert type(_load_lines(_LOAD_LINES).state) is LexiconState


def test_failing_statements_leave_nothing_behind():
    loaded = _load_lines(_LOAD_LINES)
    clean = _load_lines([line for line in _LOAD_LINES
                         if line != _FAILING_ITEM and line not in _FAILING_DERIVES])
    assert loaded.state == clean.state
    assert set(loaded.state.items) == {"a", "w", "v", "c", "n"}
    # initials first, then one error per failing statement in file order
    assert loaded.errors == [
        "line 10: initial for unknown language 'klingon'",
        "line 4: item bad: slot SG|PL: needs opposite polarities, one each",
        "line 5: edge late: base 'a' is superseded",
        "line 7: edge t: no target cognitive set",
    ]
    assert clean.errors == ["line 7: initial for unknown language 'klingon'"]


def test_a_what_if_leaves_the_loaded_snapshot_unchanged():
    state = _load_lines(_LOAD_LINES).state
    before = (dict(state.items), dict(state.edges), dict(state.strata),
              state.superseded, state.warnings)
    widened = state.apply_formation(EdgeSpec(derived_id="whatif", process=Formation.WIDENING,
                                             base_id="c", gloss="wider"))
    added = widened.add_item(Item(id="extra", language="riffian", radical="z", category="V"))
    assert "whatif" in added.items and "c" in added.superseded and len(added.warnings) == 2
    assert (state.items, state.edges, state.strata, state.superseded, state.warnings) == before
    assert "extra" not in widened.items
