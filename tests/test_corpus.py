"""The corpus format: grammar, error recovery, validation, round trips."""

import pytest

from tbmc import corpus, engine
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
    assert derive.edge.derived_id == "gland_2" and derive.edge.base_id == "gland_1"
    assert derive.edge.process is Formation.CONVERSION
    assert derive.edge.target == "C"
    assert derive.edge.expect_template == frozenset(
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
    assert item.item.radical == "fa#ð"  # hash inside quotes is data


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


def test_a_tab_after_the_statement_keyword_parses():
    spaced = (HEADER + 'item id=a lang=riffian radical="x" cogset=C '
              "template={N, +SG, -PL, +M, -F, -COL, +SING} animate=no\n")
    tabbed = spaced.replace("profile ", "profile\t").replace("item ", "item\t")
    assert tabbed.count("\t") == 2
    spaced_doc, tabbed_doc = parse(spaced), parse(tabbed)
    assert [type(s) for s in tabbed_doc.statements] == [ProfileStmt, ItemStmt]
    assert tabbed_doc == spaced_doc  # the same statements, and the same issue at the same column
    assert [(i.line, i.column) for i in tabbed_doc.issues] == [(2, 89)]
    assert tabbed_doc.statements[0].profile.language == "riffian"


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


@pytest.mark.parametrize("slots, name", [("[SG|PL|DU, M|F]", "PL|DU"), ("[SG|, M|F]", "")])
def test_a_profile_name_template_text_cannot_spell_is_an_issue_on_the_profile_line(slots, name):
    doc = parse(
        f"profile foo category=N slots={slots}\n"
        'item id=a lang=foo radical="x" cogset=C template={N, +SG, -PL, +M, -F}\n')
    assert [(i.line, i.column, i.message) for i in doc.issues] == [
        (1, 24, f"profile foo: name {name!r} cannot appear in template text")]


def test_item_without_cogset_or_template_is_a_verb():
    doc = parse(HEADER + 'item id=v lang=riffian radical="ndeh" gloss="to drive"\n')
    loaded = load(doc)
    assert doc.ok and not loaded.errors
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


def test_validate_adds_no_gradient_step_after_load(monkeypatch):
    steps = []
    gradient = engine.apply_gradient
    monkeypatch.setattr(engine, "apply_gradient", lambda *args: steps.append(args[0]) or gradient(*args))
    doc = parse(HEADER + 'item id=a lang=riffian radical="x" cogset=C '
                "template={N, +SG, -PL, +M, -F, -COL, +SING}\n"
                "derive id=b base=a via=CONV target=U\n"
                "derive id=c base=b via=MDERIV target=ZZ\n"
                "derive id=d base=c via=CONV\n"
                "derive id=e base=d via=WIDEN\n")
    load(doc)
    assert [record.base_id for record in steps] == ["a", "b"]  # c fails; d and e take its failure
    report = validate(doc)
    assert len(steps) == 4  # the load inside validate, and nothing more
    assert report.errors == (
        "item c: no initial template for cognitive set 'ZZ' in 'riffian'",
        "item d: no initial template for cognitive set 'ZZ' in 'riffian'",
        "item e: no initial template for cognitive set 'ZZ' in 'riffian'",
    )


def test_a_long_chain_under_an_unresolvable_head_reports_every_item():
    depth = 4000
    text = HEADER + 'item id=h lang=riffian radical="ka" cogset=C\n' + "".join(
        f"derive id=c{k} base={'h' if k == 0 else f'c{k - 1}'} via=CONV target=C\n"
        for k in range(depth))
    failure = "item h: no declared template and no derivation edge"
    expected = [f"error: {failure}"] + [f"error: item c{k}: {failure}" for k in range(depth)]
    lines = validate(parse(text)).render().split("\n")
    assert [line for line in lines if line.startswith("error:")] == expected


def test_serialize_parse_round_trip_on_fixtures(structurally_equal):
    for name in BUNDLED:
        with open(fixture_path(name), encoding="utf-8") as handle:
            original = parse(handle.read())
        assert original.ok
        emitted = serialize(original)
        reparsed = parse(emitted)
        assert reparsed.ok
        assert structurally_equal(original, reparsed)
        assert serialize(reparsed) == emitted  # serialization is a fixpoint


def test_serialize_is_byte_stable():
    doc = parse(GLAND)
    assert serialize(doc) == serialize(doc)
    assert serialize(doc).endswith("\n")
    assert "\r" not in serialize(doc)


def test_transliteration_normalizes_at_parse_time():
    doc = parse(HEADER + 'item id=a lang=riffian radical="ḍa-funast" cogset=C '
                         "template={N, +SG, -PL, -M, +F, -COL, +SING}\n")
    assert doc.statements[-1].item.radical == "ða-funast"


def test_load_path_raises_on_parse_errors(tmp_path):
    bad = tmp_path / "bad.tbmc"
    bad.write_text("item\n", encoding="utf-8")
    with pytest.raises(corpus.CorpusParseError):
        load_path(bad)


def test_statement_kinds_round_trip_individually(structurally_equal):
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
    assert structurally_equal(parse(serialize(doc)), doc)


# -- exact parse issues -----------------------------------------------------------

_BASE_A = 'item id=a lang=riffian radical="r" cogset=C template={N, +SG, -PL, -M, +F, -COL, +SING}\n'
_T = "template={N, +SG, -PL, -M, +F, -COL, +SING}"

# one faulty item or derive line after HEADER and _BASE_A, and the exact
# (line, column, message) issues it must give
_SINGLE_FAULTS = {
    "item-bad-bool": (
        f'item id=x lang=riffian radical="r" cogset=C {_T} animate=yes',
        [(3, 89, "animate must be true or false, got 'yes'")]),
    "item-bad-corpus-flag": (
        f'item id=x lang=riffian radical="r" cogset=C {_T} typical=1',
        [(3, 89, "typical must be true or false, got '1'")]),
    "item-bad-switch": (
        f'item id=x lang=riffian radical="r" cogset=C {_T} fem_prefix=off',
        [(3, 89, "fem_prefix accepts only 'none', got 'off'")]),
    "item-bad-template": (
        'item id=x lang=riffian radical="r" cogset=C template={N, +SG, +SG}',
        [(3, 45, "duplicate atoms in '{N, +SG, +SG}'")]),
    "item-unbraced-template": (
        'item id=x lang=riffian radical="r" cogset=C template=N',
        [(3, 45, "template text must be brace-delimited: 'N'")]),
    "item-unknown-key": (
        f'item id=x lang=riffian radical="r" cogset=C {_T} colour=red',
        [(3, 89, "unknown key 'colour'")]),
    "item-duplicate-key": (
        f'item id=x lang=riffian radical="r" cogset=C {_T} gloss="a" gloss="b"',
        [(3, 99, "duplicate key 'gloss'")]),
    "item-missing-keys": (
        "item id=x cogset=C",
        [(3, 5, "item is missing lang, radical")]),
    "item-indented-bad-bool": (
        f'   item id=x lang=riffian radical="r" cogset=C {_T} common=no',
        [(3, 92, "common must be true or false, got 'no'")]),
    "item-duplicate-id": (
        f'item id=a lang=riffian radical="r" cogset=C {_T}',
        [(3, 1, "id 'a' already declared at line 2")]),
    "derive-missing-via": (
        "derive id=x base=a target=U",
        [(3, 7, "derive is missing via")]),
    "derive-bad-via": (
        "derive id=x base=a via=SPLIT target=U",
        [(3, 20, "unknown formation process 'SPLIT'")]),
    "derive-bad-bool": (
        "derive id=x base=a via=CONV target=U animate=no",
        [(3, 38, "animate must be true or false, got 'no'")]),
    "derive-bad-switch": (
        "derive id=x base=a via=CONV target=U fem_suffix=true",
        [(3, 38, "fem_suffix accepts only 'none', got 'true'")]),
    "derive-bad-expect-template": (
        "derive id=x base=a via=CONV target=U expect_template={N, +SG, +SG}",
        [(3, 38, "duplicate atoms in '{N, +SG, +SG}'")]),
    "derive-duplicate-key": (
        "derive id=x base=a via=CONV via=WIDEN",
        [(3, 29, "duplicate key 'via'")]),
    "derive-bad-donor": (
        'derive id=x via=BORROW lang=riffian radical="l" target=C donor_gender=N',
        [(3, 58, "donor_gender must be M or F, got 'N'")]),
    "derive-donor-off-borrow": (
        "derive id=x base=a via=CONV target=U donor_gender=F",
        [(3, 38, "donor_gender is only meaningful on BORROW")]),
    "derive-missing-base": (
        "derive id=x via=MDERIV target=C",
        [(3, 7, "MDERIV derives need base=; only BORROW may omit it")]),
    "derive-undeclared-base": (
        "derive id=x base=ghost via=CONV target=U",
        [(3, 13, "base 'ghost' is never declared")]),
    "derive-forward-reference": (
        f'derive id=x base=late via=CONV target=U\nitem id=late lang=riffian radical="l" cogset=C {_T}',
        [(3, 13, "forward reference: base 'late' is declared at line 4, after this derive at line 3")]),
    "derive-forward-reference-to-a-tabbed-item": (
        f'derive id=x base=late via=CONV target=U\nitem\tid=late lang=riffian radical="l" cogset=C {_T}',
        [(3, 13, "forward reference: base 'late' is declared at line 4, after this derive at line 3")]),
    "derive-off-a-base-dropped-for-a-bad-value": (
        'item id=b lang=riffian radical="r" cogset=C template={N, +SG, +SG}\nderive id=c base=b via=CONV',
        [(3, 45, "duplicate atoms in '{N, +SG, +SG}'"),
         (4, 13, "base 'b' on line 3 was not loaded because that line has errors")]),
    "derive-off-its-own-id": (
        "derive id=c base=c via=CONV",
        [(3, 13, "base 'c' is this derive's own id")]),
    "derive-duplicate-id": (
        "derive id=a base=a via=WIDEN",
        [(3, 1, "id 'a' already declared at line 2")]),
    "bad-flag-on-a-base-a-later-line-uses": (
        f'item id=b lang=riffian radical="r" cogset=C {_T} common=maybe\nderive id=c base=b via=CONV target=U',
        [(3, 89, "common must be true or false, got 'maybe'")]),
}


@pytest.mark.parametrize("text, expected", _SINGLE_FAULTS.values(), ids=_SINGLE_FAULTS.keys())
def test_a_single_fault_gives_its_exact_issues(text, expected):
    doc = parse(HEADER + _BASE_A + text + "\n")
    assert [(i.line, i.column, i.message) for i in doc.issues] == expected


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
