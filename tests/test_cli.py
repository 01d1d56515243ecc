"""Command-line behaviour: outputs, exit codes, determinism."""

import os
import subprocess
import sys

import pytest

from tbmc.cli import main
from tbmc.corpora import fixture_path

FIG2 = str(fixture_path("riffian_fig2"))
FRENCH = str(fixture_path("french_example1"))
TABLE3 = str(fixture_path("table3_estimation"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_passes_on_fixtures(capsys):
    for path in (FIG2, FRENCH, TABLE3):
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        assert out.rstrip().endswith("result: PASS")


# a conversion whose expected template is its base's, which R1 changes
MISMATCHING = ('item id=a lang=riffian radical="x" cogset=C '
               "template={N, +SG, -PL, +M, -F, -COL, +SING}\n"
               "derive id=b base=a via=CONV target=U "
               "expect_template={N, +SG, -PL, +M, -F, -COL, +SING}\n")


def test_validate_mismatch_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.tbmc"
    bad.write_text(MISMATCHING, encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "MISMATCH" in out


def test_parse_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "broken.tbmc"
    bad.write_text("derive id=a base=ghost via=CONV\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "never declared" in err
    assert out == ""


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent.tbmc")
    assert code == 2
    assert "cannot read" in err


def test_non_utf8_corpus_exits_two(tmp_path, capsys):
    bad = tmp_path / "not_utf8.tbmc"
    bad.write_bytes(b"\xff\xfe")
    for argv in (("validate", str(bad)), ("derive", str(bad), "a")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("cannot read corpus:") and err.count("\n") == 1


NO_INITIAL = (
    'item id=sol_1 lang=french radical="sol" cogset=C '
    "template={N, +SG, -PL, +M, -F, +DEF, -COL}\n"
    "derive id=sol_2 base=sol_1 via=MDERIV target=C\n"
)


def test_validate_without_an_initial_template_exits_two(tmp_path, capsys):
    path = tmp_path / "no_initial.tbmc"
    path.write_text(NO_INITIAL, encoding="utf-8")
    message = "error: item sol_2: no initial template for cognitive set 'C' in 'french'"
    code, out, err = run(capsys, "validate", str(path), "--format", "records")
    assert code == 2
    assert err == message + "\n"
    assert out == "result=fail\n"
    code, out, err = run(capsys, "validate", str(path))  # text mode: stdout too
    assert code == 2
    assert err == message + "\n"
    assert out.splitlines()[0] == message


def test_derive_without_an_initial_template_exits_two(tmp_path, capsys):
    path = tmp_path / "no_initial.tbmc"
    path.write_text(NO_INITIAL, encoding="utf-8")
    code, out, err = run(capsys, "derive", str(path), "sol_2")
    assert code == 2
    assert err == "no initial template for cognitive set 'C' in 'french'\n"
    assert out == ""


@pytest.fixture(scope="module")
def deep_chain(tmp_path_factory):
    path = tmp_path_factory.mktemp("deep") / "deep.tbmc"
    path.write_text("\n".join(
        ['item id=c0 lang=riffian radical="ka" cogset=C '
         "template={N, +SG, -PL, +M, -F, -COL, +SING}"]
        + [f"derive id=c{k} base=c{k - 1} via=CONV" for k in range(1, 5000)]) + "\n",
        encoding="utf-8")
    return str(path)


TIP = "{N, +SG, -PL, -M, +F, -COL, +SING}"


@pytest.mark.parametrize("argv, count, line", [
    (("derive", "c4999"), 7, "stratum: 4999"),
    (("trace", "c4999"), 5000, " " * 9998 + f"c4999  [CONV R1, stratum 4999]  {TIP}"),
    (("trace", "c0"), 5000, " " * 9998 + f"c4999  [CONV R1, stratum 4999]  {TIP}"),
    (("trace", "c0", "--format", "records"), 5000,
     f"id=c4999\tdepth=4999\tstratum=4999\tstep=CONV\trule=R1\ttemplate={TIP}\tlive=true"),
], ids=["derive-tip", "trace-tip", "trace-head", "trace-head-records"])
def test_a_5000_deep_chain_derives_and_traces(deep_chain, capsys, argv, count, line):
    code, out, err = run(capsys, argv[0], deep_chain, *argv[1:])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == count
    assert line in out.splitlines()


def test_solve_prints_the_gender_operand(capsys):
    code, out, _ = run(
        capsys, "solve",
        "--base", "{N,+SG,-PL,+M,-F,+DEF,-COL}",
        "--result", "{N,+SG,-PL,-M,+F,+DEF,-COL}")
    assert code == 0
    assert out == "{+M, -M, +F, -F}\n"


def test_solve_identity_is_empty(capsys):
    code, out, _ = run(
        capsys, "solve",
        "--base", "{N,+SG,-PL,+M,-F,-COL,+SING}",
        "--result", "{N,+SG,-PL,+M,-F,-COL,+SING}")
    assert code == 0
    assert out == "{}\n"


def test_solve_rejects_unfitting_templates(capsys):
    code, _, err = run(capsys, "solve", "--base", "{N,+SG}", "--result", "{N,+SG}")
    assert code == 2
    assert "no built-in profile" in err


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--profile", "riffian")
    assert code == 0
    assert out.rstrip().endswith("64 candidates")
    assert len(out.splitlines()) == 65
    code, out, _ = run(capsys, "enumerate", "--profile", "riffian", "--well-formed")
    assert out.rstrip().endswith("8 well-formed templates")


def test_enumerate_unknown_profile(capsys):
    code, _, err = run(capsys, "enumerate", "--profile", "klingon")
    assert code == 2
    assert "unknown profile" in err


def test_derive_resolves_an_item(capsys):
    code, out, _ = run(capsys, "derive", FIG2, "sendu_2")
    assert code == 0
    assert "rule: R1" in out
    assert "template: {N, +SG, -PL, -M, +F, -COL, +SING}" in out
    assert "surface: ða-senduθ (ðasenduθ)" in out


def test_derive_ad_hoc_widening_preserves_the_template(capsys):
    code, out, _ = run(capsys, "derive", FRENCH,
                       "--base", "hexagone_1", "--via", "WIDEN", "--target", "U")
    assert code == 0
    assert "template: {N, +SG, -PL, +M, -F, +DEF, -COL}" in out
    assert "rule: R2" in out


def test_derive_ad_hoc_borrow(capsys):
    code, out, _ = run(capsys, "derive", FIG2, "--via", "BORROW",
                       "--target", "U", "--donor-gender", "M", "--lang", "riffian")
    assert code == 0
    assert "template: {N, +SG, -PL, +M, -F, +COL, -SING}" in out
    assert "rule: R5" in out


def test_derive_ad_hoc_from_a_verb_base(capsys):
    code, out, _ = run(capsys, "derive", FIG2,
                       "--base", "ieis_v", "--via", "CONV", "--target", "U")
    assert code == 0
    assert "rule: R4" in out
    assert "template: {N, +SG, -PL, -M, +F, +COL, -SING}" in out
    assert "(ðiɛist)" in out  # radical preserved, spell-out previewed


def test_derive_ad_hoc_to_a_verb_exits_two_like_the_corpus_path(tmp_path, capsys):
    code, out, err = run(capsys, "derive", FIG2,
                         "--base", "sendu_1", "--via", "CONV", "--target", "V")
    assert (code, out, err) == (2, "", "rule R1 cannot assign a template to target 'V'\n")
    # the same edge as a corpus line makes a verb, which has no template either
    corpus = tmp_path / "verb.tbmc"
    with open(FIG2, encoding="utf-8") as handle:
        corpus.write_text(handle.read() + "derive id=sendu_x base=sendu_1 via=CONV target=V\n",
                          encoding="utf-8")
    code, out, err = run(capsys, "derive", str(corpus), "sendu_x")
    assert (code, out) == (2, "")
    assert "category V has no registered template inventory" in err


@pytest.mark.parametrize("argv, message", [
    (("--via", "BORROW", "--lang", "riffian"), "edge (ad hoc borrowing): no target cognitive set"),
    (("--base", "ieis_v", "--via", "CONV"), "edge (ad hoc from ieis_v): no target cognitive set"),
    (("--via", "BORROW"), "edge (ad hoc borrowing): borrowing needs an explicit language"),
    (("--via", "BORROW", "--lang", "xx"), "edge (ad hoc borrowing): no profile for language 'xx'"),
    (("--base", "rgaz_1", "--via", "CONV", "--donor-gender", "M"),
     "edge (ad hoc from rgaz_1): donor_gender is only meaningful on BORROW"),
], ids=["borrow-without-target", "verb-base-without-target", "borrow-without-lang", "unknown-lang",
        "donor-gender-off-borrow"])
def test_derive_ad_hoc_input_errors_name_the_edge(capsys, argv, message):
    assert run(capsys, "derive", FIG2, *argv) == (2, "", message + "\n")


@pytest.mark.parametrize("flag, value", [
    ("--target", "U"), ("--animate", "false"), ("--animate", "true"), ("--donor-gender", "M"),
    ("--gradcond", "R3"), ("--lang", "riffian"),
])
def test_derive_of_an_item_rejects_each_what_if_flag(capsys, flag, value):
    message = f"{flag} applies only to an ad-hoc derivation\n"
    assert run(capsys, "derive", FIG2, "sendu_2", flag, value) == (2, "", message)
    # --base and --via keep their own message, whatever else is given
    assert run(capsys, "derive", FIG2, "sendu_2", "--via", "CONV", flag, value) == (
        2, "", "give either an item id or --base/--via, not both\n")


def test_derive_ad_hoc_reads_an_explicit_animate_false_as_the_default(capsys):
    argv = ("derive", FIG2, "--base", "sendu_1", "--via", "CONV", "--target", "U")
    assert run(capsys, *argv, "--animate", "false") == run(capsys, *argv)
    assert "rule: R2" in run(capsys, *argv, "--animate", "true")[1]


@pytest.mark.parametrize("flag", ["--target", "--lang"])
def test_derive_ad_hoc_rejects_an_empty_target_or_language(capsys, flag):
    # as a corpus line with ``target=`` fails to parse; --gradcond "" keeps its own message
    argv = ("derive", FIG2, "--base", "sendu_1", "--via", "CONV")
    assert run(capsys, *argv, flag, "") == (2, "", f"missing value for {flag}\n")
    assert run(capsys, *argv, "--gradcond", "") == (2, "", "no gradient rule '' in the registry\n")


def test_derive_ad_hoc_rejects_an_empty_base(capsys):
    # a borrowing with --base "" is not one without a base; off BORROW the needs-base check comes first
    borrowing = ("--via", "BORROW", "--target", "U", "--donor-gender", "M", "--lang", "riffian")
    assert run(capsys, "derive", FIG2, "--base", "", *borrowing) == (2, "", "missing value for --base\n")
    assert run(capsys, "derive", FIG2, "--base", "", "--via", "CONV") == (
        2, "", "ad-hoc derivation needs --base and --via (BORROW may omit --base)\n")


def test_derive_unknown_item(capsys):
    code, _, err = run(capsys, "derive", FIG2, "ghost")
    assert code == 2
    assert "unknown item" in err


def test_trace_renders_the_tree(capsys):
    code, out, _ = run(capsys, "trace", FIG2, "ieis_v")
    assert code == 0
    assert out.splitlines()[0].startswith("ieis_v")
    assert "mieis_2" in out


def test_estimate_reports_three_sets(capsys):
    code, out, _ = run(capsys, "estimate", TABLE3)
    assert code == 0
    assert "cognitive set C" in out
    assert "cognitive set U" in out
    assert "cognitive set NA" in out
    assert "{N, +SG, -PL, -M, +F, -COL, +SING}" in out


def test_selfcheck_passes(capsys):
    code, out, _ = run(capsys, "selfcheck")
    assert code == 0
    assert out.count("pass") == 3


@pytest.mark.parametrize("atoms", ["-3", "9"])
def test_selfcheck_rejects_atoms_out_of_range(capsys, atoms):
    with pytest.raises(SystemExit) as exit_info:
        main(["selfcheck", "--atoms", atoms])
    assert exit_info.value.code == 2
    assert f"--atoms: invalid choice: {atoms} (choose from 1, 2, 3, 4)" in capsys.readouterr().err


def test_records_format_is_tab_separated(capsys):
    code, out, _ = run(capsys, "validate", FIG2, "--format", "records")
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("kind=template\t")
    assert "status=ok" in first
    code, out, _ = run(capsys, "selfcheck", "--format", "records")
    assert "check=group-axioms\tstatus=pass" in out


@pytest.mark.parametrize("argv", [
    ("validate", FIG2),
    ("validate", FRENCH, "--format", "records"),
    ("derive", FIG2, "refin_2"),
    ("trace", FIG2, "sumer_v"),
    ("enumerate", "--profile", "french"),
    ("estimate", TABLE3, "--format", "records"),
    ("selfcheck", "--atoms", "3"),
    ("solve", "--base", "{N,+SG,-PL,-M,+F,-COL,+SING}",
     "--result", "{N,+SG,-PL,+M,-F,-COL,+SING}"),
])
def test_double_runs_are_byte_identical(capsys, argv):
    first_code = main(list(argv))
    first = capsys.readouterr().out
    second_code = main(list(argv))
    second = capsys.readouterr().out
    assert first_code == second_code
    assert first == second


def test_console_entry_point_via_module():
    proc = subprocess.run(
        [sys.executable, "-m", "tbmc", "selfcheck", "--atoms", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pass" in proc.stdout


@pytest.mark.parametrize("argv", [
    ("validate", FIG2, "--format", "records"),
    ("trace", FIG2, "ieis_v"),
    ("estimate", TABLE3),
])
def test_output_is_stable_across_hash_seeds(argv):
    # in-process double runs share one hash seed; separate interpreters with
    # different seeds expose any dependence on set iteration order
    outputs = set()
    for seed in ("1", "424242"):
        # the child must import the same tbmc as this session (from
        # PYTHONPATH or an install), so it inherits the environment and
        # only the hash seed varies
        proc = subprocess.run(
            [sys.executable, "-m", "tbmc", *argv],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


# -- the failure contract: exit 0, 1 or 2, never a traceback ----------------------

_HEAD = ('item id=a lang=riffian radical="ka" cogset=C '
         "template={N, +SG, -PL, +M, -F, -COL, +SING}\n")
_HOSTILE_CORPORA = {
    "empty": "",
    "not-utf8": b"\xff\xfe\x00",
    "garbage": "frob x=1\nitem\n=\n{}\n",
    "tabbed": _HEAD.replace("item ", "item\t") + "derive\tid=b base=a via=CONV\n",
    "forward": "derive id=c base=late via=CONV\n" + _HEAD.replace("id=a", "id=late"),
    "dropped-base": 'item id=b lang=riffian radical="k" cogset=C template={N, +SG, +SG}\n'
                    "derive id=c base=b via=CONV\n",
    "duplicate": _HEAD + _HEAD,
    "no-profile": _HEAD.replace("riffian", "klingon"),
    "no-initial": NO_INITIAL,
    "widen-twice": _HEAD + "derive id=b base=a via=WIDEN\nderive id=c base=a via=WIDEN\n",
    "bad-gradcond": _HEAD + "derive id=b base=a via=CONV gradcond=R9\n",
    "verb-target": _HEAD + "derive id=b base=a via=CONV target=V\nderive id=c base=b via=CONV\n",
    "borrow-without-donor": 'derive id=b via=BORROW lang=riffian radical="x" target=U\n',
    "mismatch": _HEAD + "derive id=b base=a via=CONV expect_template={N, +SG, -PL, +M, -F, -COL, +SING}\n",
    "unspellable-profile": "profile foo category=N slots=[SG|PL|DU, M|F]\n"
                           'item id=a lang=foo radical="ka" cogset=C template={N, +SG, -PL, +M, -F}\n',
}
_HOSTILE_ARGV = [
    ("derive", FIG2, "fad_v"), ("derive", FIG2, "sendu_2", "--base", "sendu_1"), ("derive", FIG2),
    ("derive", FIG2, "--via", "CONV"), ("derive", FIG2, "--base", "ghost", "--via", "CONV"),
    ("derive", FIG2, "--base", "sendu_1", "--via", "BORROW"),
    ("derive", FIG2, "--base", "sendu_1", "--via", "CONV", "--lang", "french"),
    ("derive", FIG2, "--base", "sendu_1", "--via", "CONV", "--gradcond", "R9"),
    ("derive", FIG2, "--base", "raza_v", "--via", "CONV", "--gradcond", "R3", "--target", "V"),
    ("derive", FIG2, "--base", "ieis_v", "--via", "WIDEN", "--target", "U"),
    ("derive", FIG2, "--via", "BORROW", "--target", "U", "--donor-gender", "M", "--lang", "french"),
    ("derive", FRENCH, "--base", "sol_1", "--via", "MDERIV", "--target", "C"),
    ("derive", FIG2, "--via", "NOPE"), ("trace", FIG2, "ghost"),
    ("estimate", FIG2, "--require-any", "nope"), ("enumerate", "--profile", "klingon"),
    ("solve", "--base", "{N,+SG", "--result", "{N,+SG}"),
    ("solve", "--base", "{N,+SG,-PL,+M,-F,-COL,+SING}", "--result", "{N,+SG,-PL,-M,+F,-COL,+SING}",
     "--profile", "xx"),
    ("solve", "--base", "{N,+SG,-PL,+M,-F,-COL,+SING}", "--result", "{N,+SG,-PL,-M,+F,+DEF,-COL}",
     "--profile", "riffian"),
    ("selfcheck", "--atoms", "0"), ("validate", "/nonexistent.tbmc"),
    ("trace", "/nonexistent.tbmc", "a"), ("validate", os.path.dirname(FIG2)),
]


def _exit_of(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects a flag before any command runs
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "None" not in err
    return code


@pytest.mark.parametrize("argv", _HOSTILE_ARGV)
def test_a_hostile_command_exits_with_a_code(capsys, argv):
    _exit_of(argv, capsys)


@pytest.mark.parametrize("text", _HOSTILE_CORPORA.values(), ids=_HOSTILE_CORPORA.keys())
def test_a_hostile_corpus_exits_with_a_code(tmp_path, capsys, text):
    path = tmp_path / "hostile.tbmc"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    for argv in (("validate",), ("validate", "--format", "records"), ("derive", "c"), ("trace", "a"),
                 ("estimate",), ("derive", "--base", "a", "--via", "WIDEN")):
        _exit_of((argv[0], str(path), *argv[1:]), capsys)


@pytest.mark.parametrize("text, flags, name", [
    ('item id=a lang=riffian radical="ka" cogset=C typical=true '
     "template={N, +SG, -PL, +M, -F, -COL, +SING}\n", ("--require-any", "typical,zzz"), "zzz"),
    ("", ("--exclude", "nonsense"), "nonsense"),
])
def test_estimate_rejects_an_unknown_flag_whatever_the_corpus_holds(tmp_path, capsys, text, flags, name):
    path = tmp_path / "corpus.tbmc"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, "estimate", str(path), *flags) == (2, "", f"unknown corpus flag {name!r}\n")


# -- cross-command agreement ---------------------------------------------------------

def _records(capsys, *argv):
    """Each stdout line of a command as a dict, and its exit code."""
    code, out, _ = run(capsys, *argv)
    return code, [dict(field.split("=", 1) for field in line.split("\t")) for line in out.splitlines()]


@pytest.mark.parametrize("name", ["riffian_fig2", "french_example1", "table3_estimation"])
def test_derive_validate_and_trace_agree_on_every_item(capsys, name):
    from tbmc import corpus, realizer

    path = str(fixture_path(name))
    state = corpus.load_path(path).state
    code, rows = _records(capsys, "validate", path, "--format", "records")
    assert code == 0
    validated = {row["id"]: row for row in rows if row.get("kind") == "template"}
    produced = {entry.item_id: entry.produced for entry in realizer.realization_audit(state)}
    assert produced

    derived = set()
    for item_id in state.items:
        code, trace = _records(capsys, "trace", path, item_id, "--format", "records")
        assert code == 0
        # an item with a base traces its path, the item last; a chain root
        # (a head or a borrowing) traces the tree under it, the item first
        edge = state.edges.get(item_id)
        node = trace[-1] if edge is not None and edge.base_id is not None else trace[0]
        assert node["id"] == item_id
        code, derive = _records(capsys, "derive", path, item_id, "--format", "records")
        if code == 2:  # a verb has no template: trace shows none either
            assert (node["rule"], node["template"]) == ("-", "-")
            continue
        assert code == 0
        (record,) = derive
        derived.add(item_id)
        assert (record["rule"], record["template"], record["stratum"]) == \
            (node["rule"], node["template"], node["stratum"])
        if item_id in validated:
            assert (record["rule"], record["template"]) == \
                (validated[item_id]["via"], validated[item_id]["actual"])
        if item_id in produced:
            assert record["surface"] == produced[item_id]
    assert set(validated) | set(produced) <= derived


# -- the process boundary: main is the one writer --------------------------------------

# one argv per subcommand, in each format it has
_EVERY_COMMAND = [
    ("validate", FIG2), ("derive", FIG2, "sendu_2"), ("trace", FIG2, "ieis_v"),
    ("enumerate", "--profile", "riffian"), ("estimate", TABLE3), ("selfcheck", "--atoms", "2"),
]


class _Unwritable:
    def write(self, text):
        raise AssertionError(f"a command wrote {text!r} itself")


@pytest.mark.parametrize("argv", [
    *_EVERY_COMMAND, *((*argv, "--format", "records") for argv in _EVERY_COMMAND),
    ("solve", "--base", "{N,+SG,-PL,+M,-F,+DEF,-COL}", "--result", "{N,+SG,-PL,-M,+F,+DEF,-COL}"),
], ids=lambda argv: " ".join(os.path.basename(arg) for arg in argv))
def test_a_command_returns_its_output_and_writes_nothing(monkeypatch, argv):
    from tbmc.cli import build_parser

    args = build_parser().parse_args(list(argv))
    monkeypatch.setattr(sys, "stdout", _Unwritable())
    monkeypatch.setattr(sys, "stderr", _Unwritable())
    code, out, err = args.func(args)
    assert (code, err) == (0, "")
    assert out.endswith("\n")


def _child(argv, buffering, stdout=subprocess.PIPE, **env):
    """``python -m tbmc ARGV`` with stdout block-buffered ("buffered") or
    written through ("unbuffered", ``PYTHONUNBUFFERED=1``)."""
    env = {key: value for key, value in {**os.environ, **env}.items() if key != "PYTHONUNBUFFERED"}
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "tbmc", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env)


@pytest.fixture
def closed_pipe():
    """The write end of a pipe whose read end is already closed, as after
    ``| head -1`` has read its line, but with no race against the reader."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    yield write_end
    os.close(write_end)


@pytest.mark.parametrize("buffering", ["unbuffered", "buffered"])
@pytest.mark.parametrize("argv, code", [
    (("validate", FIG2, "--format", "records"), 0),
    (("validate", "{mismatching}"), 1),
    (("--help",), 0),
], ids=["pass", "mismatch", "help"])
def test_a_closed_stdout_keeps_the_exit_code_and_leaves_stderr_empty(tmp_path, closed_pipe, buffering,
                                                                      argv, code):
    path = tmp_path / "mismatching.tbmc"
    path.write_text(MISMATCHING, encoding="utf-8")
    proc = _child([arg.replace("{mismatching}", str(path)) for arg in argv], buffering, stdout=closed_pipe)
    assert (proc.returncode, proc.stderr.decode()) == (code, "")


@pytest.mark.parametrize("buffering", ["unbuffered", "buffered"])
def test_output_stdout_cannot_encode_is_an_input_error_and_none_of_it_is_written(buffering):
    # the spell-out on the last line holds U+00F0, which ASCII cannot encode
    proc = _child(["derive", FIG2, "sendu_2"], buffering, PYTHONIOENCODING="ascii")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == \
        "'ascii' codec can't encode character '\\xf0' in position 177: ordinal not in range(128)\n"
