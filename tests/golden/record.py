"""Record the command transcript that ``tests/test_golden.py`` replays.

    PYTHONPATH=src python tests/golden/record.py

Run from any directory, at a commit whose command output is the reference.
The script keeps every entry ``transcript.json`` (next to it) already holds,
byte for byte, and appends an entry for each command of ``build()`` that the
transcript lacks; it drops the entries of names ``build()`` no longer lists
and prints those names.  To re-record a command, delete its entry first.  A
new entry is recorded in process through ``tbmc.cli.main`` with captured
streams: its argv, exit code, stdout and stderr.  The transcript also holds
the corpora the commands read besides the bundled ones.  The test only reads
the transcript.

In an argv and in the output, ``{corpora}`` stands for the directory of the
bundled corpora and ``{tmp}`` for the directory the corpora of the
transcript are written to, so the transcript holds no machine's paths.
Recording a command changes what the test pins: list every command whose
recorded output changes as a deliberate change.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from tbmc import cli, corpus
from tbmc.corpora import BUNDLED, fixture_path

HERE = Path(__file__).resolve().parent
TRANSCRIPT = HERE / "transcript.json"
CORPORA = str(fixture_path(BUNDLED[0]).parent)
# argparse wraps usage and help text to the terminal's width
COLUMNS = "80"

# A corpus whose items fail to resolve, so the transcript pins the bytes and
# the order of the ``error: item ...`` lines: a template-less head with a
# three-deep chain under it, a chain that resolves, and a French MDERIV to a
# set that has no initial template, with a conversion under it.
FAILING = """\
item id=head lang=riffian radical="ka" cogset=C
derive id=conv base=head via=CONV target=U
derive id=mderiv base=conv via=MDERIV target=C expect_template={N, +SG, -PL, +M, -F, -COL, +SING}
derive id=widen base=mderiv via=WIDEN
item id=ok_1 lang=riffian radical="sendu" cogset=C template={N, +SG, -PL, +M, -F, -COL, +SING}
derive id=ok_2 base=ok_1 via=CONV target=U expect_template={N, +SG, -PL, -M, +F, -COL, +SING}
item id=sol_1 lang=french radical="sol" cogset=C template={N, +SG, -PL, +M, -F, +DEF, -COL}
derive id=sol_2 base=sol_1 via=MDERIV target=C
derive id=sol_3 base=sol_2 via=CONV
"""
# Two failures on one chain, so the transcript pins which one a trace
# raises: ``f`` fails (X has no initial template), ``v`` is a verb off it,
# and ``w`` fails on its own under the verb (Z has none).
TWO_FAILURES = """\
item id=h lang=riffian radical="ka" cogset=C template={N, +SG, -PL, +M, -F, -COL, +SING}
derive id=f base=h via=MDERIV target=X
derive id=v base=f via=CONV target=V
derive id=w base=v via=MDERIV target=Z
"""
# A two-item set, so ``estimate --unfiltered C`` finds a tie, and one corpus
# per parse or load fault that no other corpus of the transcript reaches;
# each fault corpus is validated.
TIE = """\
item id=a lang=riffian radical="ka" cogset=C template={N, +SG, -PL, -M, +F, -COL, +SING}
item id=b lang=riffian radical="kb" cogset=C template={N, +SG, -PL, +M, -F, -COL, +SING}
"""
FAULTS = {
    "profile-without-slots": "profile foo category=N\n",
    "initial-without-cogset": "initial riffian = {N}\n",
    "initial-without-equals": "initial riffian.C {N}\n",
    "item-of-unknown-language": 'item id=x lang=nolang radical="ka" cogset=C\n',
    "bad-expect-template": 'item id=a lang=riffian radical="ka" cogset=C '
                           "template={N, +SG, -PL, +M, -F, -COL, +SING}\n"
                           "derive id=b base=a via=CONV expect_template={N, +XX}\n",
}
# what each hostile corpus of tests/test_cli.py is run through
HOSTILE_COMMANDS = (("validate",), ("validate", "--format", "records"), ("derive", "c"),
                    ("trace", "a"), ("estimate",), ("derive", "--base", "a", "--via", "WIDEN"))


def _test_cli():
    """``tests/test_cli.py``, for its hostile argv and corpora."""
    spec = importlib.util.spec_from_file_location("_golden_test_cli", HERE.parent / "test_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _item_ids(name):
    with open(fixture_path(name), encoding="utf-8") as handle:
        document = corpus.parse(handle.read())
    return [s.item.id if isinstance(s, corpus.ItemStmt) else s.edge.derived_id
            for s in document.statements if isinstance(s, (corpus.ItemStmt, corpus.DeriveStmt))]


def _encode(text):
    return text if isinstance(text, str) else {"hex": text.hex()}


def decode(stored):
    """A corpus of the transcript as the text or bytes to write."""
    return stored if isinstance(stored, str) else bytes.fromhex(stored["hex"])


def build():
    """The corpora of the transcript and the argv of each command, by name."""
    test_cli = _test_cli()
    corpora = {"failing.tbmc": FAILING, "two-failures.tbmc": TWO_FAILURES, "tie.tbmc": TIE}
    corpora.update((f"fault-{name}.tbmc", text) for name, text in FAULTS.items())
    corpora.update((f"hostile-{name}.tbmc", _encode(text))
                   for name, text in test_cli._HOSTILE_CORPORA.items())
    commands = []

    def add(name, *argv):
        commands.append((name, [a.replace(CORPORA, "{corpora}") for a in argv]))

    for name in BUNDLED:
        path = f"{{corpora}}/{name}.tbmc"
        add(f"{name}/validate", "validate", path)
        add(f"{name}/validate-records", "validate", path, "--format", "records")
        add(f"{name}/estimate", "estimate", path)
        for item_id in _item_ids(name):
            for command in ("derive", "trace"):
                add(f"{name}/{command}/{item_id}", command, path, item_id)
                add(f"{name}/{command}-records/{item_id}", command, path, item_id, "--format", "records")

    fig2, french, table3 = (f"{{corpora}}/{name}.tbmc" for name in BUNDLED)
    for name, argv in (
        ("readme/derive-what-if", ("derive", french, "--base", "hexagone_1", "--via", "WIDEN",
                                   "--target", "U")),
        ("readme/solve", ("solve", "--base", "{N,+SG,-PL,+M,-F,+DEF,-COL}",
                          "--result", "{N,+SG,-PL,-M,+F,+DEF,-COL}")),
        ("readme/enumerate", ("enumerate", "--profile", "riffian")),
        ("readme/enumerate-well-formed", ("enumerate", "--profile", "riffian", "--well-formed")),
        ("readme/selfcheck", ("selfcheck", "--atoms", "3")),
        ("solve/identity", ("solve", "--base", "{N,+SG,-PL,+M,-F,-COL,+SING}",
                            "--result", "{N,+SG,-PL,+M,-F,-COL,+SING}")),
        ("solve/french-profile", ("solve", "--base", "{N,+SG,-PL,+M,-F,+DEF,-COL}",
                                  "--result", "{N,+SG,-PL,+M,-F,-DEF,-COL}", "--profile", "french")),
        ("solve/no-profile", ("solve", "--base", "{N,+SG}", "--result", "{N,+SG}")),
        ("enumerate/french", ("enumerate", "--profile", "french")),
        ("enumerate/french-well-formed-records", ("enumerate", "--profile", "french", "--well-formed",
                                                  "--format", "records")),
        ("selfcheck/default", ("selfcheck",)),
        ("selfcheck/records", ("selfcheck", "--atoms", "2", "--format", "records")),
        ("selfcheck/atoms-9", ("selfcheck", "--atoms", "9")),
        ("derive/what-if-borrow", ("derive", fig2, "--via", "BORROW", "--target", "U",
                                   "--donor-gender", "M", "--lang", "riffian")),
        ("derive/what-if-verb-base-records", ("derive", fig2, "--base", "ieis_v", "--via", "CONV",
                                              "--target", "U", "--format", "records")),
        ("estimate/records", ("estimate", table3, "--format", "records")),
        ("help", ("--help",)),
        ("no-command", ()),
    ):
        add(name, *argv)

    for k, argv in enumerate(test_cli._HOSTILE_ARGV):
        add(f"hostile-argv/{k}", *argv)
    for name in test_cli._HOSTILE_CORPORA:
        for argv in HOSTILE_COMMANDS:
            add(f"hostile-{name}/{' '.join(argv)}", argv[0], f"{{tmp}}/hostile-{name}.tbmc", *argv[1:])

    failing = "{tmp}/failing.tbmc"
    add("failing/validate", "validate", failing)
    add("failing/validate-records", "validate", failing, "--format", "records")
    for item_id in ("head", "conv", "mderiv", "widen", "ok_1", "ok_2", "sol_1", "sol_2", "sol_3"):
        for command in ("derive", "trace"):
            add(f"failing/{command}/{item_id}", command, failing, item_id)
            add(f"failing/{command}-records/{item_id}", command, failing, item_id, "--format", "records")
    add("failing/what-if-off-a-failed-base", "derive", failing, "--base", "conv", "--via", "WIDEN")
    add("failing/what-if-off-a-resolved-base", "derive", failing, "--base", "ok_2", "--via", "CONV")
    for item_id in ("h", "f", "v", "w"):
        add(f"two-failures/trace/{item_id}", "trace", "{tmp}/two-failures.tbmc", item_id)
        add(f"two-failures/trace-records/{item_id}", "trace", "{tmp}/two-failures.tbmc", item_id,
            "--format", "records")
    for flag, value in (("--target", "U"), ("--animate", "false"), ("--donor-gender", "M"),
                        ("--gradcond", "R3"), ("--lang", "riffian")):
        add(f"derive/item-with{flag}", "derive", fig2, "sendu_2", flag, value)
    for flag in ("--target", "--lang"):
        add(f"derive/what-if-empty{flag}", "derive", fig2, "--base", "sendu_1", "--via", "CONV", flag, "")
    add("derive/what-if-borrow-empty--base", "derive", fig2, "--via", "BORROW", "--base", "",
        "--target", "U", "--donor-gender", "M", "--lang", "riffian")
    add("derive/item-with-empty--base", "derive", fig2, "sendu_2", "--base", "")
    # a what-if off a superseded base, and a donor gender on a conversion
    add("derive/what-if-off-a-superseded-base", "derive", fig2, "--base", "razi_1", "--via", "CONV")
    add("derive/what-if-off-a-superseded-base-records", "derive", fig2, "--base", "razi_1", "--via", "CONV",
        "--format", "records")
    add("derive/what-if-conv-with--donor-gender", "derive", fig2, "--base", "sendu_1", "--via", "CONV",
        "--donor-gender", "M")
    add("estimate/unfiltered-tie", "estimate", "{tmp}/tie.tbmc", "--unfiltered", "C")
    for name in FAULTS:
        add(f"fault-{name}/validate", "validate", f"{{tmp}}/fault-{name}.tbmc")
    return corpora, commands


def substitute(argv, places):
    """An argv of the transcript with its placeholders filled in."""
    out = []
    for arg in argv:
        for key, value in places.items():
            arg = arg.replace(key, value)
        out.append(arg)
    return out


def run(argv, places):
    """Run one command in process: exit code, stdout and stderr, the directories
    of ``places`` put back as their placeholders."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(substitute(argv, places))
        except SystemExit as exc:  # argparse exits itself
            code = exc.code
    return {"exit": code, "stdout": mask(stdout.getvalue(), places),
            "stderr": mask(stderr.getvalue(), places)}


def mask(text, places):
    for key, value in sorted(places.items(), key=lambda kv: -len(kv[1])):
        text = text.replace(value, key)
    return text


def write_corpora(corpora, directory):
    for name, stored in corpora.items():
        data = decode(stored)
        path = Path(directory) / name
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data, encoding="utf-8")


def merge(transcript, corpora, commands, record):
    """The transcript of ``build()``'s ``corpora`` and ``commands``, and the
    names it leaves out.  The entries of ``transcript`` whose names
    ``commands`` lists stay as they are and in their order; an entry from
    ``record(argv)`` follows for each command ``transcript`` lacks.  The
    corpora keep the order ``transcript`` gives them."""
    kept_corpora = {name: corpora[name] for name in transcript["corpora"] if name in corpora}
    kept_corpora.update(corpora)  # a new corpus goes last
    names = {name for name, _ in commands}
    kept = [entry for entry in transcript["commands"] if entry["name"] in names]
    dropped = [entry["name"] for entry in transcript["commands"] if entry["name"] not in names]
    have = {entry["name"] for entry in kept}
    added = [{"name": name, "argv": argv, **record(argv)} for name, argv in commands if name not in have]
    return {"corpora": kept_corpora, "commands": kept + added}, dropped


def dump(transcript):
    """The text of ``transcript.json``."""
    return json.dumps(transcript, ensure_ascii=False, indent=1) + "\n"


def main():
    os.environ["COLUMNS"] = COLUMNS
    corpora, commands = build()
    old = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="tbmc-golden-") as tmp:
        write_corpora(corpora, tmp)
        places = {"{corpora}": CORPORA, "{tmp}": tmp}
        transcript, dropped = merge(old, corpora, commands, lambda argv: run(argv, places))
    TRANSCRIPT.write_text(dump(transcript), encoding="utf-8")
    for name in dropped:
        print(f"dropped {name}")
    added = len(transcript["commands"]) - (len(old["commands"]) - len(dropped))
    print(f"{added} commands recorded, {len(dropped)} dropped, "
          f"{len(transcript['commands'])} in {TRANSCRIPT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
