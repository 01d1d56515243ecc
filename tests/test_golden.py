"""Every command of the recorded transcript gives its recorded bytes.

``tests/golden/transcript.json`` holds each command's argv, exit code,
stdout and stderr, recorded by ``tests/golden/record.py``; this module
replays them through ``tbmc.cli.main`` in process, and a few in a child
interpreter, and never rewrites the transcript.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("_golden_record", GOLDEN / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

with open(GOLDEN / "transcript.json", encoding="utf-8") as _handle:
    TRANSCRIPT = json.load(_handle)
COMMANDS = {entry["name"]: entry for entry in TRANSCRIPT["commands"]}
# run again in a fresh `python -m tbmc`, where stdout is a pipe, not a StringIO
IN_A_CHILD = ("riffian_fig2/trace/ieis_v", "failing/validate", "hostile-argv/19")


@pytest.fixture(scope="module")
def places(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    record.write_corpora(TRANSCRIPT["corpora"], directory)
    return {"{corpora}": record.CORPORA, "{tmp}": str(directory)}


@pytest.mark.parametrize("name", COMMANDS)
def test_a_command_gives_its_recorded_output(places, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", record.COLUMNS)
    entry = COMMANDS[name]
    assert record.run(entry["argv"], places) == {k: entry[k] for k in ("exit", "stdout", "stderr")}


@pytest.mark.parametrize("name", IN_A_CHILD)
def test_a_command_gives_its_recorded_output_in_a_child_interpreter(places, name):
    entry = COMMANDS[name]
    # the child imports the same tbmc as this session; only these settings vary
    env = {**os.environ, "COLUMNS": record.COLUMNS, "PYTHONIOENCODING": "utf-8"}
    proc = subprocess.run([sys.executable, "-m", "tbmc", *record.substitute(entry["argv"], places)],
                          capture_output=True, env=env)
    got = {"exit": proc.returncode, "stdout": record.mask(proc.stdout.decode("utf-8"), places),
           "stderr": record.mask(proc.stderr.decode("utf-8"), places)}
    assert got == {k: entry[k] for k in ("exit", "stdout", "stderr")}


def test_the_recorder_builds_the_commands_of_the_transcript():
    # re-recording then adds, drops and renames no command; nothing is run here
    corpora, commands = record.build()
    assert corpora == TRANSCRIPT["corpora"]
    assert sorted(commands) == sorted((entry["name"], entry["argv"]) for entry in TRANSCRIPT["commands"])


def _record_nothing(argv):
    raise AssertionError(f"the merge ran {argv}")


def test_merging_an_unchanged_transcript_gives_the_same_bytes():
    merged, dropped = record.merge(TRANSCRIPT, *record.build(), _record_nothing)
    assert dropped == []
    assert record.dump(merged) == (GOLDEN / "transcript.json").read_text(encoding="utf-8")


def test_a_merge_appends_what_the_transcript_lacks_and_drops_what_is_gone():
    old = {"corpora": {"b.tbmc": "old b", "a.tbmc": "a"},
           "commands": [{"name": "kept", "argv": ["x"], "exit": 1, "stdout": "s", "stderr": ""},
                        {"name": "gone", "argv": ["y"], "exit": 0, "stdout": "", "stderr": ""}]}
    commands = [("new", ["z"]), ("kept", ["x"])]
    merged, dropped = record.merge(old, {"a.tbmc": "a", "b.tbmc": "b", "c.tbmc": "c"}, commands,
                                   lambda argv: {"exit": 2, "stdout": "", "stderr": f"ran {argv}"})
    assert dropped == ["gone"]
    assert list(merged["corpora"].items()) == [("b.tbmc", "b"), ("a.tbmc", "a"), ("c.tbmc", "c")]
    assert merged["commands"] == [old["commands"][0], {"name": "new", "argv": ["z"], "exit": 2,
                                                       "stdout": "", "stderr": "ran ['z']"}]
