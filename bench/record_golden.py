"""Record the golden stdout of the cli-cold commands into golden.json.

    python3 bench/record_golden.py

Run from the root of a checkout whose output is the reference (the goldens
in this directory were recorded at commit 224c0fa).  Every command is run
as ``python -m tbmc`` in the benchmark's pinned environment; the worker
compares each cli-cold op byte for byte against what this writes.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import subprocess  # noqa: E402

from run import BENCH, ROOT, pinned_env  # noqa: E402

C = "src/tbmc/corpora/"
COMMANDS = (
    ("validate-fig2", ["validate", C + "riffian_fig2.tbmc"]),
    ("validate-french", ["validate", C + "french_example1.tbmc"]),
    ("validate-table3", ["validate", C + "table3_estimation.tbmc"]),
    ("derive", ["derive", C + "riffian_fig2.tbmc", "sendu_2"]),
    ("derive-what-if", ["derive", C + "french_example1.tbmc", "--base", "hexagone_1",
                        "--via", "WIDEN", "--target", "U"]),
    ("trace", ["trace", C + "riffian_fig2.tbmc", "ieis_v"]),
    ("solve", ["solve", "--base", "{N,+SG,-PL,+M,-F,+DEF,-COL}",
               "--result", "{N,+SG,-PL,-M,+F,+DEF,-COL}"]),
    ("enumerate", ["enumerate", "--profile", "riffian"]),
    ("enumerate-well-formed", ["enumerate", "--profile", "riffian", "--well-formed"]),
    ("estimate", ["estimate", C + "table3_estimation.tbmc"]),
    ("selfcheck", ["selfcheck"]),
)


def main() -> int:
    commands = []
    for name, argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "tbmc", *argv], capture_output=True,
                              env=pinned_env(), cwd=ROOT)
        commands.append({"name": name, "argv": argv, "exit": proc.returncode,
                         "stdout": proc.stdout.decode("utf-8")})
    text = json.dumps({"commands": commands}, ensure_ascii=False, indent=1)
    (BENCH / "golden.json").write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
