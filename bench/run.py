"""Benchmark entry point for tbmc.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script pins the benchmark's own
environment, so results do not depend on the caller's shell:

* a fixed ``PYTHONHASHSEED``;
* ``PYTHONPATH`` pointing at ``src/``, so nothing needs installing;
* a bytecode cache under ``.bench_build/``, filled here, untimed, before any
  measurement.  Nothing is written under ``src/``.

It then runs ``worker.py`` in a fresh interpreter with that environment and
passes its output through; the last line is the result JSON.  Without
``src/tbmc`` next to this directory it exits with code 2 and prints no result;
a worker still running ``DEADLINE_MARGIN_S`` after ``--seconds`` is killed
and the script exits with code 3.
"""

import sys

sys.dont_write_bytecode = True  # this script writes nothing next to itself

import argparse  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "tbmcbench"
WORKLOADS = ("cli-cold", "bulk-validate", "whatif-deep")
# a run ends within --seconds plus this: input generation, set-up and the last op
DEADLINE_MARGIN_S = 135


def pinned_env() -> dict:
    """The caller's environment minus its Python settings, plus the benchmark's."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") or k == "PYTHONHOME"}
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
        PYTHONIOENCODING="utf-8",
        PYTHONUTF8="1",
    )
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "tbmc" / "__init__.py").is_file():
        print(f"no tbmc sources under {ROOT / 'src'}; run from a tbmc checkout", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    env = pinned_env()
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "tbmc")],
                   env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=60)

    worker = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    deadline_s = args.seconds + DEADLINE_MARGIN_S
    try:
        out, _ = worker.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        # the worker and any command it started share one process group
        os.killpg(worker.pid, signal.SIGKILL)
        worker.wait()
        print(f"run exceeded {deadline_s:g} s", file=sys.stderr)
        return 3
    sys.stdout.write(out.decode("utf-8"))
    return worker.returncode


if __name__ == "__main__":
    sys.exit(main())
