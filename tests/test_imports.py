"""What a cold start imports: the modules each entry point loads, checked in
fresh interpreters that inherit this session's environment (so they import
the same tbmc), never by the clock."""

import subprocess
import sys

import pytest

from tbmc.corpora import fixture_path

FIG2 = str(fixture_path("riffian_fig2"))
TABLE3 = str(fixture_path("table3_estimation"))

# ``python -m tbmc ARGS``, then the modules it added to ``sys.modules`` as the last line of stderr
_RUN_MAIN = """
import runpy, sys
before = set(sys.modules)
try:
    runpy.run_module("tbmc", run_name="__main__", alter_sys=True)
finally:
    print(" ".join(sorted(set(sys.modules) - before)), file=sys.stderr)
"""
# what a class decorator that generates code imports; tbmc's classes need neither
_CODE_GENERATION = {"dataclasses", "inspect"}


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True)


@pytest.mark.parametrize("argv, absent", [
    (("validate", FIG2), {"tbmc.estimator", "tbmc.oracle"}),
    (("enumerate", "--profile", "riffian"), {"tbmc.corpus", "tbmc.realizer", "tbmc.estimator", "tbmc.oracle"}),
    (("selfcheck", "--atoms", "2"), {"tbmc.corpus", "tbmc.realizer", "tbmc.estimator"}),
    (("estimate", TABLE3), {"tbmc.oracle"}),
], ids=["validate", "enumerate", "selfcheck", "estimate"])
def test_a_command_loads_only_the_modules_it_runs(argv, absent):
    proc = _python("-c", _RUN_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert {"tbmc.cli", "tbmc.engine"} <= loaded
    assert not loaded & absent
    assert not loaded & _CODE_GENERATION


def test_importing_the_package_loads_no_submodule():
    proc = _python("-c", "import sys, tbmc; print(sorted(m for m in sys.modules if m.startswith('tbmc.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_importtime_logs_every_module_a_command_loads():
    # a submodule that tbmc.__getattr__ loads is logged like any other import
    proc = _python("-X", "importtime", "-c", "import tbmc.cli")
    assert proc.returncode == 0, proc.stderr
    logged = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert {"tbmc.cli", "tbmc.engine", "tbmc.algebra", "tbmc.lexicon", "tbmc.templates"} <= logged


_LAZY_ACCESS = """
import sys
import tbmc

names = ["algebra", "corpus", "engine", "estimator", "lexicon", "oracle", "realizer", "templates"]
assert set(names) <= set(dir(tbmc)), dir(tbmc)
assert tbmc.oracle is sys.modules["tbmc.oracle"]
from tbmc import estimator
assert estimator is tbmc.estimator is sys.modules["tbmc.estimator"]
namespace = {}
exec("from tbmc import *", namespace)
assert all(namespace[name] is sys.modules["tbmc." + name] for name in names)
assert namespace["__version__"] == tbmc.__version__
try:
    tbmc.no_such_module
except AttributeError as exc:
    assert "no_such_module" in str(exc)
else:
    raise AssertionError("tbmc.no_such_module did not raise")
assert not hasattr(tbmc, "cli")

from tbmc import corpus, engine
from tbmc.corpora import fixture_path

state = corpus.load_path(fixture_path("riffian_fig2")).state
print(engine.transfer(state, "rgaz_2").template.render())
"""


def test_submodules_load_on_first_access():
    proc = _python("-c", _LAZY_ACCESS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "{N, +SG, -PL, -M, +F, -COL, +SING}\n"


# The names the benchmark's tracer replaces or swaps by name: a rename must
# fail here, not only in a traced benchmark run.
_HOOKED_FUNCTIONS = {
    "corpus": ("parse", "load", "validate", "serialize"),
    "realizer": ("realization_audit", "realize"),
    "estimator": ("estimate_initial_templates",),
    "engine": ("transfer", "trace", "render_trace"),
}
_ENGINE_CALLERS = ("corpus", "realizer", "estimator", "cli")


def test_the_names_the_benchmark_hooks_exist():
    import importlib

    from tbmc import engine
    from tbmc.lexicon import LexiconState

    for module, names in _HOOKED_FUNCTIONS.items():
        loaded = importlib.import_module(f"tbmc.{module}")
        for name in names:
            assert callable(getattr(loaded, name, None)), f"tbmc.{module}.{name}"
    for name in ("add_item", "apply_formation"):
        assert callable(getattr(LexiconState, name, None)), f"LexiconState.{name}"
    for module in _ENGINE_CALLERS:
        assert importlib.import_module(f"tbmc.{module}").engine is engine, f"tbmc.{module}.engine"
