import tempfile

import pytest
from hypothesis import configuration, settings

from tbmc import corpus
from tbmc.corpora import fixture_path

# every @given runs the same examples on every run and stores none
settings.register_profile("tbmc", derandomize=True, deadline=None, database=None)
settings.load_profile("tbmc")
# Hypothesis also caches the literals of local source files in its home
# directory, whatever the profile says; keep that cache out of the tree
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="tbmc-hypothesis-")
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    _HYPOTHESIS_HOME.cleanup()


def _load(name):
    return corpus.load_path(fixture_path(name))


@pytest.fixture(scope="session")
def fig2():
    return _load("riffian_fig2").state


@pytest.fixture(scope="session")
def example1():
    return _load("french_example1").state


@pytest.fixture(scope="session")
def table3():
    return _load("table3_estimation").state


@pytest.fixture(scope="session")
def fig2_document():
    with open(fixture_path("riffian_fig2"), encoding="utf-8") as handle:
        return corpus.parse(handle.read())


def _unnumbered(document):
    """Each statement as its type and its fields, the line number left out."""
    return [(type(s), [getattr(s, name) for name in s._fields if name != "line"])
            for s in document.statements]


@pytest.fixture(scope="session")
def structurally_equal():
    """Equality of two documents up to line numbers: the serialize round-trip law."""
    def equal(mine, theirs):
        return _unnumbered(mine) == _unnumbered(theirs)
    return equal
