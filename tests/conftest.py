from dataclasses import replace

import pytest

from tbmc import corpus
from tbmc.corpora import fixture_path


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


@pytest.fixture(scope="session")
def structurally_equal():
    """Equality of two documents up to line numbers: the serialize round-trip law."""
    def equal(mine, theirs):
        return ([replace(s, line=0) for s in mine.statements]
                == [replace(s, line=0) for s in theirs.statements])
    return equal
