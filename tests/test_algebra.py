"""Feature atoms and the symmetric-difference algebra."""

import pytest
from hypothesis import given, strategies as st

from tbmc import algebra
from tbmc.algebra import (
    symmetric_difference,
    symmetric_difference_via_differences,
    symmetric_difference_via_envelope,
)
from tbmc.oracle import all_subsets, naive_symmetric_difference

FS = frozenset


def test_atom_shapes():
    assert algebra.signed("SG", "+") == "+SG"
    assert algebra.is_signed("+SG") and algebra.is_signed("-PL")
    assert algebra.is_category("N")
    assert algebra.base_of("+SG") == "SG"
    assert algebra.base_of("N") == "N"


@pytest.mark.parametrize("bad", ["", "+", "-", "+ SG", "N N"])
def test_malformed_atoms_rejected(bad):
    with pytest.raises(algebra.AtomError):
        algebra.parse_atom(bad)


def test_gender_shift_over_a_full_template_body():
    # masculine definite base, feminine definite result; the category atom
    # and the untouched slots ride through the difference unchanged
    base = FS({"N", "+SG", "-PL", "+M", "-F", "+DEF", "-COL"})
    operand = FS({"-F", "+M", "+F", "-M"})
    assert symmetric_difference(base, operand) == FS(
        {"N", "+SG", "-PL", "-M", "+F", "+DEF", "-COL"})


def test_identity_and_self_inverse():
    t = FS({"N", "+SG", "-PL"})
    assert symmetric_difference(t, frozenset()) == t
    assert symmetric_difference(t, t) == frozenset()


def test_both_formulations_agree_exhaustively():
    subsets = all_subsets(["a", "b", "c", "d"])
    assert len(subsets) == 16
    for left in subsets:
        for right in subsets:
            split = symmetric_difference_via_differences(left, right)
            envelope = symmetric_difference_via_envelope(left, right)
            assert split == envelope == symmetric_difference(left, right)


_subsets = st.frozensets(st.sampled_from(["+a", "-a", "+b", "-b", "+c", "-c"]), max_size=6)


@given(_subsets, _subsets, _subsets)
def test_group_laws(a, b, c):
    assert symmetric_difference(a, b) == symmetric_difference(b, a)
    assert symmetric_difference(symmetric_difference(a, b), c) == \
        symmetric_difference(a, symmetric_difference(b, c))
    assert symmetric_difference(a, frozenset()) == a
    assert symmetric_difference(a, a) == frozenset()


@given(_subsets, _subsets)
def test_agreement_with_naive_reference(a, b):
    assert symmetric_difference(a, b) == naive_symmetric_difference(a, b)


def test_closure_within_universe():
    universe = frozenset({"+a", "-a", "+b", "-b"})
    for left in all_subsets(sorted(universe)):
        for right in all_subsets(sorted(universe)):
            assert symmetric_difference(left, right) <= universe
