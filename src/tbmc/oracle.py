"""Brute-force verification of the algebraic claims, at desk scale.

The checks here are the ground truth the algebra and the shift engine are
held to: group axioms of the symmetric difference, agreement of its two
formulations, closure, and uniqueness of the gradient operand.

Independence matters: the reference side of every comparison is a naive
membership loop over explicitly enumerated subsets, written without the
algebra module's operators, so a defect cannot hide in both implementations
at once.  Universes are capped (four atoms where triples are quantified,
six where only pairs are) to keep the whole suite exhaustive yet fast.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence

from . import algebra
from .algebra import PAIR_CAP, TRIPLE_CAP, FeatureSet


class UniverseTooLarge(ValueError):
    pass


def naive_symmetric_difference(a: FeatureSet, b: FeatureSet) -> FeatureSet:
    """Membership-loop reference for Δ; deliberately avoids set operators."""
    out = []
    for x in a:
        if x not in b:
            out.append(x)
    for x in b:
        if x not in a:
            out.append(x)
    return frozenset(out)


def all_subsets(atoms: Sequence[str]) -> List[FeatureSet]:
    """Every subset of the universe, in binary counting order."""
    subsets = []
    for mask in range(2 ** len(atoms)):
        subsets.append(frozenset(a for i, a in enumerate(atoms) if mask >> i & 1))
    return subsets


class VerificationResult(NamedTuple):
    """The outcome of one named check: how many cases it ran and, when it
    failed, the first counterexample."""

    name: str
    passed: bool
    checks: int
    counterexample: Optional[str] = None

    def render(self) -> str:
        if self.passed:
            return f"pass  {self.name}  ({self.checks} checks)"
        return f"FAIL  {self.name}  ({self.checks} checks)  {self.counterexample}"


Delta = Callable[[FeatureSet, FeatureSet], FeatureSet]


def _show(s: FeatureSet) -> str:
    return "{" + ", ".join(sorted(s)) + "}"


def verify_group_axioms(
    atoms: Sequence[str],
    delta: Delta = algebra.symmetric_difference,
) -> VerificationResult:
    """Abelian-group laws of ``delta`` over every subset of the universe.

    Commutativity, identity (empty set), self-inverse, and associativity --
    the last one over all triples, which is why the universe is capped at
    four atoms.
    """
    if len(atoms) > TRIPLE_CAP:
        raise UniverseTooLarge(f"associativity needs |atoms| <= {TRIPLE_CAP}, got {len(atoms)}")
    subsets = all_subsets(atoms)
    checks = 0
    for a in subsets:
        checks += 1
        if delta(a, frozenset()) != a:
            return VerificationResult(
                "group-axioms", False, checks,
                f"identity: {_show(a)} Δ {{}} != {_show(a)}")
        if delta(a, a) != frozenset():
            return VerificationResult(
                "group-axioms", False, checks,
                f"inverse: {_show(a)} Δ {_show(a)} != {{}}")
        for b in subsets:
            checks += 1
            if delta(a, b) != delta(b, a):
                return VerificationResult(
                    "group-axioms", False, checks,
                    f"commutativity: {_show(a)}, {_show(b)}")
    for a in subsets:
        for b in subsets:
            for c in subsets:
                checks += 1
                if delta(delta(a, b), c) != delta(a, delta(b, c)):
                    return VerificationResult(
                        "group-axioms", False, checks,
                        f"associativity: {_show(a)}, {_show(b)}, {_show(c)}")
    return VerificationResult("group-axioms", True, checks)


def verify_formulation_agreement(atoms: Sequence[str]) -> VerificationResult:
    """Existence leg: both constructions of Δ agree with the naive loop
    and stay inside the universe, for every pair of subsets."""
    if len(atoms) > PAIR_CAP:
        raise UniverseTooLarge(f"pair checks need |atoms| <= {PAIR_CAP}, got {len(atoms)}")
    universe = frozenset(atoms)
    subsets = all_subsets(atoms)
    checks = 0
    for a in subsets:
        for b in subsets:
            checks += 1
            split = algebra.symmetric_difference_via_differences(a, b)
            envelope = algebra.symmetric_difference_via_envelope(a, b)
            reference = naive_symmetric_difference(a, b)
            if not (split == envelope == reference):
                return VerificationResult(
                    "formulation-agreement", False, checks,
                    f"{_show(a)} Δ {_show(b)}: {_show(split)} vs {_show(envelope)} vs {_show(reference)}")
            if not reference <= universe:
                return VerificationResult(
                    "formulation-agreement", False, checks,
                    f"closure: {_show(reference)} escapes the universe")
    return VerificationResult("formulation-agreement", True, checks)


def verify_operand_uniqueness(atoms: Sequence[str]) -> VerificationResult:
    """Uniqueness leg: for fixed t, p -> t Δ p is a bijection on subsets,
    and t Δ (t Δ u) recovers u for every pair (the solve round trip)."""
    if len(atoms) > PAIR_CAP:
        raise UniverseTooLarge(f"pair checks need |atoms| <= {PAIR_CAP}, got {len(atoms)}")
    subsets = all_subsets(atoms)
    checks = 0
    for t in subsets:
        images = set()
        for p in subsets:
            checks += 1
            image = naive_symmetric_difference(t, p)
            if naive_symmetric_difference(t, image) != p:
                return VerificationResult(
                    "operand-uniqueness", False, checks,
                    f"round trip failed at t={_show(t)}, p={_show(p)}")
            images.add(image)
        if len(images) != len(subsets):
            return VerificationResult(
                "operand-uniqueness", False, checks,
                f"t={_show(t)}: only {len(images)} distinct images over {len(subsets)} operands")
        for u in subsets:
            checks += 1
            if naive_symmetric_difference(t, naive_symmetric_difference(t, u)) != u:
                return VerificationResult(
                    "operand-uniqueness", False, checks,
                    f"t Δ (t Δ u) != u at t={_show(t)}, u={_show(u)}")
    return VerificationResult("operand-uniqueness", True, checks)


def default_suite(axiom_atoms: int = 4, pair_atoms: int = 6) -> List[VerificationResult]:
    """The standard self-check battery over abstract universes a, b, c, ..."""
    if axiom_atoms > TRIPLE_CAP:
        raise UniverseTooLarge(f"--atoms caps at {TRIPLE_CAP} for the axiom battery")
    names = [chr(ord("a") + i) for i in range(max(axiom_atoms, pair_atoms))]
    return [
        verify_group_axioms(names[:axiom_atoms]),
        verify_formulation_agreement(names[:pair_atoms]),
        verify_operand_uniqueness(names[:pair_atoms]),
    ]
