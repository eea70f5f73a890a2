"""Shared fixtures and random-instance generators for the test suite."""

import itertools
import os
import random
from pathlib import Path

import pytest

import mvdlearn
from mvdlearn import (
    HornClause,
    HornFormula,
    Interpretation,
    MvdClause,
    MvdFormula,
    QuasiHorn2Clause,
    VariableUniverse,
    false_clause,
    parse_formula,
    satisfies,
    violates,
)
from mvdlearn.core import bit_indices, clause_block

from reference import enum_masks

# Target and counterexample script of the worked golden run; the learner
# must reproduce its intermediate states exactly.
GOLDEN_TARGET_TEXT = """\
vars: 1 2 3 4 5
2 3 4 5 -> 1 | -
1 2 3 -> 4 | 5
2 3 5 -> 1 | 4
2 -> 3 | 1 4 5
"""

GOLDEN_SCRIPT_BITS = ("11100", "01101", "01010", "11100")


def cli_child_env() -> dict:
    """Environment for a child `python -m mvdlearn.cli` process.

    The directory holding the imported `mvdlearn` package goes first on the
    child's PYTHONPATH, ahead of any inherited entries, so the child runs the
    package under test from any working directory, also when the inherited
    PYTHONPATH is relative.
    """
    package_root = str(Path(mvdlearn.__file__).resolve().parent.parent)
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        os.pathsep.join([package_root, inherited]) if inherited else package_root
    )
    return env


@pytest.fixture
def golden_target() -> MvdFormula:
    return parse_formula(GOLDEN_TARGET_TEXT, "mvd")


@pytest.fixture
def golden_script(golden_target):
    u = golden_target.universe
    return [Interpretation.from_bits(u, b) for b in GOLDEN_SCRIPT_BITS]


# ---------------------------------------------------------------------------
# Clause-space enumerations, the reference orders of the entailment teacher
#
# Antecedents run in the canonical mask order (ascending size, then
# lexicographic on index tuples).  Within one antecedent, Horn clauses list
# consequents ascending and the purely negative clause appears for X = V;
# two-literal clauses list the negative clause first, then single
# consequents ascending, then pairs in lexicographic order; full-cover
# implications list the empty-right-side clause first and then the proper
# splits by ascending left side.


def enumerate_horn_clauses(universe: VariableUniverse):
    for x in enum_masks(universe.n):
        if x == universe.full_mask:
            yield HornClause(universe, x, None)
            continue
        for v in range(universe.n):
            if not x >> v & 1:
                yield HornClause(universe, x, v)


def enumerate_quasi2_clauses(universe: VariableUniverse):
    for x in enum_masks(universe.n):
        yield QuasiHorn2Clause(universe, x, frozenset())
        outside = [v for v in range(universe.n) if not x >> v & 1]
        for v in outside:
            yield QuasiHorn2Clause(universe, x, frozenset((v,)))
        for v, w in itertools.combinations(outside, 2):
            yield QuasiHorn2Clause(universe, x, frozenset((v, w)))


def enumerate_mvd_clauses(universe: VariableUniverse):
    for x in enum_masks(universe.n):
        rest = universe.full_mask ^ x
        if rest == 0:
            yield MvdClause(universe, x, 0, 0)
            continue
        yield MvdClause(universe, x, rest, 0)
        rest_bits = list(bit_indices(rest))
        for size in range(1, len(rest_bits)):
            for combo in itertools.combinations(rest_bits, size):
                y = 0
                for v in combo:
                    y |= 1 << v
                yield MvdClause(universe, x, y, rest ^ y)


def numbered_universe(n: int) -> VariableUniverse:
    return VariableUniverse([str(i + 1) for i in range(n)])


def random_proper_clause(universe: VariableUniverse, rng: random.Random) -> MvdClause:
    n = universe.n
    while True:
        x = y = z = 0
        for i in range(n):
            r = rng.randrange(3)
            if r == 0:
                x |= 1 << i
            elif r == 1:
                y |= 1 << i
            else:
                z |= 1 << i
        if y and z:
            return MvdClause(universe, x, y, z)


def random_wide_empty_side_clause(universe: VariableUniverse,
                                  rng: random.Random) -> MvdClause:
    """A clause ``X -> Y | -`` with at least two variables in Y (n >= 2).

    It holds in every relation but excludes every assignment with exactly
    one false variable, in Y: here model sets and relations part."""
    while True:
        y = rng.getrandbits(universe.n)
        if y.bit_count() >= 2:
            return MvdClause(universe, universe.full_mask ^ y, y, 0)


def random_clause(universe: VariableUniverse, rng: random.Random,
                  allow_degenerate: bool = True) -> MvdClause:
    roll = rng.random()
    if allow_degenerate and roll < 0.12:
        x = rng.getrandbits(universe.n) & universe.full_mask
        if x == universe.full_mask:
            return false_clause(universe)
        return MvdClause(universe, x, universe.full_mask ^ x, 0)
    if allow_degenerate and roll < 0.16:
        return false_clause(universe)
    return random_proper_clause(universe, rng)


def random_target(universe: VariableUniverse, rng: random.Random,
                  max_clauses: int = 6, allow_degenerate: bool = True) -> MvdFormula:
    count = rng.randrange(1, max_clauses + 1)
    return MvdFormula(
        universe, [random_clause(universe, rng, allow_degenerate) for _ in range(count)]
    )


def random_block_formula(universe: VariableUniverse, rng: random.Random) -> MvdFormula:
    """A formula built from blocks: the blocks of a few random clauses,
    ``* -> F`` among them half the time, then up to four blocks
    ``(x, parts)`` whose parts split ``V \\ x`` at random, one part allowed.
    A block may repeat."""
    full = universe.full_mask
    clauses = [random_clause(universe, rng) for _ in range(rng.randrange(3))]
    if rng.random() < 0.5:
        clauses.append(false_clause(universe))
    blocks = []
    for _ in range(rng.randrange(5)):
        if blocks and rng.random() < 0.2:
            blocks.append(rng.choice(blocks))
            continue
        x = rng.getrandbits(universe.n) & full
        false_bits = list(bit_indices(full ^ x))
        if not false_bits:
            continue
        rng.shuffle(false_bits)
        parts = [0] * rng.randrange(1, len(false_bits) + 1)
        for i, v in enumerate(false_bits):
            parts[i if i < len(parts) else rng.randrange(len(parts))] |= 1 << v
        blocks.append((x, tuple(parts)))
    return MvdFormula.from_blocks(universe, [*map(clause_block, clauses), *blocks])


def random_definite_horn(universe: VariableUniverse, rng: random.Random,
                         max_clauses: int = 4) -> HornFormula:
    clauses = []
    for _ in range(rng.randrange(1, max_clauses + 1)):
        x = rng.getrandbits(universe.n) & universe.full_mask
        outside = [v for v in range(universe.n) if not x >> v & 1]
        if outside:
            clauses.append(HornClause(universe, x, rng.choice(outside)))
    return HornFormula(universe, clauses)


def model_masks(formula) -> list:
    """All model masks of a formula, via per-assignment satisfaction."""
    u = formula.universe
    return [
        m for m in enum_masks(u.n) if satisfies(Interpretation(u, m), formula)
    ]


def split_satisfied(mask: int, x: int, y: int, z: int) -> bool:
    """``X -> Y | Z`` read propositionally, with sides that need not cover
    the universe: X true implies all of Y true or all of Z true, and an
    empty side reads as the constant true."""
    return (
        mask & x != x or not y or not z or mask & y == y or mask & z == z
    )


def entails_split(formula, x: int, y: int, z: int) -> bool:
    """Whether every model of ``formula`` satisfies the split reading of
    ``X -> Y | Z``."""
    return all(split_satisfied(m, x, y, z) for m in model_masks(formula))


def random_negative_example(target: MvdFormula, rng: random.Random):
    """An assignment with at least two false variables that breaks the target,
    or None when none exists."""
    u = target.universe
    pool = [
        m
        for m in range(1 << u.n)
        if (u.full_mask ^ m).bit_count() >= 2
        and not satisfies(Interpretation(u, m), target)
    ]
    if not pool:
        return None
    return Interpretation(u, rng.choice(pool))


def random_positive_examples(target: MvdFormula, rng: random.Random, count: int):
    models = model_masks(target)
    if not models:
        return []
    u = target.universe
    return [Interpretation(u, rng.choice(models)) for _ in range(count)]


def violates_any(interp, clauses) -> bool:
    return any(violates(interp, c) for c in clauses)
