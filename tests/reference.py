"""Plain definitions the tests compare the package against.

The learner session, the teachers and the relation checks work on masks
and bitsets.  These are the same rules written out on interpretations and
clauses, one step at a time, so a test can check the fast code against a
definition it can read.  Nothing in the package calls them.
"""

import itertools
from typing import Iterator, NamedTuple, Optional

from mvdlearn import (
    BoundViolationError,
    Interpretation,
    MvdClause,
    MvdFormula,
    UniverseMismatchError,
    VariableUniverse,
    format_clause,
    satisfies,
    violates,
)
from mvdlearn.core import _require_same_universe, bit_indices


# ---------------------------------------------------------------------------
# core


def intersect(a: Interpretation, b: Interpretation) -> Interpretation:
    """Componentwise intersection of true-sets."""
    _require_same_universe(a, b)
    return Interpretation(a.universe, a.mask & b.mask)


def covers(interp: Interpretation, clause: MvdClause) -> bool:
    """True when the clause's antecedent is entirely true in ``interp``."""
    _require_same_universe(interp, clause)
    return interp.mask & clause.x_mask == clause.x_mask


def enum_masks(n: int) -> Iterator[int]:
    """All masks over ``n`` variables in the canonical order: ascending size
    of the true-set, ties broken lexicographically on the index tuple."""
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            yield mask


def names_of(universe: VariableUniverse, mask: int) -> tuple[str, ...]:
    """The names of the variables in ``mask``, in index order."""
    return tuple(universe.names[i] for i in bit_indices(mask))


def orientation_classes(formula: MvdFormula) -> frozenset:
    """The clauses of ``formula`` up to Y/Z orientation, as a set of keys."""
    return frozenset(c.orientation_key() for c in formula.clauses)


def format_mvd_formula(formula: MvdFormula) -> str:
    """The file-grammar text of ``formula``, one line per clause up to Y/Z
    orientation, in the order of first appearance among its clauses."""
    lines = [f"vars: {' '.join(formula.universe.names)}"]
    seen = set()
    for clause in formula.clauses:
        key = clause.orientation_key()
        if key in seen:
            continue
        seen.add(key)
        lines.append(format_clause(clause))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# relations


def agreement_interp(t, t2, universe: VariableUniverse) -> Interpretation:
    """Assignment whose true variables are the positions where the rows agree."""
    if len(t) != universe.n or len(t2) != universe.n:
        raise UniverseMismatchError("row arity does not match the universe")
    mask = 0
    for i in range(universe.n):
        if t[i] == t2[i]:
            mask |= 1 << i
    return Interpretation(universe, mask)


def relation_agreement(relation) -> int:
    """Mask of the attributes on which every row of ``relation`` agrees: the
    AND of the agreement assignments of all its row pairs, every attribute
    for fewer than two rows."""
    universe = relation.universe
    mask = universe.full_mask
    for t in relation.rows:
        for t2 in relation.rows:
            mask &= agreement_interp(t, t2, universe).mask
    return mask


def pair_holds(agree: int, clauses) -> bool:
    """Whether the dependencies ``(x, y, z)`` all hold in a two-row relation
    whose rows agree exactly on the mask ``agree``.

    A proper dependency fails there exactly when ``agree`` violates its
    clause: X all true, and neither Y nor Z all true.  A clause with an
    empty side never fails: it holds in every relation, though it excludes
    assignments.
    """
    return not any(
        agree & x == x and agree & y != y and agree & z != z for x, y, z in clauses
    )


# ---------------------------------------------------------------------------
# the learner's steps


def good_candidate(a, b, hypothesis, mem) -> bool:
    """Refinement test for the ordered pair (a, b).

    Holds when the intersection (i) drops at least one true variable of
    ``a``, (ii) still satisfies the hypothesis, and (iii) is not a model of
    the target.  The membership query is only spent when (i) and (ii) hold.
    """
    inter = intersect(a, b)
    if inter.mask == a.mask:
        return False
    if not satisfies(inter, hypothesis):
        return False
    return not mem(inter)


def build_clauses(interp: Interpretation, positives) -> list[MvdClause]:
    """Clause block contributed by one stored negative example.

    Starts with one clause per false variable v: ``true(I) -> v | rest``.
    Each stored positive then merges every clause it breaks into a single
    clause whose left side is the union of the broken left sides.  Positives
    are folded in sequence order; the merged clause takes the position of the
    first clause it replaces, so the block order is deterministic.
    """
    universe = interp.universe
    x = interp.mask
    clauses = [
        MvdClause(universe, x, 1 << v, interp.false_mask ^ (1 << v))
        for v in bit_indices(interp.false_mask)
    ]
    for pos in positives:
        broken = [i for i, c in enumerate(clauses) if violates(pos, c)]
        if not broken:
            continue
        y_union = 0
        z_union = 0
        for i in broken:
            y_union |= clauses[i].y_mask
            z_union |= clauses[i].z_mask
        merged = MvdClause(universe, x, y_union, z_union & ~y_union)
        clauses[broken[0]] = merged
        for i in reversed(broken[1:]):
            del clauses[i]
    return clauses


def refine_counterexample(interp, negatives, hypothesis, mem) -> Interpretation:
    """Shrink a negative counterexample against the stored negatives.

    Repeatedly intersects with the first stored negative forming a
    refinement pair until none qualifies.  The true-set shrinks strictly at
    each step, so the loop runs at most n times.
    """
    current = interp
    for _ in range(interp.universe.n + 1):
        partner = None
        for neg in negatives:
            if good_candidate(current, neg, hypothesis, mem):
                partner = neg
                break
        if partner is None:
            return current
        current = intersect(current, partner)
    raise BoundViolationError("counterexample refinement exceeded the universe size")


def update_positive_examples(kernel, positives, negatives, mem) -> list[Interpretation]:
    """Harvest new positives from pairwise intersections of stored negatives.

    While some intersection of two distinct stored negatives breaks the
    kernel's current clause block yet is a model of the target, append it.
    Pairs are scanned in position order and the first hit is taken; each
    appended positive strictly shrinks the block, so at most n rounds run.
    """
    result = list(positives)
    for _ in range(kernel.universe.n + 1):
        block = build_clauses(kernel, result)
        found = None
        for i in range(len(negatives)):
            for j in range(i + 1, len(negatives)):
                inter = intersect(negatives[i], negatives[j])
                if not satisfies(inter, block) and mem(inter):
                    found = inter
                    break
            if found is not None:
                break
        if found is None:
            return result
        result.append(found)
    raise BoundViolationError("positive-example harvesting exceeded the universe size")


def rebuild_hypothesis(h0: MvdFormula, negatives, positives) -> MvdFormula:
    """Baseline clauses plus the block of every stored negative."""
    clauses = list(h0.clauses)
    for neg in negatives:
        clauses.extend(build_clauses(neg, positives))
    return MvdFormula(h0.universe, clauses)


class Counters(NamedTuple):
    """A learning session's counters, compared as one value."""

    membership_queries: int
    equivalence_queries: int
    iterations: int
    positive_events: int
    append_events: int
    replace_events: int
    removals: int
    max_negatives: int
    replacements_per_slot: tuple
    potential: Optional[int]


def counters(session) -> Counters:
    """The counters of a :class:`~mvdlearn.learner.LearnerSession` (or of
    a session with the same attributes) as they stand now."""
    return Counters(
        membership_queries=session.membership_queries,
        equivalence_queries=session.equivalence_queries,
        iterations=session.iteration,
        positive_events=session.event_counts["positive"],
        append_events=session.event_counts["append"],
        replace_events=session.event_counts["replace"],
        removals=session.removal_count,
        max_negatives=session.max_negatives,
        replacements_per_slot=tuple(session.replacements),
        potential=session.potential(),
    )
