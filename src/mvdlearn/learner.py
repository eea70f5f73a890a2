"""Exact learner for full-cover implication formulas from interpretations.

The learner talks to two oracles fixed on a hidden target formula:

* ``mem(interp) -> bool`` answers whether an assignment is a model of the
  target;
* ``eq(hypothesis) -> Interpretation | None`` answers ``None`` when the
  hypothesis has exactly the target's models and otherwise produces an
  assignment on which the two disagree.

State is a sequence of stored positive examples, a sequence of stored
negative examples, and a baseline hypothesis fixed up front with ``n + 1``
membership queries (the all-true assignment plus each assignment with a
single false variable).  Each stored negative contributes a block of
clauses whose left consequents partition its false variables; positives
trim the blocks by merging the clauses they break.  A fresh negative
counterexample is first shrunk against the stored negatives, then either
replaces the first stored negative it refines or is appended.

Membership answers are memoized per assignment for the whole session: the
target is fixed, so a cached answer is always still valid, and the cache
both keeps query counts tight and makes a contradicting oracle impossible
to observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import (
    Interpretation,
    MvdClause,
    MvdFormula,
    VariableUniverse,
    bit_indices,
    false_clause,
    intersect,
    orientation_class_count,
    popcount,
    satisfies,
    violates,
)
from .errors import BoundViolationError, OracleContractError

MembershipOracle = Callable[[Interpretation], bool]
EquivalenceOracle = Callable[[MvdFormula], Optional[Interpretation]]


@dataclass(frozen=True)
class TheoreticalBounds:
    """Run bounds derived from a known target size (test-harness use only).

    ``n`` is the universe size and ``m`` the target's clause count; ``limit``
    bounds the stored negatives' combined false-variable budget and with it
    the number of negative-counterexample iterations.
    """

    n: int
    m: int

    @property
    def limit(self) -> int:
        return self.n * self.n * self.m


@dataclass(frozen=True)
class TraceRecord:
    """One line of the per-iteration trace."""

    iteration: int
    event: str  # 'positive' | 'append' | 'replace'
    counterexample: str  # bitstring of the raw counterexample
    removed: int  # negatives dropped after a replacement
    positives: int
    negatives: int
    hypothesis_size: int  # counted up to Y/Z orientation
    membership_queries: int
    equivalence_queries: int
    potential: Optional[int]  # only when bounds are known


@dataclass
class IterationEvent:
    """Rich per-iteration payload handed to observers."""

    record: TraceRecord
    raw: Interpretation
    refined: Optional[Interpretation]
    replaced_index: Optional[int] = None
    replaced_old: Optional[Interpretation] = None
    removed: list = field(default_factory=list)  # (index before removal, Interpretation)


def construct_h0(universe: VariableUniverse, mem: MembershipOracle) -> MvdFormula:
    """Baseline hypothesis from n + 1 membership queries.

    Includes ``* -> F`` when the all-true assignment is not a model and
    ``V\\{v} -> v`` for each v whose single-false assignment is not a model.
    Every later counterexample therefore has at least two false variables.
    """
    clauses = []
    if not mem(Interpretation(universe, universe.full_mask)):
        clauses.append(false_clause(universe))
    for v in range(universe.n):
        probe = Interpretation(universe, universe.full_mask ^ (1 << v))
        if not mem(probe):
            clauses.append(MvdClause(universe, universe.full_mask ^ (1 << v), 1 << v, 0))
    return MvdFormula(universe, clauses)


def good_candidate(
    a: Interpretation,
    b: Interpretation,
    hypothesis: MvdFormula,
    mem: MembershipOracle,
) -> bool:
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


def refine_counterexample(
    interp: Interpretation,
    negatives,
    hypothesis: MvdFormula,
    mem: MembershipOracle,
) -> Interpretation:
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


def update_positive_examples(
    kernel: Interpretation,
    positives,
    negatives,
    mem: MembershipOracle,
) -> list[Interpretation]:
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


class LearnerSession:
    """One run of the learner against a fixed pair of oracles.

    The session keeps the stored examples, the evolving hypothesis, query
    counters and a per-iteration trace.  An observer callable, when given,
    receives the session and an :class:`IterationEvent` after every
    iteration, with the hypothesis already rebuilt; the test harness uses
    this hook to assert the loop invariants.
    """

    def __init__(
        self,
        universe: VariableUniverse,
        mem: MembershipOracle,
        eq: EquivalenceOracle,
        *,
        bounds: Optional[TheoreticalBounds] = None,
        observer=None,
        iteration_limit: Optional[int] = None,
    ):
        self.universe = universe
        self._mem_raw = mem
        self._eq_raw = eq
        self.bounds = bounds
        self.observer = observer
        self.iteration_limit = iteration_limit

        self._mem_cache: dict[int, bool] = {}
        self.membership_queries = 0
        self.equivalence_queries = 0

        self.positives: list[Interpretation] = []
        self.negatives: list[Interpretation] = []
        self.replacements: list[int] = []  # per live negative slot
        self.h0: Optional[MvdFormula] = None
        self.hypothesis: Optional[MvdFormula] = None
        self.trace: list[TraceRecord] = []
        self.iteration = 0
        self.event_counts = {"positive": 0, "append": 0, "replace": 0}
        self.removal_count = 0
        self.max_negatives = 0
        self._max_hypothesis_classes = 1

    # -- oracles -------------------------------------------------------------

    def mem(self, interp: Interpretation) -> bool:
        cached = self._mem_cache.get(interp.mask)
        if cached is not None:
            return cached
        answer = bool(self._mem_raw(interp))
        self._mem_cache[interp.mask] = answer
        self.membership_queries += 1
        return answer

    def _equivalence(self) -> Optional[Interpretation]:
        self.equivalence_queries += 1
        return self._eq_raw(self.hypothesis)

    # -- bookkeeping ----------------------------------------------------------

    @property
    def blocks(self) -> list[list[MvdClause]]:
        """The clause block of every stored negative, in store order."""
        return [build_clauses(neg, self.positives) for neg in self.negatives]

    def potential(self) -> Optional[int]:
        """Stored-negative budget ``|L| + (N - sum |false(I)|)``; needs bounds."""
        if self.bounds is None:
            return None
        spent = sum(popcount(neg.false_mask) for neg in self.negatives)
        return len(self.negatives) + (self.bounds.limit - spent)

    def _iteration_cap(self) -> int:
        if self.iteration_limit is not None:
            return self.iteration_limit
        if self.bounds is not None:
            n_bound = self.bounds.limit
        else:
            n_bound = self.universe.n * self.universe.n * self._max_hypothesis_classes
        return n_bound * n_bound + n_bound

    def _record(self, event: str, raw: Interpretation, refined, replaced_index=None,
                replaced_old=None, removed=None):
        self.event_counts[event] += 1
        self.max_negatives = max(self.max_negatives, len(self.negatives))
        record = TraceRecord(
            iteration=self.iteration,
            event=event,
            counterexample=raw.to_bits(),
            removed=len(removed or ()),
            positives=len(self.positives),
            negatives=len(self.negatives),
            hypothesis_size=orientation_class_count(self.hypothesis),
            membership_queries=self.membership_queries,
            equivalence_queries=self.equivalence_queries,
            potential=self.potential(),
        )
        self.trace.append(record)
        if self.observer is not None:
            self.observer(
                self,
                IterationEvent(
                    record=record,
                    raw=raw,
                    refined=refined,
                    replaced_index=replaced_index,
                    replaced_old=replaced_old,
                    removed=list(removed or ()),
                ),
            )

    # -- main loop -------------------------------------------------------------

    def run(self) -> MvdFormula:
        self.h0 = construct_h0(self.universe, self.mem)
        self.hypothesis = self.h0
        while True:
            counterexample = self._equivalence()
            if counterexample is None:
                return self.hypothesis
            self.iteration += 1
            if self.iteration > self._iteration_cap():
                raise BoundViolationError(
                    f"iteration {self.iteration} exceeds the run cap; "
                    "the oracles are not consistent with any fixed target"
                )
            self._handle(counterexample)
            self._max_hypothesis_classes = max(
                self._max_hypothesis_classes, orientation_class_count(self.hypothesis)
            )

    def _handle(self, raw: Interpretation) -> None:
        if raw.universe != self.universe:
            raise OracleContractError("counterexample over the wrong universe")
        is_model = self.mem(raw)
        sat = satisfies(raw, self.hypothesis)
        if is_model == sat:
            raise OracleContractError(
                f"counterexample {raw.to_bits()} is not in the symmetric "
                "difference of target and hypothesis"
            )
        if not sat:
            # positive counterexample: a target model the hypothesis excludes
            self.positives.append(raw)
            self._rebuild()
            self._record("positive", raw, refined=None)
            return

        refined = refine_counterexample(raw, self.negatives, self.hypothesis, self.mem)
        if popcount(refined.false_mask) < 2:
            raise OracleContractError(
                "refined negative with fewer than two false variables; "
                "inconsistent with the baseline hypothesis"
            )
        slot = None
        for i, neg in enumerate(self.negatives):
            if good_candidate(neg, refined, self.hypothesis, self.mem):
                slot = i
                break
        if slot is None:
            self.negatives.append(refined)
            self.replacements.append(0)
            self._rebuild()
            self._record("append", raw, refined)
            return

        self.positives = update_positive_examples(
            refined, self.positives, self.negatives, self.mem
        )
        replaced_old = self.negatives[slot]
        self.negatives[slot] = refined
        self.replacements[slot] += 1
        if self.replacements[slot] > self.universe.n:
            raise BoundViolationError(
                f"negative slot {slot} replaced more than {self.universe.n} times"
            )
        block = build_clauses(refined, self.positives)
        removed = []
        for i in range(len(self.negatives) - 1, -1, -1):
            if i == slot:
                continue
            if not satisfies(self.negatives[i], block):
                removed.append((i, self.negatives[i]))
                del self.negatives[i]
                del self.replacements[i]
        removed.reverse()
        self.removal_count += len(removed)
        self._rebuild()
        self._record(
            "replace", raw, refined,
            replaced_index=slot, replaced_old=replaced_old, removed=removed,
        )

    def _rebuild(self) -> None:
        self.hypothesis = rebuild_hypothesis(self.h0, self.negatives, self.positives)


def learn(
    universe: VariableUniverse,
    mem: MembershipOracle,
    eq: EquivalenceOracle,
    **session_kwargs,
) -> MvdFormula:
    """Run a full learning session and return the final hypothesis.

    Keyword arguments are forwarded to :class:`LearnerSession`; use the
    session directly when the trace or query counters are needed.
    """
    return LearnerSession(universe, mem, eq, **session_kwargs).run()
