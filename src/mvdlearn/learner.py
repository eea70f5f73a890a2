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
replaces the first stored negative it refines or is appended.  The plain
definitions of these steps, on interpretations and clauses, live in the
test suite's ``tests/reference.py``.

Membership answers are memoized per assignment for the whole session: the
target is fixed, so a cached answer is always still valid, and the cache
both keeps query counts tight and makes a contradicting oracle impossible
to observe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .core import (
    Interpretation,
    MvdClause,
    MvdFormula,
    VariableUniverse,
    bit_indices,
    block_broken,
    blocks_hold,
    false_clause,
)
from .errors import BoundViolationError, OracleContractError

MembershipOracle = Callable[[Interpretation], bool]
EquivalenceOracle = Callable[[MvdFormula], Optional[Interpretation]]


@dataclass(frozen=True)
class TheoreticalBounds:
    """Run bounds derived from a known target size.

    ``n`` is the universe size and ``m`` the target's clause count; ``limit``
    bounds the stored negatives' combined false-variable budget and with it
    the number of negative-counterexample iterations.  A session given
    bounds reports that budget as ``E=`` in its trace and caps its
    iterations by ``limit``; the CLI's learning commands build one from the
    target they simulate.
    """

    n: int
    m: int

    @property
    def limit(self) -> int:
        return self.n * self.n * self.m


class TraceRecord(NamedTuple):
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


def _fold(block: tuple, positive: int, full: int) -> tuple:
    """The block ``(x, parts)`` once the positive with mask ``positive``,
    which covers x, is stored: when its false set meets two or more parts,
    they merge into the first of them.  ``full`` is the universe's full
    mask."""
    x, parts = block
    false_set = full ^ positive
    broken = [y for y in parts if y & false_set]
    # one met part holds the whole false set and breaks nothing
    if len(broken) < 2:
        return block
    first = broken[0]
    merged = sum(broken)  # the parts are disjoint
    return x, tuple(merged if y == first else y for y in parts
                    if y == first or not y & false_set)


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


class LearnerSession:
    """One run of the learner against a fixed pair of oracles.

    The session keeps the stored examples, the evolving hypothesis, query
    counters and a per-iteration trace.  Each iteration stores its trace
    values as a tuple of ints; :attr:`trace` builds the
    :class:`TraceRecord` values from them when it is read and keeps them.
    An observer callable, when given, receives the session and an
    :class:`IterationEvent` after every iteration, with the hypothesis
    already rebuilt and the iteration's record built; the test harness
    uses this hook to assert the loop invariants.

    Internally the session works on masks.  Each stored negative's block is
    kept as the tuple ``(x, parts)`` of its mask and its Y-parts (the clause
    of part ``y`` is ``true(I) -> y | false(I)\\y``), cached by the mask.
    Every cached block has every stored positive folded in: a block is
    built from all the stored positives, in store order, and a positive is
    folded into every cached block it covers as it is stored.  A positive
    that breaks a block merges the parts it meets into the first of them.
    The hypothesis is h0's blocks followed by these
    (:meth:`MvdFormula.from_blocks`), so its clauses are only built when
    something reads them.  The plain definitions of these
    steps, on interpretations and clauses, are kept in
    ``tests/reference.py``, and the tests hold the session to them.
    """

    def __init__(
        self,
        universe: VariableUniverse,
        mem: MembershipOracle,
        eq: EquivalenceOracle,
        *,
        bounds: Optional[TheoreticalBounds] = None,
        observer=None,
    ):
        self.universe = universe
        self._mem_raw = mem
        self._eq_raw = eq
        self.bounds = bounds
        self.observer = observer

        self._mem_cache: dict[int, bool] = {}
        self.membership_queries = 0
        self.equivalence_queries = 0

        self.positives: list[Interpretation] = []
        self.negatives: list[Interpretation] = []
        self.replacements: list[int] = []  # per live negative slot
        self.h0: Optional[MvdFormula] = None
        self.hypothesis: Optional[MvdFormula] = None
        # per iteration: (iteration, event, raw mask, removed, P, L, H, mem,
        # eq, potential)
        self._records: list[tuple] = []
        self._trace: list[TraceRecord] = []
        self.iteration = 0
        self.event_counts = {"positive": 0, "append": 0, "replace": 0}
        self.removal_count = 0
        self.max_negatives = 0
        self._max_hypothesis_classes = 1

        # negative mask -> its block (x, parts), every stored positive folded in
        self._blocks: dict[int, tuple] = {}
        # the assignments h0 excludes, and the stored negatives' blocks
        self._h0_violators: frozenset = frozenset()
        self._negative_blocks: tuple = ()
        self._hypothesis_classes = 0

    # -- oracles -------------------------------------------------------------

    def mem(self, interp: Interpretation) -> bool:
        return self._mem_mask(interp.mask, interp)

    def _mem_mask(self, mask: int, interp: Optional[Interpretation] = None) -> bool:
        """The target's answer on ``mask``; ``interp``, when given, is the
        assignment of that mask to ask the oracle with."""
        cached = self._mem_cache.get(mask)
        if cached is None:
            if interp is None:
                interp = Interpretation(self.universe, mask)
            cached = self._mem_cache[mask] = bool(self._mem_raw(interp))
            self.membership_queries += 1
        return cached

    def _equivalence(self) -> Optional[Interpretation]:
        self.equivalence_queries += 1
        return self._eq_raw(self.hypothesis)

    # -- masks ---------------------------------------------------------------

    def _block(self, x: int) -> tuple:
        """The block ``(x, parts)`` of the negative with mask ``x``."""
        block = self._blocks.get(x)
        if block is None:
            full = self.universe.full_mask
            block = x, tuple(1 << v for v in bit_indices(full ^ x))
            for pos in self.positives:
                if pos.mask & x == x:
                    block = _fold(block, pos.mask, full)
            self._blocks[x] = block
        return block

    def _store_positive(self, interp: Interpretation) -> None:
        """Store a positive and fold it into every cached block it covers."""
        self.positives.append(interp)
        p = interp.mask
        full = self.universe.full_mask
        blocks = self._blocks
        for x, block in blocks.items():
            if p & x == x:
                blocks[x] = _fold(block, p, full)

    def _satisfies(self, mask: int) -> bool:
        """Whether ``mask`` is a model of the current hypothesis."""
        return mask not in self._h0_violators and blocks_hold(
            mask, self._negative_blocks, self.universe.full_mask
        )

    def _refines(self, a: int, b: int) -> bool:
        """Whether ``(a, b)`` is a refinement pair: ``a & b`` drops a true
        variable of ``a``, satisfies the current hypothesis, and is not a
        model of the target.  Membership is only asked when the first two
        hold."""
        inter = a & b
        return inter != a and self._satisfies(inter) and not self._mem_mask(inter)

    # -- bookkeeping ----------------------------------------------------------

    @property
    def blocks(self) -> list[list[MvdClause]]:
        """The clause block of every stored negative, in store order."""
        full = self.universe.full_mask
        return [
            [MvdClause(self.universe, neg.mask, y, full ^ neg.mask ^ y)
             for y in self._block(neg.mask)[1]]
            for neg in self.negatives
        ]

    def potential(self) -> Optional[int]:
        """Stored-negative budget ``|L| + (N - sum |false(I)|)``; needs bounds."""
        if self.bounds is None:
            return None
        full = self.universe.full_mask
        spent = sum((full ^ neg.mask).bit_count() for neg in self.negatives)
        return len(self.negatives) + (self.bounds.limit - spent)

    def _iteration_cap(self) -> int:
        if self.bounds is not None:
            n_bound = self.bounds.limit
        else:
            n_bound = self.universe.n * self.universe.n * self._max_hypothesis_classes
        return n_bound * n_bound + n_bound

    @property
    def trace(self) -> list[TraceRecord]:
        """The per-iteration trace records, built from the stored values on
        first read."""
        trace = self._trace
        trace.extend(map(self._trace_record, self._records[len(trace):]))
        return trace

    def _trace_record(self, values: tuple) -> TraceRecord:
        iteration, event, mask, removed, p, l, h, mem, eq, potential = values
        return TraceRecord(
            iteration=iteration,
            event=event,
            counterexample=Interpretation(self.universe, mask).to_bits(),
            removed=removed,
            positives=p,
            negatives=l,
            hypothesis_size=h,
            membership_queries=mem,
            equivalence_queries=eq,
            potential=potential,
        )

    def _record(self, event: str, raw: Interpretation, refined, replaced_index=None,
                replaced_old=None, removed=()):
        self.event_counts[event] += 1
        self.max_negatives = max(self.max_negatives, len(self.negatives))
        self._records.append((
            self.iteration, event, raw.mask, len(removed), len(self.positives),
            len(self.negatives), self._hypothesis_classes, self.membership_queries,
            self.equivalence_queries, self.potential(),
        ))
        if self.observer is not None:
            self.observer(
                self,
                IterationEvent(
                    record=self.trace[-1],
                    raw=raw,
                    refined=refined,
                    replaced_index=replaced_index,
                    replaced_old=replaced_old,
                    removed=list(removed),
                ),
            )

    # -- main loop -------------------------------------------------------------

    def run(self) -> MvdFormula:
        self.h0 = construct_h0(self.universe, self.mem)
        self.hypothesis = self.h0
        # every clause h0 can hold (`* -> F` and `V\{v} -> v`) is violated
        # by exactly one assignment: its antecedent
        self._h0_violators = frozenset(c.x_mask for c in self.h0.clauses)
        self._hypothesis_classes = len(self.h0.clauses)
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
                self._max_hypothesis_classes, self._hypothesis_classes
            )

    def _handle(self, raw: Interpretation) -> None:
        if raw.universe is not self.universe and raw.universe != self.universe:
            raise OracleContractError("counterexample over the wrong universe")
        is_model = self.mem(raw)
        sat = self._satisfies(raw.mask)
        if is_model == sat:
            raise OracleContractError(
                f"counterexample {raw.to_bits()} is not in the symmetric "
                "difference of target and hypothesis"
            )
        if not sat:
            # positive counterexample: a target model the hypothesis excludes
            self._store_positive(raw)
            self._rebuild()
            self._record("positive", raw, refined=None)
            return

        refined = self._refine(raw)
        if refined.false_mask.bit_count() < 2:
            raise OracleContractError(
                "refined negative with fewer than two false variables; "
                "inconsistent with the baseline hypothesis"
            )
        slot = None
        for i, neg in enumerate(self.negatives):
            if self._refines(neg.mask, refined.mask):
                slot = i
                break
        if slot is None:
            self.negatives.append(refined)
            self.replacements.append(0)
            self._rebuild()
            self._record("append", raw, refined)
            return

        self._harvest(refined.mask)
        replaced_old = self.negatives[slot]
        self.negatives[slot] = refined
        self.replacements[slot] += 1
        if self.replacements[slot] > self.universe.n:
            raise BoundViolationError(
                f"negative slot {slot} replaced more than {self.universe.n} times"
            )
        x = refined.mask
        _, parts = self._block(x)
        full = self.universe.full_mask
        removed = []
        for i in range(len(self.negatives) - 1, -1, -1):
            if i == slot:
                continue
            mask = self.negatives[i].mask
            if mask & x == x and block_broken(full ^ mask, parts):
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

    def _refine(self, raw: Interpretation) -> Interpretation:
        """Shrink a negative counterexample: intersect it with the first
        stored negative it forms a refinement pair with, until none does.
        The true-set shrinks at each step, so at most n steps run."""
        current = raw.mask
        negatives = [neg.mask for neg in self.negatives]
        for _ in range(self.universe.n + 1):
            for neg in negatives:
                if self._refines(current, neg):
                    current &= neg
                    break
            else:
                return raw if current == raw.mask else Interpretation(self.universe, current)
        raise BoundViolationError("counterexample refinement exceeded the universe size")

    def _harvest(self, kernel: int) -> None:
        """Store the positives harvested for ``kernel``.

        While the intersection of some two stored negatives covers the
        kernel, breaks its block and is a model of the target, the first
        such intersection, with pairs in position order, is stored.  Each
        one merges parts of the block, so at most n rounds run."""
        negatives = [neg.mask for neg in self.negatives]
        full = self.universe.full_mask
        for _ in range(self.universe.n + 1):
            _, parts = self._block(kernel)
            found = None
            for i, a in enumerate(negatives):
                for b in negatives[i + 1:]:
                    inter = a & b
                    if (inter & kernel == kernel and block_broken(full ^ inter, parts)
                            and self._mem_mask(inter)):
                        found = inter
                        break
                if found is not None:
                    break
            if found is None:
                return
            self._store_positive(Interpretation(self.universe, found))
        raise BoundViolationError("positive-example harvesting exceeded the universe size")

    def _rebuild(self) -> None:
        """Keep the blocks of the stored negatives, then build the hypothesis.

        ``H=`` counts the clauses up to Y/Z orientation without building
        them.  The h0 clauses are one class each.  A block of one part is
        one clause, and the two clauses of a two-part block are orientation
        twins; with k >= 3 parts, each part's clause is its own class.  A
        repeated negative mask repeats its block, which counts once.
        """
        blocks = {}
        classes = len(self.h0.clauses)
        for neg in self.negatives:
            if neg.mask not in blocks:
                _, parts = blocks[neg.mask] = self._block(neg.mask)
                classes += len(parts) if len(parts) > 2 else 1
        # blocks of dropped negatives are not kept
        self._blocks = blocks
        self._hypothesis_classes = classes
        self._negative_blocks = tuple([blocks[neg.mask] for neg in self.negatives])
        self.hypothesis = MvdFormula.from_blocks(
            self.universe, self.h0.blocks + self._negative_blocks
        )


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
