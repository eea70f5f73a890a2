"""Simulated teachers, query accounting and counterexample scripts.

A teacher wraps a ground-truth formula and answers membership and
equivalence queries for one example kind: truth assignments, Horn-clause
entailments, two-literal-clause entailments, or data relations.  Three
counterexample strategies are supported:

* ``exhaustive``   - the first element of the symmetric difference in the
  canonical enumeration order, so runs are reproducible bit for bit;
* ``random``       - a uniform sample from the symmetric difference, driven
  by a caller-supplied seed;
* ``scripted``     - entries replayed from a list, each validated against
  the symmetric difference before release.

Teachers carry a ``stats`` dict counting the queries asked of them.  The
learner-side counters live in :func:`stats_snapshot`, which freezes a
learning session's bookkeeping into a :class:`QueryStats` value.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .core import (
    DEFAULT_ENUM_CAP,
    HornClause,
    Interpretation,
    MvdFormula,
    QuasiHorn2Clause,
    VariableUniverse,
    bit_indices,
    canonical_select,
    down_closure,
    entails,  # not called here; perfbench/spans.py wraps it under this name
    format_clause,
    model_bitset,
    parse_clause,
    popcount,
)
from .errors import OracleContractError, ParseError, SchemaError, UniverseMismatchError
from .relations import (
    AttributeSchema,
    Relation,
    agreement_mask,
    binary_row,
    interp_to_pair,
    mvd_holds,
    read_csv,
)

STRATEGIES = ("exhaustive", "random", "scripted")


@dataclass(frozen=True)
class QueryStats:
    """Frozen snapshot of a learning session's counters."""

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


def stats_snapshot(session) -> QueryStats:
    """Immutable copy of a :class:`~mvdlearn.learner.LearnerSession`'s counters."""
    return QueryStats(
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


# ---------------------------------------------------------------------------
# Teachers


class _TeacherBase:
    def __init__(self, strategy: str, seed: int, script):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        if strategy == "scripted":
            if script is None:
                raise ValueError("scripted strategy needs a script")
            self._script = list(script)
        elif script is not None:
            raise ValueError("a script only makes sense with the scripted strategy")
        else:
            self._script = None
        self.strategy = strategy
        self._rng = random.Random(seed)
        self._cursor = 0
        self.stats = {"membership_queries": 0, "equivalence_queries": 0}

    def _draw_rank(self, count: int) -> int:
        """The rank of the counterexample among ``count`` candidates: 0, or
        one uniform ``randrange`` draw for ``random``."""
        return 0 if self.strategy == "exhaustive" else self._rng.randrange(count)

    def _select_witness(self, diff: int) -> Interpretation:
        """A counterexample from the non-empty assignment set ``diff``: the
        first in canonical order, or a uniform pick for ``random``."""
        rank = self._draw_rank(popcount(diff))
        return Interpretation(self.universe, canonical_select(diff, self.universe, rank))

    def _check_hypothesis(self, hypothesis) -> None:
        if hypothesis.universe != self.universe:
            raise UniverseMismatchError("equivalence query over the wrong universe")

    def _scripted_answer(self, differs, separates, describe):
        """Release the next scripted entry once it is checked.

        ``differs()`` says whether the hypothesis still differs from the
        target and is asked only when the script has run out; the run then
        ends (``None``) or the script counts as exhausted.  An entry is
        released when ``separates(entry)`` holds; ``describe(number,
        entry)`` names it in the error otherwise.
        """
        if self._cursor >= len(self._script):
            if differs():
                raise OracleContractError(
                    "script exhausted while the hypothesis still differs from the target"
                )
            return None
        entry = self._script[self._cursor]
        self._cursor += 1
        if not separates(entry):
            raise OracleContractError(
                f"scripted {describe(self._cursor, entry)} is not a counterexample "
                "for the current hypothesis"
            )
        return entry


class MvdfInterpretationTeacher(_TeacherBase):
    """Teacher for learning from truth assignments.

    The target may be any formula with enumerable models (full-cover
    implications or Horn).  Counterexamples are assignments from the
    symmetric difference of the model sets.
    """

    def __init__(self, target, strategy="exhaustive", seed=0, script=None,
                 cap=DEFAULT_ENUM_CAP):
        super().__init__(strategy, seed, script)
        self.target = target
        self.universe = target.universe
        self.cap = cap
        self._target_models = model_bitset(target, cap)

    def membership_answer(self, example: Interpretation) -> bool:
        if example.universe != self.universe:
            raise UniverseMismatchError("membership query over the wrong universe")
        self.stats["membership_queries"] += 1
        return bool(self._target_models >> example.mask & 1)

    def equivalence_answer(self, hypothesis) -> Optional[Interpretation]:
        self.stats["equivalence_queries"] += 1
        self._check_hypothesis(hypothesis)
        diff = self._target_models ^ model_bitset(hypothesis, self.cap)
        if self.strategy == "scripted":
            return self._scripted_answer(
                lambda: diff != 0,
                lambda entry: diff >> entry.mask & 1,
                lambda number, entry: f"entry {number} ({entry.to_bits()})",
            )
        if diff == 0:
            return None
        return self._select_witness(diff)


class EntailmentTeacher(_TeacherBase):
    """Teacher whose examples are clauses entailed (or not) by the target.

    ``kind`` picks the clause space: ``'horn'`` or ``'quasi2'``.
    Equivalence compares the sets of entailed clauses; a counterexample is
    a clause entailed by exactly one of target and hypothesis.

    A formula entails ``X -> S`` exactly when none of its models contains
    X and misses S, that is when X lies outside the down-closure of the
    models missing S.  So each side keeps, per consequent set S, the
    antecedents whose clause it does not entail: the target's sets are
    built once, the hypothesis's once per equivalence query.  The space
    runs through antecedents in the canonical mask order and, within one
    antecedent, through consequent sets in the order of :meth:`_open_sets`.
    """

    def __init__(self, target, kind, strategy="exhaustive", seed=0, script=None,
                 cap=DEFAULT_ENUM_CAP):
        super().__init__(strategy, seed, script)
        if kind not in ("horn", "quasi2"):
            raise ValueError(f"unknown entailment kind {kind!r}")
        self.target = target
        self.kind = kind
        self.universe = target.universe
        self.cap = cap
        self._target_open = dict(self._open_sets(target))

    def _open_sets(self, formula):
        """Yield ``(S, antecedents)`` for each consequent set S of the space,
        where the antecedents are the X for which ``formula`` does not
        entail ``X -> S``.

        The sets come in the space's order within one antecedent: the empty
        set, single variables ascending, then (``quasi2`` only) pairs in
        lexicographic order.  A Horn clause has an empty consequent only at
        X = V.
        """
        universe = self.universe
        models = model_bitset(formula, self.cap)
        singles = [1 << v for v in range(universe.n)]
        if self.kind == "horn":
            yield 0, models & 1 << universe.full_mask
            consequents = singles
        else:
            consequents = [0, *singles, *(a | b for a, b in itertools.combinations(singles, 2))]
        for s in consequents:
            missing = models
            for v in bit_indices(s):
                missing &= ~universe.var_pattern(v)
            yield s, down_closure(missing, universe)

    def membership_answer(self, example) -> bool:
        if example.universe != self.universe:
            raise UniverseMismatchError("membership query over the wrong universe")
        self.stats["membership_queries"] += 1
        return not self._target_open[example.consequent_mask] >> example.antecedent & 1

    def equivalence_answer(self, hypothesis):
        self.stats["equivalence_queries"] += 1
        self._check_hypothesis(hypothesis)
        diffs = {s: self._target_open[s] ^ bits for s, bits in self._open_sets(hypothesis)}
        if self.strategy == "scripted":
            return self._scripted_answer(
                lambda: any(diffs.values()),
                lambda entry: diffs[entry.consequent_mask] >> entry.antecedent & 1,
                lambda number, entry: f"entry {number} ({format_clause(entry)})",
            )
        count = sum(bits.bit_count() for bits in diffs.values())
        if not count:
            return None
        rank = self._draw_rank(count)
        x, s = next(itertools.islice(self._differences(diffs), rank, None))
        if self.kind == "horn":
            return HornClause(self.universe, x, s.bit_length() - 1 if s else None)
        return QuasiHorn2Clause(self.universe, x, frozenset(bit_indices(s)))

    def _differences(self, diffs: dict):
        """The ``(X, S)`` pairs marked in ``diffs`` (S -> antecedent set), in
        the space's order."""
        union = 0
        for bits in diffs.values():
            union |= bits
        for rank in range(union.bit_count()):
            x = canonical_select(union, self.universe, rank)
            for s, bits in diffs.items():
                if bits >> x & 1:
                    yield x, s


def _clause_masks(formula) -> list:
    """``(x, y, z)`` masks of the formula's clauses, in order."""
    return [(c.x_mask, c.y_mask, c.z_mask) for c in formula.clauses]


def _candidate_holds(rows, pairs, models, clauses) -> bool:
    """Whether every clause ``(x, y, z)`` of ``clauses`` holds in the binary
    relation whose distinct rows are the int masks ``rows`` (bit i set: the
    value of attribute i is "1").

    ``pairs`` lists each row pair as ``(a, b, agree)`` with the agreement
    mask ``agree = full ^ a ^ b``, and ``models`` is the model set of the
    proper clauses among ``clauses``.  A pair breaks no clause when its
    agreement assignment is in ``models``.  Otherwise rows ``a`` and ``b``
    with ``d = a ^ b`` break ``X -> Y | Z`` when they agree on X, differ on
    Y and on Z, and one of their swap rows ``a ^ (d & Z)`` and
    ``b ^ (d & Z)`` is missing (Fagin 1977).  No pair differs on an empty
    side, so a clause with one holds in every relation.
    """
    for a, b, agree in pairs:
        if not models >> agree & 1:
            d = a ^ b
            for x, y, z in clauses:
                if not d & x and d & y and d & z:
                    dz = d & z
                    if a ^ dz not in rows or b ^ dz not in rows:
                        return False
    return True


class RelationTeacher(_TeacherBase):
    """Teacher for learning dependencies from data relations.

    The target is a set of proper dependencies (both sides non-empty) over
    the schema.  Equivalence of dependency sets coincides with model-set
    equality of the corresponding formulas, so the decision runs at the
    assignment level.  A relation of two rows satisfies a proper dependency
    exactly when the rows' agreement assignment satisfies the clause, so a
    membership query on at most two rows is one bit of the target's model
    set.  Random counterexample relations are judged pair by pair on their
    agreement masks, and the swap-row test runs only for a pair whose
    agreement assignment is not a model; scripted relations and membership
    queries on more rows are checked with the holds-in-relation check.
    """

    random_tries = 20  # candidate relations drawn per random counterexample

    def __init__(self, target: MvdFormula, schema: AttributeSchema,
                 strategy="exhaustive", seed=0, script=None, cap=DEFAULT_ENUM_CAP):
        super().__init__(strategy, seed, script)
        if schema.attributes != target.universe.names:
            raise UniverseMismatchError("schema does not match the target universe")
        for clause in target.clauses:
            if not clause.is_proper:
                raise ValueError("relation teachers require proper dependencies")
        self.target = target
        self.schema = schema
        self.universe = target.universe
        self.cap = cap
        self._target_models = model_bitset(target, cap)
        self._target_masks = _clause_masks(target)

    def holds(self, relation: Relation, formula) -> bool:
        return all(mvd_holds(relation, clause) for clause in formula.clauses)

    def membership_answer(self, example: Relation) -> bool:
        if example.schema != self.schema:
            raise UniverseMismatchError("membership query over the wrong schema")
        self.stats["membership_queries"] += 1
        rows = example.rows
        if len(rows) > 2:
            return self.holds(example, self.target)
        if not rows:
            return True
        return bool(self._target_models >> agreement_mask(rows[0], rows[-1]) & 1)

    def equivalence_answer(self, hypothesis) -> Optional[Relation]:
        self.stats["equivalence_queries"] += 1
        self._check_hypothesis(hypothesis)
        models = model_bitset(hypothesis, self.cap)
        diff = self._target_models ^ models
        if self.strategy == "scripted":
            return self._scripted_answer(
                lambda: diff != 0,
                lambda entry: self.holds(entry, self.target) != self.holds(entry, hypothesis),
                lambda number, entry: f"relation {number}",
            )
        if diff == 0:
            return None
        if self.strategy == "random":
            found = self._random_relation(hypothesis, models)
            if found is not None:
                return found
        return interp_to_pair(self._select_witness(diff), self.schema)

    def _random_relation(self, hypothesis, models: int) -> Optional[Relation]:
        """A random binary relation of two to four rows on which target and
        hypothesis disagree, or ``None`` after ``random_tries`` draws.

        Rows are drawn as int masks, cell by cell in row-major order, with
        the draws of ``randrange(2)``.  Each candidate is judged on its row
        pairs' agreement masks against the target's model set and the model
        set of the hypothesis's proper clauses (``models`` is the whole
        hypothesis's): an ``X -> Y | -`` clause excludes assignments but
        holds in every relation.  Only the returned relation is built as
        text.
        """
        clauses = hypothesis.clauses
        if not all(c.is_proper for c in clauses):
            models = model_bitset(
                MvdFormula(hypothesis.universe, [c for c in clauses if c.is_proper]),
                self.cap,
            )
        target_models, target_masks = self._target_models, self._target_masks
        hypothesis_masks = _clause_masks(hypothesis)
        # the two-row verdicts: agreement masks where exactly one side holds
        split = target_models ^ models
        full = self.universe.full_mask
        randrange, getrandbits = self._rng.randrange, self._rng.getrandbits
        arity = self.schema.arity
        for _ in range(self.random_tries):
            rows = {}
            for _ in range(randrange(2, 5)):
                row = 0
                for i in range(arity):
                    # randrange(2), as Random._randbelow_with_getrandbits(2)
                    bit = getrandbits(2)
                    while bit >= 2:
                        bit = getrandbits(2)
                    row |= bit << i
                rows[row] = None
            if len(rows) < 2:
                continue
            if len(rows) == 2:
                a, b = rows
                differs = split >> (full ^ a ^ b) & 1
            else:
                order = list(rows)
                pairs = [
                    (a, b, full ^ a ^ b) for i, a in enumerate(order) for b in order[i + 1:]
                ]
                differs = _candidate_holds(rows, pairs, target_models, target_masks) != (
                    _candidate_holds(rows, pairs, models, hypothesis_masks)
                )
            if differs:
                return Relation(self.schema, [binary_row(row, arity) for row in rows])
        return None


# ---------------------------------------------------------------------------
# Script files
#
# Interpretation scripts hold one bitstring per line; clause scripts hold
# one clause per line in the formula grammar; relation scripts hold CSV
# blocks separated by lines containing only `---`.  `#` comments and blank
# lines are ignored everywhere except inside CSV blocks.


def _parse_lines(text: str, parse_line) -> list:
    """``parse_line(body)`` of every line's text outside comments, skipping
    blank lines; a :class:`ParseError` is numbered by its line."""
    entries = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            entries.append(parse_line(body))
        except ParseError as exc:
            raise ParseError(exc.detail, line_no) from None
    return entries


def parse_interpretation_script(text: str, universe: VariableUniverse) -> list:
    return _parse_lines(text, lambda body: Interpretation.from_bits(universe, body))


def parse_clause_script(text: str, universe: VariableUniverse, kind: str) -> list:
    return _parse_lines(text, lambda body: parse_clause(body, universe, kind))


def parse_relation_script(text: str) -> list:
    """The relations of a relation script, one per `---`-separated block.

    A malformed block raises :class:`SchemaError` numbered by the line of
    the script file, its header line when the fault is in the header.
    """
    blocks: list[list[tuple[int, str]]] = [[]]
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if raw.strip() == "---":
            blocks.append([])
            continue
        blocks[-1].append((line_no, raw))
    relations = []
    for block in blocks:
        body = "\n".join(raw for _, raw in block).strip()
        if not body:
            continue
        first_line = next(line_no for line_no, raw in block if raw.strip())
        try:
            relations.append(read_csv(body))
        except SchemaError as exc:
            raise SchemaError(exc.detail, row=first_line - 1 + (exc.row or 1)) from None
    return relations
