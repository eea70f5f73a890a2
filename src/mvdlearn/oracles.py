"""Simulated teachers, query accounting and counterexample scripts.

A teacher wraps a ground-truth formula and answers membership and
equivalence queries for one example kind: truth assignments, Horn-clause
entailments, two-literal-clause entailments, or data relations.  Three
counterexample strategies are supported:

* ``exhaustive``   - the first element of the symmetric difference in the
  canonical order (X-major: the least assignment or antecedent X in the
  canonical mask order, then the first consequent set S marking it), so
  runs are reproducible bit for bit;
* ``random``       - a uniform sample from the symmetric difference, driven
  by a caller-supplied seed: one ``randrange`` over the differing
  ``(X, S)`` pairs, counted off S-major (set by set, X in canonical order
  within a set); the relation teacher answers with the two-row relation of
  the picked assignment, as it does under ``exhaustive``;
* ``scripted``     - entries replayed from a list, each validated against
  the symmetric difference before release.

Hypotheses, membership queries and scripted entries over another universe
are rejected; a relation's universe is its attributes.  A relation teacher
judges a formula by its proper clauses alone, since an ``X -> Y | -``
clause holds in every relation.  Teachers carry a ``stats`` dict counting
the queries asked of them; the learner's own counters are attributes of
its :class:`~mvdlearn.learner.LearnerSession`.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random

from .core import (
    HornClause,
    Interpretation,
    MvdFormula,
    QuasiHorn2Clause,
    VariableUniverse,
    _logical_lines,
    bit_indices,
    canonical_select,
    down_closure,
    entails,  # not called here; perfbench/spans.py wraps it under this name
    format_clause,
    model_bitset,
    parse_clause,
)
from .errors import OracleContractError, ParseError, SchemaError, UniverseMismatchError
from .relations import (
    Relation,
    interp_to_pair,
    mvd_holds,
    read_csv,
)

STRATEGIES = ("exhaustive", "random", "scripted")


# ---------------------------------------------------------------------------
# Teachers


class _TeacherBase:
    """Membership, equivalence and query accounting for all three teachers.

    A teacher describes a formula by its answer sets ``{S: bitset over
    masks X}`` and places an example at one ``(X, S)`` pair with
    :meth:`_position`, which also checks the example's universe and kind.
    A marked pair is a member when ``_marks_members`` is set (models) and a
    non-member otherwise (antecedents of clauses not entailed).  The
    target's sets are built once; an equivalence query XORs the
    hypothesis's into them, so the marked pairs are the symmetric
    difference, and a scripted entry must sit on one.  A subclass supplies
    :meth:`_answer_sets`, :meth:`_position`, :meth:`_example` (the example
    at one :meth:`_pick` of the difference sets, which are all it reads)
    and :meth:`_label` (an entry's name in errors).
    """

    _marks_members = True

    def __init__(self, target, strategy="exhaustive", seed=0, script=None):
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
        self.target = target
        self.universe = target.universe
        self.strategy = strategy
        self._rng = random.Random(seed)
        self._cursor = 0
        self.stats = {"membership_queries": 0, "equivalence_queries": 0}
        self._target_sets = self._answer_sets(target)

    def _answer_sets(self, formula) -> dict:
        return {0: model_bitset(formula)}

    def membership_answer(self, example) -> bool:
        x, s = self._position(example)
        self.stats["membership_queries"] += 1
        return bool(self._target_sets[s] >> x & 1) == self._marks_members

    def _separates(self, entry, diffs, hypothesis) -> bool:
        x, s = self._position(entry)
        return bool(diffs[s] >> x & 1)

    def equivalence_answer(self, hypothesis):
        """A counterexample to ``hypothesis``, or ``None`` when there is none."""
        self.stats["equivalence_queries"] += 1
        if hypothesis.universe != self.universe:
            raise UniverseMismatchError("equivalence query over the wrong universe")
        target = self._target_sets
        diffs = {s: target[s] ^ bits for s, bits in self._answer_sets(hypothesis).items()}
        if self.strategy != "scripted":
            return self._example(diffs) if any(diffs.values()) else None
        if self._cursor == len(self._script):
            if any(diffs.values()):
                raise OracleContractError(
                    "script exhausted while the hypothesis still differs from the target"
                )
            return None
        entry = self._script[self._cursor]
        self._cursor += 1
        if not self._separates(entry, diffs, hypothesis):
            raise OracleContractError(
                f"scripted {self._label(self._cursor, entry)} is not a counterexample "
                "for the current hypothesis"
            )
        return entry

    def _pick(self, diffs: dict) -> tuple:
        """One ``(X, S)`` pair marked in ``diffs``, which marks at least one.

        ``exhaustive`` takes the least X in canonical order, then the first
        S whose set marks it.  ``random`` draws one rank over all marked
        pairs and counts it off set by set in the order of ``diffs``
        (S-major), so each pair is equally likely.
        """
        if self.strategy == "exhaustive":
            x = canonical_select(functools.reduce(operator.or_, diffs.values()), self.universe, 0)
            return x, next(s for s, bits in diffs.items() if bits >> x & 1)
        counts = [bits.bit_count() for bits in diffs.values()]
        rank = self._rng.randrange(sum(counts))
        for (s, bits), count in zip(diffs.items(), counts):
            if rank < count:
                return canonical_select(bits, self.universe, rank), s
            rank -= count


class MvdfInterpretationTeacher(_TeacherBase):
    """Teacher for learning from truth assignments.

    The target may be any formula with enumerable models (full-cover
    implications or Horn).  Counterexamples are assignments from the
    symmetric difference of the model sets.
    """

    def _position(self, example: Interpretation) -> tuple:
        if example.universe != self.universe:
            raise UniverseMismatchError("assignment over the wrong universe")
        return example.mask, 0

    def _example(self, diffs) -> Interpretation:
        return Interpretation(self.universe, self._pick(diffs)[0])

    def _label(self, number, entry) -> str:
        return f"entry {number} ({entry.to_bits()})"


# the example types of each entailment clause space
_CLAUSE_TYPES = {"horn": HornClause, "quasi2": (HornClause, QuasiHorn2Clause)}


class EntailmentTeacher(_TeacherBase):
    """Teacher whose examples are clauses entailed (or not) by the target.

    ``kind`` picks the clause space: ``'horn'`` (:class:`HornClause`) or
    ``'quasi2'`` (:class:`QuasiHorn2Clause` and :class:`HornClause`); an
    example outside the space is a ``ValueError``.  Equivalence compares the
    sets of entailed clauses; a counterexample is a clause entailed by
    exactly one of target and hypothesis.

    A formula entails ``X -> S`` exactly when none of its models contains
    X and misses S, that is when X lies outside the down-closure of the
    models missing S.  So each side's answer set for S marks the
    antecedents whose clause it does not entail, and a marked clause is a
    non-member.  ``exhaustive`` answers with the least antecedent in the
    canonical mask order and, within it, the first consequent set in the
    order of :meth:`_answer_sets`; ``random`` draws uniformly over the
    differing clauses, counted consequent set by consequent set.
    """

    _marks_members = False

    def __init__(self, target, kind, strategy="exhaustive", seed=0, script=None):
        if kind not in _CLAUSE_TYPES:
            raise ValueError(f"unknown entailment kind {kind!r}")
        self.kind = kind
        super().__init__(target, strategy, seed, script)

    def _answer_sets(self, formula) -> dict:
        """``{S: antecedents}`` for each consequent set S of the space, where
        the antecedents are the X for which ``formula`` does not entail
        ``X -> S``.

        The sets come in the space's order within one antecedent: the empty
        set, single variables ascending, then (``quasi2`` only) pairs in
        lexicographic order.  A Horn clause has an empty consequent only at
        X = V.
        """
        universe = self.universe
        models = model_bitset(formula)
        singles = [1 << v for v in range(universe.n)]
        sets = {}
        if self.kind == "horn":
            sets[0] = models & 1 << universe.full_mask
            consequents = singles
        else:
            consequents = [0, *singles, *(a | b for a, b in itertools.combinations(singles, 2))]
        for s in consequents:
            missing = models
            for v in bit_indices(s):
                missing ^= missing & universe.var_patterns()[v]
            sets[s] = down_closure(missing, universe)
        return sets

    def _position(self, clause) -> tuple:
        """``(X, S)`` of a clause of the teacher's space."""
        if clause.universe != self.universe:
            raise UniverseMismatchError("clause over the wrong universe")
        if not isinstance(clause, _CLAUSE_TYPES[self.kind]):
            raise ValueError(
                f"a {self.kind} entailment teacher cannot answer {type(clause).__name__} examples"
            )
        return clause.antecedent, clause.consequent_mask

    def _example(self, diffs):
        x, s = self._pick(diffs)
        if self.kind == "horn":
            return HornClause(self.universe, x, s.bit_length() - 1 if s else None)
        return QuasiHorn2Clause(self.universe, x, frozenset(bit_indices(s)))

    def _label(self, number, entry) -> str:
        return f"entry {number} ({format_clause(entry)})"


class RelationTeacher(_TeacherBase):
    """Teacher for learning dependencies from data relations.

    The target is a set of proper dependencies (both sides non-empty), and
    its universe is the attributes of every relation asked about.  An
    ``X -> Y | -`` clause holds in every relation, and two sets of proper
    dependencies hold in the same relations exactly when their formulas
    have the same models (Sagiv, Delobel, Parker and Fagin 1981), so a
    formula's answer set is the model set of its proper part: its blocks of
    two or more parts (:meth:`MvdFormula.proper_blocks`), whether it was
    built from clauses or from blocks.  Two rows satisfy a proper
    dependency exactly when their agreement assignment satisfies the
    clause, so membership on at most two rows is one bit of the target's
    model set, the bit at the relation's ``agreement``; scripted relations
    and membership on more rows go through :meth:`holds`.  An equivalence
    answer is the two-row relation (:func:`interp_to_pair`) of the one
    :meth:`_pick` from the difference of the two model sets, so the
    ``random`` answer is uniform over the differing assignments.  Such a
    pair carries its agreement mask and builds rows only when they are
    read.
    """

    def __init__(self, target: MvdFormula, strategy="exhaustive", seed=0, script=None):
        for clause in target.clauses:
            if not clause.is_proper:
                raise ValueError("relation teachers require proper dependencies")
        super().__init__(target, strategy, seed, script)

    def _answer_sets(self, formula) -> dict:
        proper = MvdFormula.from_blocks(formula.universe, formula.proper_blocks())
        return {0: model_bitset(proper)}

    def holds(self, relation: Relation, formula) -> bool:
        return all(mvd_holds(relation, clause) for clause in formula.clauses)

    def membership_answer(self, example: Relation) -> bool:
        if example.universe != self.universe:
            raise UniverseMismatchError("relation over the wrong universe")
        self.stats["membership_queries"] += 1
        if len(example) > 2:
            return self.holds(example, self.target)
        # the empty relation's agreement is the full mask, a model of every
        # formula, so it answers True
        return bool(self._target_sets[0] >> example.agreement & 1)

    def _example(self, diffs) -> Relation:
        return interp_to_pair(Interpretation(self.universe, self._pick(diffs)[0]))

    def _separates(self, entry, diffs, hypothesis) -> bool:
        return self.holds(entry, self.target) != self.holds(entry, hypothesis)

    def _label(self, number, entry) -> str:
        return f"relation {number}"


# ---------------------------------------------------------------------------
# Script files
#
# Interpretation scripts hold one bitstring per line; clause scripts hold
# one clause per line in the formula grammar; relation scripts hold CSV
# blocks separated by lines containing only `---`.  `#` comments and blank
# lines are ignored everywhere except inside CSV blocks.


def _parse_lines(text: str, parse_line) -> list:
    """``parse_line(body)`` of every line's text outside comments; a
    :class:`ParseError` is numbered by its line."""
    entries = []
    for line_no, body in _logical_lines(text):
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
