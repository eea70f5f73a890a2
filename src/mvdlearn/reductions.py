"""Translations between learning frameworks sharing a representation class.

A reduction pair carries two functions.  ``f_mem`` answers a membership
query of the destination framework by asking source-framework membership
queries; ``f_eq`` turns a source-framework counterexample into a
destination-framework counterexample, again consulting only the source
membership oracle and the hypothesis.  :func:`translate_oracles` turns
source-framework oracles into the learner's oracles through a pair, so
the learner runs unchanged while the oracles live in the source framework.

Three concrete pairs are provided:

* data relations    -> truth assignments (dependency discovery from data);
* Horn entailments  -> truth assignments (with a Horn extraction at the end,
  :func:`mvdf_to_horn`, which builds the Duquenne-Guigues basis of the
  learned models);
* two-literal-clause entailments -> truth assignments.

For the last pair the counterexample translation walks the assignments
breaking the clause instead of building the polynomial-size structure the
general construction would use; this is exact but may spend exponentially
many queries, which is acceptable at the universe sizes this package
targets.  Assignment sets are the bitsets of :mod:`mvdlearn.core`
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import (
    HornClause,
    HornFormula,
    Interpretation,
    MvdClause,
    MvdFormula,
    QuasiHorn2Clause,
    VariableUniverse,
    _require_same_universe,
    bit_indices,
    blocks_hold,
    canonical_select,
    down_closure,
    entails,
    meet_above,
    model_bitset,
    violator_bitset,
)
from .errors import ConversionError, OracleContractError
from .learner import learn
from .relations import (
    Relation,
    agreement_mask,
    interp_to_pair,
    mvd_holds,
)

@dataclass(frozen=True)
class ReductionPair:
    """The two translation functions of a reduction.

    ``f_mem(example, mem_source) -> bool`` and
    ``f_eq(counterexample, hypothesis, mem_source) -> example`` may consult
    the target only through ``mem_source``; neither receives a target value.
    """

    f_mem: Callable
    f_eq: Callable


def translate_oracles(reduction: ReductionPair, mem_source, eq_source):
    """The learner's ``(mem, eq)`` oracles, answered by source-framework oracles.

    Destination membership queries are answered through ``f_mem``, and
    every source counterexample is translated through ``f_eq`` before the
    learner sees it.  A ``yes`` from the source equivalence oracle is a
    ``yes`` to the learner.
    """

    def mem(example):
        return reduction.f_mem(example, mem_source)

    def eq(hypothesis):
        counterexample = eq_source(hypothesis)
        if counterexample is None:
            return None
        return reduction.f_eq(counterexample, hypothesis, mem_source)

    return mem, eq


# ---------------------------------------------------------------------------
# Data relations -> truth assignments


def relation_ce_to_interp(
    relation: Relation,
    hypothesis: MvdFormula,
    mem_relation,
) -> Interpretation:
    """Extract an assignment counterexample from a relation counterexample.

    The relation must be over the hypothesis's universe, and so is the
    assignment.  Scans row pairs in row order.  When the hypothesis fails
    in the relation (so the target must hold in it) the first pair on
    which the hypothesis fails but the target holds is taken; in the
    opposite case the first pair on which the hypothesis holds but the
    target fails.  The agreement assignment of that pair disagrees with
    exactly one of target and hypothesis.  At most ``|r|**2`` membership
    queries are spent.

    Each pair's agreement mask is read once, and the hypothesis side of a
    pair is judged on it: a two-row relation satisfies a proper dependency
    exactly when that assignment satisfies the clause, and a clause with an
    empty side holds in every relation, so the pair holds when the mask
    breaks none of the hypothesis's proper blocks
    (:meth:`MvdFormula.proper_blocks`).  So a two-row relation is its own
    only pair and takes its verdict from its ``agreement``, without
    reading its rows (a pair built by :func:`interp_to_pair` never builds
    them here), and only a relation of three or more rows is checked with
    the holds-in-relation check.
    """
    universe = _require_same_universe(hypothesis, relation)
    if len(relation) < 2:
        raise OracleContractError(
            "a relation with fewer than two rows cannot be a counterexample"
        )
    blocks = hypothesis.proper_blocks()
    full = universe.full_mask
    if len(relation) == 2:
        agree = relation.agreement
        if bool(mem_relation(relation)) != blocks_hold(agree, blocks, full):
            return Interpretation(universe, agree)
    else:
        rows = relation.rows
        hypothesis_holds = all(mvd_holds(relation, c) for c in hypothesis.clauses)
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                agree = agreement_mask(rows[i], rows[j])
                # a pair on which the hypothesis agrees with its verdict on
                # the whole relation, and the target does not
                if blocks_hold(agree, blocks, full) == hypothesis_holds and bool(
                    mem_relation(Relation(universe, (rows[i], rows[j])))
                ) != hypothesis_holds:
                    return Interpretation(universe, agree)
    raise OracleContractError(
        "no row pair separates target and hypothesis; the relation is not a "
        "genuine counterexample"
    )


def relation_reduction() -> ReductionPair:
    return ReductionPair(
        f_mem=lambda interp, mem: mem(interp_to_pair(interp)),
        f_eq=relation_ce_to_interp,
    )


def learn_mvd_from_relations(universe: VariableUniverse, mem_relation, eq_relation,
                             **session_kwargs) -> MvdFormula:
    """Learn a set of proper dependencies from relation oracles whose
    relations have ``universe`` as their attributes."""
    mem, eq = translate_oracles(relation_reduction(), mem_relation, eq_relation)
    return learn(universe, mem, eq, **session_kwargs)


# ---------------------------------------------------------------------------
# Horn entailments -> truth assignments


def horn_f_mem(interp: Interpretation, mem_entail) -> bool:
    """Decide modelhood of an assignment with Horn-entailment queries.

    Asks ``true(I) -> z`` for every false variable z; the assignment is a
    model exactly when no such clause is entailed.  The all-true assignment
    has no false variable and is a model unless ``* -> F`` is entailed.
    Costs at most n queries.
    """
    universe = interp.universe
    if not interp.false_mask:
        return not mem_entail(HornClause(universe, universe.full_mask, None))
    for z in bit_indices(interp.false_mask):
        if mem_entail(HornClause(universe, interp.mask, z)):
            return False
    return True


def _unit_closure(start: int, universe: VariableUniverse, derivable) -> int:
    """Grow ``start`` by single-variable consequences until a fixpoint.

    ``derivable(mask, v)`` answers whether the implication from the current
    set to v holds; variables are scanned ascending and the scan restarts
    after each addition, so at most n**2 probes run.
    """
    current = start
    changed = True
    while changed:
        changed = False
        for v in range(universe.n):
            if current >> v & 1:
                continue
            if derivable(current, v):
                current |= 1 << v
                changed = True
                break
    return current


def horn_f_eq(clause: HornClause, hypothesis, mem_entail) -> Interpretation:
    """Turn a Horn-clause counterexample into an assignment counterexample.

    When the hypothesis does not entail the clause, the first hypothesis
    model realizing it, in the canonical order, breaks the clause and is
    returned without queries.  That model is the unit closure of the
    antecedent under the hypothesis's entailed clauses whenever the closure
    is a model: the closure is then the meet of the models containing the
    antecedent, the least of them.  When the hypothesis entails the clause
    (so the target does not), the antecedent is closed under
    target-entailed unit consequences, spending membership queries; the
    closure is a target model that breaks the clause and hence the
    hypothesis.
    """
    universe = clause.universe
    # a Horn clause's violators are exactly the assignments realizing it
    realizing = model_bitset(hypothesis) & violator_bitset(clause)
    if realizing:
        return Interpretation(universe, canonical_select(realizing, universe, 0))
    closure = _unit_closure(
        clause.antecedent,
        universe,
        lambda mask, v: mem_entail(HornClause(universe, mask, v)),
    )
    return Interpretation(universe, closure)


def horn_entailment_reduction() -> ReductionPair:
    return ReductionPair(f_mem=horn_f_mem, f_eq=horn_f_eq)


def mvdf_to_horn(formula, strict: bool = True) -> HornFormula:
    """The Duquenne-Guigues basis of ``formula``'s models.

    The models and V are the closed masks, and the closure of a mask is
    the meet of the closed masks above it.  The premises are the
    pseudo-closed masks: each is the least mask, in the canonical order,
    that is not closed and contains the closure of every earlier premise it
    contains.  For a premise p with closure c, ``p -> v`` is emitted for
    every v in c outside p, ascending; ``* -> F`` follows when V is not a
    model.  The basis is the smallest Horn formula with these models, and
    it depends on the models alone.

    A premise equal to its own closure is a meet of models that is not a
    model: the models are not closed under intersection, and no Horn
    formula has them.  With ``strict`` that raises :class:`ConversionError`
    carrying ``formula``.  Otherwise the closed masks become the
    intersection closure of the models, where a mask m is closed when, for
    every variable v outside m, some model containing m lacks v; the basis
    is then that of the strongest Horn consequence of ``formula``.  No
    closure changes, so the premises found so far stay.
    """
    universe = formula.universe
    sup = universe.superset_pattern
    models = model_bitset(formula)
    top = 1 << universe.full_mask
    closed = models | top
    todo = (top << 1) - 1
    clauses = []
    while pending := todo ^ (todo & closed):
        p = canonical_select(pending, universe, 0)
        c = meet_above(closed, universe, p)
        if c == p:
            if strict:
                raise ConversionError(
                    "formula is not Horn-expressible: its models are not closed "
                    "under intersection",
                    residual=formula,
                )
            closed = (top << 1) - 1
            for pattern in universe.var_patterns():
                closed &= down_closure(models ^ (models & pattern), universe) | pattern
            continue
        clauses.extend(HornClause(universe, p, v) for v in bit_indices(c & ~p))
        above = sup(p)
        todo ^= todo & (above ^ (above & sup(c)))
    if not models & top:
        clauses.append(HornClause(universe, universe.full_mask, None))
    return HornFormula(universe, clauses)


def horn_i_via_mvdf(universe: VariableUniverse, mem_interp, eq_interp,
                    **session_kwargs) -> HornFormula:
    """Learn a Horn target from assignment oracles.

    The Horn target is handled by the implication learner unchanged, since
    assignment satisfaction is preserved by the two-clause encoding of each
    Horn clause; the learned formula is extracted back to Horn at the end.
    """
    learned = learn(universe, mem_interp, eq_interp, **session_kwargs)
    return mvdf_to_horn(learned)


def learn_horn_from_entailments(universe: VariableUniverse, mem_entail, eq_entail,
                                **session_kwargs) -> HornFormula:
    """Learn a definite Horn formula from entailment oracles.

    The run ends once target and hypothesis entail the same Horn clauses,
    which does not force the working formula's models to be closed under
    intersection; its strongest Horn consequence is then exact, since two
    Horn formulas entailing the same Horn clauses are equivalent.
    """
    mem, eq = translate_oracles(horn_entailment_reduction(), mem_entail, eq_entail)
    return mvdf_to_horn(learn(universe, mem, eq, **session_kwargs), strict=False)


# ---------------------------------------------------------------------------
# Two-literal-clause entailments -> truth assignments


def qh_f_mem(interp: Interpretation, mem_quasi) -> bool:
    """Decide modelhood of an assignment with two-literal-clause queries.

    For at least two false variables, asks ``true(I) -> w z`` for every
    unordered pair of distinct false variables; a single false variable
    needs one single-consequent query, and the all-true assignment needs
    the purely negative clause.  At most n**2 queries.
    """
    universe = interp.universe
    false_bits = list(bit_indices(interp.false_mask))
    if not false_bits:
        return not mem_quasi(QuasiHorn2Clause(universe, universe.full_mask, frozenset()))
    if len(false_bits) == 1:
        probe = QuasiHorn2Clause(universe, interp.mask, frozenset(false_bits))
        return not mem_quasi(probe)
    for a in range(len(false_bits)):
        for b in range(a + 1, len(false_bits)):
            probe = QuasiHorn2Clause(
                universe, interp.mask, frozenset((false_bits[a], false_bits[b]))
            )
            if mem_quasi(probe):
                return False
    return True


def qh_ce_to_mvd(clause: QuasiHorn2Clause, hypothesis, mem_quasi) -> MvdClause:
    """Grow a two-literal counterexample into a full-cover counterexample.

    Starting from left side {v} and right side {w}, every remaining
    variable joins the left side when the grown implication stays entailed
    (by the hypothesis, tested locally, when the hypothesis entails the
    clause; otherwise by the target, tested with two-literal queries via
    distribution) and the right side otherwise.  One of the two extensions
    is always entailed, so the result is a full-cover implication entailed
    by exactly one of target and hypothesis.
    """
    if len(clause.consequents) != 2:
        raise OracleContractError(
            "counterexample growing needs a clause with two distinct consequents"
        )
    universe = clause.universe
    v, w = sorted(clause.consequents)
    x = clause.antecedent
    models = model_bitset(hypothesis)
    grow_against_hypothesis = models & violator_bitset(clause) == 0
    sup = universe.superset_pattern
    # the grown sides need not cover V: read propositionally, X -> Y | Z
    # holds in the hypothesis when no model above X misses a variable of Y
    # and one of Z
    above = models & sup(x)
    y, z = 1 << v, 1 << w
    for cand in bit_indices(universe.full_mask & ~(x | y | z)):
        if grow_against_hypothesis:
            missing_y = above ^ (above & sup(y | 1 << cand))
            extend_left = missing_y ^ (missing_y & sup(z)) == 0
        else:
            # target side: the pairs within the current sides are already
            # entailed, so only the new variable's pairs need queries
            extend_left = all(
                mem_quasi(QuasiHorn2Clause(universe, x, frozenset((cand, zb))))
                for zb in bit_indices(z)
            )
        if extend_left:
            y |= 1 << cand
        else:
            z |= 1 << cand
    return MvdClause(universe, x, y, z)


def qh_interp_ce_substitute(clause: QuasiHorn2Clause, hypothesis, mem_quasi) -> Interpretation:
    """Assignment counterexample matching a two-literal counterexample.

    Enumerates, in the canonical order, the assignments that make the
    clause's antecedent true and all its consequents false (every such
    assignment breaks the clause).  When the hypothesis entails the clause
    the first one that is a target model is returned, spending queries
    through :func:`qh_f_mem`; otherwise the first hypothesis model, with no
    queries.  Existence is guaranteed while the clause really separates
    target and hypothesis.
    """
    universe = clause.universe
    violators = violator_bitset(clause)
    if not entails(hypothesis, clause):
        mask = canonical_select(model_bitset(hypothesis) & violators, universe, 0)
        return Interpretation(universe, mask)
    for rank in range(violators.bit_count()):
        interp = Interpretation(universe, canonical_select(violators, universe, rank))
        if qh_f_mem(interp, mem_quasi):
            return interp
    raise OracleContractError(
        "no assignment realizes the clause counterexample; the clause does "
        "not separate target and hypothesis"
    )


def quasi2_reduction() -> ReductionPair:
    return ReductionPair(f_mem=qh_f_mem, f_eq=qh_interp_ce_substitute)


def learn_mvdf_from_quasi2(universe: VariableUniverse, mem_quasi, eq_quasi,
                           **session_kwargs) -> MvdFormula:
    """Learn a full-cover implication formula from two-literal-clause oracles."""
    mem, eq = translate_oracles(quasi2_reduction(), mem_quasi, eq_quasi)
    return learn(universe, mem, eq, **session_kwargs)
