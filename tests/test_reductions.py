"""Framework translations: membership transforms, counterexample transforms,
the Horn extraction, and the composed learners."""

import random

import pytest

from mvdlearn import (
    ConversionError,
    EnumerationCapError,
    HornClause,
    HornFormula,
    Interpretation,
    MvdClause,
    MvdFormula,
    OracleContractError,
    QuasiHorn2Clause,
    Relation,
    UniverseMismatchError,
    VariableUniverse,
    entails,
    equivalent,
    false_clause,
    find_counterexample,
    horn_formula_to_mvd,
    interp_to_pair,
    learn,
    learn_horn_from_entailments,
    learn_mvd_from_relations,
    learn_mvdf_from_quasi2,
    mvd_holds,
    mvdf_to_horn,
    parse_clause,
    parse_formula,
    relation_ce_to_interp,
    satisfies,
)
from mvdlearn.oracles import (
    EntailmentTeacher,
    MvdfInterpretationTeacher,
    RelationTeacher,
)
from mvdlearn.core import bit_indices, blocks_hold, model_bitset
from mvdlearn.reductions import (
    ReductionPair,
    _unit_closure,
    horn_entailment_reduction,
    horn_f_eq,
    horn_f_mem,
    horn_i_via_mvdf,
    qh_ce_to_mvd,
    qh_f_mem,
    qh_interp_ce_substitute,
    quasi2_reduction,
    translate_oracles,
)
from mvdlearn.relations import binary_row

from conftest import (
    entails_split,
    enumerate_horn_clauses,
    enumerate_quasi2_clauses,
    model_masks,
    numbered_universe,
    random_block_formula,
    random_definite_horn,
    random_proper_clause,
    random_target,
    random_wide_empty_side_clause,
)
from reference import agreement_interp, enum_masks, pair_holds


def entail_oracle(target):
    return lambda clause: entails(target, clause)


def relation_oracle(target):
    return lambda rel: all(mvd_holds(rel, c) for c in target.clauses)


# ---------------------------------------------------------------------------
# relation transforms


def test_interp_to_pair_structure():
    u = numbered_universe(5)
    interp = Interpretation.from_bits(u, "01100")
    pair = interp_to_pair(interp)
    assert len(pair) == 2
    t, t2 = pair.rows
    for i in range(5):
        assert (t[i] == t2[i]) == bool(interp.mask >> i & 1)

    all_true = Interpretation(u, u.full_mask)
    assert len(interp_to_pair(all_true)) == 1


def test_agreement_round_trip():
    rng = random.Random(3)
    u = numbered_universe(5)

    for _ in range(40):
        interp = Interpretation(u, rng.getrandbits(5))
        pair = interp_to_pair(interp)
        rows = pair.rows
        if len(rows) == 1:
            assert interp.mask == u.full_mask
            continue
        assert agreement_interp(rows[0], rows[1], u) == interp


def test_relation_ce_round_trip():
    u = numbered_universe(4)
    target = MvdFormula(u, [parse_clause("1 -> 2 | 3 4", u)])
    hypo = MvdFormula(u, [parse_clause("1 -> 3 | 2 4", u)])
    interp = find_counterexample(target, hypo)
    pair = interp_to_pair(interp)
    got = relation_ce_to_interp(pair, hypo, relation_oracle(target))
    assert got == interp


def test_relation_ce_multi_row():
    u = numbered_universe(3)
    target = MvdFormula(u, [parse_clause("1 -> 2 | 3", u)])
    hypo = MvdFormula(u, [parse_clause("2 -> 1 | 3", u)])
    # holds for the target, fails for the hypothesis
    rel = Relation(
        u,
        [
            ("a", "b", "c"),
            ("a", "b", "c2"),
            ("d", "b", "e"),
        ],
    )
    assert all(mvd_holds(rel, c) for c in target.clauses)
    assert not all(mvd_holds(rel, c) for c in hypo.clauses)
    got = relation_ce_to_interp(rel, hypo, relation_oracle(target))
    assert satisfies(got, target) != satisfies(got, hypo)


def test_relation_ce_single_row_aborts():
    u = numbered_universe(3)
    hypo = MvdFormula(u)
    single = Relation(u, [("a", "b", "c")])
    with pytest.raises(OracleContractError, match="fewer than two rows"):
        relation_ce_to_interp(single, hypo, relation_oracle(hypo))


def test_relation_ce_over_another_universe_is_rejected():
    u = numbered_universe(3)
    hypo = MvdFormula(u)
    foreign = Relation(VariableUniverse("abc"), [("a", "b", "c"), ("a", "d", "e")])
    with pytest.raises(UniverseMismatchError, match="values over different universes"):
        relation_ce_to_interp(foreign, hypo, relation_oracle(hypo))


def test_relation_ce_treats_mask_built_and_row_built_pairs_alike():
    # a two-row counterexample is judged on its agreement mask: both forms
    # give the same assignment or error after the same queries, and the
    # rows of a pair built from an assignment are never built
    rng = random.Random(27)
    seen = set()
    for n in range(2, 6):
        u = numbered_universe(n)
        for _ in range(3):
            target = random_target(u, rng, allow_degenerate=False)
            hypotheses = [random_target(u, rng, allow_degenerate=False) for _ in range(3)]
            for mask in range(1 << n):
                interp = Interpretation(u, mask)
                by_rows = Relation(u, (binary_row(0, n), binary_row(interp.false_mask, n)))
                for hypothesis in hypotheses:
                    by_mask = interp_to_pair(interp)
                    runs = []
                    for relation in (by_mask, by_rows):
                        teacher = RelationTeacher(target)
                        asked = []

                        def mem(rel):
                            asked.append(rel)
                            return teacher.membership_answer(rel)

                        try:
                            result = relation_ce_to_interp(relation, hypothesis, mem)
                        except OracleContractError as exc:
                            result = f"error: {exc}"
                        runs.append((result, asked, teacher.stats))
                    assert by_mask._rows is None
                    assert runs[0] == runs[1]
                    seen.add((satisfies(interp, hypothesis), isinstance(runs[0][0], str)))
    # hypotheses that fail and that hold in the pair, genuine counterexamples or not
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def _reference_relation_ce_to_interp(relation, hypothesis, mem_relation):
    """The pair scan that judged each pair's hypothesis side by checking the
    dependencies in a two-row relation, kept as the reference."""
    universe = hypothesis.universe
    if len(relation) < 2:
        raise OracleContractError(
            "a relation with fewer than two rows cannot be a counterexample"
        )
    hypothesis_holds = all(mvd_holds(relation, c) for c in hypothesis.clauses)
    rows = relation.rows
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            pair = Relation(relation.universe, (rows[i], rows[j]))
            pair_hypo = all(mvd_holds(pair, c) for c in hypothesis.clauses)
            if hypothesis_holds:
                if pair_hypo and not mem_relation(pair):
                    return agreement_interp(rows[i], rows[j], universe)
            else:
                if not pair_hypo and mem_relation(pair):
                    return agreement_interp(rows[i], rows[j], universe)
    raise OracleContractError(
        "no row pair separates target and hypothesis; the relation is not a "
        "genuine counterexample"
    )


def _recorded_run(extract, relation, hypothesis, target):
    """(result or error text, relations asked) of one extraction; the
    membership oracle records every relation handed to it, in order."""
    asked = []

    def mem(rel):
        asked.append((rel.universe, rel.rows))
        return all(mvd_holds(rel, c) for c in target.clauses)

    try:
        result = extract(relation, hypothesis, mem)
    except OracleContractError as exc:
        result = f"error: {exc}"
    return result, asked


def test_relation_ce_matches_the_reference_pair_scan():
    rng = random.Random(31)
    outcomes = set()
    for _ in range(400):
        n = rng.randrange(3, 7)
        u = numbered_universe(n)
        target = random_target(u, rng, max_clauses=3, allow_degenerate=False)
        clauses = [random_proper_clause(u, rng) for _ in range(rng.randrange(0, 3))]
        # the degenerate clauses a learner's h0 starts with
        if rng.random() < 0.5:
            clauses.append(false_clause(u))
        for v in range(n):
            if rng.random() < 0.4:
                clauses.append(MvdClause(u, u.full_mask ^ (1 << v), 1 << v, 0))
        # the X -> Y | - clause, |Y| >= 2, of a one-part learner block
        if rng.random() < 0.5:
            clauses.append(random_wide_empty_side_clause(u, rng))
        hypothesis = MvdFormula(u, clauses)
        alphabet = rng.randrange(2, 4)
        relation = Relation(u, [
            tuple(str(rng.randrange(alphabet)) for _ in range(n))
            for _ in range(rng.randrange(2, 9))
        ])
        got = _recorded_run(relation_ce_to_interp, relation, hypothesis, target)
        expected = _recorded_run(
            _reference_relation_ce_to_interp, relation, hypothesis, target
        )
        assert got == expected
        outcomes.add(isinstance(got[0], str))
    assert outcomes == {True, False}


def test_block_pair_judge_matches_the_clause_triples():
    # relation_ce_to_interp judges a two-row relation on the hypothesis's
    # proper blocks; the reference reads every clause as a triple
    rng = random.Random(44)
    for trial in range(150):
        u = numbered_universe(2 + trial % 5)
        if trial % 3:
            hypothesis = random_block_formula(u, rng)
        else:
            hypothesis = random_target(u, rng)
        blocks = hypothesis.proper_blocks()
        triples = [(c.x_mask, c.y_mask, c.z_mask) for c in hypothesis.clauses]
        for agree in range(1 << u.n):
            assert blocks_hold(agree, blocks, u.full_mask) == pair_holds(agree, triples)


# ---------------------------------------------------------------------------
# Horn transforms


def test_horn_f_mem_examples():
    u = numbered_universe(3)
    target = parse_formula("vars: 1 2 3\n1 -> 2\n", "horn")
    mem = entail_oracle(target)
    assert horn_f_mem(Interpretation(u, u.full_mask), mem)  # nothing false
    assert not horn_f_mem(Interpretation.from_bits(u, "100"), mem)
    assert horn_f_mem(Interpretation.from_bits(u, "110"), mem)


def test_horn_f_mem_query_count():
    u = numbered_universe(6)
    target = random_definite_horn(u, random.Random(0))
    calls = []

    def counting(clause):
        calls.append(clause)
        return entails(target, clause)

    horn_f_mem(Interpretation.from_bits(u, "110000"), counting)
    assert len(calls) <= u.n


def test_horn_f_eq_examples():
    u = numbered_universe(2)
    c = HornClause(u, 0b01, 1)  # 1 -> 2

    # target entails c, hypothesis does not: local closure, no queries
    hypo_empty = MvdFormula(u)

    def no_queries(_):
        raise AssertionError("membership oracle must not be consulted")

    got = horn_f_eq(c, hypo_empty, no_queries)
    assert got.to_bits() == "10"
    assert satisfies(got, hypo_empty)

    # hypothesis entails c, target does not: closure through the oracle
    target_empty = HornFormula(u)
    hypo = horn_formula_to_mvd(HornFormula(u, [c]))
    got = horn_f_eq(c, hypo, entail_oracle(target_empty))
    assert got.to_bits() == "10"
    assert satisfies(got, target_empty) and not satisfies(got, hypo)

    # an antecedent covering everything closes immediately
    top = HornClause(u, u.full_mask, None)
    hypo_top = horn_formula_to_mvd(HornFormula(u, [top]))
    got = horn_f_eq(top, hypo_top, entail_oracle(target_empty))
    assert got.mask == u.full_mask


def test_horn_f_eq_random_validity():
    rng = random.Random(77)

    checked = 0
    for _ in range(80):
        n = rng.randrange(2, 6)
        u = numbered_universe(n)
        target = random_definite_horn(u, rng)
        hypo = random_target(u, rng, max_clauses=3)
        separating = [
            c
            for c in enumerate_horn_clauses(u)
            if entails(target, c) != entails(hypo, c)
        ]
        if not separating:
            continue
        clause = rng.choice(separating)
        got = horn_f_eq(clause, hypo, entail_oracle(target))
        assert satisfies(got, target) != satisfies(got, hypo)
        checked += 1
    assert checked > 40


def _recorded_entailment_run(f_eq, clause, hypothesis, target):
    """(result or error text, clauses asked) of one counterexample
    translation; the membership oracle records every clause handed to it."""
    asked = []

    def mem(query):
        asked.append(query)
        return entails(target, query)

    try:
        result = f_eq(clause, hypothesis, mem)
    except OracleContractError as exc:
        result = f"error: {exc}"
    return result, asked


def _reference_horn_f_eq(clause, hypothesis, mem_entail):
    """The translation that decided every local unit step with ``entails``
    and scanned all assignments for its fallback, kept as the reference."""
    universe = clause.universe
    if entails(hypothesis, clause):
        closure = _unit_closure(
            clause.antecedent,
            universe,
            lambda mask, v: mem_entail(HornClause(universe, mask, v)),
        )
        return Interpretation(universe, closure)
    closure = _unit_closure(
        clause.antecedent,
        universe,
        lambda mask, v: entails(hypothesis, HornClause(universe, mask, v)),
    )
    candidate = Interpretation(universe, closure)
    if satisfies(candidate, hypothesis):
        return candidate
    need = clause.antecedent
    avoid = 0 if clause.consequent is None else 1 << clause.consequent
    for mask in enum_masks(universe.n):
        interp = Interpretation(universe, mask)
        if interp.mask & need != need or interp.mask & avoid:
            continue
        if satisfies(interp, hypothesis):
            return interp
    raise OracleContractError(
        "no hypothesis model realizes the clause counterexample; the clause "
        "does not separate target and hypothesis"
    )


def test_horn_f_eq_matches_the_reference_scan():
    rng = random.Random(606)

    paths = set()
    for _ in range(300):
        n = rng.randrange(2, 7)
        u = numbered_universe(n)
        target = random_definite_horn(u, rng)
        hypo = random_target(u, rng, max_clauses=3)
        separating = [
            c
            for c in enumerate_horn_clauses(u)
            if entails(target, c) != entails(hypo, c)
        ]
        if not separating:
            continue
        clause = rng.choice(separating)
        got = _recorded_entailment_run(horn_f_eq, clause, hypo, target)
        expected = _recorded_entailment_run(_reference_horn_f_eq, clause, hypo, target)
        assert got == expected
        if entails(hypo, clause):
            paths.add("target closure")
        else:
            local = _unit_closure(
                clause.antecedent, u,
                lambda mask, v: entails(hypo, HornClause(u, mask, v)),
            )
            paths.add("local closure" if got[0].mask == local else "first model")
    assert paths == {"target closure", "local closure", "first model"}


def test_reductions_and_extractions_take_the_enumeration_cap():
    # four variables under caps 3, 4 and the default: every translation,
    # extraction and composed learner enumerates under the cap of the
    # universe it is given, with no cap argument of its own
    default = numbered_universe(4)
    horn_target = HornFormula(default, [HornClause(default, 0b0001, 1)])
    mvd_target = MvdFormula(default, [parse_clause("1 -> 2 | 3 4", default)])

    def oracles(teacher):
        return teacher.membership_answer, teacher.equivalence_answer

    def calls(u):
        target = horn_formula_to_mvd(HornFormula(u, [HornClause(u, 0b0001, 1)]))
        hypo = MvdFormula(u)

        def mem(clause):
            return entails(target, clause)

        horn_ce = HornClause(u, 0b0001, 1)
        quasi_ce = QuasiHorn2Clause(u, 0b0001, frozenset((1, 2)))
        # the teachers' targets stay at the default cap; the learners'
        # hypotheses and extractions are over u
        return [
            lambda: horn_entailment_reduction().f_eq(horn_ce, hypo, mem),
            lambda: quasi2_reduction().f_eq(quasi_ce, hypo, mem),
            lambda: qh_ce_to_mvd(quasi_ce, hypo, mem),
            lambda: mvdf_to_horn(target),
            lambda: mvdf_to_horn(target, strict=False),
            lambda: horn_i_via_mvdf(u, *oracles(MvdfInterpretationTeacher(horn_target))),
            lambda: learn_horn_from_entailments(
                u, *oracles(EntailmentTeacher(horn_target, "horn"))
            ),
            lambda: learn_mvdf_from_quasi2(
                u, *oracles(EntailmentTeacher(mvd_target, "quasi2"))
            ),
            lambda: learn_mvd_from_relations(u, *oracles(RelationTeacher(mvd_target))),
        ]

    capped, enough = (VariableUniverse(default.names, cap=cap) for cap in (3, 4))
    for at_3, at_4, at_default in zip(calls(capped), calls(enough), calls(default)):
        with pytest.raises(EnumerationCapError, match="enumeration cap is 3"):
            at_3()
        assert at_4() == at_default()
    targets = (horn_target, horn_target, mvd_target, mvd_target)
    for learn_at_4, target in zip(calls(enough)[-4:], targets):
        assert equivalent(learn_at_4(), target)


def test_entry_points_learn_past_the_default_cap():
    # n = 25 is one past the default cap of 24: the Horn learner and the
    # two-literal counterexample growth both enumerate under the cap of the
    # universe they are given
    u = VariableUniverse([str(i) for i in range(1, 26)], cap=25)
    target = HornFormula(u, [HornClause(u, 0b011, 2)])
    teacher = MvdfInterpretationTeacher(target)
    got = horn_i_via_mvdf(u, teacher.membership_answer, teacher.equivalence_answer)
    assert got == target

    def mem(clause):
        return False  # a target that entails no two-literal clause

    clause = QuasiHorn2Clause(u, 0, frozenset({0, 1}))
    grown = qh_ce_to_mvd(clause, MvdFormula(u), mem)
    assert grown == MvdClause(u, 0, 0b01, u.full_mask & ~0b01)


def test_mvdf_to_horn_reference_example():
    u = numbered_universe(6)
    f = MvdFormula(
        u,
        [
            parse_clause("1 2 3 5 6 -> 4 | -", u),
            parse_clause("1 3 5 -> 4 | 2 6", u),
        ],
    )
    horn = mvdf_to_horn(f)
    assert equivalent(horn, parse_formula("vars: 1 2 3 4 5 6\n1 3 5 -> 4\n", "horn"))

    empty = MvdFormula(u)
    assert len(mvdf_to_horn(empty).clauses) == 0


def test_mvdf_to_horn_round_trips_random_horn():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(2, 7)
        u = numbered_universe(n)
        horn = random_definite_horn(u, rng)
        image = horn_formula_to_mvd(horn)
        back = mvdf_to_horn(image)
        assert equivalent(back, horn)


def _reference_intersection_closure(formula):
    """The formula's models closed under pairwise intersection with Python
    sets, kept as the reference: the models of its strongest Horn
    consequence."""
    closed = fresh = set(model_masks(formula))
    while fresh:
        fresh = {a & b for a in fresh for b in closed} - closed
        closed |= fresh
    return closed


def _reference_basis(formula):
    """``{premise: closure}`` over the pseudo-closed masks of the closure
    system of the formula's models and V, by the definition: P is not
    closed, and contains the closure of every pseudo-closed mask it
    strictly contains.  Closed means a meet of models and V."""
    universe = formula.universe
    closed = _reference_intersection_closure(formula) | {universe.full_mask}

    def closure(m):
        meet = universe.full_mask
        for s in closed:
            if s & m == m:
                meet &= s
        return meet

    basis = {}
    for p in enum_masks(universe.n):
        if closure(p) != p and all(c & p == c for q, c in basis.items() if q & p == q):
            basis[p] = closure(p)
    return basis


def _premises(horn):
    """``{antecedent: consequent mask}`` of the definite clauses, in order."""
    premises = {}
    for clause in horn.clauses:
        if clause.consequent is not None:
            premises[clause.antecedent] = (
                premises.get(clause.antecedent, clause.antecedent) | clause.consequent_mask
            )
    return premises


def _random_extraction_input(u, rng, trial):
    if trial % 3 == 0:
        return horn_formula_to_mvd(random_definite_horn(u, rng))
    return random_target(u, rng, max_clauses=4)


def test_mvdf_to_horn_premises_are_the_pseudo_closed_sets():
    rng = random.Random(1987)
    outcomes = set()
    for trial in range(600):
        n = 2 + trial % 4
        u = numbered_universe(n)
        formula = _random_extraction_input(u, rng, trial)
        horn = mvdf_to_horn(formula, strict=False)
        premises = _premises(horn)
        assert premises == _reference_basis(formula)
        # premises in the canonical order, each closure's variables ascending
        order = list(enum_masks(n))
        definite = [c for c in horn.clauses if c.consequent is not None]
        assert definite == sorted(
            definite, key=lambda c: (order.index(c.antecedent), c.consequent)
        )
        v_is_model = u.full_mask in model_masks(formula)
        # `* -> F` comes last, and only when V is not a model
        false_clause = HornClause(u, u.full_mask, None)
        assert false_clause not in horn.clauses[:-1]
        assert (horn.clauses[-1:] == (false_clause,)) != v_is_model
        outcomes.add("V a model" if v_is_model else "V not a model")
    assert outcomes == {"V a model", "V not a model"}


def test_mvdf_to_horn_accepts_every_horn_expressible_formula():
    # no antecedent of the formula is a premise: its models {}, {a, b} are
    # closed under intersection, and a -> b, b -> a has them
    f = parse_formula("vars: a b\n- -> a b | -\n", "mvd")
    horn = mvdf_to_horn(f)
    assert horn.clauses == parse_formula("vars: a b\na -> b\nb -> a\n", "horn").clauses
    assert equivalent(horn, f)


def test_mvdf_to_horn_strict_raises_exactly_off_intersection_closed_models():
    rng = random.Random(2011)
    outcomes = set()
    for trial in range(600):
        n = 2 + trial % 5
        u = numbered_universe(n)
        formula = _random_extraction_input(u, rng, trial)
        models = set(model_masks(formula))
        if models != _reference_intersection_closure(formula):
            with pytest.raises(ConversionError, match="not closed under intersection") as err:
                mvdf_to_horn(formula)
            assert err.value.residual is formula
            outcomes.add("rejected")
            continue
        horn = mvdf_to_horn(formula)
        assert horn.clauses == mvdf_to_horn(formula, strict=False).clauses
        assert set(model_masks(horn)) == models
        outcomes.add("extracted")
    assert outcomes == {"rejected", "extracted"}


def test_mvdf_to_horn_rejects_non_horn():
    u = numbered_universe(5)
    f = MvdFormula(u, [parse_clause("1 2 3 -> 4 | 5", u)])
    with pytest.raises(ConversionError) as err:
        mvdf_to_horn(f)
    assert err.value.residual is f


def test_lenient_horn_extraction_properties():
    rng = random.Random(9)

    for _ in range(40):
        n = rng.randrange(2, 6)
        u = numbered_universe(n)
        formula = random_target(u, rng, max_clauses=3)
        env = mvdf_to_horn(formula, strict=False)
        # entails exactly the Horn clauses the input entails
        for clause in enumerate_horn_clauses(u):
            assert entails(env, clause) == entails(formula, clause)
        # and is equivalent whenever the input already was Horn-shaped
        horn = random_definite_horn(u, rng)
        assert equivalent(mvdf_to_horn(horn_formula_to_mvd(horn), strict=False), horn)


def test_lenient_horn_extraction_models_are_the_reference_closure():
    rng = random.Random(1996)
    kinds = set()
    for trial in range(240):
        n = 2 + trial % 6
        u = numbered_universe(n)
        formula = _random_extraction_input(u, rng, trial)
        models = model_bitset(formula)
        kinds.add(
            "no models" if not models
            else "V a model" if models >> u.full_mask & 1
            else "V not a model"
        )
        closure = _reference_intersection_closure(formula)
        if set(model_masks(formula)) != closure:
            kinds.add("non-Horn")
        envelope = mvdf_to_horn(formula, strict=False)
        assert set(model_masks(envelope)) == closure
    for n in range(1, 5):
        # every assignment excluded: no variable can be false, nor all true
        u = numbered_universe(n)
        unsatisfiable = HornFormula(
            u, [HornClause(u, 0, v) for v in range(n)] + [HornClause(u, u.full_mask, None)]
        )
        assert model_bitset(unsatisfiable) == 0
        envelope = mvdf_to_horn(unsatisfiable, strict=False)
        assert model_masks(envelope) == []
        assert envelope.clauses == unsatisfiable.clauses
    assert kinds >= {"V a model", "V not a model", "non-Horn"}


def test_horn_extraction_leaves_no_horn_clause_in_the_violator_cache():
    # the Horn extraction builds the formula's model set, and horn_f_eq
    # closes antecedents on both sides, but neither may keep one 2**n-bit
    # set per Horn clause on the universe
    rng = random.Random(16)
    emitted = 0
    translated = 0
    for trial in range(60):
        n = 2 + trial % 6
        u = numbered_universe(n)
        formula = random_target(u, rng, max_clauses=4)
        emitted += len(mvdf_to_horn(formula, strict=False).clauses)
        assert not any(key[0] is HornClause for key in u._violator_cache)

        target = horn_formula_to_mvd(random_definite_horn(u, rng))
        emitted += len(mvdf_to_horn(target).clauses)
        assert not any(key[0] is HornClause for key in u._violator_cache)
        separating = [
            c for c in enumerate_horn_clauses(u) if entails(target, c) != entails(formula, c)
        ]
        if separating:
            horn_f_eq(rng.choice(separating), formula, entail_oracle(target))
            assert not any(key[0] is HornClause for key in u._violator_cache)
            translated += 1
    assert emitted
    assert translated


def test_horn_i_via_mvdf_single_clause_target():
    target = parse_formula("vars: 1 2 3 4 5 6\n1 3 5 -> 4\n", "horn")
    u = target.universe
    teacher = MvdfInterpretationTeacher(target)
    got = horn_i_via_mvdf(u, teacher.membership_answer, teacher.equivalence_answer)
    assert equivalent(got, target)


def test_horn_i_via_mvdf_random_targets():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randrange(2, 8)
        u = numbered_universe(n)
        target = random_definite_horn(u, rng)
        teacher = MvdfInterpretationTeacher(target)
        got = horn_i_via_mvdf(u, teacher.membership_answer, teacher.equivalence_answer)
        assert isinstance(got, HornFormula)
        assert equivalent(got, target)


def test_horn_i_via_mvdf_aborts_on_non_horn_target():
    target = parse_formula("vars: 1 2 3 4 5\n1 2 3 -> 4 | 5\n", "mvd")
    u = target.universe
    teacher = MvdfInterpretationTeacher(target)
    with pytest.raises(ConversionError):
        horn_i_via_mvdf(u, teacher.membership_answer, teacher.equivalence_answer)


def test_horn_entailment_chain_regression():
    # a target whose run ends with a non-Horn working formula entailing
    # exactly the right Horn clauses; the chain must still come back exact
    target = parse_formula("vars: 1 2 3 4 5 6 7\n2 3 4 6 -> 7\n", "horn")
    u = target.universe
    teacher = EntailmentTeacher(target, "horn")
    got = learn_horn_from_entailments(
        u, teacher.membership_answer, teacher.equivalence_answer
    )
    assert equivalent(got, target)


# ---------------------------------------------------------------------------
# two-literal-clause transforms


def test_qh_f_mem_examples(golden_target):
    u = golden_target.universe
    mem = entail_oracle(golden_target)
    assert not qh_f_mem(Interpretation.from_bits(u, "11100"), mem)
    assert qh_f_mem(Interpretation(u, u.full_mask), mem)
    assert not qh_f_mem(Interpretation.from_bits(u, "01111"), mem)  # single false


def test_qh_f_mem_agrees_with_satisfaction():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randrange(2, 7)
        u = numbered_universe(n)
        target = random_target(u, rng)
        interp = Interpretation(u, rng.getrandbits(n) & u.full_mask)
        assert qh_f_mem(interp, entail_oracle(target)) == satisfies(interp, target)


def test_qh_ce_to_mvd_reference_example():
    target = parse_formula("vars: 1 2 3 4 5 6\n1 -> 2 3 | 4 5 6\n", "mvd")
    u = target.universe
    hypo = MvdFormula(u)
    clause = QuasiHorn2Clause(u, 0b000001, frozenset((1, 3)))  # 1 -> 2 4
    assert entails(target, clause) and not entails(hypo, clause)
    got = qh_ce_to_mvd(clause, hypo, entail_oracle(target))
    assert entails(target, got) and not entails(hypo, got)


def test_qh_ce_to_mvd_no_free_variables():
    u = numbered_universe(3)
    target = MvdFormula(u, [parse_clause("1 -> 2 | 3", u)])
    clause = QuasiHorn2Clause(u, 0b001, frozenset((1, 2)))
    got = qh_ce_to_mvd(clause, MvdFormula(u), entail_oracle(target))
    assert (got.x_mask, got.y_mask, got.z_mask) == (0b001, 0b010, 0b100)


def test_qh_ce_to_mvd_target_side_keeps_split_entailed():
    # replay the growth decisions and check the invariant directly
    rng = random.Random(31)
    from mvdlearn.core import bit_indices

    replayed = 0
    for _ in range(60):
        n = rng.randrange(3, 7)
        u = numbered_universe(n)
        target = random_target(u, rng, max_clauses=3)
        hypo = random_target(u, rng, max_clauses=3)
        pool = [
            c
            for c in enumerate_quasi2_clauses(u)
            if len(c.consequents) == 2
            and entails(target, c)
            and not entails(hypo, c)
        ]
        if not pool:
            continue
        clause = rng.choice(pool)
        got = qh_ce_to_mvd(clause, hypo, entail_oracle(target))
        v, w = sorted(clause.consequents)
        y, z = 1 << v, 1 << w
        assert entails_split(target, clause.antecedent, y, z)
        for cand in bit_indices(u.full_mask & ~(clause.antecedent | y | z)):
            if entails_split(target, clause.antecedent, y | (1 << cand), z):
                y |= 1 << cand
            else:
                z |= 1 << cand
            assert entails_split(target, clause.antecedent, y, z)
        assert (got.y_mask, got.z_mask) == (y, z)
        replayed += 1
    assert replayed > 20


def _reference_qh_ce_to_mvd(clause, hypothesis, mem_quasi):
    """The growth that judged each hypothesis-side step as the entailment
    of a split implication ``X -> Y | Z`` whose sides need not cover V,
    kept as the reference."""
    universe = clause.universe
    v, w = sorted(clause.consequents)
    x = clause.antecedent
    grow_against_hypothesis = entails(hypothesis, clause)
    y, z = 1 << v, 1 << w
    for cand in bit_indices(universe.full_mask & ~(x | y | z)):
        if grow_against_hypothesis:
            extend_left = entails_split(hypothesis, x, y | (1 << cand), z)
        else:
            extend_left = all(
                mem_quasi(QuasiHorn2Clause(universe, x, frozenset((cand, zb))))
                for zb in bit_indices(z)
            )
        if extend_left:
            y |= 1 << cand
        else:
            z |= 1 << cand
    return MvdClause(universe, x, y, z)


def test_qh_ce_to_mvd_matches_the_split_growth():
    rng = random.Random(446)
    sides = set()
    for n in range(3, 8):
        u = numbered_universe(n)
        for _ in range(40):
            target = random_target(u, rng, max_clauses=3)
            hypo = random_target(u, rng, max_clauses=3)
            pairs = [c for c in enumerate_quasi2_clauses(u) if len(c.consequents) == 2]
            separating = [c for c in pairs if entails(target, c) != entails(hypo, c)]
            pool = separating if separating and rng.random() < 0.8 else pairs
            clause = rng.choice(pool)
            got = _recorded_entailment_run(qh_ce_to_mvd, clause, hypo, target)
            expected = _recorded_entailment_run(
                _reference_qh_ce_to_mvd, clause, hypo, target
            )
            assert got == expected, (clause, hypo, target)
            sides.add("hypothesis" if entails(hypo, clause) else "target")
    assert sides == {"hypothesis", "target"}


def test_qh_interp_ce_substitute_reference(golden_target):
    u = golden_target.universe
    hypo = MvdFormula(u, [parse_clause("2 3 4 5 -> 1 | -", u)])
    clause = QuasiHorn2Clause(u, 0b00111, frozenset((3, 4)))  # 1 2 3 -> 4 5
    assert entails(golden_target, clause) and not entails(hypo, clause)
    got = qh_interp_ce_substitute(clause, hypo, entail_oracle(golden_target))
    assert got.to_bits() == "11100"
    assert satisfies(got, hypo) and not satisfies(got, golden_target)


def test_qh_interp_ce_substitute_unique_candidate():
    # antecedent and consequents together cover everything, so exactly one
    # assignment realizes the clause
    u = numbered_universe(3)
    target = MvdFormula(u, [parse_clause("1 -> 2 | 3", u)])
    hypo = MvdFormula(u)
    clause = QuasiHorn2Clause(u, 0b001, frozenset((1, 2)))
    got = qh_interp_ce_substitute(clause, hypo, entail_oracle(target))
    assert got.to_bits() == "100"


def test_qh_interp_ce_substitute_random_validity():
    rng = random.Random(99)
    checked = 0
    for _ in range(80):
        n = rng.randrange(2, 7)
        u = numbered_universe(n)
        target = random_target(u, rng, max_clauses=3)
        hypo = random_target(u, rng, max_clauses=3)
        pool = [
            c
            for c in enumerate_quasi2_clauses(u)
            if entails(target, c) != entails(hypo, c)
        ]
        if not pool:
            continue
        clause = rng.choice(pool)
        got = qh_interp_ce_substitute(clause, hypo, entail_oracle(target))
        assert satisfies(got, target) != satisfies(got, hypo)
        checked += 1
    assert checked > 40


def _reference_qh_interp_ce_substitute(clause, hypothesis, mem_quasi):
    """The substitute that scanned all assignments in the canonical order,
    kept as the reference."""
    universe = clause.universe
    need = clause.antecedent
    avoid = clause.consequent_mask
    target_must_satisfy = entails(hypothesis, clause)
    for mask in enum_masks(universe.n):
        interp = Interpretation(universe, mask)
        if interp.mask & need != need or interp.mask & avoid:
            continue
        if target_must_satisfy:
            if qh_f_mem(interp, mem_quasi):
                return interp
        else:
            if satisfies(interp, hypothesis):
                return interp
    raise OracleContractError(
        "no assignment realizes the clause counterexample; the clause does "
        "not separate target and hypothesis"
    )


def test_qh_interp_ce_substitute_matches_the_reference_scan():
    rng = random.Random(2017)
    outcomes = set()
    for _ in range(300):
        n = rng.randrange(2, 7)
        u = numbered_universe(n)
        target = random_target(u, rng, max_clauses=3)
        hypo = random_target(u, rng, max_clauses=3)
        clauses = list(enumerate_quasi2_clauses(u))
        separating = [c for c in clauses if entails(target, c) != entails(hypo, c)]
        # a clause both entail exhausts the walk and ends in the error
        both = [c for c in clauses if entails(target, c) and entails(hypo, c)]
        pool = separating if separating and rng.random() < 0.8 else both
        if not pool:
            continue
        clause = rng.choice(pool)
        got = _recorded_entailment_run(qh_interp_ce_substitute, clause, hypo, target)
        expected = _recorded_entailment_run(
            _reference_qh_interp_ce_substitute, clause, hypo, target
        )
        assert got == expected
        outcomes.add(
            "error" if isinstance(got[0], str)
            else "target model" if got[1] else "hypothesis model"
        )
    assert outcomes == {"error", "target model", "hypothesis model"}


# ---------------------------------------------------------------------------
# composition


def test_membership_transforms_agree_with_destination_membership():
    # first translation-pair condition: the transformed membership answer
    # must equal plain assignment membership, for all three source kinds
    rng = random.Random(424)
    for _ in range(60):
        n = rng.randrange(2, 6)
        u = numbered_universe(n)
        interp = Interpretation(u, rng.getrandbits(n) & u.full_mask)

        definite = random_definite_horn(u, rng)
        # the all-true assignment is the one only `* -> F` excludes
        negative = HornFormula(u, [*definite, HornClause(u, u.full_mask, None)])
        for horn_target in (definite, negative):
            for i in (interp, Interpretation(u, u.full_mask)):
                assert horn_f_mem(i, entail_oracle(horn_target)) == satisfies(
                    i, horn_target
                )

        quasi_target = random_target(u, rng, max_clauses=3)
        assert qh_f_mem(interp, entail_oracle(quasi_target)) == satisfies(
            interp, quasi_target
        )

        proper_target = MvdFormula(u, [random_proper_clause(u, rng) for _ in range(2)])
        answer = relation_oracle(proper_target)(interp_to_pair(interp))
        assert answer == satisfies(interp, proper_target)


def test_translate_oracles_identity_pair_matches_plain_learner(golden_target):
    u = golden_target.universe
    identity = ReductionPair(
        f_mem=lambda example, mem: mem(example),
        f_eq=lambda example, hypothesis, mem: example,
    )
    teacher_a = MvdfInterpretationTeacher(golden_target)
    teacher_b = MvdfInterpretationTeacher(golden_target)
    direct = learn(u, teacher_a.membership_answer, teacher_a.equivalence_answer)
    mem, eq = translate_oracles(
        identity, teacher_b.membership_answer, teacher_b.equivalence_answer
    )
    assert direct == learn(u, mem, eq)


# ---------------------------------------------------------------------------
# composed learners (small smoke suites; the big ones are acceptance)


def test_learn_mvd_from_relations_smoke():
    rng = random.Random(55)
    for trial in range(25):
        n = rng.randrange(3, 7)
        u = numbered_universe(n)
        target = MvdFormula(u, [random_proper_clause(u, rng) for _ in range(2)])
        teacher = RelationTeacher(
            target, "random" if trial % 2 else "exhaustive", seed=trial
        )
        got = learn_mvd_from_relations(
            u, teacher.membership_answer, teacher.equivalence_answer
        )
        assert find_counterexample(got, target) is None


def test_learn_horn_from_entailments_smoke():
    rng = random.Random(66)
    for trial in range(25):
        n = rng.randrange(2, 8)
        u = numbered_universe(n)
        target = random_definite_horn(u, rng)
        teacher = EntailmentTeacher(
            target, "horn", "random" if trial % 2 else "exhaustive", seed=trial
        )
        got = learn_horn_from_entailments(
            u, teacher.membership_answer, teacher.equivalence_answer
        )
        assert equivalent(got, target)
        assert isinstance(got, HornFormula)


def test_learn_mvdf_from_quasi2_smoke():
    rng = random.Random(88)
    for trial in range(20):
        n = rng.randrange(3, 6)
        u = numbered_universe(n)
        target = random_target(u, rng, max_clauses=3)
        teacher = EntailmentTeacher(
            target, "quasi2", "random" if trial % 2 else "exhaustive", seed=trial
        )
        got = learn_mvdf_from_quasi2(
            u, teacher.membership_answer, teacher.equivalence_answer
        )
        assert find_counterexample(got, target) is None


def test_empty_targets_learn_to_empty():
    u = numbered_universe(4)
    empty_mvdf = MvdFormula(u)
    teacher = RelationTeacher(empty_mvdf)
    got = learn_mvd_from_relations(
        u, teacher.membership_answer, teacher.equivalence_answer
    )
    assert len(got.clauses) == 0

    empty_horn = HornFormula(u)
    teacher = EntailmentTeacher(empty_horn, "horn")
    got = learn_horn_from_entailments(
        u, teacher.membership_answer, teacher.equivalence_answer
    )
    assert len(got.clauses) == 0

    teacher = EntailmentTeacher(empty_mvdf, "quasi2")
    got = learn_mvdf_from_quasi2(
        u, teacher.membership_answer, teacher.equivalence_answer
    )
    assert len(got.clauses) == 0
