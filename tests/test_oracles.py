"""Teacher strategies, counterexample validation and query accounting."""

import functools
import random

import pytest

import mvdlearn.oracles
from mvdlearn import (
    HornClause,
    HornFormula,
    Interpretation,
    MvdFormula,
    OracleContractError,
    Relation,
    SchemaError,
    UniverseMismatchError,
    VariableUniverse,
    entails,
    equivalent,
    find_counterexample,
    format_clause,
    interp_to_pair,
    mvd_holds,
    parse_clause,
    parse_formula,
    satisfies,
)
from mvdlearn.core import (
    bit_indices,
    canonical_select,
    model_bitset,
    violator_bitset,
)
from mvdlearn.learner import LearnerSession
from mvdlearn.relations import binary_row
from mvdlearn.oracles import (
    EntailmentTeacher,
    MvdfInterpretationTeacher,
    RelationTeacher,
    parse_clause_script,
    parse_interpretation_script,
    parse_relation_script,
)
from mvdlearn.reductions import (
    horn_entailment_reduction,
    quasi2_reduction,
    relation_reduction,
    translate_oracles,
)

from conftest import (
    enumerate_horn_clauses,
    enumerate_mvd_clauses,
    enumerate_quasi2_clauses,
    numbered_universe,
    random_definite_horn,
    random_proper_clause,
    random_target,
    random_wide_empty_side_clause,
)
from reference import counters, enum_masks
from test_core import _scan_select


def test_membership_answers(golden_target):
    u = golden_target.universe
    teacher = MvdfInterpretationTeacher(golden_target)
    assert teacher.membership_answer(Interpretation.from_bits(u, "01100"))
    assert not teacher.membership_answer(Interpretation.from_bits(u, "01000"))
    empty_teacher = MvdfInterpretationTeacher(MvdFormula(u))
    for bits in ("00000", "10101", "11111"):
        assert empty_teacher.membership_answer(Interpretation.from_bits(u, bits))


def test_exhaustive_counterexample_for_false_only_target():
    u = numbered_universe(4)
    from mvdlearn import false_clause

    teacher = MvdfInterpretationTeacher(MvdFormula(u, [false_clause(u)]))
    got = teacher.equivalence_answer(MvdFormula(u))
    assert got.mask == u.full_mask  # the single distinguishing assignment


def test_exhaustive_counterexample_is_order_minimal(golden_target):
    u = golden_target.universe
    teacher = MvdfInterpretationTeacher(golden_target)
    hypo = MvdFormula(u, [parse_clause("2 3 4 5 -> 1 | -", u)])
    got = teacher.equivalence_answer(hypo)
    assert got == find_counterexample(golden_target, hypo)
    assert teacher.equivalence_answer(golden_target) is None


def test_random_strategy_reproducible_per_seed(golden_target):
    u = golden_target.universe
    hypo = MvdFormula(u)

    def sequence(seed):
        teacher = MvdfInterpretationTeacher(golden_target, "random", seed=seed)
        return [teacher.equivalence_answer(hypo).to_bits() for _ in range(10)]

    assert sequence(7) == sequence(7)
    all_seqs = {tuple(sequence(s)) for s in range(6)}
    assert len(all_seqs) > 1  # seeds actually steer the choice


def test_random_counterexamples_are_genuine(golden_target):
    teacher = MvdfInterpretationTeacher(golden_target, "random", seed=3)
    u = golden_target.universe
    hypo = MvdFormula(u, [parse_clause("1 2 3 -> 4 | 5", u)])
    for _ in range(50):
        got = teacher.equivalence_answer(hypo)
        assert satisfies(got, golden_target) != satisfies(got, hypo)


def test_scripted_validation(golden_target, golden_script):
    u = golden_target.universe
    # a model of both target and baseline hypothesis is not a counterexample
    bogus = [Interpretation.from_bits(u, "11111")]
    teacher = MvdfInterpretationTeacher(golden_target, "scripted", script=bogus)
    hypo = MvdFormula(u, [parse_clause("2 3 4 5 -> 1 | -", u)])
    with pytest.raises(OracleContractError, match="not a counterexample"):
        teacher.equivalence_answer(hypo)


def test_scripted_exhaustion(golden_target):
    u = golden_target.universe
    teacher = MvdfInterpretationTeacher(golden_target, "scripted", script=[])
    hypo = MvdFormula(u)
    with pytest.raises(OracleContractError, match="exhausted"):
        teacher.equivalence_answer(hypo)
    # but a script may run dry once the hypothesis is correct
    teacher = MvdfInterpretationTeacher(golden_target, "scripted", script=[])
    assert teacher.equivalence_answer(golden_target) is None


def test_session_counters_fresh_and_golden(golden_target, golden_script):
    u = golden_target.universe
    teacher = MvdfInterpretationTeacher(golden_target, "scripted", script=golden_script)
    session = LearnerSession(u, teacher.membership_answer, teacher.equivalence_answer)
    assert session.membership_queries == 0
    assert session.equivalence_queries == 0
    assert session.iteration == 0

    session.run()
    events = session.event_counts
    assert (events["positive"], events["append"], events["replace"]) == (0, 3, 1)
    assert session.iteration == 4
    assert session.max_negatives == 3
    assert teacher.stats["equivalence_queries"] == session.equivalence_queries


def test_equivalence_answer_matches_counterexample_search():
    rng = random.Random(44)
    for _ in range(40):
        n = rng.randrange(2, 6)
        u = numbered_universe(n)
        target = random_target(u, rng, max_clauses=3)
        hypo = random_target(u, rng, max_clauses=3)
        teacher = MvdfInterpretationTeacher(target)
        answer = teacher.equivalence_answer(hypo)
        witness = find_counterexample(target, hypo)
        assert (answer is None) == (witness is None)
        if answer is not None:
            assert answer == witness  # both take the order-minimal element


def test_entailment_teacher_answers(golden_target):
    u = golden_target.universe
    teacher = EntailmentTeacher(golden_target, "quasi2")
    yes = parse_clause("1 2 3 -> 4 5", u, "quasi2")
    assert teacher.membership_answer(yes)
    hypo = MvdFormula(u)
    got = teacher.equivalence_answer(hypo)
    assert entails(golden_target, got) != entails(hypo, got)
    assert teacher.equivalence_answer(golden_target) is None


_SPACES = {"horn": enumerate_horn_clauses, "quasi2": enumerate_quasi2_clauses}


@pytest.mark.parametrize("kind", ["horn", "quasi2"])
def test_entailment_teacher_matches_entails_on_every_clause(kind):
    # the teacher answers from down-closures of model sets built once; the
    # plain definition rebuilds the formula's models for every clause
    rng = random.Random(4)
    cases = []
    for n in range(2, 5):
        u = numbered_universe(n)
        for _ in range(6):
            if kind == "horn":
                target = random_definite_horn(u, rng)
            else:
                target = random_target(u, rng, max_clauses=3)
            cases.append((target, random_target(u, rng, max_clauses=3)))
    # no model of this target contains variable 1, so at X = {1} the clauses
    # with an empty, a single and a pair consequent all separate it from the
    # empty hypothesis
    target = parse_formula(
        "vars: 1 2 3\n* -> F\n1 2 -> 3 | -\n1 3 -> 2 | -\n1 -> 2 | 3\n", "mvd"
    )
    cases.append((target, MvdFormula(target.universe)))
    for target, hypo in cases:
        teacher = EntailmentTeacher(target, kind)
        space = list(_SPACES[kind](target.universe))
        for clause in space:
            assert teacher.membership_answer(clause) == entails(target, clause)
        first = next(
            (c for c in space if entails(target, c) != entails(hypo, c)), None
        )
        assert teacher.equivalence_answer(hypo) == first


def test_entailment_teacher_rejects_the_mvd_kind(golden_target):
    with pytest.raises(ValueError, match="unknown entailment kind 'mvd'"):
        EntailmentTeacher(golden_target, "mvd")


def test_entailment_teacher_scripted_validation():
    target = parse_formula("vars: 1 2 3\n1 -> 2\n", "horn")
    u = target.universe
    bogus = [HornClause(u, 0b001, 2)]  # 1 -> 3, entailed by neither side
    teacher = EntailmentTeacher(target, "horn", "scripted", script=bogus)
    with pytest.raises(OracleContractError, match="not a counterexample"):
        teacher.equivalence_answer(HornFormula(u))


def test_entailment_teacher_rejects_clauses_outside_its_space():
    target = parse_formula("vars: a b c\na -> b\n", "horn")
    u = target.universe
    a_false = parse_clause("a -> F", u, "quasi2")
    outside = [
        ("horn", a_false),
        ("horn", parse_clause("a -> b c", u, "quasi2")),
        ("quasi2", parse_clause("a -> b | c", u)),
    ]
    for kind, clause in outside:
        teacher = EntailmentTeacher(target, kind)
        with pytest.raises(ValueError, match="cannot answer"):
            teacher.membership_answer(clause)
        assert teacher.stats["membership_queries"] == 0
        scripted = EntailmentTeacher(target, kind, "scripted", script=[clause])
        with pytest.raises(ValueError, match="cannot answer"):
            scripted.equivalence_answer(HornFormula(u))
    # a quasi2 teacher answers Horn clauses as well as its own
    quasi = EntailmentTeacher(target, "quasi2")
    assert not quasi.membership_answer(a_false)
    for clause in enumerate_horn_clauses(u):
        assert quasi.membership_answer(clause) == entails(target, clause)


class _FixedDraw:
    """Stands in for a teacher's generator: ``randrange`` returns ``rank``
    and records the bound it was asked for."""

    def __init__(self, rank):
        self.rank = rank
        self.bounds = []

    def randrange(self, bound):
        self.bounds.append(bound)
        return self.rank


@pytest.mark.parametrize("kind", ["horn", "quasi2", "assignments"])
def test_pick_matches_the_plain_enumerations(kind):
    # random: the rank-th pair of the plain S-major enumeration, so every
    # marked pair is hit exactly once; exhaustive: the first pair X-major
    rng = random.Random(17)

    def make(target, strategy):
        if kind == "assignments":
            return MvdfInterpretationTeacher(target, strategy)
        return EntailmentTeacher(target, kind, strategy)

    for n in range(1, 7):
        target = MvdFormula(numbered_universe(n))
        exhaustive, drawn = make(target, "exhaustive"), make(target, "random")
        for density in (0.05, 0.3, 0.9):
            diffs = {
                s: sum(1 << x for x in range(1 << n) if rng.random() < density)
                if rng.random() < 0.7 else 0
                for s in exhaustive._target_sets
            }
            s_major = [(x, s) for s, bits in diffs.items() for x in enum_masks(n) if bits >> x & 1]
            if not s_major:
                continue
            x_major = [(x, s) for x in enum_masks(n) for s, bits in diffs.items() if bits >> x & 1]
            assert exhaustive._pick(diffs) == x_major[0]
            picked = []
            for rank in range(len(s_major)):
                drawn._rng = _FixedDraw(rank)
                picked.append(drawn._pick(diffs))
                assert drawn._rng.bounds == [len(s_major)]
            assert picked == s_major


@pytest.mark.parametrize("kind", ["horn", "quasi2"])
def test_random_entailment_query_draws_once_and_selects_once(kind, monkeypatch):
    calls = []
    select = mvdlearn.oracles.canonical_select
    monkeypatch.setattr(
        mvdlearn.oracles, "canonical_select",
        lambda *args: calls.append("select") or select(*args),
    )
    rng = random.Random(23)
    answered = 0
    for n in range(3, 8):
        u = numbered_universe(n)
        for seed in range(4):
            if kind == "horn":
                target = random_definite_horn(u, rng)
            else:
                target = random_target(u, rng, max_clauses=4)
            teacher = EntailmentTeacher(target, kind, "random", seed)
            draw = teacher._rng.randrange
            teacher._rng.randrange = lambda bound: calls.append("draw") or draw(bound)
            for hypothesis in (MvdFormula(u), random_target(u, rng, max_clauses=3), target):
                calls.clear()
                answer = teacher.equivalence_answer(hypothesis)
                assert calls == ([] if answer is None else ["draw", "select"])
                answered += answer is not None
    assert answered >= 30


def test_clause_space_enumerations():
    u = numbered_universe(3)
    horn = list(enumerate_horn_clauses(u))
    # one clause per (X, v) with v outside X, plus the purely negative one
    assert len(horn) == sum(3 - bin(x).count("1") for x in range(7)) + 1
    assert len(set(horn)) == len(horn)

    quasi = list(enumerate_quasi2_clauses(u))
    assert len(set(quasi)) == len(quasi)
    for q in quasi:
        assert len(q.consequents) <= 2

    mvd = list(enumerate_mvd_clauses(u))
    assert len(set(mvd)) == len(mvd)
    # every X gets one empty-side clause; proper splits cover both orientations
    assert sum(1 for c in mvd if c.is_false_clause) == 1
    u2 = numbered_universe(2)
    assert [str(c) for c in enumerate_mvd_clauses(u2)]  # deterministic, no dupes


def test_relation_teacher_membership_and_equivalence():
    u = numbered_universe(3)
    target = MvdFormula(u, [parse_clause("1 -> 2 | 3", u)])
    teacher = RelationTeacher(target)

    bad = Relation(u, [("a", "b", "c"), ("a", "b2", "c2")])
    assert not teacher.membership_answer(bad)
    good = Relation(u, [("a", "b", "c"), ("a2", "b2", "c2")])
    assert teacher.membership_answer(good)

    hypo = MvdFormula(u)
    ce = teacher.equivalence_answer(hypo)
    assert teacher.holds(ce, target) != teacher.holds(ce, hypo)
    assert teacher.equivalence_answer(target) is None


def test_relation_teacher_random_counterexamples_are_genuine():
    rng = random.Random(12)
    for trial in range(30):
        n = rng.randrange(3, 6)
        u = numbered_universe(n)
        target = MvdFormula(u, [random_proper_clause(u, rng) for _ in range(2)])
        teacher = RelationTeacher(target, "random", seed=trial)
        hypo = MvdFormula(u)
        if equivalent(hypo, target):
            continue
        ce = teacher.equivalence_answer(hypo)
        assert teacher.holds(ce, target) != teacher.holds(ce, hypo)


def test_relation_teacher_rejects_improper_target():
    u = numbered_universe(3)
    improper = parse_formula("vars: 1 2 3\n1 2 -> 3 | -\n", "mvd")
    with pytest.raises(ValueError, match="proper"):
        RelationTeacher(improper)


def test_relation_teacher_scripted_validation():
    u = numbered_universe(3)
    target = MvdFormula(u, [parse_clause("1 -> 2 | 3", u)])
    harmless = Relation(u, [("a", "b", "c")])
    teacher = RelationTeacher(target, "scripted", script=[harmless])
    with pytest.raises(OracleContractError, match="not a counterexample"):
        teacher.equivalence_answer(MvdFormula(u))


def _binary_relation(universe, masks):
    """The "0"/"1" relation whose rows are the int masks, in order."""
    return Relation(universe, [
        tuple("1" if m >> i & 1 else "0" for i in range(universe.n)) for m in masks
    ])


def _proper_models(formula):
    """The model set of the formula's proper clauses."""
    proper = [c for c in formula.clauses if c.is_proper]
    return model_bitset(MvdFormula(formula.universe, proper))


def _relation_hypothesis(u, rng):
    """Up to three random clauses, empty-sided ones included, plus one
    ``X -> Y | -`` clause with |Y| >= 2, whose violators the proper
    clauses' model set leaves out."""
    return MvdFormula(u, [*random_target(u, rng, max_clauses=3).clauses,
                          random_wide_empty_side_clause(u, rng)])


def test_relation_teacher_random_answers_are_the_pairs_of_the_differing_assignments():
    # every rank: rank r answers the pair of canonical_select's r-th
    # differing assignment, and the ranks answer each differing assignment
    # once, in the plain canonical order
    rng = random.Random(8)
    answered = 0
    for n in range(2, 6):
        u = numbered_universe(n)
        for _ in range(8):
            target = random_target(u, rng, allow_degenerate=False)
            hypothesis = _relation_hypothesis(u, rng)
            differing = _proper_models(target) ^ _proper_models(hypothesis)
            count = differing.bit_count()
            teacher = RelationTeacher(target, "random")
            answers = []
            for rank in range(count):
                teacher._rng = _FixedDraw(rank)
                answer = teacher.equivalence_answer(hypothesis)
                assert teacher._rng.bounds == [count]
                assert teacher.holds(answer, target) != teacher.holds(answer, hypothesis)
                assert answer == interp_to_pair(
                    Interpretation(u, canonical_select(differing, u, rank))
                )
                answers.append(answer.rows)
            assert answers == [
                interp_to_pair(Interpretation(u, x)).rows
                for x in enum_masks(n) if differing >> x & 1
            ]
            assert len(set(answers)) == count
            answered += count
    assert answered >= 150


def test_relation_teacher_random_answer_is_the_assignment_teachers_pair():
    # seed for seed, the relation teacher answers the pair of the assignment
    # teacher's answer to the hypothesis's proper clauses; so it answers
    # None exactly when those have the target's models, as for a hypothesis
    # that adds X -> Y | - clauses to the target
    rng = random.Random(9)
    answered = 0
    for n in range(3, 10):
        u = numbered_universe(n)
        for seed in range(6):
            target = random_target(u, rng, allow_degenerate=False)
            relations = RelationTeacher(target, "random", seed)
            assignments = MvdfInterpretationTeacher(target, "random", seed)
            wider = MvdFormula(u, [*target.clauses, random_wide_empty_side_clause(u, rng)])
            for hypothesis in (MvdFormula(u), _relation_hypothesis(u, rng), target, wider):
                proper = MvdFormula(u, [c for c in hypothesis.clauses if c.is_proper])
                answer = relations.equivalence_answer(hypothesis)
                witness = assignments.equivalence_answer(proper)
                assert answer == (witness and interp_to_pair(witness))
                assert (answer is None) == (_proper_models(hypothesis) == model_bitset(target))
                answered += answer is not None
            assert answer is None  # for the wider hypothesis
            assert relations._rng.getstate() == assignments._rng.getstate()
    assert answered >= 60


def test_relation_teacher_small_membership_matches_holds():
    rng = random.Random(5)
    for n in range(2, 5):
        u = numbered_universe(n)
        for _ in range(4):
            teacher = RelationTeacher(random_target(u, rng, allow_degenerate=False))
            for a in range(1 << n):
                for b in range(1 << n):
                    example = _binary_relation(u, (a, b))
                    assert teacher.membership_answer(example) == teacher.holds(
                        example, teacher.target
                    )
            assert teacher.membership_answer(Relation(u))
            # larger relations keep the relation check
            for _ in range(20):
                rows = [rng.getrandbits(n) for _ in range(rng.randint(3, 5))]
                example = _binary_relation(u, rows)
                assert teacher.membership_answer(example) == teacher.holds(
                    example, teacher.target
                )
    assert teacher.stats["membership_queries"] == (1 << 2 * n) + 1 + 20


def test_relation_teacher_two_row_membership_on_text_values():
    # values sharing a prefix ("1", "10", "100") and the empty string: the
    # agreement mask compares whole values
    rng = random.Random(12)
    alphabet = ["0", "1", "10", "100", "01", "", "x"]
    for n in range(2, 6):
        u = numbered_universe(n)
        for _ in range(4):
            teacher = RelationTeacher(random_target(u, rng, allow_degenerate=False))
            for _ in range(60):
                size = rng.randrange(3, len(alphabet) + 1)
                values = alphabet[:size]
                example = Relation(u, [
                    tuple(rng.choice(values) for _ in range(n)) for _ in range(2)
                ])
                assert teacher.membership_answer(example) == teacher.holds(
                    example, teacher.target
                )


def test_relation_teacher_answers_mask_built_and_row_built_pairs_alike():
    # membership on at most two rows reads the relation's agreement mask,
    # so a pair built from an assignment is answered without its rows
    rng = random.Random(27)
    for n in range(2, 6):
        u = numbered_universe(n)
        for _ in range(3):
            target = random_target(u, rng, allow_degenerate=False)
            by_mask, by_rows = RelationTeacher(target), RelationTeacher(target)
            for mask in range(1 << n):
                interp = Interpretation(u, mask)
                pair = interp_to_pair(interp)
                rows = Relation(u, (binary_row(0, n), binary_row(interp.false_mask, n)))
                assert by_mask.membership_answer(pair) == by_rows.membership_answer(rows) \
                    == satisfies(interp, target)
                assert by_mask.stats == by_rows.stats
                assert pair._rows is None


@pytest.mark.parametrize("strategy", ["exhaustive", "random", "scripted"])
@pytest.mark.parametrize("examples", ["interpretations", "relations"])
def test_teachers_reject_a_hypothesis_over_another_universe(examples, strategy):
    u = numbered_universe(3)
    target = MvdFormula(u, [parse_clause("1 -> 2 | 3", u)])
    wider = numbered_universe(4)
    hypothesis = MvdFormula(wider, [parse_clause("1 -> 2 | 3 4", wider)])
    if examples == "interpretations":
        script = [Interpretation.from_bits(u, "101")]
        teacher = MvdfInterpretationTeacher(
            target, strategy, seed=1, script=script if strategy == "scripted" else None
        )
    else:
        script = [Relation(u, [("a", "b", "c"), ("a", "d", "e")])]
        teacher = RelationTeacher(
            target, strategy, seed=1, script=script if strategy == "scripted" else None
        )
    with pytest.raises(UniverseMismatchError):
        teacher.equivalence_answer(hypothesis)


def test_random_relation_teacher_rejects_a_foreign_hypothesis():
    u = numbered_universe(3)
    target = MvdFormula(u, [parse_clause("1 -> 2 | 3", u)])
    teacher = RelationTeacher(target, "random", seed=1)
    other = VariableUniverse(["a", "b", "c"])
    hypothesis = MvdFormula(other, [parse_clause("b -> a | c", other)])
    with pytest.raises(UniverseMismatchError):
        teacher.equivalence_answer(hypothesis)


@pytest.mark.parametrize("strategy, script, message", [
    ("greedy", None, "unknown strategy 'greedy'"),
    ("scripted", None, "scripted strategy needs a script"),
    ("random", [], "a script only makes sense with the scripted strategy"),
])
@pytest.mark.parametrize("examples", ["interpretations", "horn", "relations"])
def test_teachers_reject_a_bad_strategy_or_script(examples, strategy, script, message):
    u = numbered_universe(3)
    target = MvdFormula(u, [parse_clause("1 -> 2 | 3", u)])
    with pytest.raises(ValueError, match=message):
        if examples == "interpretations":
            MvdfInterpretationTeacher(target, strategy, script=script)
        elif examples == "horn":
            EntailmentTeacher(target, "horn", strategy, script=script)
        else:
            RelationTeacher(target, strategy, script=script)


def test_membership_over_another_universe_is_rejected():
    u = numbered_universe(3)
    target = MvdFormula(u, [parse_clause("1 -> 2 | 3", u)])
    other = VariableUniverse(["a", "b", "c"])
    asked = [
        (MvdfInterpretationTeacher(target), Interpretation.from_bits(other, "100")),
        (EntailmentTeacher(target, "horn"), HornClause(other, 0b001, 1)),
        (EntailmentTeacher(target, "quasi2"), parse_clause("a -> b c", other, "quasi2")),
        (RelationTeacher(target),
         Relation(other, [("x", "y", "z"), ("x", "w", "v")])),
    ]
    for teacher, example in asked:
        with pytest.raises(UniverseMismatchError, match="over the wrong universe"):
            teacher.membership_answer(example)
        assert teacher.stats["membership_queries"] == 0


@pytest.mark.parametrize("examples", ["interpretations", "horn", "quasi2", "relations"])
def test_scripted_entry_over_another_universe_is_rejected(examples):
    # each entry would sit on a marked pair if its universe were ignored
    u = VariableUniverse(["a", "b", "c"])
    other = VariableUniverse(["x", "y", "z"])
    if examples == "interpretations":
        target = MvdFormula(u, [parse_clause("a -> b | c", u)])
        entry = Interpretation.from_bits(other, "100")
        teacher = MvdfInterpretationTeacher(target, "scripted", script=[entry])
    elif examples == "relations":
        target = MvdFormula(u, [parse_clause("a -> b | c", u)])
        entry = Relation(other, [("0", "0", "0"), ("0", "1", "1")])
        teacher = RelationTeacher(target, "scripted", script=[entry])
    else:
        target = parse_formula("vars: a b c\na -> b\n", "horn")
        entry = parse_clause("x -> y", other, examples)
        teacher = EntailmentTeacher(target, examples, "scripted", script=[entry])
    with pytest.raises(UniverseMismatchError):
        teacher.equivalence_answer(MvdFormula(u))


@pytest.mark.parametrize("strategy", ["exhaustive", "random", "scripted"])
@pytest.mark.parametrize("extra", ["a b -> c d | -", "* -> F"])
def test_relation_teacher_ignores_one_sided_clauses(extra, strategy):
    # both clauses hold in every relation, so the hypothesis is equivalent
    u = VariableUniverse(["a", "b", "c", "d"])
    target = MvdFormula(u, [parse_clause("a -> b | c d", u)])
    hypothesis = MvdFormula(u, [*target.clauses, parse_clause(extra, u)])
    teacher = RelationTeacher(target, strategy, seed=1,
                              script=[] if strategy == "scripted" else None)
    assert teacher.equivalence_answer(hypothesis) is None


def _differential_cases(kind, rng):
    """(target, hypotheses, example space) at n = 2..4; the hypotheses are
    random formulas with and without one-sided clauses."""
    for n in range(2, 5):
        u = numbered_universe(n)
        if kind == "horn":
            space = list(enumerate_horn_clauses(u))
        elif kind == "quasi2":
            space = [*enumerate_quasi2_clauses(u), *enumerate_horn_clauses(u)]
        else:
            space = [Interpretation(u, mask) for mask in range(1 << n)]
        for _ in range(3):
            if kind == "horn":
                target = random_definite_horn(u, rng)
            else:
                target = random_target(u, rng, max_clauses=3, allow_degenerate=False)
            hypotheses = [
                random_target(u, rng, max_clauses=3, allow_degenerate=degenerate)
                for degenerate in (False, True, True)
            ]
            yield target, hypotheses, space


@pytest.mark.parametrize("kind", ["assignments", "horn", "quasi2"])
def test_membership_and_scripted_entries_match_the_plain_definitions(kind):
    # membership is `satisfies` / `entails` on the target; a scripted entry
    # is released exactly when it separates target and hypothesis
    if kind == "assignments":
        make = MvdfInterpretationTeacher
        plain = satisfies
    else:
        make = functools.partial(EntailmentTeacher, kind=kind)
        plain = lambda example, formula: entails(formula, example)  # noqa: E731
    rng = random.Random(31)
    verdicts = set()
    for target, hypotheses, space in _differential_cases(kind, rng):
        teacher = make(target)
        for example in space:
            assert teacher.membership_answer(example) == plain(example, target)
        for hypothesis in hypotheses:
            for example in space:
                separates = plain(example, target) != plain(example, hypothesis)
                scripted = make(target, strategy="scripted", script=[example])
                try:
                    released = scripted.equivalence_answer(hypothesis) == example
                except OracleContractError:
                    released = False
                assert released == separates
                verdicts.add(separates)
    assert verdicts == {True, False}


def test_relation_membership_and_scripted_entries_match_holds():
    # 2- and 3-row binary relations, judged by `mvd_holds` on the proper
    # clauses, against hypotheses with and without one-sided clauses
    rng = random.Random(32)
    verdicts = set()
    for target, hypotheses, space in _differential_cases("assignments", rng):
        u = target.universe
        pairs = [(a, b) for a in range(1 << u.n) for b in range(a + 1, 1 << u.n)]
        relations = [_binary_relation(u, rows) for rows in pairs] + [
            _binary_relation(u, rng.sample(range(1 << u.n), 3)) for _ in range(20)
        ]

        def plain(relation, formula):
            return all(mvd_holds(relation, c) for c in formula.clauses if c.is_proper)

        teacher = RelationTeacher(target)
        for relation in relations:
            assert teacher.membership_answer(relation) == plain(relation, target)
        for hypothesis in hypotheses:
            for relation in relations:
                separates = plain(relation, target) != plain(relation, hypothesis)
                scripted = RelationTeacher(target, "scripted", script=[relation])
                try:
                    released = scripted.equivalence_answer(hypothesis) is relation
                except OracleContractError:
                    released = False
                assert released == separates
                verdicts.add((len(relation), separates))
    assert verdicts == {(size, v) for size in (2, 3) for v in (True, False)}


# ---------------------------------------------------------------------------
# script files


def test_parse_interpretation_script():
    u = numbered_universe(5)
    text = "# the golden run\n11100\n01101\n\n01010  # third\n11100\n"
    got = parse_interpretation_script(text, u)
    assert [i.to_bits() for i in got] == ["11100", "01101", "01010", "11100"]


def test_parse_clause_script():
    u = numbered_universe(3)
    got = parse_clause_script("1 -> 2\n# comment\n2 -> 3\n", u, "horn")
    assert len(got) == 2
    assert got[0] == HornClause(u, 0b001, 1)


def test_parse_relation_script():
    text = "A,B\n1,2\n---\nA,B\n3,4\n5,6\n"
    got = parse_relation_script(text)
    assert len(got) == 2
    assert len(got[0]) == 1
    assert len(got[1]) == 2


@pytest.mark.parametrize("text, line, message", [
    ("A,B\n1,2\n---\n\nA,B\n3,4\n5\n", 7, "expected 2 values, found 1"),
    ("A,B\n1,2\n---\nA,,C\n3,4,5\n", 4, "header row has an empty attribute name"),
    ("\n\nA,B\n1,2,3\n", 4, "expected 2 values, found 3"),
    ("A,B\n1,2\n---\n\nA, B ,A\n3,4,5\n", 5, "duplicate variable name: 'A'"),
])
def test_relation_script_errors_name_the_file_line(text, line, message):
    with pytest.raises(SchemaError) as err:
        parse_relation_script(text)
    assert err.value.row == line
    assert str(err.value) == f"row {line}: {message}"


def _record_run(target, make_teacher, strategy, seed):
    """Witnesses, learned formula and query counts of one seeded run."""
    teacher = make_teacher(target, strategy, seed)
    witnesses = []

    def eq(hypothesis):
        answer = teacher.equivalence_answer(hypothesis)
        witnesses.append(answer)
        return answer

    mem = teacher.membership_answer
    if isinstance(teacher, RelationTeacher):
        mem, eq = translate_oracles(relation_reduction(), mem, eq)
    elif isinstance(teacher, EntailmentTeacher):
        reduction = horn_entailment_reduction if teacher.kind == "horn" else quasi2_reduction
        mem, eq = translate_oracles(reduction(), mem, eq)
    session = LearnerSession(target.universe, mem, eq)
    learned = session.run()
    return witnesses, learned, counters(session), dict(teacher.stats)


@pytest.mark.parametrize("strategy", ["exhaustive", "random"])
@pytest.mark.parametrize("make_teacher", [
    lambda target, strategy, seed: MvdfInterpretationTeacher(target, strategy, seed),
    lambda target, strategy, seed: RelationTeacher(target, strategy, seed),
], ids=["interpretations", "relations"])
def test_whole_runs_match_the_reference_witness_scan(make_teacher, strategy, monkeypatch):
    rng = random.Random(10)
    u = numbered_universe(10)
    targets = [random_target(u, rng, allow_degenerate=False) for _ in range(6)]
    fast = [_record_run(t, make_teacher, strategy, seed) for seed, t in enumerate(targets)]
    monkeypatch.setattr(
        mvdlearn.oracles, "canonical_select",
        lambda bits, universe, rank: _scan_select(bits, universe.n, rank),
    )
    slow = [_record_run(t, make_teacher, strategy, seed) for seed, t in enumerate(targets)]
    assert fast == slow


def _s_major(space) -> list:
    """The clauses of ``space`` (listed antecedent by antecedent) regrouped
    consequent set by consequent set: the empty set, single variables
    ascending, then pairs in lexicographic order."""
    return sorted(space, key=lambda c: (c.consequent_mask.bit_count(),
                                        list(bit_indices(c.consequent_mask))))


class _WalkingEntailmentTeacher(EntailmentTeacher):
    """The entailment teacher that walks its clause space, kept as the
    reference: membership and every separation test read one violator set
    per clause; ``exhaustive`` takes the first separating clause of the
    space and ``random`` a ``choice`` among all of them, listed consequent
    set by consequent set."""

    def __init__(self, target, kind, strategy="exhaustive", seed=0, script=None):
        super().__init__(target, kind, strategy, seed, script)
        self._target_models = model_bitset(target)

    def membership_answer(self, example) -> bool:
        if example.universe != self.universe:
            raise UniverseMismatchError("membership query over the wrong universe")
        self.stats["membership_queries"] += 1
        return self._target_models & violator_bitset(example) == 0

    def equivalence_answer(self, hypothesis):
        self.stats["equivalence_queries"] += 1
        if hypothesis.universe != self.universe:
            raise UniverseMismatchError("equivalence query over the wrong universe")
        models = model_bitset(hypothesis)
        space = _SPACES[self.kind](self.universe)
        differing = (c for c in space if self._clause_separates(models, c))
        if self.strategy == "random":
            differing = _s_major(differing)
            return self._rng.choice(differing) if differing else None
        first = next(differing, None)
        if self.strategy == "exhaustive":
            return first
        if self._cursor == len(self._script):
            if first is not None:
                raise OracleContractError(
                    "script exhausted while the hypothesis still differs from the target"
                )
            return None
        entry = self._script[self._cursor]
        self._cursor += 1
        if not self._clause_separates(models, entry):
            raise OracleContractError(
                f"scripted entry {self._cursor} ({format_clause(entry)}) is not a "
                "counterexample for the current hypothesis"
            )
        return entry

    def _clause_separates(self, hypothesis_models, clause) -> bool:
        violators = violator_bitset(clause)
        return (self._target_models & violators == 0) != (hypothesis_models & violators == 0)


def _entailment_outcome(teacher_class, target, kind, strategy, seed, script=None):
    """Witnesses, learned formula, counters and final RNG state of one
    entailment run, or the message of the oracle error that ended it."""
    teachers = []

    def make_teacher(target, strategy, seed):
        teachers.append(teacher_class(target, kind, strategy, seed, script))
        return teachers[-1]

    try:
        record = _record_run(target, make_teacher, strategy, seed)
    except OracleContractError as exc:
        return str(exc)
    return (*record, teachers[0]._rng.getstate())


@pytest.mark.parametrize("strategy", ["exhaustive", "random", "scripted"])
@pytest.mark.parametrize("kind", ["horn", "quasi2"])
def test_entailment_whole_runs_match_the_walking_teacher(kind, strategy):
    rng = random.Random(31)
    compared = errors = 0
    for n in range(2, 9):
        u = numbered_universe(n)
        for seed in range(6):
            if kind == "horn":
                target = random_definite_horn(u, rng)
            else:
                target = random_target(u, rng, max_clauses=4)
            scripts = [None]
            if strategy == "scripted":
                # the reference's random counterexamples, replayed whole, cut
                # short, and with the last one moved to the front
                witnesses = _entailment_outcome(
                    _WalkingEntailmentTeacher, target, kind, "random", seed
                )[0][:-1]
                scripts = [witnesses, witnesses[: len(witnesses) // 2]]
                if witnesses:
                    scripts.append([witnesses[-1], *witnesses])
            for script in scripts:
                got = _entailment_outcome(
                    EntailmentTeacher, target, kind, strategy, seed, script
                )
                expected = _entailment_outcome(
                    _WalkingEntailmentTeacher, target, kind, strategy, seed, script
                )
                assert got == expected
                compared += 1
                errors += isinstance(got, str)
    assert compared >= 42
    assert (errors > 0) == (strategy == "scripted")
