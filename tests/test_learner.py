"""Learner unit tests: the worked golden run, each routine against its
reference values, randomized runs under the invariant observer, and the
failure modes (invalid counterexamples, bound violations)."""

import gc
import random
import weakref

import pytest

from mvdlearn import (
    BoundViolationError,
    Interpretation,
    MvdFormula,
    OracleContractError,
    build_clauses,
    construct_h0,
    find_counterexample,
    good_candidate,
    learn,
    orientation_classes,
    parse_clause,
    parse_formula,
    rebuild_hypothesis,
    refine_counterexample,
    satisfies,
    update_positive_examples,
)
from mvdlearn.learner import LearnerSession, TheoreticalBounds
from mvdlearn.oracles import (
    EntailmentTeacher,
    MvdfInterpretationTeacher,
    RelationTeacher,
    stats_snapshot,
)
from mvdlearn.reductions import quasi2_reduction, relation_reduction, translate_oracles
from mvdlearn.relations import AttributeSchema

from conftest import numbered_universe, random_target
from invariant_harness import InvariantObserver


def classes_of(universe, *clause_texts):
    return frozenset(
        parse_clause(t, universe).orientation_key() for t in clause_texts
    )


def mem_for(target):
    return lambda interp: satisfies(interp, target)


# ---------------------------------------------------------------------------
# construct_h0


def test_construct_h0_golden(golden_target):
    u = golden_target.universe
    calls = []

    def mem(interp):
        calls.append(interp.mask)
        return satisfies(interp, golden_target)

    h0 = construct_h0(u, mem)
    assert orientation_classes(h0) == classes_of(u, "2 3 4 5 -> 1 | -")
    assert len(calls) == u.n + 1


def test_construct_h0_empty_target():
    u = numbered_universe(4)
    h0 = construct_h0(u, mem_for(MvdFormula(u)))
    assert len(h0.clauses) == 0


def test_construct_h0_false_only_target():
    u = numbered_universe(4)
    target = parse_formula("vars: 1 2 3 4\n* -> F\n", "mvd")
    h0 = construct_h0(u, mem_for(target))
    assert orientation_classes(h0) == classes_of(u, "* -> F")


# ---------------------------------------------------------------------------
# good_candidate


def test_good_candidate_golden_pairs(golden_target):
    u = golden_target.universe
    hypo = MvdFormula(
        u,
        [
            parse_clause("2 3 4 5 -> 1 | -", u),
            parse_clause("1 2 3 -> 4 | 5", u),
            parse_clause("2 3 5 -> 1 | 4", u),
        ],
    )
    mem = mem_for(golden_target)
    i1 = Interpretation.from_bits(u, "11100")
    i2 = Interpretation.from_bits(u, "01101")
    i3 = Interpretation.from_bits(u, "01010")
    assert good_candidate(i3, i1, hypo, mem)
    assert not good_candidate(i2, i1, hypo, mem)
    assert not good_candidate(i3, i3, hypo, mem)


# ---------------------------------------------------------------------------
# build_clauses


def test_build_clauses_initial_golden():
    u = numbered_universe(5)
    kernel = Interpretation.from_bits(u, "01000")
    block = build_clauses(kernel, [])
    assert frozenset(c.orientation_key() for c in block) == classes_of(
        u,
        "2 -> 1 | 3 4 5",
        "2 -> 3 | 1 4 5",
        "2 -> 4 | 1 3 5",
        "2 -> 5 | 1 3 4",
    )


def test_build_clauses_merge_golden():
    u = numbered_universe(5)
    kernel = Interpretation.from_bits(u, "01000")
    positive = Interpretation.from_bits(u, "01100")
    block = build_clauses(kernel, [positive])
    assert frozenset(c.orientation_key() for c in block) == classes_of(
        u, "2 -> 1 4 5 | 3"
    )


def test_build_clauses_two_false_vars():
    u = numbered_universe(5)
    kernel = Interpretation.from_bits(u, "11100")
    block = build_clauses(kernel, [])
    assert frozenset(c.orientation_key() for c in block) == classes_of(
        u, "1 2 3 -> 4 | 5"
    )
    assert len(block) == 2  # both orientations are kept internally


# ---------------------------------------------------------------------------
# refine_counterexample / update_positive_examples


def _golden_iter3_state(golden_target):
    u = golden_target.universe
    hypo = MvdFormula(
        u,
        [
            parse_clause("2 3 4 5 -> 1 | -", u),
            parse_clause("1 2 3 -> 4 | 5", u),
            parse_clause("1 2 3 -> 5 | 4", u),
            parse_clause("2 3 5 -> 1 | 4", u),
            parse_clause("2 3 5 -> 4 | 1", u),
        ],
    )
    negatives = [
        Interpretation.from_bits(u, "11100"),
        Interpretation.from_bits(u, "01101"),
    ]
    return u, hypo, negatives


def test_refine_counterexample_golden(golden_target):
    u, hypo, negatives = _golden_iter3_state(golden_target)
    mem = mem_for(golden_target)
    i3 = Interpretation.from_bits(u, "01010")
    refined = refine_counterexample(i3, negatives, hypo, mem)
    assert refined.to_bits() == "01000"

    # with no stored negatives the input comes back unchanged
    assert refine_counterexample(i3, [], hypo, mem) is i3


def test_refine_counterexample_returns_input_when_no_pair_qualifies(golden_target):
    u = golden_target.universe
    hypo = MvdFormula(
        u,
        [
            parse_clause("2 3 4 5 -> 1 | -", u),
            parse_clause("2 -> 1 4 5 | 3", u),
            parse_clause("2 -> 3 | 1 4 5", u),
            parse_clause("2 3 5 -> 1 | 4", u),
            parse_clause("2 3 5 -> 4 | 1", u),
        ],
    )
    negatives = [
        Interpretation.from_bits(u, "01000"),
        Interpretation.from_bits(u, "01101"),
    ]
    i4 = Interpretation.from_bits(u, "11100")
    got = refine_counterexample(i4, negatives, hypo, mem_for(golden_target))
    assert got is i4


def test_update_positive_examples_golden(golden_target):
    u = golden_target.universe
    mem = mem_for(golden_target)
    kernel = Interpretation.from_bits(u, "01000")
    negatives = [
        Interpretation.from_bits(u, "11100"),
        Interpretation.from_bits(u, "01101"),
    ]
    got = update_positive_examples(kernel, [], negatives, mem)
    assert [p.to_bits() for p in got] == ["01100"]

    # fewer than two stored negatives: nothing to harvest
    assert update_positive_examples(kernel, [], negatives[:1], mem) == []


def test_update_positive_examples_no_breaking_pair(golden_target):
    u = golden_target.universe
    mem = mem_for(golden_target)
    kernel = Interpretation.from_bits(u, "01000")
    # intersections of these two satisfy the kernel block already
    negatives = [
        Interpretation.from_bits(u, "01100"),
        Interpretation.from_bits(u, "01100"),
    ]
    positives = [Interpretation.from_bits(u, "01100")]
    got = update_positive_examples(kernel, positives, negatives, mem)
    assert got == positives


# ---------------------------------------------------------------------------
# rebuild_hypothesis


def test_rebuild_hypothesis_golden_states(golden_target):
    u = golden_target.universe
    h0 = construct_h0(u, mem_for(golden_target))

    negatives = [
        Interpretation.from_bits(u, "11100"),
        Interpretation.from_bits(u, "01101"),
    ]
    hypo = rebuild_hypothesis(h0, negatives, [])
    assert orientation_classes(hypo) == classes_of(
        u, "2 3 4 5 -> 1 | -", "1 2 3 -> 4 | 5", "2 3 5 -> 1 | 4"
    )

    final_negatives = [
        Interpretation.from_bits(u, "01000"),
        Interpretation.from_bits(u, "01101"),
        Interpretation.from_bits(u, "11100"),
    ]
    positives = [Interpretation.from_bits(u, "01100")]
    hypo = rebuild_hypothesis(h0, final_negatives, positives)
    assert orientation_classes(hypo) == classes_of(
        u,
        "2 3 4 5 -> 1 | -",
        "2 -> 1 4 5 | 3",
        "2 3 5 -> 1 | 4",
        "1 2 3 -> 4 | 5",
    )

    assert rebuild_hypothesis(h0, [], []) == h0


# ---------------------------------------------------------------------------
# the full golden run


def test_golden_trace(golden_target, golden_script):
    u = golden_target.universe
    teacher = MvdfInterpretationTeacher(golden_target, "scripted", script=golden_script)
    snapshots = []

    def observer(session, event):
        snapshots.append(
            (
                event.record.event,
                tuple(p.to_bits() for p in session.positives),
                tuple(n.to_bits() for n in session.negatives),
                orientation_classes(session.hypothesis),
            )
        )

    session = LearnerSession(
        u,
        teacher.membership_answer,
        teacher.equivalence_answer,
        observer=observer,
        bounds=TheoreticalBounds(u.n, len(golden_target.clauses)),
    )
    result = session.run()

    assert find_counterexample(result, golden_target) is None
    assert [s[0] for s in snapshots] == ["append", "append", "replace", "append"]

    event, positives, negatives, classes = snapshots[0]
    assert positives == ()
    assert negatives == ("11100",)
    assert classes == classes_of(u, "2 3 4 5 -> 1 | -", "1 2 3 -> 4 | 5")

    event, positives, negatives, classes = snapshots[2]
    assert positives == ("01100",)
    assert negatives == ("01000", "01101")
    assert classes == classes_of(
        u, "2 3 4 5 -> 1 | -", "2 -> 1 4 5 | 3", "2 3 5 -> 1 | 4"
    )

    stats = stats_snapshot(session)
    assert stats.iterations == 4
    assert stats.positive_events == 0
    assert stats.append_events == 3
    assert stats.replace_events == 1


def test_trivial_target_zero_iterations():
    u = numbered_universe(4)
    target = MvdFormula(u)
    teacher = MvdfInterpretationTeacher(target)
    session = LearnerSession(u, teacher.membership_answer, teacher.equivalence_answer)
    result = session.run()
    assert len(result.clauses) == 0
    assert session.iteration == 0


def test_single_variable_universe():
    # with one variable the baseline hypothesis already decides everything
    u = numbered_universe(1)
    for text in ("vars: 1\n", "vars: 1\n* -> F\n", "vars: 1\n- -> 1 | -\n"):
        target = parse_formula(text, "mvd")
        teacher = MvdfInterpretationTeacher(target)
        session = LearnerSession(u, teacher.membership_answer, teacher.equivalence_answer)
        result = session.run()
        assert session.iteration == 0
        assert find_counterexample(result, target) is None


# ---------------------------------------------------------------------------
# randomized runs with the invariant observer


def test_random_runs_with_invariants():
    rng = random.Random(97)
    for _ in range(150):
        n = rng.randrange(3, 9)
        u = numbered_universe(n)
        target = random_target(u, rng)
        teacher = MvdfInterpretationTeacher(target)
        observer = InvariantObserver(target)
        session = LearnerSession(
            u,
            teacher.membership_answer,
            teacher.equivalence_answer,
            bounds=TheoreticalBounds(n, len(target.clauses)),
            observer=observer,
        )
        result = session.run()
        assert find_counterexample(target, result) is None


def test_random_runs_with_random_counterexamples():
    rng = random.Random(4242)
    for trial in range(60):
        n = rng.randrange(3, 8)
        u = numbered_universe(n)
        target = random_target(u, rng)
        teacher = MvdfInterpretationTeacher(target, "random", seed=trial)
        observer = InvariantObserver(target)
        result = learn(
            u,
            teacher.membership_answer,
            teacher.equivalence_answer,
            bounds=TheoreticalBounds(n, len(target.clauses)),
            observer=observer,
        )
        assert find_counterexample(target, result) is None


# ---------------------------------------------------------------------------
# failure modes


def test_invalid_counterexample_aborts(golden_target):
    u = golden_target.universe
    model = Interpretation.from_bits(u, "11111")  # satisfies the target

    def lying_eq(hypothesis):
        return model if satisfies(model, hypothesis) else None

    with pytest.raises(OracleContractError, match="symmetric difference"):
        learn(u, mem_for(golden_target), lying_eq)


def test_iteration_limit_enforced(golden_target):
    u = golden_target.universe
    teacher = MvdfInterpretationTeacher(golden_target)
    with pytest.raises(BoundViolationError):
        learn(
            u,
            teacher.membership_answer,
            teacher.equivalence_answer,
            iteration_limit=1,
        )


def test_membership_answers_are_cached(golden_target):
    u = golden_target.universe
    calls = []

    def mem(interp):
        calls.append(interp.mask)
        return satisfies(interp, golden_target)

    teacher = MvdfInterpretationTeacher(golden_target)
    session = LearnerSession(u, mem, teacher.equivalence_answer)
    session.run()
    assert len(calls) == len(set(calls))


def _finished_session_universe(kind):
    """A weak reference to the universe of one finished, dropped session."""
    target = parse_formula("vars: a b c d e\na b -> c | d e\nc -> a d | b e\n")
    universe = target.universe
    if kind == "interpretations":
        teacher = MvdfInterpretationTeacher(target, "random", 3)
        mem, eq = teacher.membership_answer, teacher.equivalence_answer
    elif kind == "relations":
        teacher = RelationTeacher(target, AttributeSchema(universe.names), "random", 3)
        mem, eq = translate_oracles(
            relation_reduction(teacher.schema),
            teacher.membership_answer, teacher.equivalence_answer,
        )
    else:
        teacher = EntailmentTeacher(target, "quasi2", "random", 3)
        mem, eq = translate_oracles(
            quasi2_reduction(), teacher.membership_answer, teacher.equivalence_answer
        )
    LearnerSession(universe, mem, eq).run()
    assert universe._violator_cache
    return weakref.ref(universe)


@pytest.mark.parametrize("kind", ["interpretations", "relations", "quasi2-entailments"])
def test_a_finished_session_frees_its_universe_without_the_cycle_collector(kind):
    # the universe holds the session's model sets; reference counting alone
    # must free it, so no cycle may run through it
    gc.collect()
    gc.disable()
    try:
        ref = _finished_session_universe(kind)
        assert ref() is None
    finally:
        gc.enable()
