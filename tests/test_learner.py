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
    MvdClause,
    MvdFormula,
    OracleContractError,
    construct_h0,
    find_counterexample,
    learn,
    parse_clause,
    parse_formula,
    satisfies,
)
from mvdlearn.core import model_bitset
from mvdlearn.learner import (
    IterationEvent,
    LearnerSession,
    TheoreticalBounds,
    TraceRecord,
)
from mvdlearn.oracles import (
    EntailmentTeacher,
    MvdfInterpretationTeacher,
    RelationTeacher,
)
from mvdlearn.reductions import quasi2_reduction, relation_reduction, translate_oracles

from conftest import numbered_universe, random_target
from invariant_harness import InvariantObserver
from reference import (
    build_clauses,
    counters,
    good_candidate,
    orientation_classes,
    rebuild_hypothesis,
    refine_counterexample,
    update_positive_examples,
)


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

    stats = counters(session)
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
# the mask-level session against the reference session


class _ReferenceSession:
    """The learner session as it was before it worked on masks: every block
    rebuilt from scratch by :func:`build_clauses` after each iteration, every
    test through the plain definitions of ``reference``.  Kept as the
    reference for :class:`LearnerSession`.

    The session keeps the stored examples, the evolving hypothesis, query
    counters and a per-iteration trace.  An observer callable, when given,
    receives the session and an :class:`IterationEvent` after every
    iteration, with the hypothesis already rebuilt; the test harness uses
    this hook to assert the loop invariants.
    """

    def __init__(
        self,
        universe,
        mem,
        eq,
        *,
        bounds=None,
        observer=None,
    ):
        self.universe = universe
        self._mem_raw = mem
        self._eq_raw = eq
        self.bounds = bounds
        self.observer = observer

        self._mem_cache = {}
        self.membership_queries = 0
        self.equivalence_queries = 0

        self.positives = []
        self.negatives = []
        self.replacements: list[int] = []  # per live negative slot
        self.h0 = None
        self.hypothesis = None
        self.trace = []
        self.iteration = 0
        self.event_counts = {"positive": 0, "append": 0, "replace": 0}
        self.removal_count = 0
        self.max_negatives = 0
        self._max_hypothesis_classes = 1

    # -- oracles -------------------------------------------------------------

    def mem(self, interp):
        cached = self._mem_cache.get(interp.mask)
        if cached is not None:
            return cached
        answer = bool(self._mem_raw(interp))
        self._mem_cache[interp.mask] = answer
        self.membership_queries += 1
        return answer

    def _equivalence(self):
        self.equivalence_queries += 1
        return self._eq_raw(self.hypothesis)

    # -- bookkeeping ----------------------------------------------------------

    @property
    def blocks(self):
        """The clause block of every stored negative, in store order."""
        return [build_clauses(neg, self.positives) for neg in self.negatives]

    def potential(self):
        """Stored-negative budget ``|L| + (N - sum |false(I)|)``; needs bounds."""
        if self.bounds is None:
            return None
        spent = sum(neg.false_mask.bit_count() for neg in self.negatives)
        return len(self.negatives) + (self.bounds.limit - spent)

    def _iteration_cap(self):
        if self.bounds is not None:
            n_bound = self.bounds.limit
        else:
            n_bound = self.universe.n * self.universe.n * self._max_hypothesis_classes
        return n_bound * n_bound + n_bound

    def _record(self, event, raw, refined, replaced_index=None,
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
            hypothesis_size=len(orientation_classes(self.hypothesis)),
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

    def run(self):
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
                self._max_hypothesis_classes, len(orientation_classes(self.hypothesis))
            )

    def _handle(self, raw):
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
        if refined.false_mask.bit_count() < 2:
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

    def _rebuild(self):
        self.hypothesis = rebuild_hypothesis(self.h0, self.negatives, self.positives)


def _compare_runs(universe, make_oracles, bounds=None):
    """Run both sessions and assert that every iteration's state and the
    final results agree; then run the fast session again without an
    observer, so that its trace is only built when read after the run, and
    assert that its trace, result and counters agree too.

    ``make_oracles(running)`` returns fresh ``(mem, eq)`` oracles for each
    session; ``running`` is a list whose last entry is the session they
    serve.
    """
    running = []

    def run(session_class, observer=None):
        mem, eq = make_oracles(running)
        session = session_class(universe, mem, eq, bounds=bounds, observer=observer)
        running.append(session)
        try:
            result = session.run().clauses
        except (BoundViolationError, OracleContractError) as exc:
            result = f"{type(exc).__name__}: {exc}"
        return session.trace, result, counters(session)

    runs = []
    for session_class in (LearnerSession, _ReferenceSession):
        states = []

        def observer(session, event):
            blocks = session.blocks
            assert blocks == [build_clauses(neg, session.positives)
                              for neg in session.negatives]
            states.append((
                list(session.positives),
                list(session.negatives),
                list(session.replacements),
                blocks,
                session.hypothesis.clauses,
                event,
            ))

        runs.append((states, *run(session_class, observer)))
    fast, reference = runs
    assert fast[0] == reference[0]
    assert fast[1:] == reference[1:]
    assert run(LearnerSession) == reference[1:]
    return fast


def test_session_matches_the_reference_session():
    rng = random.Random(1992)
    events = set()
    for trial in range(64):
        n = 3 + trial % 8
        u = numbered_universe(n)
        target = random_target(u, rng)
        bounds = TheoreticalBounds(n, len(target.clauses))

        def teacher_oracles(strategy, **kwargs):
            def make(running):
                teacher = MvdfInterpretationTeacher(target, strategy, **kwargs)
                return teacher.membership_answer, teacher.equivalence_answer
            return make

        _compare_runs(u, teacher_oracles("exhaustive"), bounds)
        _, trace, _, _ = _compare_runs(u, teacher_oracles("random", seed=trial), bounds)
        # replay the random run's counterexamples through a script
        script = [Interpretation.from_bits(u, r.counterexample) for r in trace]
        _compare_runs(u, teacher_oracles("scripted", script=script), bounds)
        events.update(r.event for r in trace)
    assert events == {"positive", "append", "replace"}


def test_session_matches_the_reference_session_through_relations():
    rng = random.Random(1996)
    u = numbered_universe(7)
    target = random_target(u, rng, max_clauses=4, allow_degenerate=False)

    def make(running):
        teacher = RelationTeacher(target, "random", 5)
        return translate_oracles(
            relation_reduction(), teacher.membership_answer,
            teacher.equivalence_answer,
        )

    _, trace, clauses, _ = _compare_runs(u, make)
    assert len(trace) > 5
    assert find_counterexample(MvdFormula(u, clauses), target) is None


def test_one_iteration_from_a_prepared_state_matches_the_reference_session():
    # No run above drops a stored negative after a replacement or merges a
    # block into one part, so these iterations start from random stored
    # examples against a random model set.  One counterexample in four may
    # be any assignment, so that the errors of a lying teacher agree too.
    rng = random.Random(2016)
    seen = {"removal": 0, "one-part block": 0, "error": 0}
    for trial in range(600):
        n = rng.randrange(3, 7)
        u = numbered_universe(n)
        models = {m for m in range(1 << n) if rng.random() < 0.5}
        nonmodels = [m for m in range(1 << n)
                     if m not in models and (u.full_mask ^ m).bit_count() >= 2]
        if len(nonmodels) < 2:
            continue
        negatives = rng.sample(nonmodels, rng.randrange(1, min(4, len(nonmodels)) + 1))
        positives = rng.sample(sorted(models), min(len(models), rng.randrange(5)))
        seed = rng.getrandbits(32)

        def make(running):
            pick = random.Random(seed)

            def eq(hypothesis):
                session = running[-1]
                if session.iteration:
                    return None
                session.negatives = [Interpretation(u, m) for m in negatives]
                session.replacements = [0] * len(negatives)
                session.positives = [Interpretation(u, m) for m in positives]
                session._rebuild()
                if pick.randrange(4) == 0:
                    return Interpretation(u, pick.randrange(1 << n))
                wrong = [m for m in range(1 << n) if (m in models) != satisfies(
                    Interpretation(u, m), session.hypothesis)]
                return Interpretation(u, pick.choice(wrong)) if wrong else None

            return (lambda interp: interp.mask in models), eq

        states, _, result, stats = _compare_runs(u, make)
        seen["removal"] += stats.removals
        seen["one-part block"] += any(
            len(block) == 1 for state in states for block in state[3]
        )
        seen["error"] += isinstance(result, str)
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# the hypothesis built from blocks


def _prepared_session(rng, n):
    """A session whose h0 is built and whose stored examples are drawn at
    random against a random model set; a negative mask may repeat."""
    u = numbered_universe(n)
    models = {m for m in range(1 << n) if rng.random() < 0.5}
    nonmodels = [m for m in range(1 << n)
                 if m not in models and (u.full_mask ^ m).bit_count() >= 2]
    session = LearnerSession(u, lambda interp: interp.mask in models, lambda h: None)
    session.run()
    if nonmodels:
        session.negatives = [Interpretation(u, rng.choice(nonmodels))
                             for _ in range(rng.randrange(1, 5))]
    session.positives = [Interpretation(u, m) for m in
                         rng.sample(sorted(models), min(len(models), rng.randrange(5)))]
    session._rebuild()
    return session


def test_block_hypothesis_model_sets_match_their_clauses():
    rng = random.Random(1992)
    seen = {"state": 0, "one-part block": 0, "* -> F block": 0}

    def check(session, event=None):
        # the reference judges the clauses assignment by assignment, so it
        # reads no violator set that model_bitset may have cached
        hypothesis = session.hypothesis
        u = hypothesis.universe
        expected = sum(1 << m for m in range(1 << u.n)
                       if satisfies(Interpretation(u, m), hypothesis.clauses))
        assert model_bitset(hypothesis) == expected
        seen["state"] += 1
        # h0 always holds one-part blocks; count those of stored negatives
        seen["one-part block"] += any(
            len(parts) == 1 for _, parts in session._negative_blocks
        )
        seen["* -> F block"] += (u.full_mask, ()) in hypothesis.blocks

    for trial in range(60):
        n = 3 + trial % 6
        u = numbered_universe(n)
        target = random_target(u, rng)
        for strategy in ("exhaustive", "random"):
            teacher = MvdfInterpretationTeacher(target, strategy, seed=trial)
            learn(u, teacher.membership_answer, teacher.equivalence_answer, observer=check)
    # seeded runs merge no block into one part; prepared states do
    for _ in range(300):
        check(_prepared_session(rng, rng.randrange(3, 7)))
    assert all(seen.values()), seen


def test_block_hypothesis_has_the_reference_clauses_and_class_count():
    # clause order, orientation and dedup as the reference rebuild; H= as
    # its orientation classes, a repeated negative mask counted once
    rng = random.Random(2323)
    repeated = 0
    for _ in range(400):
        session = _prepared_session(rng, rng.randrange(3, 7))
        expected = rebuild_hypothesis(session.h0, session.negatives, session.positives)
        assert session.hypothesis.clauses == expected.clauses
        assert session._hypothesis_classes == len(orientation_classes(expected))
        repeated += len({neg.mask for neg in session.negatives}) < len(session.negatives)
    assert repeated


def assert_block_store(session):
    """The session caches a block for exactly the stored negatives' masks,
    each with every stored positive folded in, as the reference builds it."""
    u = session.universe
    full = u.full_mask
    assert set(session._blocks) == {neg.mask for neg in session.negatives}
    for neg in session.negatives:
        x, parts = session._blocks[neg.mask]
        assert x == neg.mask
        assert ([MvdClause(u, x, y, full ^ x ^ y) for y in parts]
                == build_clauses(neg, session.positives))


def test_block_store_holds_every_stored_positive_after_each_iteration():
    rng = random.Random(2929)
    seen = {"iteration": 0, "replace": 0, "prepared": 0}

    def check(session, event):
        assert_block_store(session)
        seen["iteration"] += 1
        seen["replace"] += event.record.event == "replace"

    for trial in range(40):
        n = 3 + trial % 7
        u = numbered_universe(n)
        target = random_target(u, rng)
        for strategy in ("exhaustive", "random"):
            teacher = MvdfInterpretationTeacher(target, strategy, seed=trial)
            learn(u, teacher.membership_answer, teacher.equivalence_answer, observer=check)
        proper = random_target(u, rng, max_clauses=4, allow_degenerate=False)
        teacher = RelationTeacher(proper, "random", trial)
        mem, eq = translate_oracles(
            relation_reduction(), teacher.membership_answer, teacher.equivalence_answer
        )
        learn(u, mem, eq, observer=check)
    for _ in range(200):
        assert_block_store(_prepared_session(rng, rng.randrange(3, 7)))
        seen["prepared"] += 1
    assert all(seen.values()), seen


def test_a_positive_stored_between_rebuilds_is_folded_into_every_cached_block():
    rng = random.Random(3131)
    several = 0  # stores that changed two or more cached blocks
    for _ in range(300):
        session = _prepared_session(rng, rng.randrange(3, 7))
        models = [m for m in range(1 << session.universe.n) if session._mem_mask(m)]
        if not models:
            continue
        before = dict(session._blocks)
        session._store_positive(Interpretation(session.universe, rng.choice(models)))
        assert_block_store(session)
        several += sum(session._blocks[x] != block for x, block in before.items()) >= 2
        session._rebuild()
        expected = rebuild_hypothesis(session.h0, session.negatives, session.positives)
        assert session.hypothesis.clauses == expected.clauses
    assert several


def test_a_harvest_that_raises_has_stored_only_target_models():
    # two stored negatives whose intersection has one false variable break
    # a one-part block that no positive can merge, so the harvest never
    # ends; inconsistent with any target, but the positives it stored
    # before giving up were each confirmed by a membership query
    u = numbered_universe(3)
    kernel = u.full_mask ^ 0b001
    models = {kernel, u.full_mask}
    session = LearnerSession(u, lambda interp: interp.mask in models, lambda h: None)
    session.negatives = [Interpretation(u, kernel), Interpretation(u, kernel)]
    with pytest.raises(BoundViolationError, match="harvesting"):
        session._harvest(kernel)
    assert session.positives
    assert all(pos.mask in models for pos in session.positives)


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
            bounds=TheoreticalBounds(u.n, 0),  # a run cap of 0 iterations
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
        teacher = RelationTeacher(target, "random", 3)
        mem, eq = translate_oracles(
            relation_reduction(),
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
