"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS line when
its checks hold.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import subprocess
import sys
import time

import pytest

from mvdlearn import (
    Interpretation,
    MvdFormula,
    entails,
    equivalent,
    find_counterexample,
    interp_to_pair,
    learn_horn_from_entailments,
    learn_mvd_from_relations,
    learn_mvdf_from_quasi2,
    mvd_holds,
    parse_clause,
    qh_ce_to_mvd,
    qh_f_mem,
    satisfies,
    violates,
)
from mvdlearn.learner import LearnerSession, TheoreticalBounds
from mvdlearn.oracles import (
    EntailmentTeacher,
    MvdfInterpretationTeacher,
    RelationTeacher,
)
from mvdlearn.cli import main as cli_main

from conftest import (
    GOLDEN_SCRIPT_BITS,
    GOLDEN_TARGET_TEXT,
    cli_child_env,
    enumerate_mvd_clauses,
    enumerate_quasi2_clauses,
    model_masks,
    numbered_universe,
    random_definite_horn,
    random_proper_clause,
    random_target,
)
from invariant_harness import InvariantObserver
from reference import build_clauses, counters, enum_masks, orientation_classes


def classes_of(universe, *clause_texts):
    return frozenset(
        parse_clause(t, universe).orientation_key() for t in clause_texts
    )


def test_criterion_1_golden_trace(golden_target, golden_script):
    start = time.monotonic()
    u = golden_target.universe
    teacher = MvdfInterpretationTeacher(golden_target, "scripted", script=golden_script)
    snapshots = []

    def observer(session, event):
        snapshots.append(
            (
                tuple(p.to_bits() for p in session.positives),
                tuple(n.to_bits() for n in session.negatives),
                orientation_classes(session.hypothesis),
            )
        )

    session = LearnerSession(
        u, teacher.membership_answer, teacher.equivalence_answer, observer=observer
    )
    result = session.run()
    elapsed = time.monotonic() - start

    assert len(snapshots) == 4
    positives, negatives, classes = snapshots[0]
    assert (positives, negatives) == ((), ("11100",))
    assert classes == classes_of(u, "2 3 4 5 -> 1 | -", "1 2 3 -> 4 | 5")

    positives, negatives, classes = snapshots[2]
    assert (positives, negatives) == (("01100",), ("01000", "01101"))
    assert classes == classes_of(
        u, "2 3 4 5 -> 1 | -", "2 -> 1 4 5 | 3", "2 3 5 -> 1 | 4"
    )

    assert find_counterexample(result, golden_target) is None
    assert orientation_classes(result) == classes_of(
        u,
        "2 3 4 5 -> 1 | -",
        "2 -> 1 4 5 | 3",
        "2 3 5 -> 1 | 4",
        "1 2 3 -> 4 | 5",
    )
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 golden trace: PASS ({elapsed:.3f}s)")


# The 500-run random suite backs criteria 2, 3 and 5; it is executed once
# and its observations are shared between the three tests.

_SUITE2 = {}


def _run_suite2():
    if _SUITE2:
        return _SUITE2
    rng = random.Random(20240)
    start = time.monotonic()
    runs = 0
    observers = []
    for _ in range(500):
        n = rng.randrange(3, 9)
        u = numbered_universe(n)
        target = random_target(u, rng, max_clauses=6, allow_degenerate=True)
        teacher = MvdfInterpretationTeacher(target)
        observer = InvariantObserver(target)
        session = LearnerSession(
            u,
            teacher.membership_answer,
            teacher.equivalence_answer,
            bounds=TheoreticalBounds(n, len(target.clauses)),
            observer=observer,
        )
        hypothesis = session.run()
        assert find_counterexample(target, hypothesis) is None
        observers.append((observer, counters(session)))
        runs += 1
    _SUITE2["elapsed"] = time.monotonic() - start
    _SUITE2["runs"] = runs
    _SUITE2["observers"] = observers
    return _SUITE2


def test_criterion_2_random_targets_reach_equivalence():
    suite = _run_suite2()
    assert suite["runs"] == 500
    assert suite["elapsed"] < 60.0
    print(
        f"\nACCEPTANCE 2 desk-scale correctness: PASS "
        f"(500/500 equivalent, {suite['elapsed']:.1f}s)"
    )


def test_criterion_3_complexity_bounds():
    suite = _run_suite2()
    iterations = 0
    for observer, stats in suite["observers"]:
        # the observer asserted per-iteration: |L| <= n*m, strict potential
        # decrease on negative iterations, replacement caps; recheck the
        # run-level counts here
        assert observer.negative_iterations <= observer.limit
        assert stats.max_negatives <= observer.n * observer.m
        assert all(c <= observer.n for c in stats.replacements_per_slot)
        iterations += stats.iterations
    print(
        f"\nACCEPTANCE 3 complexity bounds: PASS "
        f"({iterations} iterations across suite 2, zero violations)"
    )


def test_criterion_4_block_structure_and_shrinkage():
    rng = random.Random(777)
    instances = 0
    shrink_checked = 0
    while instances < 10_000:
        n = rng.randrange(3, 9)
        u = numbered_universe(n)
        target = random_target(u, rng, max_clauses=5)
        models = model_masks(target)
        negatives = [
            m
            for m in range(1 << n)
            if (u.full_mask ^ m).bit_count() >= 2
            and not satisfies(Interpretation(u, m), target)
        ]
        if not negatives or not models:
            continue
        for _ in range(20):
            if instances >= 10_000:
                break
            kernel = Interpretation(u, rng.choice(negatives))
            positives = [
                Interpretation(u, rng.choice(models))
                for _ in range(rng.randrange(0, 4))
            ]
            block = build_clauses(kernel, positives)
            seen_y = 0
            for clause in block:
                assert clause.x_mask == kernel.mask
                assert clause.y_mask and clause.z_mask
                assert clause.y_mask & seen_y == 0
                assert clause.y_mask | clause.z_mask == kernel.false_mask
                seen_y |= clause.y_mask
            assert seen_y == kernel.false_mask
            instances += 1

            breaking = None
            for m in models:
                candidate = Interpretation(u, m)
                if any(violates(candidate, c) for c in block):
                    breaking = candidate
                    break
            if breaking is not None:
                smaller = build_clauses(kernel, positives + [breaking])
                assert len(smaller) < len(block)
                shrink_checked += 1
    assert shrink_checked >= 2000
    print(
        f"\nACCEPTANCE 4 block properties: PASS "
        f"(10000 instances, {shrink_checked} shrink checks)"
    )


def test_criterion_5_stored_example_invariants():
    suite = _run_suite2()
    # the InvariantObserver asserted, at every iteration of every suite-2
    # run: every stored positive satisfies every block, every stored
    # negative satisfies the rest of the hypothesis, negatives breaking the
    # same target clause have disjoint false sets, and replacement grows
    # the false set
    total_iterations = sum(obs.iterations for obs, _ in suite["observers"])
    assert total_iterations > 0
    print(
        f"\nACCEPTANCE 5 stored-example invariants: PASS "
        f"(asserted at {total_iterations} iterations, zero violations)"
    )


def test_criterion_6_dependencies_from_relations():
    rng = random.Random(31337)
    for trial in range(200):
        n = rng.randrange(3, 7)
        u = numbered_universe(n)
        target = MvdFormula(
            u, [random_proper_clause(u, rng) for _ in range(rng.randrange(1, 4))]
        )
        teacher = RelationTeacher(
            target, "random" if trial % 2 else "exhaustive", seed=trial
        )
        got = learn_mvd_from_relations(
            u, teacher.membership_answer, teacher.equivalence_answer
        )
        assert find_counterexample(got, target) is None

    # pair-construction bridge: every assignment against every proper
    # clause, for universes up to 5
    bridge_checks = 0
    for n in range(2, 6):
        u = numbered_universe(n)
        clauses = [c for c in enumerate_mvd_clauses(u) if c.is_proper]
        for mask in enum_masks(n):
            interp = Interpretation(u, mask)
            pair = interp_to_pair(interp)
            for clause in clauses:
                assert mvd_holds(pair, clause) == (not violates(interp, clause))
                bridge_checks += 1
    print(
        f"\nACCEPTANCE 6 dependencies from relations: PASS "
        f"(200 runs, {bridge_checks} bridge checks)"
    )


def test_criterion_7_horn_from_entailments():
    rng = random.Random(4711)
    for trial in range(200):
        n = rng.randrange(2, 9)
        u = numbered_universe(n)
        target = random_definite_horn(u, rng)
        teacher = EntailmentTeacher(
            target, "horn", "random" if trial % 3 == 2 else "exhaustive", seed=trial
        )
        got = learn_horn_from_entailments(
            u, teacher.membership_answer, teacher.equivalence_answer
        )
        assert equivalent(got, target)
    print("\nACCEPTANCE 7 Horn from entailments: PASS (200/200 equivalent)")


def test_criterion_8_two_literal_transforms():
    rng = random.Random(60601)
    triples = 0
    while triples < 500:
        n = rng.randrange(3, 7)
        u = numbered_universe(n)
        target = random_target(u, rng, max_clauses=3)
        hypo = random_target(u, rng, max_clauses=3)
        pool = [
            c
            for c in enumerate_quasi2_clauses(u)
            if len(c.consequents) == 2 and entails(target, c) != entails(hypo, c)
        ]
        if not pool:
            continue
        clause = rng.choice(pool)
        grown = qh_ce_to_mvd(
            clause, hypo, lambda q: entails(target, q)
        )
        assert entails(target, grown) != entails(hypo, grown)

        probe = Interpretation(u, rng.getrandbits(n) & u.full_mask)
        assert qh_f_mem(probe, lambda q: entails(target, q)) == satisfies(probe, target)
        triples += 1

    for trial in range(100):
        n = rng.randrange(3, 7)
        u = numbered_universe(n)
        target = random_target(u, rng, max_clauses=3)
        teacher = EntailmentTeacher(
            target, "quasi2", "random" if trial % 2 else "exhaustive", seed=trial
        )
        got = learn_mvdf_from_quasi2(
            u, teacher.membership_answer, teacher.equivalence_answer
        )
        assert find_counterexample(got, target) is None
    print(
        "\nACCEPTANCE 8 two-literal transforms: PASS "
        "(500 counterexample growths, 100 learning runs)"
    )


def test_criterion_9_oracle_validation(tmp_path, capsys):
    target_file = tmp_path / "t.mvdf"
    target_file.write_text(GOLDEN_TARGET_TEXT)

    bad_script = tmp_path / "bad.txt"
    bad_script.write_text("11111\n")  # a model of both sides
    code = cli_main(
        [
            "learn",
            "--target", str(target_file),
            "--oracle", "script",
            "--script", str(bad_script),
        ]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "not a counterexample" in captured.err

    args = [
        sys.executable, "-m", "mvdlearn.cli",
        "learn", "--target", str(target_file),
        "--oracle", "random", "--seed", "7", "--output", "trace",
    ]
    first = subprocess.run(args, capture_output=True, env=cli_child_env())
    second = subprocess.run(args, capture_output=True, env=cli_child_env())
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    good_script = tmp_path / "good.txt"
    good_script.write_text("\n".join(GOLDEN_SCRIPT_BITS) + "\n")
    code = cli_main(
        [
            "learn",
            "--target", str(target_file),
            "--oracle", "script",
            "--script", str(good_script),
        ]
    )
    capsys.readouterr()
    assert code == 0
    print("\nACCEPTANCE 9 oracle validation: PASS (exit 3 on bad entry, seeded runs byte-identical)")
