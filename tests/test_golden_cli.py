"""Byte-for-byte outputs of every learning command.

Each of `learn`, `learn-mvd`, `learn-horn` (both example kinds) and
`learn-q` runs on a small fixed target in `tests/golden/` with each oracle
strategy and `--output trace --trace FILE`.  Its stdout and its trace file
must equal `tests/golden/<case>.<oracle>.stdout` and `.trace` byte for
byte.  Each also runs with the default `--output text` and no `--trace`,
so that no trace record is built; its stdout must equal the golden stdout
without its `iter=` lines.  Scripted runs replay
`tests/golden/<case>.script`, which holds the counterexamples the random
teacher gave with seed 11, except the `learn-mvd` script: it comes from an
earlier random relation teacher that drew candidate relations of two to
four rows, and it is kept for its 3-row relation.  The random relation teacher answers with two-row relations
only, so this is the one golden run through the 3+-row counterexample
translation.

`learn --oracle exhaustive` on `tests/golden/learn-n24.mvdf`, a target
at the 24-variable enumeration cap, must print
`tests/golden/learn-n24.exhaustive.stdout`; the target is
`mvdf_text(Random("s2"), Random(2), 24, 8, 1)` of `perfbench/workloads.py`,
and the run takes about a second and 165 MB.  The CI workflow diffs the
installed console script's output against the same file.

`learn-horn` on `tests/golden/learn-horn-false.horn`, whose target has
the clause `* -> F`, runs from interpretations and from entailments with
the exhaustive and the random oracle, pinned the same way.  All four runs
print `mvdf_to_horn`'s `* -> F` line, and each entailment run answers one
counterexample through `horn_f_eq`'s unit closure, the branch that spends
membership queries.  The CI workflow diffs the installed console script's
output against the same files.

For every teacher kind, a script whose first entry is not a counterexample
and an empty script must end with the oracle exit code and a fixed
message.

`check-mvd` on `tests/golden/check-mvd.csv`, with one holding and one
violated dependency, must print `tests/golden/check-mvd.stdout`; the CI
workflow compares the installed console script with the same file.

`entails` runs once per line of `tests/golden/entails.cases` (formula
file, formula kind, clause kind and clause, tab-separated), with `yes` and
`no` answers for every clause kind against `learn.mvdf` and
`learn-horn.horn`; the answers in file order must equal
`tests/golden/entails.stdout`.  The CI workflow reads the same cases file.
"""

import contextlib
import io
from pathlib import Path

import pytest

from mvdlearn.cli import main

GOLDEN = Path(__file__).parent / "golden"

# case -> (command, target file in tests/golden, further arguments)
COMMANDS = {
    "learn": ("learn", "learn.mvdf"),
    "learn-mvd": ("learn-mvd", "learn-mvd.mvdf"),
    "learn-horn-interpretations": (
        "learn-horn", "learn-horn.horn", "--examples", "interpretations",
    ),
    "learn-horn-entailments": (
        "learn-horn", "learn-horn.horn", "--examples", "entailments",
    ),
    "learn-q": ("learn-q", "learn-q.mvdf"),
}

# cases with no script: argv as for COMMANDS, exhaustive and random oracles only
UNSCRIPTED = {
    "learn-horn-false-interpretations": (
        "learn-horn", "learn-horn-false.horn", "--examples", "interpretations",
    ),
    "learn-horn-false-entailments": (
        "learn-horn", "learn-horn-false.horn", "--examples", "entailments",
    ),
}

ORACLES = {
    "exhaustive": ["--oracle", "exhaustive"],
    "random": ["--oracle", "random", "--seed", "3"],
    "script": ["--oracle", "script"],
}

# (case, script text, stderr): one invalid first entry and one empty
# script per teacher kind; every run must exit with code 3
SCRIPT_FAILURES = [
    ("learn", "111111\n",
     "mvdlearn: oracle error: scripted entry 1 (111111) is not a counterexample "
     "for the current hypothesis\n"),
    ("learn-mvd", "a,b,c,d,e\n0,0,0,0,0\n",
     "mvdlearn: oracle error: scripted relation 1 is not a counterexample "
     "for the current hypothesis\n"),
    ("learn-horn-entailments", "* -> F\n",
     "mvdlearn: oracle error: scripted entry 1 (* -> F) is not a counterexample "
     "for the current hypothesis\n"),
    ("learn-q", "* -> F\n",
     "mvdlearn: oracle error: scripted entry 1 (* -> F) is not a counterexample "
     "for the current hypothesis\n"),
] + [
    (case, "",
     "mvdlearn: oracle error: script exhausted while the hypothesis still "
     "differs from the target\n")
    for case in ("learn", "learn-mvd", "learn-horn-entailments", "learn-q")
]


def _argv(case, oracle, script=None):
    command, target, *extra = COMMANDS[case] if case in COMMANDS else UNSCRIPTED[case]
    argv = [command, "--target", str(GOLDEN / target), *extra, *ORACLES[oracle]]
    if oracle == "script":
        argv += ["--script", str(script or GOLDEN / f"{case}.script")]
    return argv


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_case(case, oracle, trace_path):
    """(exit code, stdout, stderr, trace file text) of one golden case."""
    argv = _argv(case, oracle) + ["--output", "trace", "--trace", str(trace_path)]
    code, out, err = run_cli(argv)
    return code, out, err, Path(trace_path).read_text()


@pytest.mark.parametrize("oracle", sorted(ORACLES))
@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_learning_command_bytes(case, oracle, tmp_path):
    code, out, err, trace = run_case(case, oracle, tmp_path / "trace.txt")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{case}.{oracle}.stdout").read_text()
    assert trace == (GOLDEN / f"{case}.{oracle}.trace").read_text()


@pytest.mark.parametrize("oracle", sorted(ORACLES))
@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_learning_command_bytes_without_a_trace(case, oracle):
    code, out, err = run_cli(_argv(case, oracle))
    assert (code, err) == (0, "")
    golden = (GOLDEN / f"{case}.{oracle}.stdout").read_text().splitlines(keepends=True)
    assert out == "".join(line for line in golden if not line.startswith("iter="))


@pytest.mark.parametrize("oracle", ["exhaustive", "random"])
@pytest.mark.parametrize("case", sorted(UNSCRIPTED))
def test_false_clause_target_bytes(case, oracle, tmp_path):
    code, out, err, trace = run_case(case, oracle, tmp_path / "trace.txt")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{case}.{oracle}.stdout").read_text()
    assert trace == (GOLDEN / f"{case}.{oracle}.trace").read_text()


def test_learn_at_the_enumeration_cap_bytes():
    code, out, err = run_cli(
        ["learn", "--target", str(GOLDEN / "learn-n24.mvdf"), "--oracle", "exhaustive"]
    )
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "learn-n24.exhaustive.stdout").read_text()


@pytest.mark.parametrize("case, script_text, stderr", SCRIPT_FAILURES)
def test_bad_scripts_exit_with_oracle_error(case, script_text, stderr, tmp_path):
    script = tmp_path / "bad.script"
    script.write_text(script_text)
    code, out, err = run_cli(_argv(case, "script", script))
    assert (code, out, err) == (3, "", stderr)


def test_check_mvd_bytes():
    out = ""
    for mvd in ("NAME -> BOOK | PET", "BOOK -> NAME | PET"):
        code, stdout, err = run_cli(
            ["check-mvd", "--relation", str(GOLDEN / "check-mvd.csv"), "--mvd", mvd]
        )
        assert (code, err) == (0, "")
        out += stdout
    assert out == (GOLDEN / "check-mvd.stdout").read_text()


def test_entails_bytes():
    out = ""
    for line in (GOLDEN / "entails.cases").read_text().splitlines():
        formula, formula_kind, kind, clause = line.split("\t")
        code, stdout, err = run_cli([
            "entails", "--formula", str(GOLDEN / formula), "--formula-kind", formula_kind,
            "--kind", kind, "--clause", clause,
        ])
        assert (code, err) == (0, ""), line
        out += stdout
    assert out == (GOLDEN / "entails.stdout").read_text()
