"""Command-line surface: outputs, exit codes, determinism."""

import csv
import random
import subprocess
import sys
import textwrap

import pytest

from mvdlearn import (
    equivalent,
    format_formula,
    horn_formula_to_mvd,
    mvdf_to_horn,
    parse_formula,
)
from mvdlearn.cli import main

from conftest import (
    GOLDEN_TARGET_TEXT,
    cli_child_env,
    numbered_universe,
    random_definite_horn,
)

GOLDEN_SCRIPT_TEXT = "11100\n01101\n01010\n11100\n"


@pytest.fixture
def golden_files(tmp_path):
    target = tmp_path / "target.mvdf"
    target.write_text(GOLDEN_TARGET_TEXT)
    script = tmp_path / "script.txt"
    script.write_text(GOLDEN_SCRIPT_TEXT)
    return target, script


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_learn_scripted_golden(golden_files, capsys):
    target, script = golden_files
    code, out, err = run_main(
        capsys,
        ["learn", "--target", str(target), "--oracle", "script", "--script", str(script)],
    )
    assert code == 0, err
    assert "hypothesis:" in out
    for line in (
        "2 3 4 5 -> 1 | -",
        "2 -> 1 4 5 | 3",
        "2 3 5 -> 1 | 4",
        "1 2 3 -> 4 | 5",
    ):
        assert line in out
    assert "stats: iterations=4 positive=0 append=3 replace=1 removed=0" in out


def test_learn_trace_output(golden_files, capsys, tmp_path):
    target, script = golden_files
    trace_file = tmp_path / "trace.log"
    code, out, err = run_main(
        capsys,
        [
            "learn",
            "--target", str(target),
            "--oracle", "script",
            "--script", str(script),
            "--output", "trace",
            "--trace", str(trace_file),
        ],
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("iter=")]
    assert len(lines) == 4
    assert lines[0].startswith("iter=1 event=append removed=0 ce=11100")
    assert trace_file.read_text().splitlines() == lines
    # with the target file supplied, records carry the potential and the
    # stored-negative count stays inside its bound (|L| <= n * m = 20)
    for line in lines:
        fields = dict(part.split("=") for part in line.split())
        assert int(fields["E"]) >= 0
        assert int(fields["L"]) <= 20


def test_learn_horn_both_example_kinds(tmp_path, capsys):
    horn = tmp_path / "t.horn"
    horn.write_text("vars: 1 2 3 4\n1 -> 2\n2 3 -> 4\n")
    for kind in ("interpretations", "entailments"):
        code, out, err = run_main(
            capsys,
            ["learn-horn", "--target", str(horn), "--examples", kind],
        )
        assert code == 0, err
        assert "hypothesis:" in out


def test_learn_horn_from_entailments_keeps_the_false_clause(tmp_path, capsys):
    # the all-true assignment breaks `* -> F`, and only a query can say so
    horn = tmp_path / "t.horn"
    horn.write_text("vars: 1 2 3\n1 -> 2\n* -> F\n")
    target = parse_formula(horn.read_text(), "horn")
    for oracle in (["exhaustive"], ["random", "--seed", "3"]):
        code, out, err = run_main(
            capsys,
            ["learn-horn", "--target", str(horn), "--examples", "entailments",
             "--oracle", *oracle],
        )
        assert (code, err) == (0, "")
        body = out.split("hypothesis:\n")[1].split("stats:")[0]
        assert equivalent(parse_formula(textwrap.dedent(body), "horn"), target)


def test_learn_horn_prints_the_canonical_basis(tmp_path, capsys):
    # the printed formula is the basis of the target's models, whatever the
    # example kind and the oracle, and has no more premises than the target
    # has antecedents
    rng = random.Random(1986)
    horn = tmp_path / "t.horn"
    for trial in range(24):
        n = 3 + trial % 6
        target = random_definite_horn(numbered_universe(n), rng)
        horn.write_text(format_formula(target) + "\n")
        basis = mvdf_to_horn(horn_formula_to_mvd(target))
        for kind in ("interpretations", "entailments"):
            for oracle in (["exhaustive"], ["random", "--seed", str(trial)]):
                code, out, err = run_main(
                    capsys,
                    ["learn-horn", "--target", str(horn), "--examples", kind,
                     "--oracle", *oracle],
                )
                assert (code, err) == (0, "")
                printed = [line[2:] for line in out.splitlines() if line.startswith("  ")]
                assert printed == format_formula(basis).splitlines()
        premises = {c.antecedent for c in basis.clauses if c.consequent is not None}
        assert len(premises) <= len({c.antecedent for c in target.clauses})


def test_max_vars_above_the_default_cap_reaches_the_extraction(tmp_path):
    # n = 25 is past the default cap of 24; the run, the teacher and the
    # Horn extraction all enumerate under --max-vars
    names = " ".join(str(i) for i in range(1, 26))
    horn = tmp_path / "t.horn"
    horn.write_text(f"vars: {names}\n1 2 -> 3\n")
    args = ["learn-horn", "--target", str(horn), "--examples", "interpretations"]
    code, _, err = _cli_bytes(args)
    assert (code, err) == (2, "mvdlearn: universe has 25 variables, enumeration cap is 24\n")
    code, out, err = _cli_bytes(args + ["--max-vars", "25"])
    assert code == 0, err
    assert b"  1 2 -> 3\n" in out


@pytest.mark.parametrize("argv", [
    ["learn", "--target", "{mvdf}"],
    ["learn-mvd", "--target", "{mvdf}"],
    ["learn-q", "--target", "{mvdf}"],
    ["learn-horn", "--target", "{horn}", "--examples", "interpretations"],
    ["learn-horn", "--target", "{horn}", "--examples", "entailments"],
    ["entails", "--formula", "{mvdf}", "--clause", "A -> B | C"],
], ids=["learn", "learn-mvd", "learn-q", "learn-horn-interpretations",
        "learn-horn-entailments", "entails"])
def test_max_vars_is_the_universe_cap_of_every_enumerating_command(tmp_path, capsys, argv):
    mvdf = tmp_path / "t.mvdf"
    mvdf.write_text("vars: A B C\nA -> B | C\n")
    horn = tmp_path / "t.horn"
    horn.write_text("vars: A B C\nA -> B\n")
    argv = [arg.format(mvdf=mvdf, horn=horn) for arg in argv]
    code, out, err = run_main(capsys, argv + ["--max-vars", "2"])
    assert (code, out, err) == (2, "", "mvdlearn: universe has 3 variables, enumeration cap is 2\n")
    code, out, err = run_main(capsys, argv + ["--max-vars", "3"])
    assert (code, err) == (0, "") and out


def test_learn_mvd_and_learn_q(tmp_path, capsys):
    target = tmp_path / "t.mvdf"
    target.write_text("vars: A B C\nA -> B | C\n")
    code, out, _ = run_main(capsys, ["learn-mvd", "--target", str(target)])
    assert code == 0
    assert "A -> B | C" in out

    code, out, _ = run_main(capsys, ["learn-q", "--target", str(target)])
    assert code == 0
    assert "A -> B | C" in out


def test_entails_command(tmp_path, capsys):
    empty = tmp_path / "empty.mvdf"
    empty.write_text("vars: 1 2 3 4 5\n")
    code, out, _ = run_main(
        capsys,
        ["entails", "--formula", str(empty), "--clause", "1 -> 2 | 3 4 5"],
    )
    assert code == 0
    assert out.strip() == "no"

    target = tmp_path / "t.mvdf"
    target.write_text(GOLDEN_TARGET_TEXT)
    code, out, _ = run_main(
        capsys,
        ["entails", "--formula", str(target), "--clause", "2 3 4 5 -> 1 | -"],
    )
    assert code == 0
    assert out.strip() == "yes"


def test_entails_accepts_a_purely_negative_quasi2_clause(tmp_path, capsys):
    # `a -> F` is how the quasi2 teacher prints the clause it answers this
    # target's empty hypothesis with, so it must parse back
    target = tmp_path / "t.mvdf"
    target.write_text("vars: a b\na -> b | -\n* -> F\n")
    code, out, err = run_main(
        capsys,
        ["entails", "--formula", str(target), "--clause", "a -> F", "--kind", "quasi2"],
    )
    assert (code, out, err) == (0, "yes\n", "")


@pytest.mark.parametrize("kind, clause, message", [
    ("horn", "1 -> 2 3", "line 1: a Horn clause needs exactly one consequent variable"),
    ("horn", "1 -> 9", "line 1: unknown variable '9'"),
    ("horn", "1 -> 1", "line 1: consequent must not occur in the antecedent"),
    ("quasi2", "1 -> 2 | 3", "line 1: expected one or two consequent variables"),
    ("quasi2", "1 -> 1 2", "line 1: consequents must be disjoint from the antecedent"),
    ("quasi2", "1 -> 9", "line 1: unknown variable '9'"),
    ("mvd", "1 1 -> 2 | 3 4", "line 1: variable '1' repeated within a side"),
    ("mvd", "-> 2 | 3 4", "line 1: empty side (use `-` for an empty side)"),
    ("mvd", "1 -> 2 -> 3", "line 1: clause must contain exactly one `->`"),
    ("mvd", "1 -> 2 3 4", "line 1: expected `<Y> | <Z>` on the right of `->`"),
    ("mvd", "1 -> 1 2 | 3 4", "line 1: clause sides must be pairwise disjoint"),
    ("mvd", "1 -> 2 | 3", "line 1: clause sides must cover the universe"),
    ("mvd", "", "empty clause text"),
])
def test_entails_rejects_a_malformed_clause(tmp_path, capsys, kind, clause, message):
    formula = tmp_path / "f.mvdf"
    formula.write_text("vars: 1 2 3 4\n")
    code, out, err = run_main(
        capsys, ["entails", "--formula", str(formula), "--kind", kind, "--clause", clause]
    )
    assert (code, out, err) == (2, "", f"mvdlearn: {message}\n")


def test_repeated_variable_name_is_invalid_input(tmp_path, capsys):
    target = tmp_path / "t.mvdf"
    target.write_text("vars: a a\n")
    code, out, err = run_main(capsys, ["learn", "--target", str(target)])
    assert (code, out, err) == (2, "", "mvdlearn: line 1: duplicate variable name: 'a'\n")


def test_check_mvd_command(tmp_path, capsys):
    csv_file = tmp_path / "data.csv"
    csv_file.write_text("A,B,C\nx,y,z\nx,y2,z2\n")
    code, out, _ = run_main(
        capsys, ["check-mvd", "--relation", str(csv_file), "--mvd", "A -> B | C"]
    )
    assert code == 0
    assert out.startswith("violated:")
    assert "pair: x,y,z / x,y2,z2" in out

    code, out, _ = run_main(
        capsys, ["check-mvd", "--relation", str(csv_file), "--mvd", "B -> A | C"]
    )
    assert code == 0
    assert out.startswith("holds:")


def test_check_mvd_rejects_a_header_that_is_not_a_universe(tmp_path, capsys):
    # the header is the relation's universe, read before the dependency
    csv_file = tmp_path / "data.csv"
    csv_file.write_text("a b,c\nx,y\n")
    code, out, err = run_main(
        capsys, ["check-mvd", "--relation", str(csv_file), "--mvd", "c -> - | -"]
    )
    assert (code, out, err) == (2, "", "mvdlearn: bad variable name: 'a b'\n")


def test_csv_field_over_the_size_limit_is_invalid_input(tmp_path, capsys):
    # the csv module rejects fields longer than its limit; both the relation
    # file and a relation script must end with exit code 2, not a traceback
    limit = csv.field_size_limit()
    too_long = "x" * (limit + 1)
    big = tmp_path / "big.csv"
    big.write_text(f"A,B,C\n{too_long},y,z\n")
    code, out, err = run_main(
        capsys, ["check-mvd", "--relation", str(big), "--mvd", "A -> B | C"]
    )
    assert (code, out) == (2, "")
    assert err == f"mvdlearn: row 2: field larger than field limit ({limit})\n"

    target = tmp_path / "t.mvdf"
    target.write_text("vars: A B C\nA -> B | C\n")
    code, out, err = run_main(
        capsys,
        ["learn-mvd", "--target", str(target), "--oracle", "script", "--script", str(big)],
    )
    assert (code, out) == (2, "")
    assert err == f"mvdlearn: row 2: field larger than field limit ({limit})\n"


def test_relation_script_error_names_the_file_line(tmp_path, capsys):
    target = tmp_path / "t.mvdf"
    target.write_text("vars: A B C\nA -> B | C\n")
    script = tmp_path / "rel.txt"
    # the second block's short row sits on line 7 of the file
    script.write_text("A,B,C\n0,0,0\n0,1,1\n---\nA,B,C\n0,0,0\n1,1\n")
    code, out, err = run_main(
        capsys,
        ["learn-mvd", "--target", str(target), "--oracle", "script", "--script", str(script)],
    )
    assert (code, out) == (2, "")
    assert err == "mvdlearn: row 7: expected 3 values, found 2\n"


def test_clause_script_error_names_its_line_once(tmp_path, capsys):
    target = tmp_path / "t.mvdf"
    target.write_text("vars: a b c d\na -> b | c d\n")
    script = tmp_path / "q.txt"
    script.write_text("a -> b\n\nb -> zz\n")
    code, out, err = run_main(
        capsys,
        ["learn-q", "--target", str(target), "--oracle", "script", "--script", str(script)],
    )
    assert (code, out) == (2, "")
    assert err == "mvdlearn: line 3: unknown variable 'zz'\n"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["learn"])  # missing --target
    assert err.value.code == 1


def test_one_parser_serves_every_call(golden_files, capsys):
    # main parses with one parser built at import; a usage error and an
    # input error in between must not change the output of a good command,
    # and their stderr must equal that of a fresh process
    target, script = golden_files
    good = ["learn", "--target", str(target), "--oracle", "script", "--script", str(script)]
    usage = ["learn", "--oracle", "nope"]
    bad_input = ["entails", "--formula", str(target), "--clause", "1 -> 9 | 2"]

    first = run_main(capsys, good)
    assert first[0] == 0
    with pytest.raises(SystemExit) as exit_info:
        main(usage)
    usage_err = capsys.readouterr().err
    fresh_code, _, fresh_err = _cli_bytes(usage)
    assert exit_info.value.code == fresh_code == 1
    assert usage_err == fresh_err
    code, out, err = run_main(capsys, bad_input)
    fresh_code, fresh_out, fresh_err = _cli_bytes(bad_input)
    assert (code, out, err) == (fresh_code, fresh_out.decode(), fresh_err)
    assert code == 2
    assert run_main(capsys, good) == first


def test_script_flag_consistency_is_usage_error(tmp_path, capsys):
    target = tmp_path / "t.mvdf"
    target.write_text(GOLDEN_TARGET_TEXT)
    code, _, err = run_main(
        capsys, ["learn", "--target", str(target), "--oracle", "script"]
    )
    assert code == 1
    assert "--script" in err


def test_scripted_reduction_commands(tmp_path, capsys):
    # one-counterexample scripts chosen so each run ends at equivalence
    target = tmp_path / "t.mvdf"
    target.write_text("vars: 1 2 3\n1 -> 2 | 3\n")

    rel_script = tmp_path / "rel.txt"
    rel_script.write_text("1,2,3\n0,0,0\n0,1,1\n")
    code, out, err = run_main(
        capsys,
        ["learn-mvd", "--target", str(target), "--oracle", "script",
         "--script", str(rel_script)],
    )
    assert code == 0, err
    assert "1 -> 2 | 3" in out

    q_script = tmp_path / "q.txt"
    q_script.write_text("1 -> 2 3\n")
    code, out, err = run_main(
        capsys,
        ["learn-q", "--target", str(target), "--oracle", "script",
         "--script", str(q_script)],
    )
    assert code == 0, err
    assert "1 -> 2 | 3" in out

    horn_target = tmp_path / "t.horn"
    horn_target.write_text("vars: 1 2 3\n1 -> 2\n")
    horn_script = tmp_path / "h.txt"
    horn_script.write_text("1 -> 2\n")
    code, out, err = run_main(
        capsys,
        ["learn-horn", "--target", str(horn_target), "--examples", "entailments",
         "--oracle", "script", "--script", str(horn_script)],
    )
    assert code == 0, err
    assert "1 -> 2" in out


def test_invalid_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mvdf"
    bad.write_text("vars: 1 2 3\n1 -> 9 | 2 3\n")
    code, _, err = run_main(capsys, ["learn", "--target", str(bad)])
    assert code == 2
    assert "line 2" in err

    missing = tmp_path / "missing.mvdf"
    code, _, err = run_main(capsys, ["learn", "--target", str(missing)])
    assert code == 2


def test_invalid_script_entry_exit_code(tmp_path, capsys):
    target = tmp_path / "t.mvdf"
    target.write_text(GOLDEN_TARGET_TEXT)
    script = tmp_path / "s.txt"
    script.write_text("11111\n")  # a model of both sides, never a counterexample
    code, _, err = run_main(
        capsys,
        ["learn", "--target", str(target), "--oracle", "script", "--script", str(script)],
    )
    assert code == 3
    assert "not a counterexample" in err


def test_exhausted_script_exit_code(tmp_path, capsys):
    target = tmp_path / "t.mvdf"
    target.write_text(GOLDEN_TARGET_TEXT)
    script = tmp_path / "s.txt"
    script.write_text("11100\n")  # valid once, then runs dry
    code, _, err = run_main(
        capsys,
        ["learn", "--target", str(target), "--oracle", "script", "--script", str(script)],
    )
    assert code == 3
    assert "exhausted" in err


def test_bound_violation_exit_code(tmp_path, capsys, monkeypatch):
    from mvdlearn import learner as learner_module
    from mvdlearn.errors import BoundViolationError

    target = tmp_path / "t.mvdf"
    target.write_text(GOLDEN_TARGET_TEXT)

    def explode(self):
        raise BoundViolationError("forced for the exit-code test")

    monkeypatch.setattr(learner_module.LearnerSession, "run", explode)
    code, _, err = run_main(capsys, ["learn", "--target", str(target)])
    assert code == 4
    assert "bound violation" in err


def _cli_bytes(args):
    proc = subprocess.run(
        [sys.executable, "-m", "mvdlearn.cli", *args],
        capture_output=True,
        cwd="/",
        env=cli_child_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")


def test_seeded_runs_are_byte_identical(tmp_path):
    target = tmp_path / "t.mvdf"
    target.write_text(GOLDEN_TARGET_TEXT)
    args = [
        "learn", "--target", str(target),
        "--oracle", "random", "--seed", "7", "--output", "trace",
    ]
    code_a, out_a, err_a = _cli_bytes(args)
    code_b, out_b, err_b = _cli_bytes(args)
    assert code_a == code_b == 0, err_a + err_b
    assert out_a == out_b
    code_c, out_c, err_c = _cli_bytes(args[:-3] + ["8", "--output", "trace"])
    assert code_c == 0, err_c  # different seed still succeeds, bytes may differ


@pytest.mark.parametrize("where, reason", [
    ("missing/x.trace", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing-directory", "a-directory"])
def test_unwritable_trace_file_is_invalid_input(tmp_path, where, reason):
    target = tmp_path / "t.mvdf"
    target.write_text(GOLDEN_TARGET_TEXT)
    trace = tmp_path / where
    code, out, err = _cli_bytes(["learn", "--target", str(target), "--trace", str(trace)])
    assert code == 2
    assert out == b""
    assert err == f"mvdlearn: {trace}: {reason}\n"
    assert "Traceback" not in err
