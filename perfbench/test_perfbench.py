"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import contextlib
import io
import json
import sys
import types

import pytest

import run
import spans
import verify
import workloads


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_has_no_failures(workload, trace):
    code, result = _run("--workload", workload, "--seed", "3", "--seconds", "0.3",
                        "--trace", str(trace), "--scale", "tiny")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)


def test_inputs_depend_only_on_the_seed(tmp_path):
    first = workloads.build("check-csv", 5, tmp_path / "a", "tiny")
    second = workloads.build("check-csv", 5, tmp_path / "b", "tiny")
    for a, b in zip(first["sessions"], second["sessions"]):
        assert a["id"] == b["id"]
        name = a["argv"][2].rsplit("/", 1)[1]
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_self_time_of_nested_spans():
    # root [0, 100] holds a [10, 40] (which holds g [15, 25]) and b [50, 90];
    # c [95, 120] runs past the end of root and is clipped to [95, 100]
    parent = [-1, 0, 1, 0, 0]
    start = [0, 10, 15, 50, 95]
    end = [100, 40, 25, 90, 120]
    assert spans.self_times(parent, start, end) == [100 - 30 - 40 - 5, 30 - 10, 10, 40, 25]


def test_aggregate_groups_by_pass_and_name():
    names = ["cli", "learner"]
    session = [0, 0, 1, 2, 3]
    name = [0, 1, 0, 0, 1]
    start = [0, 1, 10, 20, 30]
    end = [5, 3, 12, 25, 31]
    own = [3, 2, 2, 5, 1]
    table = spans.aggregate(names, session, name, start, end, own,
                            lambda sid: sid // 2 if sid < 4 else None)
    assert table == {0: {"cli": [2, 7, 5], "learner": [1, 2, 2]},
                     1: {"cli": [1, 5, 5], "learner": [1, 1, 1]}}


def test_missing_hook_point_is_reported_not_fatal(monkeypatch):
    module = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    # a reduction factory whose result no longer carries f_mem/f_eq
    module.make_pair = lambda: ("f_mem", "f_eq")
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = spans.Tracer(hooks=(
        ("fake_layer", "outer", "outer"),
        ("fake_layer", "inner", "inner"),
        ("fake_layer", "make_pair", "reductions.pair"),
        ("fake_layer", "gone", "gone"),
        ("fake_layer", "Missing.method", "gone"),
        ("no_such_module_anywhere", "f", "gone"),
    ))
    with tracer:
        assert module.outer(1) == 4
        assert module.make_pair() == ("f_mem", "f_eq")
    assert module.outer is outer and module.inner is inner
    assert tracer.absent == ["fake_layer:gone", "fake_layer:Missing.method",
                             "no_such_module_anywhere:f"]
    assert [tracer.names[n] for n in tracer.name] == ["outer", "inner"]
    assert list(tracer.parent) == [-1, 0]
    own = spans.self_times(tracer.parent, tracer.start, tracer.end)
    assert own[0] == (tracer.end[0] - tracer.start[0]) - (tracer.end[1] - tracer.start[1])


def test_formula_check_finds_a_difference():
    target = "vars: a b c\na -> b | c\n"
    assert verify.first_disagreement(target, "vars: a b c\na -> c | b\n") is None
    assert verify.first_disagreement(target, "vars: a b c\n") == 0b001


def test_formula_check_reports_unreadable_output(tmp_path):
    target = tmp_path / "t.mvd"
    target.write_text("vars: a b c\na -> b | c\n")
    check = {"kind": "formula", "target": str(target)}
    assert verify.check_output(check, "hypothesis:\n  vars: a b c\n  a -> b | c\nstats:\n") is None
    assert "readable" in verify.check_output(check, "hypothesis:\n  vars: a b c\n  a- -> b | c\n")
    assert "readable" in verify.check_output(check, "usage: mvdlearn\n")


def test_verdict_check_rejects_a_pair_that_does_not_violate(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("x,y,z\n0,1,1\n0,2,2\n0,1,2\n")
    check = {"kind": "verdict", "relation": str(path), "columns": [[0], [1], [2]],
             "expect": "violated"}
    assert verify.check_output(check, "violated: x -> y | z\npair: 0,1,1 / 0,2,2\n") is None
    assert verify.check_output(check, "violated: x -> y | z\npair: 0,1,1 / 0,1,2\n")
    assert verify.check_output(check, "holds: x -> y | z\n")


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(180) == 94
    assert run.tail_percentile(12) == 50
