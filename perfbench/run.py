"""mvdlearn benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload learn-assign --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
The workloads and why each exists are described in ``workloads.py``.

The benchmark is a closed loop with one client: one CLI command at a time,
driven in-process through ``mvdlearn.cli.main(argv)`` in a child process
of its own, so that peak RSS belongs to the workload.  Inputs are
generated from ``--seed`` before the child starts; the program only sees
the generated target, CSV and manifest files.  The child repeats the
workload's fixed session list in passes for ``--seconds`` and reports
medians.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs
untraced passes, then passes with the layer hooks of ``spans.py``
installed, and reports the per-layer metrics and the tracing overhead.
A human-readable report comes first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results with provenance and sample counts, and the spans of
the last traced pass, are written under ``.perfbench_out/``.

Every session's output is checked after the timed passes (``verify.py``),
and its digest must be identical in every pass and in every earlier run
of the same code, inputs and seed.  A session with a non-zero exit, a
wrong result or differing output counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import verify  # noqa: E402
import workloads  # noqa: E402
from child import MIN_PASSES  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "session_s.p50": "s",
    "session_s.tail": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name, field); field is "calls" or "self_s"
SPAN_METRICS = {
    "oracles.eq.self_s": ("oracles.eq", "self_s"),
    "oracles.eq.calls": ("oracles.eq", "calls"),
    "oracles.mem.self_s": ("oracles.mem", "self_s"),
    "oracles.mem.calls": ("oracles.mem", "calls"),
    "core.model_bitset.calls": ("core.model_bitset", "calls"),
    "core.model_bitset.self_s": ("core.model_bitset", "self_s"),
    "core.entails.calls": ("core.entails", "calls"),
    "core.entails.self_s": ("core.entails", "self_s"),
    "relations.check.self_s": ("relations.check", "self_s"),
    "relations.check.calls": ("relations.check", "calls"),
    "relations.read_csv.self_s": ("relations.read_csv", "self_s"),
    "reductions.f_mem.calls": ("reductions.f_mem", "calls"),
    "reductions.f_mem.self_s": ("reductions.f_mem", "self_s"),
    "reductions.f_eq.calls": ("reductions.f_eq", "calls"),
    "reductions.f_eq.self_s": ("reductions.f_eq", "self_s"),
    "reductions.extract.self_s": ("reductions.extract", "self_s"),
    "learner.self_s": ("learner", "self_s"),
    "cli.self_s": ("cli", "self_s"),
}
QUERY_METRICS = ("learner_mem_queries", "learner_eq_queries", "teacher_mem_queries")
PER_LAYER_UNITS = {
    **{name: ("s" if field == "self_s" else "count")
       for name, (_, field) in SPAN_METRICS.items()},
    "relations.rows_per_check": "rows",
    "reductions.mem_fanout": "ratio",
    **{name: "count" for name in QUERY_METRICS},
    "trace.overhead_s": "s",
    "trace.hooks_absent": "count",
}


def tail_percentile(samples):
    """Highest whole percentile with at least ten of ``samples`` beyond it (50 at least)."""
    return max(50, math.floor(100 * (samples - 10) / samples))


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def code_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def inputs_digest(workdir):
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root):
    """HEAD of the checkout when it is a git work tree of its own, else None."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def start_child(manifest, seconds, trace, out=None, setup_only=False):
    """Start a child and wait for its ``ready`` line; return (process, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--manifest", str(manifest), "--seconds", str(seconds), "--trace", str(trace)]
    if out is not None:
        cmd += ["--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    began = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - began
    return proc, (setup if line.strip() == "ready" else None)


def finish_child(proc, timeout):
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return f"timed out after {timeout} s"
    return None if proc.returncode == 0 else f"exit code {proc.returncode}"


def measure(manifest_path, seconds, trace, out):
    """Set-up samples and the measurement child's results (raises on a child failure)."""
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = start_child(manifest_path, seconds, trace, setup_only=True)
        problem = finish_child(proc, 60)
        if setup is None or problem:
            raise RuntimeError(f"set-up child failed: {problem or 'no ready line'}")
        setups.append(setup)
    proc, setup = start_child(manifest_path, seconds, trace, out=out)
    problem = finish_child(proc, CHILD_TIMEOUT_S)
    if setup is None or problem:
        raise RuntimeError(f"measurement child failed: {problem or 'no ready line'}")
    setups.append(setup)
    return setups, json.loads(out.read_text())


def judge(sessions, results, reference):
    """Failure reason per (pass, session).

    Every pass must reproduce the first pass's output, so each session's
    output is checked once.
    """
    outputs = results["outputs"]
    first = results["passes"][0]
    verdicts = {}
    failures = []
    for p, run in enumerate(results["passes"]):
        for i, session in enumerate(sessions):
            code, dig = run["codes"][i], run["digests"][i]
            if code != 0:
                why = f"exit code {code}: {outputs[i]['stderr'].strip()[-300:]}"
            elif dig != first["digests"][i]:
                why = "output differs between passes of one run"
            elif reference and reference.get(session["id"]) not in (None, dig):
                why = "output differs from an earlier run of the same code and seed"
            else:
                if i not in verdicts:
                    verdicts[i] = verify.check_output(session["check"], outputs[i]["stdout"])
                why = verdicts[i]
            if why:
                failures.append((p, session["id"], why))
    return failures


def query_counts(stdouts):
    totals = dict.fromkeys(QUERY_METRICS, 0)
    for text in stdouts:
        for line in text.splitlines():
            if line.startswith("queries: "):
                learner, teacher = line[len("queries: "):].split("; ")
                lm, le = (int(t.split("=")[1]) for t in learner.split()[1:])
                tm, _ = (int(t.split("=")[1]) for t in teacher.split()[1:])
                totals["learner_mem_queries"] += lm
                totals["learner_eq_queries"] += le
                totals["teacher_mem_queries"] += tm
    return totals


def end_to_end(setups, results, sessions):
    untraced = [p for p in results["passes"] if not p["traced"]]
    pooled = [t for p in untraced for t in p["times"]]
    pct = tail_percentile(len(sessions) * MIN_PASSES)
    walls = [sum(p["times"]) for p in untraced]
    n = len(pooled)
    return {
        "setup_s": (statistics.median(setups), f"{len(setups)} set-ups, median"),
        "wall_s": (statistics.median(walls), f"{len(walls)} passes, median"),
        "session_s.p50": (statistics.median(pooled), f"{n} sessions"),
        "session_s.tail": (percentile(pooled, pct), f"{n} sessions, p{pct}"),
        "peak_rss_mb": (results["peak_rss_kb"] / 1024, "1 process"),
    }


def per_layer(results, queries):
    trace = results["trace"]
    by_name = trace["by_name"]
    traced = [p for p in results["passes"] if p["traced"]]
    untraced = [p for p in results["passes"] if not p["traced"]]
    absent_points = trace["absent"]
    out = {}
    for metric, (name, field) in SPAN_METRICS.items():
        entries = by_name.get(name, [])
        if field == "calls":
            values = [e[0] for e in entries]
        else:
            values = [e[2] / 1e9 for e in entries]
        # a name missing from a pass means no call in that pass
        values += [0] * (len(traced) - len(values))
        if name in trace["installed"]:
            note = f"{len(traced)} traced passes, median"
        else:
            note = "absent: no hook point records this span"
        out[metric] = (statistics.median(values), note)
    checks = sum(e[0] for e in by_name.get("relations.check", []))
    rows = trace["rows"].get("relations.check", 0)
    out["relations.rows_per_check"] = (rows / checks if checks else 0,
                                       f"{checks} checks over {len(traced)} passes")
    learner_mem = queries["learner_mem_queries"]
    fanout = queries["teacher_mem_queries"] / learner_mem if learner_mem else 0
    out["reductions.mem_fanout"] = (
        fanout, f"teacher mem {queries['teacher_mem_queries']} / "
                f"learner mem {learner_mem}, per pass")
    for name in QUERY_METRICS:
        out[name] = (queries[name], "per pass, exact")
    traced_wall = statistics.median(sum(p["times"]) for p in traced)
    untraced_wall = statistics.median(sum(p["times"]) for p in untraced)
    out["trace.overhead_s"] = (
        traced_wall - untraced_wall,
        f"traced wall {traced_wall:.4f} s ({len(traced)} passes) - "
        f"untraced wall {untraced_wall:.4f} s ({len(untraced)} passes)")
    out["trace.hooks_absent"] = (len(absent_points), ", ".join(absent_points) or "none")
    return out


def provenance(args, manifest, inputs_s, code, inputs):
    return {
        "commit": git_commit(ROOT) or "unknown (not a git work tree)",
        "code_sha256": code,
        "inputs_sha256": inputs,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "sizes": manifest["sizes"],
        "inputs_generated_s": round(inputs_s, 4),
        "loop": "closed, 1 client, one CLI session at a time",
    }


def report(prov, metrics, units, failures, attempted, queries):
    print(f"mvdlearn benchmark: workload {prov['workload']}, seed {prov['seed']}, "
          f"scale {prov['scale']}, {prov['seconds']} s")
    for key, value in prov.items():
        if key not in ("workload", "seed", "scale", "seconds"):
            print(f"  {key}: {value}")
    print(f"  {'metric':28s} {'value':>14s}  {'unit':6s} samples")
    for name, (value, samples) in metrics.items():
        print(f"  {name:28s} {value:14.6g}  {units[name]:6s} {samples}")
    print("  queries per pass: " + ", ".join(f"{k}={v}" for k, v in queries.items()))
    print(f"  failed_frac: {len(failures) / attempted:.4g} ({len(failures)}/{attempted})")
    for p, sid, why in failures[:20]:
        print(f"  FAILED pass {p} {sid}: {why}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: every stratum at its smallest, for the self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mvdlearn" / "__init__.py").is_file():
        print(f"no mvdlearn package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-{args.scale}"
    workdir = OUT / name
    shutil.rmtree(workdir, ignore_errors=True)
    began = time.perf_counter()
    manifest = workloads.build(args.workload, args.seed, workdir / "inputs", args.scale)
    inputs_s = time.perf_counter() - began
    manifest_path = workdir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1))
    code, inputs = code_digest(ROOT), inputs_digest(workdir / "inputs")
    try:
        setups, results = measure(manifest_path, args.seconds, args.trace,
                                  workdir / f"trace{args.trace}.json")
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    sessions = manifest["sessions"]
    ref_path = OUT / "digests" / f"{name}-{code}-{inputs}.json"
    reference = json.loads(ref_path.read_text()) if ref_path.is_file() else None
    failures = judge(sessions, results, reference)
    if reference is None and not failures:
        ref_path.parent.mkdir(parents=True, exist_ok=True)
        ref_path.write_text(json.dumps(
            {s["id"]: d for s, d in zip(sessions, results["passes"][0]["digests"])}))
    attempted = len(sessions) * len(results["passes"])
    queries = query_counts(o["stdout"] for o in results["outputs"])

    if args.trace:
        metrics, units = per_layer(results, queries), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(setups, results, sessions), END_TO_END
    prov = provenance(args, manifest, inputs_s, code, inputs)
    report(prov, metrics, units, failures, attempted, queries)
    summary = {
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": units[k], "samples": s}
                    for k, (v, s) in metrics.items()},
        "queries": queries,
        "attempted": attempted,
        "failures": failures,
    }
    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
