"""One workload's measurement process.

Started by ``run.py`` with the path of a manifest that ``workloads.py``
wrote.  It imports the package from the checkout's ``src``, reports
``ready`` on standard output (the parent times set-up up to that line),
then runs the manifest's session list in passes through
``mvdlearn.cli.main`` until its time budget is spent.  A traced run first
runs untraced passes, then traced ones.  The results (times, exit codes,
output digests, the first pass's outputs, peak RSS and the span
aggregates) go to a JSON file; checking the outputs is the parent's job.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import spans

MIN_PASSES = 3
MAX_PASSES = 1000


def run_session(main, argv):
    """(seconds, exit code, stdout, stderr) of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed session, not a failed benchmark
            code = "exception"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def digest(code, stdout):
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:16]


def run_passes(cli, sessions, budget, min_passes, results, tracer=None):
    """Run whole passes while the next one is expected to fit in ``budget``."""
    began = time.perf_counter()
    count = 0
    while True:
        times, codes, digests = [], [], []
        for i, session in enumerate(sessions):
            if tracer is not None:
                tracer.current_session = len(results["passes"]) * len(sessions) + i
            # looked up per call, so that a traced run goes through the hook
            elapsed, code, out, err = run_session(cli.main, session["argv"])
            times.append(elapsed)
            codes.append(code)
            digests.append(digest(code, out))
            if len(results["outputs"]) <= i:
                results["outputs"].append({"stdout": out, "stderr": err[-2000:]})
        results["passes"].append({"traced": tracer is not None, "times": times,
                                  "codes": codes, "digests": digests})
        count += 1
        spent = time.perf_counter() - began
        if count >= MAX_PASSES or (count >= min_passes and spent * (count + 1) / count > budget):
            return


def trace_summary(tracer, passes, per_pass):
    """Per span name: one [calls, total ns, self ns] entry per traced pass."""
    own = spans.self_times(tracer.parent, tracer.start, tracer.end)
    first = passes[0]
    table = spans.aggregate(tracer.names, tracer.session, tracer.name, tracer.start,
                            tracer.end, own, lambda sid: sid // per_pass - first)
    summary = {}
    for p in range(len(passes)):
        for name, entry in table.get(p, {}).items():
            summary.setdefault(name, []).append(entry)
    return {"by_name": summary, "rows": tracer.rows, "absent": tracer.absent,
            "installed": sorted(tracer.installed), "span_count": len(tracer.start)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    from mvdlearn import cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"mvdlearn imported from {cli.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    sessions = json.loads(Path(args.manifest).read_text())["sessions"]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    results = {"passes": [], "outputs": []}
    if args.trace:
        run_passes(cli, sessions, 0.4 * args.seconds, 2, results)
        untraced = len(results["passes"])
        tracer = spans.Tracer()
        with tracer:
            run_passes(cli, sessions, 0.6 * args.seconds, 1, results, tracer)
        traced = range(untraced, len(results["passes"]))
        results["trace"] = trace_summary(tracer, traced, len(sessions))
        last = traced[-1] * len(sessions)
        tracer.write(Path(args.out).with_suffix(".spans.csv.gz"),
                     range(last, last + len(sessions)))
    else:
        run_passes(cli, sessions, args.seconds, MIN_PASSES, results)
    results["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.out).write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
