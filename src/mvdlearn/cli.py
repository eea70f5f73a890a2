"""Batch command-line surface.

Commands run learning sessions against simulated or scripted teachers,
check dependencies in CSV data, and test entailments.  Exit codes:

  0  success
  1  usage error
  2  invalid input (bad formula, clause, CSV or script text)
  3  oracle or contract violation (invalid scripted counterexample,
     exhausted script, inconsistent oracle answers)
  4  bound violation (a run exceeded a guaranteed bound)

All output is deterministic for a fixed command line and input files; the
random oracle strategy is driven entirely by --seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import __version__
from .core import (
    DEFAULT_ENUM_CAP,
    entails,
    format_clause,
    format_formula,
    parse_clause,
    parse_formula,
)
from .errors import (
    BoundViolationError,
    ConversionError,
    MvdLearnError,
    OracleContractError,
)
from .learner import LearnerSession, TheoreticalBounds
from .oracles import (
    EntailmentTeacher,
    MvdfInterpretationTeacher,
    RelationTeacher,
    parse_clause_script,
    parse_interpretation_script,
    parse_relation_script,
)
from .reductions import (
    horn_entailment_reduction,
    mvdf_to_horn,
    quasi2_reduction,
    relation_reduction,
    translate_oracles,
)
from .relations import find_violating_pair, read_csv

USAGE_EXIT = 1
INPUT_EXIT = 2
ORACLE_EXIT = 3
BOUND_EXIT = 4


class _UsageError(Exception):
    """Inconsistent flag combination (beyond what argparse can express)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise MvdLearnError(f"{path}: {exc.strerror or exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise MvdLearnError(f"{path}: {exc.strerror or exc}") from None


def format_trace_record(record) -> str:
    parts = [
        f"iter={record.iteration}",
        f"event={record.event}",
        f"removed={record.removed}",
        f"ce={record.counterexample}",
        f"P={record.positives}",
        f"L={record.negatives}",
        f"H={record.hypothesis_size}",
        f"mem={record.membership_queries}",
        f"eq={record.equivalence_queries}",
    ]
    if record.potential is not None:
        parts.append(f"E={record.potential}")
    return " ".join(parts)


def _add_oracle_args(sub):
    sub.add_argument("--oracle", choices=("exhaustive", "random", "script"),
                     default="exhaustive", help="counterexample strategy")
    sub.add_argument("--seed", type=int, default=0, help="seed for --oracle random")
    sub.add_argument("--script", help="counterexample script (required with --oracle script)")
    sub.add_argument("--trace", help="write per-iteration trace records to this file")
    sub.add_argument("--output", choices=("text", "trace"), default="text",
                     help="print the hypothesis only, or the trace records too")
    sub.add_argument("--max-vars", type=int, default=DEFAULT_ENUM_CAP,
                     help="enumeration cap of the target's universe (default %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="mvdlearn", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"mvdlearn {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("learn", help="learn a dependency formula from assignments")
    p.add_argument("--target", required=True, help="target formula file")
    _add_oracle_args(p)

    p = commands.add_parser("learn-mvd", help="learn dependencies from data relations")
    p.add_argument("--target", required=True,
                   help="target dependency file "
                        "(proper clauses over the relation's attributes)")
    _add_oracle_args(p)

    p = commands.add_parser("learn-horn", help="learn a Horn formula")
    p.add_argument("--target", required=True, help="target Horn formula file")
    p.add_argument("--examples", choices=("entailments", "interpretations"),
                   default="interpretations", help="example kind the oracles use")
    _add_oracle_args(p)

    p = commands.add_parser("learn-q",
                            help="learn a dependency formula from two-literal-clause oracles")
    p.add_argument("--target", required=True, help="target formula file")
    _add_oracle_args(p)

    p = commands.add_parser("check-mvd", help="check one dependency against CSV data")
    p.add_argument("--relation", required=True, help="CSV file, header row first")
    p.add_argument("--mvd", required=True, help="dependency over the CSV attributes")

    p = commands.add_parser("entails", help="test whether a formula entails a clause")
    p.add_argument("--formula", required=True, help="formula file")
    p.add_argument("--formula-kind", choices=("mvd", "horn"), default="mvd",
                   help="grammar of the formula file")
    p.add_argument("--clause", required=True, help="clause in the file grammar")
    p.add_argument("--kind", choices=("auto", "mvd", "horn", "quasi2"), default="auto",
                   help="clause kind (auto: mvd when a `|` or F is present, horn otherwise)")
    p.add_argument("--max-vars", type=int, default=DEFAULT_ENUM_CAP,
                   help="enumeration cap of the formula's universe (default %(default)s)")

    return parser


def _load_script(args, teacher_kind, universe):
    if args.oracle != "script":
        if args.script:
            raise _UsageError("--script only makes sense with --oracle script")
        return None
    if not args.script:
        raise _UsageError("--oracle script requires --script FILE")
    text = _read_text(args.script)
    if teacher_kind == "interpretation":
        return parse_interpretation_script(text, universe)
    if teacher_kind == "relation":
        return parse_relation_script(text)
    return parse_clause_script(text, universe, teacher_kind)


_STRATEGY = {"exhaustive": "exhaustive", "random": "random", "script": "scripted"}


def _emit_run(session, result, teacher, args):
    # the trace file first, so a failed write leaves stdout empty
    if args.trace:
        _write_text(args.trace, "".join(format_trace_record(r) + "\n" for r in session.trace))
    lines = []
    if args.output == "trace":
        lines.extend(format_trace_record(r) for r in session.trace)
    lines.append("hypothesis:")
    lines.extend("  " + line for line in format_formula(result).splitlines())
    events = session.event_counts
    lines.append(
        "stats: iterations={} positive={} append={} replace={} removed={}".format(
            session.iteration, events["positive"], events["append"],
            events["replace"], session.removal_count,
        )
    )
    lines.append(
        "queries: learner mem={} eq={}; teacher mem={} eq={}".format(
            session.membership_queries, session.equivalence_queries,
            teacher.stats["membership_queries"], teacher.stats["equivalence_queries"],
        )
    )
    print("\n".join(lines))


class _Learning(NamedTuple):
    """How one learning command wires its teacher to the learner.

    The callables look their collaborators up when they are called, not
    when the table is built.
    """

    formula_kind: str  # grammar of the target file
    script_kind: str  # entry kind of --script files
    teacher: Callable  # (target, strategy, seed, script) -> teacher
    reduction: Optional[Callable]  # teacher -> ReductionPair; None: no translation
    clause_factor: int  # factor on the target's clause count in the bounds
    extract: Optional[Callable]  # learned formula -> printed result; None: as learned


_LEARNING = {
    "learn": _Learning(
        "mvd", "interpretation",
        lambda target, *opts: MvdfInterpretationTeacher(target, *opts),
        None, 1, None,
    ),
    "learn-mvd": _Learning(
        "mvd", "relation",
        lambda target, *opts: RelationTeacher(target, *opts),
        lambda teacher: relation_reduction(), 1, None,
    ),
    # the working formula represents a Horn target through the two-clause
    # encoding, so its size bound is twice the Horn clause count
    ("learn-horn", "interpretations"): _Learning(
        "horn", "interpretation",
        lambda target, *opts: MvdfInterpretationTeacher(target, *opts),
        None, 2, lambda learned: mvdf_to_horn(learned),
    ),
    ("learn-horn", "entailments"): _Learning(
        "horn", "horn",
        lambda target, *opts: EntailmentTeacher(target, "horn", *opts),
        lambda teacher: horn_entailment_reduction(), 2,
        lambda learned: mvdf_to_horn(learned, strict=False),
    ),
    "learn-q": _Learning(
        "mvd", "quasi2",
        lambda target, *opts: EntailmentTeacher(target, "quasi2", *opts),
        lambda teacher: quasi2_reduction(), 1, None,
    ),
}


def _cmd_learn(args) -> int:
    key = (args.command, args.examples) if args.command == "learn-horn" else args.command
    row = _LEARNING[key]
    target = parse_formula(_read_text(args.target), row.formula_kind, args.max_vars)
    universe = target.universe
    script = _load_script(args, row.script_kind, universe)
    teacher = row.teacher(target, _STRATEGY[args.oracle], args.seed, script)
    mem, eq = teacher.membership_answer, teacher.equivalence_answer
    if row.reduction is not None:
        mem, eq = translate_oracles(row.reduction(teacher), mem, eq)
    bounds = TheoreticalBounds(universe.n, row.clause_factor * len(target.clauses))
    session = LearnerSession(universe, mem, eq, bounds=bounds)
    learned = session.run()
    result = learned if row.extract is None else row.extract(learned)
    _emit_run(session, result, teacher, args)
    return 0


def _cmd_check_mvd(args) -> int:
    relation = read_csv(_read_text(args.relation))
    clause = parse_clause(args.mvd, relation.universe, "mvd")
    pair = find_violating_pair(relation, clause)
    if pair is None:
        print(f"holds: {format_clause(clause)}")
    else:
        print(f"violated: {format_clause(clause)}")
        print(f"pair: {','.join(pair[0])} / {','.join(pair[1])}")
    return 0


def _cmd_entails(args) -> int:
    formula = parse_formula(_read_text(args.formula), args.formula_kind, args.max_vars)
    kind = args.kind
    if kind == "auto":
        tokens = args.clause.split()
        kind = "mvd" if "|" in tokens or tokens[-1:] == ["F"] else "horn"
    clause = parse_clause(args.clause, formula.universe, kind)
    answer = entails(formula, clause)
    print("yes" if answer else "no")
    return 0


_COMMANDS = {
    "learn": _cmd_learn,
    "learn-mvd": _cmd_learn,
    "learn-horn": _cmd_learn,
    "learn-q": _cmd_learn,
    "check-mvd": _cmd_check_mvd,
    "entails": _cmd_entails,
}


# built once: parsing leaves no state on the parser, and a fresh parser per
# call would leave its cyclic objects to the garbage collector
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"mvdlearn: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BoundViolationError as exc:
        print(f"mvdlearn: bound violation: {exc}", file=sys.stderr)
        return BOUND_EXIT
    except (OracleContractError, ConversionError) as exc:
        print(f"mvdlearn: oracle error: {exc}", file=sys.stderr)
        return ORACLE_EXIT
    except (MvdLearnError, ValueError) as exc:
        print(f"mvdlearn: {exc}", file=sys.stderr)
        return INPUT_EXIT


if __name__ == "__main__":
    sys.exit(main())
