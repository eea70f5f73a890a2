"""Output checks, run after the timed passes and outside every span.

Learned formulas are compared with their targets one assignment at a
time, with this file's own reading of the clause semantics, so the check
does not share code with the package's model-set engine.  ``check-mvd``
verdicts are compared with how the relation was built, and a printed
pair must really violate the dependency.
"""

from __future__ import annotations

import csv
from pathlib import Path


def _side(tokens, index, full):
    if tokens == ["-"]:
        return 0
    if tokens == ["*"]:
        return full
    mask = 0
    for tok in tokens:
        mask |= 1 << index[tok]
    return mask


def parse_formula(text):
    """(n, clauses) of formula text; a clause is ("mvd", x, y, z) or ("horn", x, v).

    The kind of each line is read off its shape: a ``|`` makes a dependency
    clause, and ``* -> F`` (in either grammar) is the dependency clause
    violated only by the all-true assignment.  Malformed text raises
    ValueError, KeyError or IndexError.
    """
    lines = [line.split("#", 1)[0].split() for line in text.splitlines()]
    lines = [tokens for tokens in lines if tokens]
    names = lines[0][1:]
    if lines[0][0] != "vars:" or not names:
        raise ValueError("formula text must start with a vars: line")
    index = {name: i for i, name in enumerate(names)}
    full = (1 << len(names)) - 1
    clauses = []
    for tokens in lines[1:]:
        arrow = tokens.index("->")
        x = _side(tokens[:arrow], index, full)
        rhs = tokens[arrow + 1:]
        if rhs == ["F"]:
            clauses.append(("mvd", x, 0, 0))
        elif "|" in rhs:
            bar = rhs.index("|")
            clauses.append(("mvd", x, _side(rhs[:bar], index, full),
                            _side(rhs[bar + 1:], index, full)))
        else:
            (name,) = rhs
            clauses.append(("horn", x, index[name]))
    return len(names), clauses


def violates(mask, clause, full):
    """Whether the assignment with true-set ``mask`` breaks ``clause``."""
    kind, x = clause[0], clause[1]
    if mask & x != x:
        return False
    if kind == "horn":
        return not mask >> clause[2] & 1
    false = full & ~mask
    y, z = clause[2], clause[3]
    if y and z:
        return bool(y & false) and bool(z & false)
    if y or z:
        return bin(false).count("1") == 1 and bool((y | z) & false)
    return false == 0


def first_disagreement(target_text, learned_text):
    """First assignment (as an int) on which the two formulas differ, else None."""
    n, target = parse_formula(target_text)
    m, learned = parse_formula(learned_text)
    if n != m:
        return -1
    full = (1 << n) - 1
    for mask in range(1 << n):
        in_target = not any(violates(mask, c, full) for c in target)
        in_learned = not any(violates(mask, c, full) for c in learned)
        if in_target != in_learned:
            return mask
    return None


def hypothesis_text(stdout):
    """The formula printed between ``hypothesis:`` and ``stats:``."""
    lines = stdout.splitlines()
    start = lines.index("hypothesis:") + 1
    body = []
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        body.append(line[2:])
    return "\n".join(body) + "\n"


def check_formula(check, stdout):
    """None when the learned formula is equivalent to the target, else why not."""
    target = Path(check["target"]).read_text()
    try:
        mask = first_disagreement(target, hypothesis_text(stdout))
    except (ValueError, KeyError, IndexError) as exc:
        return f"no readable hypothesis printed ({type(exc).__name__}: {exc})"
    if mask is None:
        return None
    return f"learned formula differs from the target at assignment {mask:#x}"


def _read_relation(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [tuple(row) for row in rows[1:] if row]


def check_verdict(check, stdout):
    """None when the check-mvd output matches the relation's construction."""
    lines = stdout.splitlines()
    verdict = lines[0].split(":", 1)[0] if lines else ""
    if verdict != check["expect"]:
        return f"verdict {verdict!r}, relation was built to be {check['expect']!r}"
    if verdict == "holds":
        return None
    pair_lines = [line for line in lines if line.startswith("pair: ")]
    if len(pair_lines) != 1:
        return "violated verdict without exactly one pair line"
    first, _, second = pair_lines[0][len("pair: "):].partition(" / ")
    t, t2 = tuple(first.split(",")), tuple(second.split(","))
    rows = set(_read_relation(check["relation"]))
    xc, yc, _ = check["columns"]
    if t not in rows or t2 not in rows:
        return "printed pair is not two rows of the relation"
    if any(t[c] != t2[c] for c in xc):
        return "printed pair does not agree on X"

    def swap(a, b):
        return tuple(b[i] if i in yc else a[i] for i in range(len(a)))

    if swap(t, t2) in rows and swap(t2, t) in rows:
        return "printed pair does not violate the dependency"
    return None


CHECKS = {"formula": check_formula, "verdict": check_verdict}


def check_output(check, stdout):
    return CHECKS[check["kind"]](check, stdout)
