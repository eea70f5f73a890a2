"""Database-side semantics: relations and dependency checks.

A relation is a set of string-valued rows over a variable universe: its
attributes are the universe's names, and position i of a row holds the
value of the attribute with bit index i.  The dependency ``X -> Y | Z``
(sides partitioning the universe) holds in a relation when, for any two
rows agreeing on X, swapping their Y values produces a row that is also
present.  Dependencies with an empty side hold in every relation, since
the swap reproduces an existing row.

So the same clause values are checked against assignments and against
data, and a relation meets a clause only over the clause's universe.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import operator
from typing import Iterable, Optional

from .core import (
    Interpretation,
    MvdClause,
    VariableUniverse,
    _require_same_universe,
    bit_indices,
)
from .errors import SchemaError

Row = tuple  # one text value per attribute


class Relation:
    """Rows over a variable universe: duplicate-free, insertion order kept."""

    __slots__ = ("universe", "rows", "_row_set")

    def __init__(self, universe: VariableUniverse, rows: Iterable[Row] = ()):
        self.universe = universe
        deduped = {}
        for i, row in enumerate(rows):
            row = tuple(row)
            if len(row) != universe.n:
                raise SchemaError(
                    f"row has {len(row)} values, the universe has {universe.n} attributes",
                    row=i + 1,
                )
            deduped[row] = None
        self.rows = tuple(deduped)
        self._row_set = frozenset(self.rows)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __contains__(self, row):
        return tuple(row) in self._row_set

    def __eq__(self, other):
        return (
            isinstance(other, Relation)
            and self.universe == other.universe
            and self._row_set == other._row_set
        )

    def __hash__(self):
        return hash((self.universe, self._row_set))

    def __repr__(self):
        return f"Relation({self.universe.names!r}, {len(self.rows)} rows)"


@functools.lru_cache(maxsize=1024)
def _projection(mask: int):
    """Row -> its values on the positions of ``mask``, as one hashable key."""
    if mask == 0:
        return lambda row: ()
    return operator.itemgetter(*bit_indices(mask))


def _failing_groups(relation: Relation, clause: MvdClause) -> list:
    """Row positions of every X-group that is not the product of its Y- and
    Z-projections (Fagin 1977), in the order of their first rows.

    X, Y and Z partition the universe and rows are distinct, so a group is a
    subset of its Y-projection times its Z-projection, and it equals that
    product exactly when the sizes match.
    """
    rows = relation.rows
    x_of = _projection(clause.x_mask)
    groups: dict = {}
    for pos, row in enumerate(rows):
        groups.setdefault(x_of(row), []).append(pos)
    if len(groups) == len(rows):
        return []
    y_of, z_of = _projection(clause.y_mask), _projection(clause.z_mask)
    failing = []
    for group in groups.values():
        if len(group) > 1:
            members = list(map(rows.__getitem__, group))
            y_count = len(set(map(y_of, members)))
            if len(members) != y_count * len(set(map(z_of, members))):
                failing.append(group)
    return failing


def mvd_holds(relation: Relation, clause: MvdClause) -> bool:
    """Whether the dependency holds in the relation.

    Rows are grouped by their X projection; every group must be the product
    of its Y and Z projections, which one pass over the rows decides.
    Empty Y or Z makes every swap reproduce an existing row, so those
    clauses hold trivially.
    """
    _require_same_universe(relation, clause)
    if clause.y_mask == 0 or clause.z_mask == 0:
        return True
    return not _failing_groups(relation, clause)


def _first_violation(group: list, rows: tuple, y_of, z_of) -> tuple:
    """Least position pair ``(i, j)`` of a group failing the product count
    whose Y-swaps are not both rows of the group; such a group always has
    one.  Within a group a row is its (Y, Z) pair."""
    ys = [y_of(rows[p]) for p in group]
    zs = [z_of(rows[p]) for p in group]
    present = set(zip(ys, zs))
    for a, b in itertools.combinations(range(len(group)), 2):
        if (ys[b], zs[a]) not in present or (ys[a], zs[b]) not in present:
            return group[a], group[b]


def find_violating_pair(relation: Relation, clause: MvdClause) -> Optional[tuple]:
    """First row pair (in row order) witnessing a failure, else ``None``.

    The pair ``(t, t2)`` is rows ``i`` and ``j`` for the least ``(i, j)``,
    ``i < j``, such that the rows agree on X and swapping their Y values
    gives a row the relation lacks.  Only the X-groups that fail the
    product count are searched.
    """
    _require_same_universe(relation, clause)
    if clause.y_mask == 0 or clause.z_mask == 0:
        return None
    failing = _failing_groups(relation, clause)
    if not failing:
        return None
    rows = relation.rows
    y_of, z_of = _projection(clause.y_mask), _projection(clause.z_mask)
    i, j = min(_first_violation(group, rows, y_of, z_of) for group in failing)
    return rows[i], rows[j]


def binary_row(mask: int, arity: int) -> Row:
    """The "0"/"1" row whose value at position i is "1" exactly when bit i
    of ``mask`` is set."""
    return tuple(format(mask, f"0{arity}b")[::-1])


# byte 0/1 (a position's equality test) -> the digit "0"/"1"
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def agreement_mask(t: Row, t2: Row) -> int:
    """Mask of the positions where two rows of equal arity agree (bit i:
    position i), read in one pass over the columns in C."""
    return int(bytes(map(operator.eq, t, t2)).translate(_DIGITS)[::-1], 2)


def interp_to_pair(interp: Interpretation) -> Relation:
    """Two rows over ``interp``'s universe agreeing exactly on its true
    variables.

    Disagreeing columns take the fresh values "0"/"1"; any injective choice
    works.  For a proper dependency the pair fails the dependency exactly
    when the assignment violates the matching clause, and the all-true
    assignment collapses to a single-row relation.
    """
    n = interp.universe.n
    return Relation(interp.universe, (("0",) * n, binary_row(interp.false_mask, n)))


def _csv_records(text: str):
    """The CSV records of ``text``.  A line the csv module rejects (such as
    one with a field over its size limit) raises SchemaError with its number."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(str(exc), row=reader.line_num) from None


def read_csv(text: str) -> Relation:
    """Parse CSV text (header row first) into a relation.

    The stripped header names are the relation's universe.  Duplicate rows
    collapse silently; ragged rows are rejected with their row number, and
    a header that is not a valid universe (an empty, duplicate or reserved
    name, or one with inner whitespace) without one.
    """
    records = _csv_records(text)
    try:
        header = next(records)
    except StopIteration:
        raise SchemaError("empty input, expected a header row") from None
    if not header or any(not name.strip() for name in header):
        raise SchemaError("header row has an empty attribute name")
    try:
        universe = VariableUniverse(name.strip() for name in header)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    rows = []
    for i, row in enumerate(records, start=2):
        if not row:
            continue
        if len(row) != universe.n:
            raise SchemaError(
                f"expected {universe.n} values, found {len(row)}", row=i
            )
        rows.append(tuple(row))
    return Relation(universe, rows)
