"""Database-side semantics: schemas, relations, and dependency checks.

A relation is a set of string-valued rows over an attribute schema.  The
dependency ``X -> Y | Z`` (sides partitioning the schema) holds in a
relation when, for any two rows agreeing on X, swapping their Y values
produces a row that is also present.  Dependencies with an empty side hold
in every relation, since the swap reproduces an existing row.

Attribute schemas align positionally with a variable universe so the same
clause values can be checked against assignments and against data.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import Interpretation, MvdClause, VariableUniverse, bit_indices
from .errors import SchemaError, UniverseMismatchError

Row = tuple  # one text value per attribute


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered list of distinct attribute names; values are opaque text."""

    attributes: tuple

    def __init__(self, attributes: Iterable[str]):
        attributes = tuple(attributes)
        if not attributes:
            raise SchemaError("schema needs at least one attribute")
        if len(set(attributes)) != len(attributes):
            raise SchemaError("duplicate attribute names in schema")
        object.__setattr__(self, "attributes", attributes)

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def to_universe(self) -> VariableUniverse:
        """The variable universe positionally aligned with this schema."""
        return VariableUniverse(self.attributes)


class Relation:
    """A schema plus a duplicate-free row sequence (insertion order kept)."""

    __slots__ = ("schema", "rows", "_row_set")

    def __init__(self, schema: AttributeSchema, rows: Iterable[Row] = ()):
        self.schema = schema
        deduped = {}
        for i, row in enumerate(rows):
            row = tuple(row)
            if len(row) != schema.arity:
                raise SchemaError(
                    f"row has {len(row)} values, schema has {schema.arity}", row=i + 1
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
            and self.schema == other.schema
            and self._row_set == other._row_set
        )

    def __hash__(self):
        return hash((self.schema, self._row_set))

    def __repr__(self):
        return f"Relation({self.schema.attributes!r}, {len(self.rows)} rows)"


def _check_alignment(relation: Relation, clause: MvdClause) -> None:
    if clause.universe.names != relation.schema.attributes:
        raise UniverseMismatchError(
            "dependency universe does not match the relation schema"
        )


def _swap(t: Row, t2: Row, y_mask: int) -> Row:
    # t's values outside Y, t2's values on Y
    return tuple(
        t2[i] if y_mask >> i & 1 else t[i] for i in range(len(t))
    )


def mvd_holds(relation: Relation, clause: MvdClause) -> bool:
    """Whether the dependency holds in the relation.

    Rows are grouped by their X projection; within a group every ordered
    pair must have its Y-swapped combination present.  Empty Y or Z makes
    the swap reproduce an existing row, so those clauses hold trivially.
    """
    _check_alignment(relation, clause)
    if clause.y_mask == 0 or clause.z_mask == 0:
        return True
    return find_violating_pair(relation, clause) is None


def find_violating_pair(relation: Relation, clause: MvdClause) -> Optional[tuple]:
    """First row pair (in row order) witnessing a failure, else ``None``."""
    _check_alignment(relation, clause)
    if clause.y_mask == 0 or clause.z_mask == 0:
        return None
    x_idx = tuple(bit_indices(clause.x_mask))
    groups: dict[tuple, list[int]] = {}
    for pos, row in enumerate(relation.rows):
        groups.setdefault(tuple(row[i] for i in x_idx), []).append(pos)
    rows = relation.rows
    for i in range(len(rows)):
        key = tuple(rows[i][k] for k in x_idx)
        for j in groups[key]:
            if j <= i:
                continue
            t, t2 = rows[i], rows[j]
            if _swap(t, t2, clause.y_mask) not in relation or _swap(
                t2, t, clause.y_mask
            ) not in relation:
                return (t, t2)
    return None


def agreement_interp(t: Row, t2: Row, universe: VariableUniverse) -> Interpretation:
    """Assignment whose true variables are the positions where the rows agree."""
    if len(t) != universe.n or len(t2) != universe.n:
        raise UniverseMismatchError("row arity does not match the universe")
    mask = 0
    for i in range(universe.n):
        if t[i] == t2[i]:
            mask |= 1 << i
    return Interpretation(universe, mask)


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

    Duplicate rows collapse silently; ragged rows and duplicate header
    names are rejected with the offending row number.
    """
    records = _csv_records(text)
    try:
        header = next(records)
    except StopIteration:
        raise SchemaError("empty input, expected a header row") from None
    if not header or any(not name.strip() for name in header):
        raise SchemaError("header row has an empty attribute name")
    schema = AttributeSchema(tuple(name.strip() for name in header))
    rows = []
    for i, row in enumerate(records, start=2):
        if not row:
            continue
        if len(row) != schema.arity:
            raise SchemaError(
                f"expected {schema.arity} values, found {len(row)}", row=i
            )
        rows.append(tuple(row))
    return Relation(schema, rows)
