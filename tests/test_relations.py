"""Relation semantics, violating-pair search and CSV ingestion."""

import csv
import random

import pytest

from mvdlearn import (
    AttributeSchema,
    Interpretation,
    Relation,
    SchemaError,
    UniverseMismatchError,
    agreement_interp,
    find_violating_pair,
    interp_to_pair,
    mvd_holds,
    parse_clause,
    read_csv,
    violates,
)
from mvdlearn.core import enum_masks

from conftest import numbered_universe, random_proper_clause


def holds_direct(relation, clause):
    """Independent holds-in-relation check: all ordered pairs, by names."""
    u = clause.universe
    attrs = relation.schema.attributes
    x = set(u.names_of(clause.x_mask))
    y = set(u.names_of(clause.y_mask))
    if not y or not clause.z_mask:
        return True
    rows = set(relation.rows)
    for t in rows:
        for t2 in rows:
            if all(t[i] == t2[i] for i, a in enumerate(attrs) if a in x):
                swapped = tuple(
                    t2[i] if a in y else t[i] for i, a in enumerate(attrs)
                )
                if swapped not in rows:
                    return False
    return True


def test_single_row_relation_satisfies_everything():
    u = numbered_universe(3)
    schema = AttributeSchema(u.names)
    r = Relation(schema, [("a", "b", "c")])
    rng = random.Random(1)
    for _ in range(20):
        assert mvd_holds(r, random_proper_clause(u, rng))


def test_two_row_violation_and_pair():
    u = VariableUniverse = numbered_universe(3)
    schema = AttributeSchema(u.names)
    r = Relation(schema, [("a", "b", "c"), ("a", "b2", "c2")])
    clause = parse_clause("1 -> 2 | 3", u)
    assert not mvd_holds(r, clause)
    assert find_violating_pair(r, clause) == (("a", "b", "c"), ("a", "b2", "c2"))
    # adding both swapped rows repairs it
    repaired = Relation(
        schema,
        [("a", "b", "c"), ("a", "b2", "c2"), ("a", "b2", "c"), ("a", "b", "c2")],
    )
    assert mvd_holds(repaired, clause)
    assert find_violating_pair(repaired, clause) is None


def test_empty_side_clause_holds_everywhere():
    u = numbered_universe(3)
    schema = AttributeSchema(u.names)
    r = Relation(schema, [("a", "b", "c"), ("x", "y", "z")])
    assert mvd_holds(r, parse_clause("1 2 -> 3 | -", u))
    assert mvd_holds(r, parse_clause("* -> F", u))


def test_mvd_holds_cross_checked_against_direct_definition():
    rng = random.Random(9)
    for _ in range(150):
        n = rng.randrange(2, 5)
        u = numbered_universe(n)
        schema = AttributeSchema(u.names)
        rows = [
            tuple(str(rng.randrange(2)) for _ in range(n))
            for _ in range(rng.randrange(1, 6))
        ]
        r = Relation(schema, rows)
        clause = random_proper_clause(u, rng)
        assert mvd_holds(r, clause) == holds_direct(r, clause)
        assert (find_violating_pair(r, clause) is None) == mvd_holds(r, clause)


def test_mvd_holds_invariant_under_row_order_and_duplicates():
    u = numbered_universe(3)
    schema = AttributeSchema(u.names)
    rows = [("a", "b", "c"), ("a", "b2", "c2"), ("d", "e", "f")]
    clause = parse_clause("1 -> 2 | 3", u)
    base = mvd_holds(Relation(schema, rows), clause)
    assert mvd_holds(Relation(schema, rows[::-1]), clause) == base
    assert mvd_holds(Relation(schema, rows + rows), clause) == base


def test_find_violating_pair_returns_first_in_row_order():
    u = numbered_universe(3)
    schema = AttributeSchema(u.names)
    # rows 1 and 3 (0-based 1, 3) share an X value and violate; the earlier
    # X-group ("a") is repaired by including the swaps
    rows = [
        ("a", "b", "c"),
        ("g", "h", "i"),
        ("a", "b", "c2"),
        ("g", "h2", "i2"),
        ("a", "b", "c3"),
    ]
    clause = parse_clause("1 -> 2 | 3", u)
    assert find_violating_pair(Relation(schema, rows), clause) == (
        ("g", "h", "i"),
        ("g", "h2", "i2"),
    )


def test_agreement_interp():
    u = numbered_universe(5)
    t = ("a", "x", "x", "b", "c")
    t2 = ("d", "x", "x", "e", "f")
    assert agreement_interp(t, t2, u).to_bits() == "01100"
    assert agreement_interp(t, t, u).mask == u.full_mask
    t3 = ("p", "q", "r", "s", "t")
    assert agreement_interp(t, t3, u).mask == 0


def test_schema_alignment_enforced():
    u = numbered_universe(3)
    other = AttributeSchema(("A", "B", "C"))
    r = Relation(other, [("a", "b", "c")])
    with pytest.raises(UniverseMismatchError):
        mvd_holds(r, parse_clause("1 -> 2 | 3", u))


def test_read_csv():
    r = read_csv("NAME,BOOK,PET\nAlice,Hamlet,Dog\n")
    assert r.schema.attributes == ("NAME", "BOOK", "PET")
    assert r.rows == (("Alice", "Hamlet", "Dog"),)

    header_only = read_csv("A,B\n")
    assert len(header_only) == 0

    dup = read_csv("A,B\n1,2\n1,2\n")
    assert len(dup) == 1

    quoted = read_csv('A,B\n"x,y",z\n')
    assert quoted.rows == (("x,y", "z"),)


def test_read_csv_errors():
    with pytest.raises(SchemaError):
        read_csv("")
    with pytest.raises(SchemaError):
        read_csv("A,A\n1,2\n")
    with pytest.raises(SchemaError, match="row 3"):
        read_csv("A,B\n1,2\n1\n")
    # a field over the csv module's size limit is a schema error, not a crash
    too_long = "x" * (csv.field_size_limit() + 1)
    with pytest.raises(SchemaError, match="row 2: field larger than field limit"):
        read_csv(f"A,B\n{too_long},1\n")


def test_pair_bridge_identity_exhaustive():
    # dependency failure on the constructed pair matches clause violation,
    # for every assignment and every proper clause, universes up to 5
    for n in range(2, 6):
        u = numbered_universe(n)
        schema = AttributeSchema(u.names)
        clauses = []
        rng = random.Random(n)
        for _ in range(40):
            clauses.append(random_proper_clause(u, rng))
        for mask in enum_masks(n):
            interp = Interpretation(u, mask)
            pair = interp_to_pair(interp, schema)
            for clause in clauses:
                assert mvd_holds(pair, clause) == (not violates(interp, clause))
