"""Relation semantics, violating-pair search and CSV ingestion."""

import csv
import random

import pytest

from mvdlearn import (
    Interpretation,
    Relation,
    SchemaError,
    UniverseMismatchError,
    VariableUniverse,
    find_violating_pair,
    interp_to_pair,
    mvd_holds,
    parse_clause,
    read_csv,
    violates,
)
from mvdlearn.cli import main
from mvdlearn.core import bit_indices
from mvdlearn.relations import agreement_mask, binary_row

from conftest import (
    enumerate_mvd_clauses,
    numbered_universe,
    random_block_formula,
    random_proper_clause,
    random_target,
)
from reference import agreement_interp, enum_masks


def holds_direct(relation, clause):
    """Independent holds-in-relation check: all ordered pairs, by names."""
    u = clause.universe
    attrs = relation.universe.names
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
    r = Relation(u, [("a", "b", "c")])
    rng = random.Random(1)
    for _ in range(20):
        assert mvd_holds(r, random_proper_clause(u, rng))


def test_two_row_violation_and_pair():
    u = numbered_universe(3)
    r = Relation(u, [("a", "b", "c"), ("a", "b2", "c2")])
    clause = parse_clause("1 -> 2 | 3", u)
    assert not mvd_holds(r, clause)
    assert find_violating_pair(r, clause) == (("a", "b", "c"), ("a", "b2", "c2"))
    # adding both swapped rows repairs it
    repaired = Relation(
        u,
        [("a", "b", "c"), ("a", "b2", "c2"), ("a", "b2", "c"), ("a", "b", "c2")],
    )
    assert mvd_holds(repaired, clause)
    assert find_violating_pair(repaired, clause) is None


def test_empty_side_clause_holds_everywhere():
    u = numbered_universe(3)
    r = Relation(u, [("a", "b", "c"), ("x", "y", "z")])
    assert mvd_holds(r, parse_clause("1 2 -> 3 | -", u))
    assert mvd_holds(r, parse_clause("* -> F", u))


def test_mvd_holds_cross_checked_against_direct_definition():
    rng = random.Random(9)
    for _ in range(150):
        n = rng.randrange(2, 5)
        u = numbered_universe(n)
        rows = [
            tuple(str(rng.randrange(2)) for _ in range(n))
            for _ in range(rng.randrange(1, 6))
        ]
        r = Relation(u, rows)
        clause = random_proper_clause(u, rng)
        assert mvd_holds(r, clause) == holds_direct(r, clause)
        assert (find_violating_pair(r, clause) is None) == mvd_holds(r, clause)


def test_mvd_holds_invariant_under_row_order_and_duplicates():
    u = numbered_universe(3)
    rows = [("a", "b", "c"), ("a", "b2", "c2"), ("d", "e", "f")]
    clause = parse_clause("1 -> 2 | 3", u)
    base = mvd_holds(Relation(u, rows), clause)
    assert mvd_holds(Relation(u, rows[::-1]), clause) == base
    assert mvd_holds(Relation(u, rows + rows), clause) == base


def test_find_violating_pair_returns_first_in_row_order():
    u = numbered_universe(3)
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
    assert find_violating_pair(Relation(u, rows), clause) == (
        ("g", "h", "i"),
        ("g", "h2", "i2"),
    )


def _reference_violating_pair(relation, clause):
    """The all-pairs swap search the product count replaced, kept as the
    reference: every pair of each X-group, in row order."""
    if clause.y_mask == 0 or clause.z_mask == 0:
        return None

    def swap(t, t2):
        return tuple(t2[i] if clause.y_mask >> i & 1 else t[i] for i in range(len(t)))

    x_idx = tuple(bit_indices(clause.x_mask))
    groups = {}
    for pos, row in enumerate(relation.rows):
        groups.setdefault(tuple(row[i] for i in x_idx), []).append(pos)
    rows = relation.rows
    for i in range(len(rows)):
        for j in groups[tuple(rows[i][k] for k in x_idx)]:
            if j > i and (swap(rows[i], rows[j]) not in relation
                          or swap(rows[j], rows[i]) not in relation):
                return (rows[i], rows[j])
    return None


def test_violating_pair_matches_the_reference_search_on_every_clause():
    rng = random.Random(23)
    verdicts = set()
    largest_group = 0
    for _ in range(60):
        n = rng.randrange(2, 7)
        u = numbered_universe(n)
        values = [rng.randrange(1, 4) for _ in range(n)]
        rows = [
            tuple(str(rng.randrange(values[c])) for c in range(n))
            for _ in range(rng.randrange(1, 41))
        ]
        r = Relation(u, rows)
        for clause in enumerate_mvd_clauses(u):
            expected = _reference_violating_pair(r, clause)
            assert find_violating_pair(r, clause) == expected, (rows, clause)
            assert mvd_holds(r, clause) == (expected is None)
            if clause.y_mask and clause.z_mask:
                verdicts.add(expected is None)
                x_values = [tuple(row[i] for i in bit_indices(clause.x_mask))
                            for row in r.rows]
                largest_group = max(largest_group, max(map(x_values.count, x_values)))
    # the random relations reach both verdicts on proper clauses, and
    # X-groups far larger than a pair
    assert verdicts == {True, False}
    assert largest_group >= 20


def test_earliest_pair_can_sit_in_a_later_group():
    # group "a" (rows 0, 3, 4) starts first and fails the count, but its
    # earliest violating pair is (3, 4); the least pair (1, 2) lies in
    # group "g", which starts later
    u = numbered_universe(3)
    rows = [
        ("a", "b", "c"),
        ("g", "h", "i"),
        ("g", "h2", "i2"),
        ("a", "b2", "c"),
        ("a", "b", "c2"),
    ]
    r = Relation(u, rows)
    clause = parse_clause("1 -> 2 | 3", u)
    assert find_violating_pair(r, clause) == (rows[1], rows[2])
    assert _reference_violating_pair(r, clause) == (rows[1], rows[2])
    without_g = Relation(r.universe, [rows[0], rows[3], rows[4]])
    assert find_violating_pair(without_g, clause) == (rows[3], rows[4])


def _product_rows(x, ys, zs):
    return [(x, y, z) for y in ys for z in zs]


def test_large_product_relation(tmp_path, capsys):
    # one 100 x 120 X-group plus 200 groups of 2 x 2: 12,800 rows for which
    # A -> B | C holds; dropping one row of a small group violates it
    rows = _product_rows("a0", [f"b{k}" for k in range(100)], [f"c{k}" for k in range(120)])
    for g in range(1, 201):
        rows += _product_rows(f"a{g}", [f"b{g}", f"b{g}'"], [f"c{g}", f"c{g}'"])
    assert len(rows) == 12800
    dropped = ("a7", "b7'", "c7'")
    violated_rows = [row for row in rows if row != dropped]
    u = VariableUniverse(("A", "B", "C"))
    clause = parse_clause("A -> B | C", u)
    expected_pair = (("a7", "b7", "c7'"), ("a7", "b7'", "c7"))

    holding = Relation(u, rows)
    assert mvd_holds(holding, clause)
    assert find_violating_pair(holding, clause) is None
    violated = Relation(u, violated_rows)
    assert not mvd_holds(violated, clause)
    assert find_violating_pair(violated, clause) == expected_pair

    for name, data in (("holds.csv", rows), ("violated.csv", violated_rows)):
        path = tmp_path / name
        path.write_text("A,B,C\n" + "".join(",".join(row) + "\n" for row in data))
        assert main(["check-mvd", "--relation", str(path), "--mvd", "A -> B | C"]) == 0
    assert capsys.readouterr().out == (
        "holds: A -> B | C\n"
        "violated: A -> B | C\n"
        "pair: a7,b7,c7' / a7,b7',c7\n"
    )


def test_agreement_interp():
    u = numbered_universe(5)
    t = ("a", "x", "x", "b", "c")
    t2 = ("d", "x", "x", "e", "f")
    assert agreement_interp(t, t2, u).to_bits() == "01100"
    assert agreement_interp(t, t, u).mask == u.full_mask
    t3 = ("p", "q", "r", "s", "t")
    assert agreement_interp(t, t3, u).mask == 0


def test_agreement_mask_matches_agreement_interp_on_text_values():
    # values sharing a prefix must differ: "1" / "10", "" / "0"
    rng = random.Random(4)
    alphabet = ["0", "1", "10", "01", "100", "", "a,b"]
    for n in range(1, 9):
        u = numbered_universe(n)
        for size in range(3, len(alphabet) + 1):
            for _ in range(10):
                t, t2 = (tuple(rng.choice(alphabet[:size]) for _ in range(n)) for _ in "ab")
                assert agreement_mask(t, t2) == agreement_interp(t, t2, u).mask
    assert agreement_mask(("1", "10", ""), ("10", "10", "0")) == 0b010


def test_schema_alignment_enforced():
    u = numbered_universe(3)
    other = VariableUniverse(("A", "B", "C"))
    r = Relation(other, [("a", "b", "c")])
    for check in (mvd_holds, find_violating_pair):
        with pytest.raises(UniverseMismatchError, match="values over different universes"):
            check(r, parse_clause("1 -> 2 | 3", u))


def test_ragged_row_names_the_universe():
    u = numbered_universe(3)
    with pytest.raises(SchemaError) as err:
        Relation(u, [("a", "b", "c"), ("a", "b")])
    assert (str(err.value), err.value.row) == (
        "row 2: row has 2 values, the universe has 3 attributes", 2
    )


def test_read_csv():
    r = read_csv("NAME,BOOK,PET\nAlice,Hamlet,Dog\n")
    assert r.universe.names == ("NAME", "BOOK", "PET")
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
    # the header is the relation's universe, and its names must be valid
    # variable names; such faults carry no row number
    for header, message in (
        ("A,A", "duplicate variable name: 'A'"),
        ("A,F", "variable name 'F' is a reserved token"),
        ("a b,c", "bad variable name: 'a b'"),
    ):
        with pytest.raises(SchemaError) as err:
            read_csv(f"{header}\n1,2\n")
        assert (str(err.value), err.value.row) == (message, None)
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
        clauses = []
        rng = random.Random(n)
        for _ in range(40):
            clauses.append(random_proper_clause(u, rng))
        for mask in enum_masks(n):
            interp = Interpretation(u, mask)
            pair = interp_to_pair(interp)
            for clause in clauses:
                assert mvd_holds(pair, clause) == (not violates(interp, clause))


def test_interp_to_pair_is_two_binary_rows_and_proper_blocks_are_kept():
    # the all-"0" row is built directly; the pair is still the relation of
    # the two binary rows, and the all-true assignment gives one row
    for n in range(1, 7):
        u = numbered_universe(n)
        for mask in range(1 << n):
            interp = Interpretation(u, mask)
            pair = interp_to_pair(interp)
            expected = Relation(u, (binary_row(0, n), binary_row(interp.false_mask, n)))
            assert pair.rows == expected.rows
            assert len(pair) == len(expected) == (1 if mask == u.full_mask else 2)
            assert pair == expected
            assert hash(pair) == hash(expected)
    # a formula's proper blocks are built once and read again as they are
    rng = random.Random(1981)
    for trial in range(100):
        u = numbered_universe(2 + trial % 5)
        for f in (random_block_formula(u, rng), random_target(u, rng)):
            proper = f.proper_blocks()
            assert f.proper_blocks() is proper
            assert proper == tuple(block for block in f.blocks if len(block[1]) > 1)
