"""Semantics, entailment and text-format tests for the core module."""

import itertools
import pickle
import random
import types

import pytest
from hypothesis import given, strategies as st

from mvdlearn import (
    DEFAULT_ENUM_CAP,
    EnumerationCapError,
    HornClause,
    Interpretation,
    MvdClause,
    MvdFormula,
    ParseError,
    QuasiHorn2Clause,
    UniverseMismatchError,
    VariableUniverse,
    entails,
    equivalent,
    false_clause,
    find_counterexample,
    format_clause,
    format_formula,
    horn_to_mvd,
    horn_formula_to_mvd,
    mvd_to_quasi2,
    parse_clause,
    parse_formula,
    satisfies,
    violates,
)
from mvdlearn.core import (
    _cache_key,
    bit_indices,
    block_broken,
    block_violators,
    canonical_select,
    clause_block,
    down_closure,
    meet_above,
    model_bitset,
    violator_bitset,
)

from conftest import (
    GOLDEN_TARGET_TEXT,
    entails_split,
    enumerate_horn_clauses,
    enumerate_quasi2_clauses,
    numbered_universe,
    random_block_formula,
    random_clause,
    random_definite_horn,
    random_target,
    split_satisfied,
)
from reference import covers, enum_masks, format_mvd_formula, intersect, names_of


# ---------------------------------------------------------------------------
# Independent direct-definition checkers (name-set based, no bitmask reuse)


def _direct_true_set(interp):
    return set(interp.true_names())


def _direct_clause_satisfied(true_names, clause):
    u = clause.universe
    all_names = set(u.names)
    false_names = all_names - true_names
    if isinstance(clause, MvdClause):
        x = set(u.names_of(clause.x_mask))
        y = set(u.names_of(clause.y_mask))
        z = set(u.names_of(clause.z_mask))
        if not x <= true_names:
            return True
        if y and z:
            return not (y & false_names and z & false_names)
        if y or z:
            side = y | z
            return not (len(false_names) == 1 and false_names <= side)
        return bool(false_names)
    if isinstance(clause, HornClause):
        ant = set(u.names_of(clause.antecedent))
        if not ant <= true_names:
            return True
        if clause.consequent is None:
            return False
        return u.names[clause.consequent] in true_names
    if isinstance(clause, QuasiHorn2Clause):
        ant = set(u.names_of(clause.antecedent))
        if not ant <= true_names:
            return True
        return any(u.names[v] in true_names for v in clause.consequents)
    raise TypeError(type(clause))


def entails_direct(formula, clause):
    """Entailment by explicit enumeration over name subsets."""
    names = formula.universe.names
    u = formula.universe
    for r in range(len(names) + 1):
        for combo in itertools.combinations(names, r):
            true_names = set(combo)
            if all(_direct_clause_satisfied(true_names, c) for c in formula.clauses):
                if not _direct_clause_satisfied(true_names, clause):
                    return False
    return True


# ---------------------------------------------------------------------------
# Universes and interpretations


def test_universe_rejects_bad_names():
    with pytest.raises(ValueError):
        VariableUniverse([])
    with pytest.raises(ValueError):
        VariableUniverse(["a", "a"])
    with pytest.raises(ValueError):
        VariableUniverse(["a", ""])
    with pytest.raises(ValueError):
        VariableUniverse(["a", "->"])
    with pytest.raises(ValueError):
        VariableUniverse(["a", "b c"])


def test_names_of_matches_the_reference_for_every_mask():
    for n in range(1, 9):
        u = numbered_universe(n)
        for mask in range(1 << n):
            assert u.names_of(mask) == names_of(u, mask)


def test_universe_hash_follows_its_names():
    u = numbered_universe(4)
    assert hash(u) == hash(numbered_universe(4)) == hash(u.names)
    u.size_layers()
    copy = pickle.loads(pickle.dumps(u))
    assert copy == u and hash(copy) == hash(u)
    assert copy._layers is None  # rebuilt from the names, caches left behind
    # the cap travels with the universe but takes no part in its identity
    wide = VariableUniverse(u.names, cap=30)
    assert (u.cap, wide.cap) == (DEFAULT_ENUM_CAP, 30)
    assert wide == u and hash(wide) == hash(u)
    copy = pickle.loads(pickle.dumps(wide))
    assert copy.cap == 30 and copy == wide and hash(copy) == hash(wide)


def test_interpretation_bits_round_trip():
    u = numbered_universe(5)
    i = Interpretation.from_bits(u, "11100")
    assert i.true_names() == ("1", "2", "3")
    assert i.to_bits() == "11100"
    with pytest.raises(ParseError):
        Interpretation.from_bits(u, "111")
    with pytest.raises(ParseError):
        Interpretation.from_bits(u, "11102")
    # character i is "1" exactly when bit i of the mask is set
    for n in range(1, 11):
        u = numbered_universe(n)
        for mask in range(1 << n):
            bits = "".join("1" if mask >> i & 1 else "0" for i in range(n))
            assert Interpretation(u, mask).to_bits() == bits
            assert Interpretation.from_bits(u, bits).mask == mask


def test_universe_mismatch_rejected():
    a = Interpretation(numbered_universe(3), 0b101)
    b = Interpretation(VariableUniverse(["x", "y", "z"]), 0b011)
    with pytest.raises(UniverseMismatchError):
        intersect(a, b)


# ---------------------------------------------------------------------------
# covers / violates / satisfies


def test_covers_examples():
    u = numbered_universe(5)
    c = parse_clause("1 2 3 -> 4 | 5", u)
    assert covers(Interpretation.from_bits(u, "11100"), c)
    empty_ant = parse_clause("- -> 1 2 3 | 4 5", u)
    assert covers(Interpretation(u, 0), empty_ant)
    one = parse_clause("1 -> 2 3 4 | 5", u)
    assert not covers(Interpretation(u, 0), one)


def test_violates_case_analysis():
    u = numbered_universe(5)
    proper = parse_clause("1 2 3 -> 4 | 5", u)
    assert violates(Interpretation.from_bits(u, "11100"), proper)
    assert not violates(Interpretation.from_bits(u, "11110"), proper)

    all_true = Interpretation(u, u.full_mask)
    assert violates(all_true, false_clause(u))
    assert not violates(Interpretation.from_bits(u, "11110"), false_clause(u))

    one_empty = parse_clause("1 2 3 5 -> 4 | -", u)
    assert violates(Interpretation.from_bits(u, "11101"), one_empty)
    assert not violates(all_true, one_empty)
    assert not violates(Interpretation.from_bits(u, "11100"), one_empty)


def test_violates_implies_covers_random():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(2, 7)
        u = numbered_universe(n)
        c = random_clause(u, rng)
        i = Interpretation(u, rng.getrandbits(n) & u.full_mask)
        if violates(i, c):
            assert covers(i, c)


def test_satisfies_golden_formula():
    target = parse_formula(GOLDEN_TARGET_TEXT, "mvd")
    u = target.universe
    assert satisfies(Interpretation(u, 0), MvdFormula(u))
    assert not satisfies(Interpretation.from_bits(u, "11100"), target)
    assert satisfies(Interpretation.from_bits(u, "11111"), target)


def test_proper_clause_matches_propositional_split_reading():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randrange(2, 7)
        u = numbered_universe(n)
        c = random_clause(u, rng, allow_degenerate=False)
        for m in range(1 << n):
            i = Interpretation(u, m)
            split = split_satisfied(m, c.x_mask, c.y_mask, c.z_mask)
            assert (not violates(i, c)) == split


def test_empty_side_clause_differs_from_split_reading():
    u = numbered_universe(4)
    c = parse_clause("1 -> 2 3 4 | -", u)
    witness = Interpretation.from_bits(u, "1110")
    assert violates(witness, c)
    assert split_satisfied(witness.mask, c.x_mask, c.y_mask, 0)


# ---------------------------------------------------------------------------
# intersect


@given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
def test_intersect_properties(a, b, c):
    u = numbered_universe(5)
    ia, ib, ic = (Interpretation(u, m) for m in (a, b, c))
    assert intersect(ia, ib) == intersect(ib, ia)
    assert intersect(intersect(ia, ib), ic) == intersect(ia, intersect(ib, ic))
    assert intersect(ia, ia) == ia
    assert intersect(ia, ib).mask & ia.mask == intersect(ia, ib).mask
    assert intersect(ia, Interpretation(u, 0)).mask == 0


def test_intersect_golden_example():
    u = numbered_universe(5)
    i1 = Interpretation.from_bits(u, "11100")
    i2 = Interpretation.from_bits(u, "01101")
    assert intersect(i1, i2).to_bits() == "01100"


# ---------------------------------------------------------------------------
# entails / find_counterexample


def test_entails_golden_examples():
    target = parse_formula(GOLDEN_TARGET_TEXT, "mvd")
    u = target.universe
    assert entails(target, parse_clause("2 3 4 5 -> 1 | -", u))
    assert not entails(target, parse_clause("* -> F", u))
    empty = MvdFormula(u)
    assert not entails(empty, parse_clause("1 -> 2 | 3 4 5", u))


def test_entails_cross_checked_against_direct_definition():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randrange(2, 6)
        u = numbered_universe(n)
        formula = random_target(u, rng, max_clauses=3)
        clause = random_clause(u, rng)
        assert entails(formula, clause) == entails_direct(formula, clause)
        horn = random_definite_horn(u, rng, max_clauses=2)
        for hc in horn.clauses:
            assert entails(formula, hc) == entails_direct(formula, hc)


def test_entails_supports_every_clause_kind():
    u = numbered_universe(4)
    f = parse_formula("vars: 1 2 3 4\n1 -> 2 | 3 4\n", "mvd")
    assert entails(f, QuasiHorn2Clause(u, 0b0001, frozenset((1, 2))))
    assert entails_split(f, 0b0001, 0b0010, 0b1100)
    assert not entails(f, HornClause(u, 0b0001, 1))


def test_find_counterexample_contract():
    target = parse_formula(GOLDEN_TARGET_TEXT, "mvd")
    u = target.universe
    assert find_counterexample(target, target) is None

    small = MvdFormula(u, [parse_clause("2 3 4 5 -> 1 | -", u)])
    got = find_counterexample(target, small)
    assert satisfies(got, target) != satisfies(got, small)
    # order-minimal: no earlier assignment separates them
    for m in enum_masks(u.n):
        if m == got.mask:
            break
        i = Interpretation(u, m)
        assert satisfies(i, target) == satisfies(i, small)

    empty = MvdFormula(u)
    only_false = MvdFormula(u, [false_clause(u)])
    assert find_counterexample(empty, only_false).mask == u.full_mask


def _scan_select(bits, n, rank):
    # reference: the canonical-order scan the teachers ran inline before
    # canonical_select
    for mask in enum_masks(n):
        if bits >> mask & 1:
            if rank == 0:
                return mask
            rank -= 1
    return None


def test_canonical_select_matches_the_reference_scan():
    rng = random.Random(2016)
    for n in range(1, 9):
        u = numbered_universe(n)
        size = 1 << n
        sets = [0, (1 << size) - 1] + [rng.getrandbits(size) for _ in range(40)]
        for bits in sets:
            # every rank, plus the first one past the end
            for rank in range(bits.bit_count() + 1):
                assert canonical_select(bits, u, rank) == _scan_select(bits, n, rank)
        assert canonical_select(0, u, 0) is None
        assert canonical_select((1 << size) - 1, u, size - 1) == (1 << n) - 1


def test_down_closure_matches_the_set_definition():
    rng = random.Random(2007)
    for n in range(1, 7):
        u = numbered_universe(n)
        size = 1 << n
        sets = [0, 1, 1 << (size - 1)] + [rng.getrandbits(size) >> rng.randrange(size)
                                          for _ in range(30)]
        for bits in sets:
            marked = [m for m in range(size) if bits >> m & 1]
            expected = 0
            for m in range(size):
                if any(s & m == m for s in marked):
                    expected |= 1 << m
            assert down_closure(bits, u) == expected


def test_meet_above_matches_the_plain_definition():
    rng = random.Random(1992)
    empty_meets = 0
    for n in range(1, 7):
        u = numbered_universe(n)
        size = 1 << n
        sets = [0, (1 << size) - 1, 1] + [rng.getrandbits(size) >> rng.randrange(size)
                                         for _ in range(30)]
        for bits in sets:
            marked = [m for m in range(size) if bits >> m & 1]
            for mask in range(size):
                above = [m for m in marked if m & mask == mask]
                expected = u.full_mask
                for m in above:
                    expected &= m
                empty_meets += not above
                assert meet_above(bits, u, mask) == expected, (bits, mask)
    assert empty_meets


def _every_clause(u):
    """Every clause of each of the three kinds over ``u``."""
    n = u.n
    clauses = [HornClause(u, u.full_mask, None)]
    for x in range(1 << n):
        outside = [v for v in range(n) if not x >> v & 1]
        clauses += [HornClause(u, x, v) for v in outside]
        clauses += [
            QuasiHorn2Clause(u, x, frozenset(consequents))
            for size in range(3)
            for consequents in itertools.combinations(outside, size)
        ]
    # every variable in X, Y or Z
    for sides in itertools.product(range(3), repeat=n):
        x, y, z = (
            sum(1 << v for v in range(n) if sides[v] == side) for side in range(3)
        )
        clauses.append(MvdClause(u, x, y, z))
    return clauses


def test_violator_bitset_matches_the_direct_definition_for_every_kind():
    # a full-cover clause is the block of its sides: the formula of that one
    # block has the clause's models and orientation class
    for n in range(1, 6):
        u = numbered_universe(n)
        clauses = _every_clause(u)
        for clause in clauses:
            expected = 0
            for m in range(1 << n):
                direct = _direct_clause_satisfied(set(u.names_of(m)), clause)
                assert satisfies(Interpretation(u, m), [clause]) == direct, (clause, m)
                if not direct:
                    expected |= 1 << m
            assert violator_bitset(clause) == expected, clause
            if isinstance(clause, MvdClause):
                formula = MvdFormula.from_blocks(u, [clause_block(clause)])
                assert model_bitset(formula) == ((1 << (1 << n)) - 1) ^ expected, clause
                assert {c.orientation_key() for c in formula.clauses} == {
                    clause.orientation_key()
                }, clause


def test_model_bitset_and_superset_pattern_match_the_plain_definitions():
    # plain definitions: a model satisfies every clause, assignment by
    # assignment; a superset pattern marks the masks containing the mask
    rng = random.Random(1024)
    for n in range(1, 7):
        u = numbered_universe(n)
        interps = [Interpretation(u, m) for m in range(1 << n)]
        for mask in range(1 << n):  # the empty mask included
            expected = sum(1 << m for m in range(1 << n) if m & mask == mask)
            assert u.superset_pattern(mask) == expected
        clauses = _every_clause(u)
        formulas = [(clause,) for clause in clauses] + [
            tuple(rng.choice(clauses) for _ in range(size))
            for size in range(9)
            for _ in range(10)
        ]
        for formula in formulas:
            expected = sum(1 << i.mask for i in interps if satisfies(i, formula))
            got = model_bitset(types.SimpleNamespace(universe=u, clauses=formula))
            assert got == expected, formula


def test_block_formulas_match_the_clauses_they_stand_for():
    # clauses in order (each block's parts, `* -> F` for a block of no
    # part) with exact dedup, one violator set per block, and the proper
    # part as blocks
    rng = random.Random(1981)
    seen = {"one-part block": 0, "repeated block": 0, "* -> F block": 0}
    for trial in range(300):
        u = numbered_universe(2 + trial % 5)
        full = u.full_mask
        f = random_block_formula(u, rng)
        expected = []
        for x, parts in f.blocks:
            block = [MvdClause(u, x, y, full ^ x ^ y) for y in parts or (0,)]
            expected.extend(block)
            violators = 0
            for m in range(1 << u.n):
                broken = any(violates(Interpretation(u, m), c) for c in block)
                violators |= broken << m
                if m & x == x:
                    assert block_broken(full ^ m, parts) == broken
            assert block_violators(u, x, parts) == violators
            seen["one-part block"] += len(parts) == 1
        plain = MvdFormula(u, expected)
        assert f.clauses == plain.clauses
        assert model_bitset(f) == model_bitset(plain)
        proper = MvdFormula.from_blocks(u, f.proper_blocks())
        assert {c.orientation_key() for c in proper.clauses} == {
            c.orientation_key() for c in f.clauses if c.is_proper
        }
        seen["repeated block"] += len(set(f.blocks)) < len(f.blocks)
        seen["* -> F block"] += (full, ()) in f.blocks
    assert all(seen.values()), seen


def _set_partitions(bits):
    """Every partition of the variable list ``bits`` into parts, each part a
    mask."""
    if not bits:
        yield []
        return
    first = 1 << bits[0]
    for rest in _set_partitions(bits[1:]):
        yield [first, *rest]
        for i, part in enumerate(rest):
            yield [*rest[:i], part | first, *rest[i + 1:]]


def test_block_violators_match_block_broken_on_every_partition():
    # every antecedent x and every split of V \ x into two or more parts,
    # in two part orders, against the per-mask definition
    bell = [1, 1, 2, 5, 15, 52, 203]
    for n in range(1, 6):
        u = numbered_universe(n)
        full = u.full_mask
        checked = 0
        for x in range(1 << n):
            for parts in _set_partitions(list(bit_indices(full ^ x))):
                if len(parts) < 2:
                    continue
                expected = sum(
                    1 << m for m in range(1 << n)
                    if m & x == x and block_broken(full ^ m, parts)
                )
                assert block_violators(u, x, tuple(parts)) == expected, (x, parts)
                assert block_violators(u, x, tuple(parts[::-1])) == expected, (x, parts)
                checked += 1
        # Bell(n + 1) blocks in all, less the 2**n with fewer than two parts
        assert checked == bell[n + 1] - (1 << n)


def test_two_false_is_every_mask_below_the_top_two_layers():
    for n in range(1, 13):
        u = numbered_universe(n)
        layers = u.size_layers()
        assert u.two_false() == ((1 << (1 << n)) - 1) ^ layers[n] ^ layers[n - 1]


def test_proper_model_sets_leave_the_size_layers_unbuilt():
    # the two-false set comes from the top masks; the size layers (n + 1
    # sets of 2**n bits) are built only for a canonical select
    rng = random.Random(1648)
    for n in range(3, 9):
        u = numbered_universe(n)
        formula = random_target(u, rng, allow_degenerate=False)
        clause = random_clause(u, rng, allow_degenerate=False)
        assert formula.proper_blocks() and clause.is_proper
        model_bitset(formula)
        entails(formula, clause)
        assert u._two_false is not None
        assert u._layers is None


def test_models_with_nonmodel_intersection_cover_the_universe():
    # two models of the same formula whose intersection is not a model can
    # only disagree where they jointly cover everything
    rng = random.Random(71)
    checked = 0
    for _ in range(200):
        n = rng.randrange(2, 7)
        u = numbered_universe(n)
        formula = random_target(u, rng, max_clauses=4)
        a = Interpretation(u, rng.getrandbits(n) & u.full_mask)
        b = Interpretation(u, rng.getrandbits(n) & u.full_mask)
        if not (satisfies(a, formula) and satisfies(b, formula)):
            continue
        if satisfies(intersect(a, b), formula):
            continue
        assert a.mask | b.mask == u.full_mask
        checked += 1
    assert checked > 5


def test_the_violator_cache_holds_the_last_model_sets_clauses_only():
    rng = random.Random(2024)
    for trial in range(40):
        u = numbered_universe(2 + trial % 5)
        f = random_target(u, rng, max_clauses=4)
        # g keeps some of f's clauses, drops the others and adds new ones
        g = MvdFormula(u, [c for c in f.clauses if rng.random() < 0.5]
                       + list(random_target(u, rng, max_clauses=3).clauses))
        # b1 and b2 are built from blocks, and b2 keeps some of b1's blocks
        b1 = random_block_formula(u, rng)
        b2 = MvdFormula.from_blocks(
            u,
            [block for block in b1.blocks if rng.random() < 0.5]
            + list(random_block_formula(u, rng).blocks),
        )
        for formula in (f, g, b1, b2, f):
            model_bitset(formula)
            assert u._violator_cache == {
                block: block_violators(u, *block) for block in formula.blocks
            }
        # a formula built from clauses is keyed by its clauses' blocks
        assert [_cache_key(c) for c in f.clauses] == list(f.blocks)
        before = dict(u._violator_cache)
        probes = [*random_target(u, rng, max_clauses=3).clauses,
                  HornClause(u, u.full_mask, None)]
        for clause in probes:
            violator_bitset(clause)
        assert u._violator_cache == before
        model_bitset(MvdFormula(u))
        assert u._violator_cache == {}


def test_find_counterexample_agrees_with_mutual_entailment():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randrange(2, 6)
        u = numbered_universe(n)
        f1 = random_target(u, rng, max_clauses=3)
        f2 = random_target(u, rng, max_clauses=3)
        absent = find_counterexample(f1, f2) is None
        mutual = all(entails(f2, c) for c in f1.clauses) and all(
            entails(f1, c) for c in f2.clauses
        )
        assert absent == mutual


def test_enumeration_cap():
    u = VariableUniverse(numbered_universe(6).names, cap=5)
    f = MvdFormula(u, [false_clause(u)])
    for check in (
        lambda: model_bitset(f),
        lambda: entails(f, false_clause(u)),
        lambda: equivalent(f, f),
        lambda: find_counterexample(f, f),
    ):
        with pytest.raises(EnumerationCapError,
                           match="universe has 6 variables, enumeration cap is 5"):
            check()
    f = parse_formula("vars: 1 2 3 4 5 6\n* -> F\n", cap=6)
    assert f.universe.cap == 6 and find_counterexample(f, f) is None


# ---------------------------------------------------------------------------
# clause translations


def test_horn_to_mvd_reference_example():
    u = numbered_universe(6)
    horn = HornClause(u, u.mask_of("135"), u.index("4"))
    got = set(horn_to_mvd(horn))
    expected = {
        parse_clause("1 2 3 5 6 -> 4 | -", u),
        parse_clause("1 3 5 -> 4 | 2 6", u),
    }
    assert got == expected


def test_horn_to_mvd_degenerate_collapse():
    u = numbered_universe(4)
    horn = HornClause(u, u.full_mask ^ 0b0100, 2)
    assert horn_to_mvd(horn) == (MvdClause(u, u.full_mask ^ 0b0100, 0b0100, 0),)
    top = HornClause(u, u.full_mask, None)
    assert horn_to_mvd(top) == (false_clause(u),)


def test_translations_preserve_models():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randrange(2, 7)
        u = numbered_universe(n)
        horn = random_definite_horn(u, rng, max_clauses=3)
        image = horn_formula_to_mvd(horn)
        assert model_bitset(horn) == model_bitset(image)

        clause = random_clause(u, rng)
        single = MvdFormula(u, [clause])
        distributed = mvd_to_quasi2(clause)
        merged = model_bitset(single)
        combined = (1 << (1 << n)) - 1
        for q in distributed:
            from mvdlearn.core import violator_bitset

            combined &= ~violator_bitset(q)
        assert merged == combined


def test_mvd_to_quasi2_reference_example():
    u = numbered_universe(6)
    clause = parse_clause("1 -> 2 3 | 4 5 6", u)
    got = {
        (q.antecedent, tuple(sorted(q.consequents))) for q in mvd_to_quasi2(clause)
    }
    pairs = [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]
    assert got == {(0b000001, p) for p in pairs}

    assert mvd_to_quasi2(false_clause(u)) == (
        QuasiHorn2Clause(u, u.full_mask, frozenset()),
    )
    degenerate = parse_clause("1 2 3 4 5 -> 6 | -", u)
    assert mvd_to_quasi2(degenerate) == (
        QuasiHorn2Clause(u, u.full_mask ^ 0b100000, frozenset((5,))),
    )


# ---------------------------------------------------------------------------
# clause invariants


def test_mvd_clause_invariants():
    u = numbered_universe(4)
    with pytest.raises(ValueError):
        MvdClause(u, 0b0011, 0b0110, 0b1000)  # overlap
    with pytest.raises(ValueError):
        MvdClause(u, 0b0011, 0b0100, 0)  # no coverage
    with pytest.raises(ValueError):
        MvdClause(u, 0b0011, 0, 0)  # both sides empty, X != V
    # an empty side is stored on the right
    c = MvdClause(u, 0b0011, 0, 0b1100)
    assert (c.y_mask, c.z_mask) == (0b1100, 0)


def test_orientation_twins_are_distinct_values():
    u = numbered_universe(5)
    a = parse_clause("1 2 3 -> 4 | 5", u)
    b = parse_clause("1 2 3 -> 5 | 4", u)
    assert a != b
    assert a.orientation_key() == b.orientation_key()
    assert len(MvdFormula(u, [a, b]).clauses) == 2


def test_horn_clause_invariants():
    u = numbered_universe(3)
    with pytest.raises(ValueError):
        HornClause(u, 0b011, 1)  # consequent inside antecedent
    with pytest.raises(ValueError):
        HornClause(u, 0b011, None)  # FALSE needs antecedent = V


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_formula_golden():
    target = parse_formula(GOLDEN_TARGET_TEXT, "mvd")
    assert target.universe.names == ("1", "2", "3", "4", "5")
    assert len(target.clauses) == 4
    first = target.clauses[0]
    assert (first.x_mask, first.y_mask, first.z_mask) == (0b11110, 0b00001, 0)


def test_parse_clause_examples():
    u = numbered_universe(5)
    c = parse_clause("2 3 4 5 -> 1 | -", u)
    assert (c.x_mask, c.y_mask, c.z_mask) == (0b11110, 0b00001, 0)
    assert parse_clause("* -> F", u) == false_clause(u)
    u6 = numbered_universe(6)
    c = parse_clause("1 -> 2 3 | 4 5 6", u6)
    assert (c.x_mask, c.y_mask, c.z_mask) == (0b000001, 0b000110, 0b111000)


def test_parse_clause_rejects_an_unknown_kind_as_a_value_error():
    # a caller's mistake, not malformed text: no ParseError and no line number
    u = numbered_universe(3)
    for text in ("1 -> 2 | 3", "1 -> 2"):
        with pytest.raises(ValueError, match="unknown clause kind: 'bogus'"):
            parse_clause(text, u, "bogus")


def test_every_quasi2_clause_round_trips_through_the_text_format():
    # a purely negative clause `X -> F` parses back for any X, not only *
    for n in range(1, 5):
        u = numbered_universe(n)
        for clause in enumerate_quasi2_clauses(u):
            assert parse_clause(format_clause(clause), u, "quasi2") == clause
        for clause in enumerate_horn_clauses(u):
            assert parse_clause(format_clause(clause), u, "horn") == clause
    u = numbered_universe(3)
    for kind in ("mvd", "horn"):
        with pytest.raises(ParseError, match="requires `\\*` on the left"):
            parse_clause("1 -> F", u, kind)


def _per_kind_format(clause):
    """The text of a Horn or two-literal clause, one branch per kind."""
    u = clause.universe
    ant = clause.antecedent
    left = "-" if ant == 0 else "*" if ant == u.full_mask else " ".join(u.names_of(ant))
    if isinstance(clause, HornClause):
        if clause.consequent is None:
            return "* -> F"
        return f"{left} -> {u.names[clause.consequent]}"
    if not clause.consequents:
        return f"{left} -> F"
    return f"{left} -> " + " ".join(u.names[v] for v in sorted(clause.consequents))


def test_horn_and_quasi2_clauses_print_as_the_per_kind_formatter():
    for n in range(1, 6):
        u = VariableUniverse([f"v{n - i}" for i in range(n)])  # names not sorted
        clauses = [*enumerate_horn_clauses(u), *enumerate_quasi2_clauses(u)]
        for clause in clauses:
            assert format_clause(clause) == _per_kind_format(clause), clause


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_formula("1 -> 2 | 3\n", "mvd")
    with pytest.raises(ParseError, match="line 2"):
        parse_formula("vars: 1 2 3\n1 -> 9 | 2 3\n", "mvd")
    with pytest.raises(ParseError, match="line 3"):
        parse_formula("vars: 1 2 3\n1 -> 2 | 3\n1 -> 2 | -\n", "mvd")
    with pytest.raises(ParseError):
        parse_formula("", "mvd")


def test_format_round_trip():
    target = parse_formula(GOLDEN_TARGET_TEXT, "mvd")
    text = format_formula(target)
    again = parse_formula(text, "mvd")
    assert equivalent(target, again)
    assert format_formula(again) == text


def test_format_collapses_orientation_twins():
    u = numbered_universe(5)
    f = MvdFormula(
        u, [parse_clause("1 2 3 -> 5 | 4", u), parse_clause("1 2 3 -> 4 | 5", u)]
    )
    text = format_formula(f)
    assert text.count("->") == 1
    # displayed orientation puts the side with the smallest variable left
    assert "1 2 3 -> 4 | 5" in text


def test_format_formula_prints_blocks_as_the_clause_reference():
    # printed from the blocks, without clause values, and compared with the
    # clause-based reference: repeated masks, one-part blocks, `(V, ())`,
    # twins across blocks (a mask split again in reversed part order, or
    # with two parts merged) and formulas built from clauses, twins included
    rng = random.Random(2017)
    seen = dict.fromkeys(
        ("repeated mask", "one-part block", "* -> F block", "twin across blocks",
         "clause-built"), 0)
    for trial in range(400):
        u = numbered_universe(2 + trial % 7)
        full = u.full_mask
        if trial % 4 == 0:
            clauses = list(random_target(u, rng).clauses)
            clauses += [MvdClause(u, c.x_mask, c.z_mask, c.y_mask)
                        for c in clauses if c.is_proper and rng.random() < 0.5]
            f = MvdFormula(u, clauses)
            seen["clause-built"] += 1
        else:
            blocks = list(random_block_formula(u, rng).blocks)
            for x, parts in list(blocks):
                if len(parts) > 1 and rng.random() < 0.5:
                    again = rng.choice((parts[::-1], (parts[0] | parts[1], *parts[2:])))
                    blocks.insert(rng.randrange(len(blocks) + 1), (x, again))
            f = MvdFormula.from_blocks(u, blocks)
            keys = [
                {(x, *sorted((y, full ^ x ^ y))) for y in parts or (0,)}
                for x, parts in blocks
            ]
            seen["repeated mask"] += len({x for x, _ in blocks}) < len(blocks)
            seen["one-part block"] += any(len(parts) == 1 for _, parts in blocks)
            seen["* -> F block"] += (full, ()) in blocks
            seen["twin across blocks"] += any(
                keys[i] & keys[j]
                for i, j in itertools.combinations(range(len(blocks)), 2)
                if blocks[i] != blocks[j]
            )
        assert format_formula(f) == format_mvd_formula(f)
    assert all(seen.values()), seen


def test_horn_formula_round_trip():
    text = "vars: a b c\na -> b\n* -> F\n"
    horn = parse_formula(text, "horn")
    assert format_formula(horn) == text
    assert format_clause(horn.clauses[0]) == "a -> b"


def test_comments_and_blank_lines_ignored():
    text = "# heading\nvars: 1 2 3\n\n1 -> 2 | 3  # tail comment\n"
    f = parse_formula(text, "mvd")
    assert len(f.clauses) == 1
