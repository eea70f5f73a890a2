"""Core propositional machinery for dependency-style implication formulas.

A *variable universe* fixes an ordered set of variable names.  An
*interpretation* is a truth assignment over the universe, stored as the
bitmask of true variables.  The central clause kind is the oriented
implication ``X -> Y | Z`` whose three sides partition the universe; its
violation semantics has three cases:

  (a) Y and Z both non-empty: violated when the antecedent is true and some
      variable of Y and some variable of Z are both false;
  (b) exactly one of Y, Z empty: violated when the antecedent is true and
      exactly one variable is false;
  (c) Y and Z both empty (the clause ``* -> F``): violated only by the
      all-true assignment.

Plain Horn clauses and clauses with at most two positive literals are
supported as well, since the oracles and the problem transformations in
:mod:`mvdlearn.reductions` exchange all three kinds.  Both are read as an
antecedent mask and a consequent mask: violated when the antecedent is
true and every consequent variable is false.

Entailment and equivalence between formulas are decided by enumerating all
``2**n`` assignments; every assignment-set is held as one big integer whose
bit ``m`` says whether mask ``m`` is a model.  This keeps the checks exact
and fast at desk scale, and each universe's enumeration cap, set once when
the universe is built, guards against accidental blow-ups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .errors import EnumerationCapError, ParseError, UniverseMismatchError

#: Largest universe the enumeration-backed checks accept by default.
DEFAULT_ENUM_CAP = 24

#: Tokens with a fixed meaning in the text format; variable names must avoid them.
_RESERVED_TOKENS = {"-", "*", "F", "|", "->", "vars:"}


class VariableUniverse:
    """An ordered set of distinct variable names.

    The position of a name in ``names`` is its bit index in every mask-based
    value built over the universe; the mapping is fixed for the lifetime of
    the instance, and so is ``cap``, the largest ``n`` it may be enumerated
    at.  Instances compare and hash equal when their name sequences match,
    whatever their caps; a pickled universe keeps its cap.

    A universe also keeps the 2**n-bit sets its model-set code reads, each
    built on first use: the list of its n variable patterns, the set of
    masks with at least two false variables, and the n + 1 size layers,
    which only a canonical select needs.
    """

    __slots__ = (
        "names", "cap", "n", "full_mask", "_hash", "_index", "_var_patterns", "_layers",
        "_two_false", "_violator_cache", "__weakref__",
    )

    def __init__(self, names: Iterable[str], cap: int = DEFAULT_ENUM_CAP):
        names = tuple(names)
        if not names:
            raise ValueError("universe needs at least one variable")
        seen = set()
        for name in names:
            if not name or any(ch.isspace() for ch in name) or name.startswith("#"):
                raise ValueError(f"bad variable name: {name!r}")
            if name in _RESERVED_TOKENS:
                raise ValueError(f"variable name {name!r} is a reserved token")
            if name in seen:
                raise ValueError(f"duplicate variable name: {name!r}")
            seen.add(name)
        self.names = names
        self.cap = cap
        self.n = len(names)
        self.full_mask = (1 << len(names)) - 1
        # every clause hash hashes its universe; the name tuple never changes
        self._hash = hash(names)
        self._index = {name: i for i, name in enumerate(names)}
        self._var_patterns = None
        self._layers = None
        self._two_false = None
        # the violator sets of the formula last given to model_bitset, keyed
        # by a block's masks or by a clause's kind and masks, never by the
        # clause itself: a clause refers back to its universe, and that
        # cycle would keep the cached bitsets alive until a full garbage
        # collection
        self._violator_cache = {}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable: {name!r}") from None

    def mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.index(name)
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        names = self.names
        out = []
        while mask:
            low = mask & -mask
            out.append(names[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, VariableUniverse) and self.names == other.names

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt from the names, so the hash is taken in the loading process
        return VariableUniverse, (self.names, self.cap)

    def __repr__(self):
        return f"VariableUniverse({list(self.names)!r})"

    # -- model-set plumbing -------------------------------------------------

    def var_patterns(self) -> list[int]:
        """One bitset over all 2**n masks per variable: entry ``v`` marks the
        masks where variable ``v`` is true.  All n are built on the first
        call, so callers index the list directly."""
        if self._var_patterns is None:
            width = 1 << self.n
            patterns = []
            for bit in range(self.n):
                pat = ((1 << (1 << bit)) - 1) << (1 << bit)
                shift = 1 << (bit + 1)
                while shift < width:
                    pat |= pat << shift
                    shift <<= 1
                patterns.append(pat)
            self._var_patterns = patterns
        return self._var_patterns

    def size_layers(self) -> list[int]:
        """Bitsets over all 2**n masks, one per true-set size: entry ``k``
        marks the masks with exactly ``k`` true variables."""
        if self._layers is None:
            layers = [1] + [0] * self.n
            for bit in range(self.n):
                shift = 1 << bit
                # downwards, so that layers[k - 1] still lacks this variable
                for k in range(bit + 1, 0, -1):
                    layers[k] |= layers[k - 1] << shift
            self._layers = layers
        return self._layers

    def two_false(self) -> int:
        """Bitset over all 2**n masks marking those with at least two false
        variables: every mask but the n + 1 with at most one."""
        if self._two_false is None:
            full = self.full_mask
            bits = ((1 << (1 << self.n)) - 1) ^ (1 << full)
            for bit in range(self.n):
                bits ^= 1 << (full ^ (1 << bit))
            self._two_false = bits
        return self._two_false

    def superset_pattern(self, mask: int) -> int:
        """Bitset marking every assignment whose true-set contains ``mask``."""
        if not mask:
            return (1 << (1 << self.n)) - 1
        patterns = self.var_patterns()
        low = mask & -mask
        pat = patterns[low.bit_length() - 1]
        mask ^= low
        while mask:
            low = mask & -mask
            pat &= patterns[low.bit_length() - 1]
            mask ^= low
        return pat


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _require_same_universe(*items) -> VariableUniverse:
    universe = items[0].universe
    for item in items[1:]:
        if item.universe is not universe and item.universe != universe:
            raise UniverseMismatchError(
                f"values over different universes: {universe!r} vs {item.universe!r}"
            )
    return universe


def require_enumerable(universe: VariableUniverse) -> None:
    if universe.n > universe.cap:
        raise EnumerationCapError(
            f"universe has {universe.n} variables, enumeration cap is {universe.cap}"
        )


# ---------------------------------------------------------------------------
# Interpretations


@dataclass(frozen=True)
class Interpretation:
    """A truth assignment, identified with the bitmask of its true variables."""

    universe: VariableUniverse
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask <= self.universe.full_mask:
            raise ValueError(f"mask {self.mask:#x} outside the universe")

    @property
    def false_mask(self) -> int:
        return self.universe.full_mask ^ self.mask

    def true_names(self) -> tuple[str, ...]:
        return self.universe.names_of(self.mask)

    def to_bits(self) -> str:
        """Serialize as a 0/1 string in variable-declaration order."""
        return format(self.mask, f"0{self.universe.n}b")[::-1]

    @classmethod
    def from_bits(cls, universe: VariableUniverse, bits: str) -> "Interpretation":
        if len(bits) != universe.n or any(ch not in "01" for ch in bits):
            raise ParseError(
                f"interpretation {bits!r} is not a {universe.n}-character 0/1 string"
            )
        return cls(universe, int(bits[::-1], 2))

    def __repr__(self):
        return f"Interpretation({self.to_bits()})"


def canonical_select(bits: int, universe: VariableUniverse, rank: int) -> Optional[int]:
    """The mask of the given 0-based rank among the masks marked in ``bits``.

    ``bits`` is an assignment set over ``universe`` (bit ``m`` marks mask
    ``m``); masks are ranked in the canonical order: ascending true-set
    size, ties broken lexicographically on the index tuple (the true
    variables' indices, ascending).  Returns ``None`` when fewer than
    ``rank + 1`` masks are marked.

    The true-set size comes first in that order, so the universe's size
    layers locate it.  Within a layer, once the variables below ``v`` are
    fixed, the masks containing ``v`` precede those without it, so one
    walk over the variables in ascending order narrows the set to the
    mask.  Each step is an AND and a popcount over the 2**n-bit set.
    """
    for layer in universe.size_layers():
        part = bits & layer
        count = part.bit_count()
        if rank < count:
            break
        rank -= count
    else:
        return None
    patterns = universe.var_patterns()
    bit = 0
    while count > 1:
        with_bit = part & patterns[bit]
        with_count = with_bit.bit_count()
        if rank < with_count:
            part, count = with_bit, with_count
        else:
            part ^= with_bit
            rank -= with_count
            count -= with_count
        bit += 1
    return part.bit_length() - 1


def down_closure(bits: int, universe: VariableUniverse) -> int:
    """Bitset marking every mask contained in some mask marked in ``bits``.

    One shift-OR per variable: after variable ``v`` the set holds every
    mask reached by clearing any of the variables up to ``v`` in a marked
    mask.
    """
    for v, pattern in enumerate(universe.var_patterns()):
        bits |= (bits & pattern) >> (1 << v)
    return bits


def meet_above(bits: int, universe: VariableUniverse, mask: int) -> int:
    """The AND of the masks marked in ``bits`` that contain ``mask``, or the
    full mask when none does.

    A variable outside ``mask`` is in the meet exactly when every marked
    mask containing ``mask`` has it: one superset pattern, then one AND per
    variable.
    """
    above = bits & universe.superset_pattern(mask)
    patterns = universe.var_patterns()
    meet = universe.full_mask
    for v in bit_indices(universe.full_mask ^ mask):
        if above & patterns[v] != above:
            meet ^= 1 << v
    return meet


# ---------------------------------------------------------------------------
# Clause kinds


@dataclass(frozen=True)
class MvdClause:
    """Oriented implication ``X -> Y | Z`` with X, Y, Z partitioning V.

    Orientation matters: ``X -> Y | Z`` and ``X -> Z | Y`` are distinct
    values when both sides are non-empty.  A clause with one empty side is
    stored with the non-empty side on the left (the two spellings have
    identical semantics).  ``Y = Z = empty`` is the always-covered clause
    violated only by the all-true assignment and requires ``X = V``.
    """

    universe: VariableUniverse
    x_mask: int
    y_mask: int
    z_mask: int

    def __post_init__(self):
        full = self.universe.full_mask
        x, y, z = self.x_mask, self.y_mask, self.z_mask
        if x & y or x & z or y & z:
            raise ValueError("clause sides must be pairwise disjoint")
        if (x | y | z) != full:
            raise ValueError("clause sides must cover the universe")
        if y == 0 and z == 0 and x != full:
            raise ValueError("a clause with both sides empty must have X = V")
        if y == 0 and z != 0:
            object.__setattr__(self, "y_mask", z)
            object.__setattr__(self, "z_mask", 0)

    @property
    def is_proper(self) -> bool:
        return self.y_mask != 0 and self.z_mask != 0

    @property
    def is_false_clause(self) -> bool:
        return self.y_mask == 0 and self.z_mask == 0

    def orientation_key(self) -> tuple[int, int, int]:
        """Key identifying the clause up to swapping Y and Z."""
        lo, hi = sorted((self.y_mask, self.z_mask))
        return (self.x_mask, lo, hi)

    def __repr__(self):
        return f"MvdClause({format_clause(self)!r})"


def false_clause(universe: VariableUniverse) -> MvdClause:
    """The clause ``* -> F`` violated only by the all-true assignment."""
    return MvdClause(universe, universe.full_mask, 0, 0)


@dataclass(frozen=True)
class HornClause:
    """Definite clause ``X -> v``, or ``* -> F`` (consequent None, X = V)."""

    universe: VariableUniverse
    antecedent: int
    consequent: Union[int, None]

    def __post_init__(self):
        full = self.universe.full_mask
        if not 0 <= self.antecedent <= full:
            raise ValueError("antecedent outside the universe")
        if self.consequent is None:
            if self.antecedent != full:
                raise ValueError("a FALSE consequent requires antecedent = V")
        else:
            if not 0 <= self.consequent < self.universe.n:
                raise ValueError("consequent outside the universe")
            if self.antecedent >> self.consequent & 1:
                raise ValueError("consequent must not occur in the antecedent")

    @property
    def consequent_mask(self) -> int:
        return 0 if self.consequent is None else 1 << self.consequent

    def __repr__(self):
        return f"HornClause({format_clause(self)!r})"


@dataclass(frozen=True)
class QuasiHorn2Clause:
    """Propositional clause with at most two positive literals.

    ``consequents`` holds one or two variable indices, or is empty for the
    purely negative clause (FALSE consequent).
    """

    universe: VariableUniverse
    antecedent: int
    consequents: frozenset

    def __post_init__(self):
        full = self.universe.full_mask
        if not 0 <= self.antecedent <= full:
            raise ValueError("antecedent outside the universe")
        cons = frozenset(self.consequents)
        object.__setattr__(self, "consequents", cons)
        if len(cons) > 2:
            raise ValueError("at most two consequent variables allowed")
        for v in cons:
            if not 0 <= v < self.universe.n:
                raise ValueError("consequent outside the universe")
            if self.antecedent >> v & 1:
                raise ValueError("consequents must be disjoint from the antecedent")

    @property
    def consequent_mask(self) -> int:
        mask = 0
        for v in self.consequents:
            mask |= 1 << v
        return mask

    def __repr__(self):
        return f"QuasiHorn2Clause({format_clause(self)!r})"


Clause = Union[MvdClause, HornClause, QuasiHorn2Clause]


# ---------------------------------------------------------------------------
# Formulas


class _BaseFormula:
    __slots__ = ("universe", "_clauses")

    def __init__(self, universe: VariableUniverse, clauses: Iterable = ()):
        clauses = tuple(clauses)
        for clause in clauses:
            if clause.universe is not universe and clause.universe != universe:
                raise UniverseMismatchError("clause universe differs from formula universe")
        # order-preserving dedup under exact (oriented) equality
        self.universe = universe
        self._clauses = tuple(dict.fromkeys(clauses))

    @property
    def clauses(self) -> tuple:
        return self._clauses

    def __len__(self):
        return len(self.clauses)

    def __iter__(self):
        return iter(self.clauses)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.universe == other.universe
            and set(self.clauses) == set(other.clauses)
        )

    def __hash__(self):
        return hash((self.universe, frozenset(self.clauses)))


class MvdFormula(_BaseFormula):
    """A conjunction of :class:`MvdClause` values over one universe.

    The formula holds the clauses it was built from, or the blocks of
    :meth:`from_blocks`, and builds the other form on first read: each
    clause's block is :func:`clause_block`.  Its proper blocks are also
    built on first read.
    """

    __slots__ = ("_blocks", "_proper_blocks")

    def __init__(self, universe: VariableUniverse, clauses: Iterable = ()):
        super().__init__(universe, clauses)
        self._blocks = None
        self._proper_blocks = None

    @classmethod
    def from_blocks(cls, universe: VariableUniverse, blocks: Iterable) -> "MvdFormula":
        """The formula of ``blocks``.

        A block ``(x, parts)`` stands for the clauses ``x -> y | F\\y``, one
        per part y, where the parts partition ``F = V \\ x``, and the block
        ``(V, ())`` for ``* -> F``; see :func:`block_broken`.
        :func:`model_bitset` builds one violator set per block, and
        ``clauses`` (each block's clauses in part order, deduplicated) is
        built on first read.
        """
        formula = cls(universe)
        formula._blocks = tuple(blocks)
        formula._clauses = None
        return formula

    @property
    def clauses(self) -> tuple:
        if self._clauses is None:
            universe = self.universe
            full = universe.full_mask
            self._clauses = tuple(dict.fromkeys(
                MvdClause(universe, x, y, full ^ x ^ y)
                for x, parts in self._blocks
                for y in parts or (0,)
            ))
        return self._clauses

    @property
    def blocks(self) -> tuple:
        if self._blocks is None:
            self._blocks = tuple(clause_block(c) for c in self._clauses)
        return self._blocks

    def proper_blocks(self) -> tuple:
        """The proper part: the blocks of two or more parts.  The clauses
        with an empty side are left out."""
        if self._proper_blocks is None:
            self._proper_blocks = tuple(
                block for block in self.blocks if len(block[1]) > 1
            )
        return self._proper_blocks

    def __repr__(self):
        body = ", ".join(format_clause(c) for c in self.clauses)
        return f"MvdFormula({{{body}}})"


class HornFormula(_BaseFormula):
    """A conjunction of :class:`HornClause` values over one universe."""

    def __repr__(self):
        body = ", ".join(format_clause(c) for c in self.clauses)
        return f"HornFormula({{{body}}})"


Formula = Union[MvdFormula, HornFormula]


# ---------------------------------------------------------------------------
# Satisfaction


def clause_block(clause: MvdClause) -> tuple:
    """The block ``(x, parts)`` of a full-cover clause: its non-empty sides
    are the parts, so ``x -> y | z`` is ``(x, (y, z))``, ``x -> y | -`` is
    ``(x, (y,))`` and ``* -> F`` is ``(V, ())``."""
    return clause.x_mask, tuple(side for side in (clause.y_mask, clause.z_mask) if side)


def violates(interp: Interpretation, clause: MvdClause) -> bool:
    """Whether ``interp`` covers the clause's antecedent and breaks its
    block; see the module docstring and :func:`block_broken`."""
    _require_same_universe(interp, clause)
    x, parts = clause_block(clause)
    return interp.mask & x == x and block_broken(interp.false_mask, parts)


def block_broken(false_set: int, parts) -> bool:
    """Whether an assignment covering a block's antecedent violates the block.

    ``false_set`` holds the assignment's false variables, a subset of the
    block's ``F``; ``parts`` are the block's Y-parts, which partition ``F``,
    each standing for the clause ``x -> y | F\\y``.  With two or more parts
    every clause is proper, and some clause breaks exactly when the false
    set meets two parts.  A single part is the one-sided clause
    ``x -> F | -``, broken by exactly one false variable, and no part is
    ``* -> F``, broken by the all-true assignment alone.
    """
    if len(parts) > 1:
        for y in parts:
            if false_set & y:
                return false_set & ~y != 0
        return False
    if parts:
        return false_set != 0 and false_set & (false_set - 1) == 0
    return false_set == 0


def blocks_hold(mask: int, blocks, full: int) -> bool:
    """Whether the assignment ``mask`` breaks none of ``blocks``; ``full`` is
    the universe's full mask."""
    false_set = full ^ mask
    for x, parts in blocks:
        if mask & x == x and block_broken(false_set, parts):
            return False
    return True


def _satisfies_clause(interp: Interpretation, clause: Clause) -> bool:
    if isinstance(clause, MvdClause):
        return not violates(interp, clause)
    if isinstance(clause, (HornClause, QuasiHorn2Clause)):
        return (
            interp.mask & clause.antecedent != clause.antecedent
            or bool(interp.mask & clause.consequent_mask)
        )
    raise TypeError(f"unsupported clause kind: {type(clause).__name__}")


def satisfies(interp: Interpretation, formula) -> bool:
    """True when no clause of the formula is violated by ``interp``.

    Accepts a formula object or any iterable of clauses over the same
    universe; the empty formula is satisfied by everything.
    """
    clauses = formula.clauses if isinstance(formula, _BaseFormula) else tuple(formula)
    for clause in clauses:
        _require_same_universe(interp, clause)
        if not _satisfies_clause(interp, clause):
            return False
    return True


# ---------------------------------------------------------------------------
# Enumeration-backed entailment and equivalence


def _cache_key(clause: Clause) -> tuple:
    """The clause's identity within one universe: a full-cover clause's
    block, or a Horn or two-literal clause's kind and masks."""
    if isinstance(clause, MvdClause):
        return clause_block(clause)
    if isinstance(clause, (HornClause, QuasiHorn2Clause)):
        return (type(clause), clause.antecedent, clause.consequent_mask)
    raise TypeError(f"unsupported clause kind: {type(clause).__name__}")


def _key_violators(universe: VariableUniverse, key: tuple) -> int:
    """The violator set of a :func:`_cache_key`: for a Horn or two-literal
    clause the assignments with the antecedent true and every consequent
    false, otherwise the block's."""
    if key[0] in (HornClause, QuasiHorn2Clause):
        _, antecedent, consequents = key
        bits = universe.superset_pattern(antecedent)
        for v in bit_indices(consequents):
            bits ^= bits & universe.var_patterns()[v]
        return bits
    return block_violators(universe, *key)


def violator_bitset(clause: Clause) -> int:
    """Bitset over all 2**n masks marking the assignments violating ``clause``.

    Sets are cut with ``a ^ (a & b)`` rather than ``a & ~b``: ``~b`` of a
    2**n-bit set is a negative int, and the AND with it costs several times
    more than the two operations on non-negative ints.
    """
    return _key_violators(clause.universe, _cache_key(clause))


def block_violators(universe: VariableUniverse, x: int, parts) -> int:
    """Bitset over all 2**n masks marking the assignments that break the
    block ``(x, parts)`` (see :func:`block_broken`).

    No part breaks on the all-true mask, and a single part on the masks
    whose one false variable lies in it.  With two or more parts the false
    set breaks the block when it meets two parts, that is when it has two
    or more variables and does not fit inside one part.  So the violators
    are the masks above x in the universe's :meth:`~VariableUniverse.two_false`
    set, less, for each part P of two or more variables, those with every
    variable of ``F \\ P`` true; a singleton part removes nothing.
    """
    full = universe.full_mask
    if not parts:
        return 1 << full
    if len(parts) == 1:
        bits = 0
        for v in bit_indices(parts[0]):
            bits |= 1 << (full ^ (1 << v))
        return bits
    sup = universe.superset_pattern
    rest = full ^ x
    bits = sup(x) & universe.two_false()
    for part in parts:
        if part & (part - 1):
            bits ^= bits & sup(rest ^ part)
    return bits


def model_bitset(formula) -> int:
    """Bitset over all 2**n masks marking the models of ``formula``.

    The complement of the union of the violator sets of an
    :class:`MvdFormula`'s blocks, or of the clauses of any other value with
    a universe and clauses: one OR per set on non-negative ints, then a
    single XOR with the full set.

    The universe keeps the violator sets of the formula whose model set it
    last built, keyed by block or by :func:`_cache_key`, and no others.
    Consecutive hypotheses share most of their blocks, so a rebuild
    computes only the sets of the ones that are new.
    """
    universe = formula.universe
    require_enumerable(universe)
    if isinstance(formula, MvdFormula):
        keys = formula.blocks
    else:
        keys = map(_cache_key, formula.clauses)
    cache = universe._violator_cache
    kept = {}
    violated = 0
    for key in keys:
        bits = cache.get(key)
        if bits is None:
            bits = _key_violators(universe, key)
        kept[key] = bits
        violated |= bits
    universe._violator_cache = kept
    return ((1 << (1 << universe.n)) - 1) ^ violated


def entails(formula, clause: Clause) -> bool:
    """True when every model of ``formula`` satisfies ``clause``.

    The clause is judged under its own kind's semantics, so the same call
    works for full-cover implications, Horn clauses and two-literal
    clauses.
    """
    if clause.universe != formula.universe:
        raise UniverseMismatchError("clause universe differs from formula universe")
    return model_bitset(formula) & violator_bitset(clause) == 0


def equivalent(f1, f2) -> bool:
    """Model-set equality, decided by enumeration."""
    if f1.universe != f2.universe:
        raise UniverseMismatchError("formulas over different universes")
    return model_bitset(f1) == model_bitset(f2)


def find_counterexample(f1, f2):
    """First assignment (canonical order) on which the two formulas disagree.

    Returns ``None`` when the model sets coincide.
    """
    if f1.universe != f2.universe:
        raise UniverseMismatchError("formulas over different universes")
    diff = model_bitset(f1) ^ model_bitset(f2)
    mask = canonical_select(diff, f1.universe, 0)
    return None if mask is None else Interpretation(f1.universe, mask)


# ---------------------------------------------------------------------------
# Clause-kind translations


def horn_to_mvd(clause: HornClause) -> tuple[MvdClause, ...]:
    """The (at most two) full-cover implications equivalent to a Horn clause.

    ``X -> v`` becomes ``V\\{v} -> v`` plus ``X -> v | V\\(X u {v})``; the two
    coincide when X already is ``V\\{v}``.  ``* -> F`` maps to itself.
    """
    universe = clause.universe
    if clause.consequent is None:
        return (false_clause(universe),)
    v_bit = 1 << clause.consequent
    rest = universe.full_mask & ~(clause.antecedent | v_bit)
    degenerate = MvdClause(universe, universe.full_mask ^ v_bit, v_bit, 0)
    if rest == 0:
        return (degenerate,)
    return (degenerate, MvdClause(universe, clause.antecedent, v_bit, rest))


def horn_formula_to_mvd(formula: HornFormula) -> MvdFormula:
    clauses = []
    for clause in formula.clauses:
        clauses.extend(horn_to_mvd(clause))
    return MvdFormula(formula.universe, clauses)


def mvd_to_quasi2(clause: MvdClause) -> tuple[QuasiHorn2Clause, ...]:
    """Distribute a full-cover implication into two-literal clauses.

    Proper clauses yield one clause per (y, z) pair.  A clause with one
    empty side excludes exactly the assignments with a single false
    variable taken from its non-empty side, so it maps to the matching
    ``V\\{w} -> w`` clauses; ``* -> F`` maps to itself.
    """
    universe = clause.universe
    y, z = clause.y_mask, clause.z_mask
    if y and z:
        return tuple(
            QuasiHorn2Clause(universe, clause.x_mask, frozenset((a, b)))
            for a in bit_indices(y)
            for b in bit_indices(z)
        )
    if y or z:
        side = y | z
        return tuple(
            QuasiHorn2Clause(universe, universe.full_mask ^ (1 << w), frozenset((w,)))
            for w in bit_indices(side)
        )
    return (QuasiHorn2Clause(universe, universe.full_mask, frozenset()),)


# ---------------------------------------------------------------------------
# Text format
#
# First line:     vars: <name> <name> ...
# Clause lines:   <X vars> -> <Y vars> | <Z vars>     (mvdf files)
#                 <X vars> -> <v>                     (horn files)
# `-` stands for an empty side, `*` for the whole universe, `* -> F` for the
# clause violated only by the all-true assignment.  `#` starts a comment.


def _variable_index(name: str, universe: VariableUniverse, line_no: int) -> int:
    try:
        return universe.index(name)
    except KeyError:
        raise ParseError(f"unknown variable {name!r}", line_no) from None


def _parse_side(tokens: list[str], universe: VariableUniverse, line_no: int) -> int:
    if tokens == ["-"]:
        return 0
    if tokens == ["*"]:
        return universe.full_mask
    if not tokens:
        raise ParseError("empty side (use `-` for an empty side)", line_no)
    mask = 0
    for tok in tokens:
        bit = 1 << _variable_index(tok, universe, line_no)
        if mask & bit:
            raise ParseError(f"variable {tok!r} repeated within a side", line_no)
        mask |= bit
    return mask


def _parse_clause_tokens(tokens: list[str], universe: VariableUniverse, kind: str, line_no: int):
    if tokens.count("->") != 1:
        raise ParseError("clause must contain exactly one `->`", line_no)
    arrow = tokens.index("->")
    lhs, rhs = tokens[:arrow], tokens[arrow + 1 :]
    x_mask = _parse_side(lhs, universe, line_no)
    if rhs == ["F"]:
        if kind == "quasi2":
            # any purely negative clause; the other kinds have only `* -> F`
            return QuasiHorn2Clause(universe, x_mask, frozenset())
        if x_mask != universe.full_mask:
            raise ParseError("the F consequent requires `*` on the left", line_no)
        if kind == "horn":
            return HornClause(universe, universe.full_mask, None)
        return false_clause(universe)
    try:
        if kind == "mvd":
            if rhs.count("|") != 1:
                raise ParseError("expected `<Y> | <Z>` on the right of `->`", line_no)
            bar = rhs.index("|")
            y_mask = _parse_side(rhs[:bar], universe, line_no)
            z_mask = _parse_side(rhs[bar + 1 :], universe, line_no)
            return MvdClause(universe, x_mask, y_mask, z_mask)
        if kind == "horn":
            if len(rhs) != 1:
                raise ParseError("a Horn clause needs exactly one consequent variable", line_no)
            return HornClause(universe, x_mask, _variable_index(rhs[0], universe, line_no))
        if kind == "quasi2":
            if not 1 <= len(rhs) <= 2 or "|" in rhs:
                raise ParseError("expected one or two consequent variables", line_no)
            cons = frozenset(_variable_index(tok, universe, line_no) for tok in rhs)
            return QuasiHorn2Clause(universe, x_mask, cons)
    except ValueError as exc:
        # a clause constructor's check
        raise ParseError(str(exc), line_no) from None
    raise ValueError(f"unknown clause kind: {kind!r}")


def parse_clause(text: str, universe: VariableUniverse, kind: str = "mvd"):
    """Parse a single clause in the file grammar against a known universe."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty clause text")
    return _parse_clause_tokens(tokens, universe, kind, 1)


def _logical_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line number, stripped text)`` of each line with text outside its comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield line_no, body


def parse_formula(text: str, kind: str = "mvd", cap: int = DEFAULT_ENUM_CAP):
    """Parse formula text into an :class:`MvdFormula` or :class:`HornFormula`.

    The first non-comment line must declare the universe (``vars: ...``);
    the remaining lines hold one clause each.  The universe's cap is ``cap``.
    """
    if kind not in ("mvd", "horn"):
        raise ValueError(f"unknown formula kind: {kind!r}")
    lines = _logical_lines(text)
    try:
        line_no, body = next(lines)
    except StopIteration:
        raise ParseError("empty input, expected a `vars:` line") from None
    tokens = body.split()
    if tokens[0] != "vars:" or len(tokens) < 2:
        raise ParseError("first line must be `vars: <name> ...`", line_no)
    try:
        universe = VariableUniverse(tokens[1:], cap)
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None
    clauses = []
    for line_no, body in lines:
        clauses.append(_parse_clause_tokens(body.split(), universe, kind, line_no))
    if kind == "horn":
        return HornFormula(universe, clauses)
    return MvdFormula(universe, clauses)


def _side_text(universe: VariableUniverse, mask: int) -> str:
    if mask == 0:
        return "-"
    if mask == universe.full_mask:
        return "*"
    return " ".join(universe.names_of(mask))


def _mvd_line(universe: VariableUniverse, x: int, y: int, z: int) -> str:
    """The text of ``x -> y | z``: ``* -> F`` when both sides are empty,
    otherwise with the side holding the smallest variable index (or the
    only non-empty side) on the left."""
    if not y | z:
        return "* -> F"
    low = (y | z) & -(y | z)
    if not y & low:
        y, z = z, y
    return f"{_side_text(universe, x)} -> {_side_text(universe, y)} | {_side_text(universe, z)}"


def format_clause(clause) -> str:
    """Render one clause in the file grammar.

    Full-cover implications are shown with the side containing the smallest
    variable index on the left, which is also how orientation twins are
    collapsed when a whole formula is rendered.
    """
    universe = clause.universe
    if isinstance(clause, MvdClause):
        return _mvd_line(universe, clause.x_mask, clause.y_mask, clause.z_mask)
    if isinstance(clause, (HornClause, QuasiHorn2Clause)):
        names = " ".join(universe.names_of(clause.consequent_mask)) or "F"
        return f"{_side_text(universe, clause.antecedent)} -> {names}"
    raise TypeError(f"unsupported clause kind: {type(clause).__name__}")


def format_formula(formula) -> str:
    """Render a formula in the file grammar, one clause per line.

    An :class:`MvdFormula` is printed from its blocks, with no clause
    values built: each block ``(x, parts)`` stands for ``x -> y | F\\y``
    per part y (``* -> F`` for ``(V, ())``).  Orientation twins collapse
    to a single displayed clause; clause order follows first appearance,
    so rendering is deterministic.
    """
    universe = formula.universe
    lines = [f"vars: {' '.join(universe.names)}"]
    if isinstance(formula, MvdFormula):
        full = universe.full_mask
        seen = set()
        for x, parts in formula.blocks:
            rest = full ^ x
            for y in parts or (0,):
                z = rest ^ y
                key = (x, y, z) if y < z else (x, z, y)
                if key not in seen:
                    seen.add(key)
                    lines.append(_mvd_line(universe, x, y, z))
    else:
        for clause in formula.clauses:
            lines.append(format_clause(clause))
    return "\n".join(lines) + "\n"
