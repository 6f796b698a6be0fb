"""Linear-system solvers for delta-derivations and their relatives.

Every solver here finds the nullspace of one bilinear law.  For an algebra
with structure constants C_ij^k and D(e_i) = sum_k d_ik e_k, the law

    X(e_i e_j) = a D(e_i) e_j + b (-1)^(q deg e_i) e_i D(e_j),

written for every equation pair (i, j) and every target coordinate l, is
the homogeneous row

    sum_k C_ij^k x_kl  -  a sum_k C_kj^l d_ik  -  b (-1)^(q deg e_i) sum_k C_ik^l d_jk  =  0

in the unknowns d_kl (column k*n + l, 0-based) and x_kl.  ``_law_rows``
assembles it once for a list of (a, b) pairs and yields, one at a time,
the rows that do not vanish.  The solvers choose the coefficients:

- delta-derivations: X = D, a = b = delta, q = 0; for an anticommutative
  algebra of dimension n this is n^2 (n-1)/2 equations in n^2 unknowns,
  of which the empty ones are dropped;
- delta-superderivations: X = D, a = b = delta, q = the parity of D;
- the centroid: X = D, with the laws (a, b) = (1, 0) and (0, 1), whose
  rows follow each other pair by pair, with the diagonal pairs (i, i)
  that a Lie algebra's law a = b leaves out (``_diagonal``), which a
  pointwise solve assembles under the first law only;
- the supercentroid: as the centroid, with q = the parity of the map;
- quasiderivation pairs (D, F): X = F in columns n^2 .. 2n^2 - 1, a = b = 1;
- module-valued delta-derivations D: L -> M, D(xy) = delta x.D(y) -
  delta y.D(x): the delta-derivations of the semidirect sum S = L + M
  that vanish on M and map L into M, read off its rows on the entries
  d_(k, n+l), k < n, renumbered k*m + l.

Over Q the rows are ints.  The algebra keeps one product table
(``Algebra._table``), the one place its structure constants are lowered,
to D c, D the lcm of their denominators (validation reads the same
table), and a law list is lowered by t, the lcm of the
denominators of its coefficients: the assembler writes (t a, t b) and the
x coefficient t (``_law_terms``, made by each assembly).  Each row is
then t D times the row above, so the row space, the pins (a nonzero int
is a unit over Q), the blocks and the canonical RREF are the same, and
``Fraction`` enters only in each block's RREF (``linalg._rref``: its last
division, or the fractions read back from residues modulo primes) and in
the basis maps.

The super variants make the map homogeneous by starting the pin set
below with the entries that would break its parity.
``is_delta_derivation`` does not restate the law: it evaluates these same
rows at the entries of the given map, and requires the map to vanish on
the columns that the assembler pins instead of building their rows.

Every system, pointwise or parametric, streams from the assembler to
``linalg._pin``, the one place that pins a yielded row, and which holds
only the rows it cannot pin at once.  A pointwise solve also hands the
assembler a pin set, the columns known to be zero: where an equation
pair's product is one unit term c e_k, the rows c x_kl of the targets l
that no term reaches are never built, and their columns join the set,
from which ``_pin`` starts its cascade.  One part of a pointwise system
is kept, over GF(p) and Q: the rows of the pairs whose product is zero,
the diagonal pairs of ``_diagonal`` among them, have no x entry and, up
to a scalar, do not depend on delta, so ``_zero_part`` assembles and
pins them once per parity and law list and keeps the pins and rows left
in the algebra's store, beside its product table.  Every pointwise solve
and check of the algebra starts from them and assembles only the pairs
with a product (``_pointwise_rows``).  ``solve_parametric`` passes no
set and reads the full stream, since a one-entry row a + b delta of its
pencil pins nothing.  The rows left are eliminated one block at a time, a
block being a connected component of their row/column incidence graph
(for a graded algebra such as W(1, n), each block lies inside one degree
shift of D; current algebras and Grassmann envelopes split into hundreds
of blocks).  A pointwise solve gets the same canonical basis as from one
elimination of the whole system (see ``linalg.sparse_rref``).  The
parametric solver treats delta as an indeterminate and finds the generic
solution dimension together with the special values of delta where it
jumps, from the points where some block's rank drops.  Each block is
ranked at every field point, or through fraction-free elimination, or
through the determinant of a square of it, by the rule set out in
``_block_spectrum``.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

from .algebras import Algebra, AlgebraError, GradingMissing, ModuleAction, make_semidirect
from .fields import Field, PrimeField, QuotientRing, Rationals, parse_scalar
from .linalg import (
    SpanSolver,
    _blocks,
    _int_rref,
    _pencil_det,
    _pin,
    _row_value,
    _rref,
    base_field_roots,
    fraction_free_pivots,
    sparse_nullspace,
    sparse_rref,
)
from .linmap import LinearMap


class NilpotencyTooDeep(ArithmeticError):
    pass


class ParityMismatch(AlgebraError):
    pass


def _equation_pairs(alg: Algebra, laws=()):
    """Basis pairs whose defining equation is assembled for these laws.

    For anticommutative algebras the (j, i) equation is the negative of the
    (i, j) one and e_i e_i = 0, so i < j suffices.  Graded and associative
    flavors get all ordered pairs, since reversal is not a global sign, plus
    the diagonal where a square may be nonzero: every (i, i) for "assoc"
    (x_i x_i need not vanish), the odd ones for "super".  The other
    diagonal pairs follow at the end where a law has a != b (``_diagonal``).
    """
    n = alg.dim
    if alg.flavor == "lie":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        pairs += [(i, i) for i in range(n) if alg.flavor == "assoc" or alg.grading[i]]
    return pairs + _diagonal(alg, laws)


def _diagonal(alg: Algebra, laws) -> list:
    """The pairs (i, i) with e_i e_i = 0 by the flavor, those of a Lie
    algebra and the even ones of a superalgebra, where some law (a, b) has
    a != b.  Their law is a D(e_i) e_i + b e_i D(e_i) = 0, and e_i x =
    -x e_i for every x, so it reads (a - b) D(e_i) e_i = 0: with a = b its
    rows vanish, but the centroid's laws (1, 0) and (0, 1) need
    chi(e_i) e_i = 0, which the pairs i != j do not imply.  Every law with
    a != b gives these rows up to a scalar, so a pointwise solve assembles
    them under the first such law only (``_zero_part``)."""
    F = alg.field
    if alg.flavor == "assoc" or all(F.eq(a, b) for a, b in laws):
        return []
    return [(i, i) for i in range(alg.dim) if alg.flavor == "lie" or not alg.grading[i]]


def _law_terms(alg: Algebra, laws, parity: int = 0) -> tuple[list, list, int]:
    """For each law (a, b), the terms of -a D(e_i) e_j listed by j and those
    of -b (-1)^(parity deg e_i) e_i D(e_j) listed by i: for each index, the
    terms c e_l of the products e_k e_j (or e_i e_k) as (l, k, coefficient
    times c), with the zero multiples left out; and t, the scalar of the x
    part.  Over Q the constants are those of ``Algebra._table``, the ints
    D c, and each law is lowered to the ints (t a, t b), t the lcm of the
    denominators of the laws' coefficients; over any other field t = 1.
    ``_law_rows`` makes its own for each assembly."""
    F = alg.field
    table = alg._table()
    t = 1
    if isinstance(F, Rationals):
        t = math.lcm(*(c.denominator for law in laws for c in law))
        laws = [tuple(c.numerator * (t // c.denominator) for c in law) for law in laws]

    def scaled(coef, products):
        if F.is_zero(coef):
            return []
        return [
            (l, k, v)
            for k, prod in enumerate(products)
            for l, c in prod.items()
            if not F.is_zero(v := F.mul(coef, c))
        ]

    right = [[scaled(F.neg(a), column) for column in zip(*table)] for a, _ in laws]
    left = [
        [scaled(b if parity and alg.grading[i] else F.neg(b), products) for i, products in enumerate(table)]
        for _, b in laws
    ]
    return right, left, t


def _law_rows(alg: Algebra, laws, parity: int = 0, x_offset: int = 0, pinned: set | None = None, pairs=None):
    """Nonzero rows of X(e_i e_j) = a D(e_i) e_j + b (-1)^(parity deg e_i) e_i D(e_j),
    one law for each (a, b) in ``laws``.

    The rows are yielded as they are made, and no list of them is built:
    each solver hands the stream to ``linalg._pin``, the one place that
    pins or keeps a row (``_zero_part`` keeps those it leaves).  D and X
    map the algebra into itself: d_kl sits in column k*n + l and x_kl in
    column x_offset + k*n + l.  For each equation pair the rows of each law
    follow in turn, by target coordinate l; a row that vanishes is left
    out.  (With the centroid's two laws, elimination on
    dense structure constants fills in less in this order than with one
    law's rows after the other's.)  With x_offset = n^2 and laws [(1, 1)],
    column n^2 + c of a row holds the part of the delta-derivation row that
    does not scale with delta and column c the part that does:
    ``solve_parametric`` reads its pencil so.  A module-valued law
    D(xy) = delta x.D(y) - delta y.D(x), D: L -> M, needs no layout of its
    own: it is this law on the semidirect sum L + M, restricted to the
    entries of D that map L into M (see ``solve_module_valued``).

    Each law's coefficient is multiplied into the structure constants once
    for each j (the terms of D(e_i) e_j) and once for each i (those of
    e_i D(e_j)), not once per equation pair (``_law_terms``).  A term is
    added to an entry only where it meets one already in its row, and a
    row is cleared of zeros only when such a sum cancelled.  So the rows,
    their order and their values, with their types, are those of adding
    every term scalar by scalar.

    Over Q the constants and coefficients are those of ``Algebra._table``
    and ``_law_terms``: each row is t D times the law's row, in ints.

    Every row that is built is yielded.  Given a set ``pinned``, the
    assembler skips only the rows it never builds: where the product
    e_i e_j is one term c e_k with c a unit, the row of a target l that no
    term of the law reaches is c x_kl alone, and its column
    x_offset + k*n + l joins the set.  The set is complete once the stream
    is read.  Without a set the stream is every nonzero row.

    ``pairs``, if given, lists the equation pairs to assemble, in the order
    of ``_equation_pairs``, in place of all of them: ``_zero_part`` passes
    the pairs whose product is zero and the diagonal pairs of
    ``_diagonal``, ``_pointwise_rows`` the others.
    """
    F = alg.field
    n = alg.dim
    table = alg._table()
    right, left, t = _law_terms(alg, laws, parity)
    # an entry is a nonzero multiple of a structure constant, or a sum that
    # did not cancel, so over GF(p) and Q it is a unit
    field = isinstance(F, (PrimeField, Rationals))
    for (i, j) in _equation_pairs(alg, laws) if pairs is None else pairs:
        product = table[i][j]
        if t != 1 and product:
            product = {k: t * c for k, c in product.items()}
        # with no product, or one term c e_k with c a unit, a row is made
        # only for a target that some term reaches: the row of any other
        # target is empty, or c x_kl alone, whose column is pinned
        sparse = pinned is not None and (
            not product or len(product) == 1 and (field or F.is_unit(*product.values()))
        )
        if sparse and product:
            [(xk, xc)] = product.items()
            x = x_offset + xk * n
        for law in range(len(laws)):
            if sparse:
                rows = [None] * n
            else:
                rows = [{} for _ in range(n)]
                for k, c in product.items():
                    for l in range(n):
                        rows[l][x_offset + k * n + l] = c
            cancelled = []
            for base, terms in ((i * n, right[law][j]), (j * n, left[law][i])):
                for l, k, v in terms:
                    row, col = rows[l], base + k
                    if row is None:
                        row = rows[l] = {x + l: xc} if product else {}
                    if col in row:
                        v = F.add(row[col], v)
                        if F.is_zero(v):
                            cancelled.append(l)
                    row[col] = v
            if sparse and product:
                pinned.update([x + l for l in range(n) if rows[l] is None])
            for l in cancelled:
                rows[l] = {c: v for c, v in rows[l].items() if not F.is_zero(v)}
            yield from filter(None, rows)


def _zero_part(alg: Algebra, laws, parity: int) -> tuple[frozenset, list[dict]]:
    """The pins and rows that ``linalg._pin`` leaves of the rows of the
    equation pairs with no product, and of the diagonal pairs of
    ``_diagonal``, for these laws over GF(p) or Q, kept in the algebra's
    store.

    With e_i e_j = 0 the law is a D(e_i) e_j + b (-1)^(parity deg e_i)
    e_i D(e_j) = 0: no x entry, and a law scaled by a nonzero scalar has
    the same rows up to that scalar.  So the part is kept under the law
    list with every law scaled to a = 1 (b = 1 where a = 0, and a law with
    a = b = 0, whose rows vanish, left out), for each parity; the key
    keeps whether some law has a != b, and so the diagonal.  The first
    law list to reach it assembles it; its rows span those of every list
    kept under the same key, at every delta, in both layouts, so they give
    the same RREF and the same verdict on a map.
    """
    F = alg.field
    key = []
    for a, b in laws:
        if not F.is_zero(a):
            key.append((F.one(), F.div(b, a)))
        elif not F.is_zero(b):
            key.append((F.zero(), F.one()))
    if not key:
        return frozenset(), []
    key = ("zero", parity, tuple(key))
    part = alg._memo.get(key)
    if part is None:
        zero, diagonal = _split_pairs(alg)[1], _diagonal(alg, laws)
        pins, rows = set(), []
        if zero or diagonal:
            first = [next(law for law in laws if not F.eq(*law))] if diagonal else []
            rows = chain(
                _law_rows(alg, laws, parity, pinned=pins, pairs=zero),
                _law_rows(alg, first, parity, pinned=pins, pairs=diagonal),
            )
            pins, rows = _pin(rows, F.is_unit, pins)
        part = alg._memo[key] = frozenset(pins), rows
    return part


def _split_pairs(alg: Algebra) -> tuple[list, list]:
    """The equation pairs whose product is not zero and those whose product
    is, each in the order of ``_equation_pairs``, kept in the algebra's
    store."""
    split = alg._memo.get("pairs")
    if split is None:
        table = alg._table()
        split = alg._memo["pairs"] = [], []
        for i, j in _equation_pairs(alg):
            split[not table[i][j]].append((i, j))
    return split


def _pointwise_rows(alg: Algebra, laws, pinned: set, parity: int = 0, x_offset: int = 0):
    """The rows of a pointwise system, and its pins added to ``pinned``:
    over GF(p) and Q, the pins and rows of ``_zero_part`` and then those
    that ``_law_rows`` assembles of the pairs with a product.  Pinned and
    eliminated, they give the RREF of the full stream of ``_law_rows``,
    which is canonical; a map satisfies the one where it satisfies the
    other.  Over a quotient ring it is the full stream, whose order
    decides whether a zero-divisor pivot is met (see
    ``linalg.sparse_rref``)."""
    if not isinstance(alg.field, (PrimeField, Rationals)):
        return _law_rows(alg, laws, parity, x_offset, pinned)
    pins, rows = _zero_part(alg, laws, parity)
    pinned.update(pins)
    return chain(rows, _law_rows(alg, laws, parity, x_offset, pinned, _split_pairs(alg)[0]))


def _maps(alg: Algebra, laws, parity: int = 0, pinned: set | None = None) -> list[LinearMap]:
    """Canonical basis of the maps of the algebra into itself solving the
    laws, with the entries in ``pinned`` (a fresh set if None) zero."""
    F = alg.field
    n = alg.dim
    pinned = set() if pinned is None else pinned
    rows = _pointwise_rows(alg, laws, pinned, parity)
    return [LinearMap.from_flat(F, v, n, n) for v in sparse_nullspace(rows, n * n, F, pinned)]


class SolutionSpace:
    """Canonical basis of a solved space of maps (or pairs of maps)."""

    def __init__(self, algebra: Algebra, kind: str, delta, basis, parity=None):
        self.algebra = algebra
        self.kind = kind
        self.delta = delta  # payload, or None when not applicable
        self.basis = basis
        self.parity = parity
        self._span = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _vector(self, item) -> dict:
        """A map, or a pair's D then F, as one sparse vector."""
        if isinstance(item, tuple):
            d, f = item
            return d.vector() | f.vector(d.nrows * d.ncols)
        return item.vector()

    def contains(self, item) -> bool:
        if self._span is None:
            self._span = SpanSolver(
                self.algebra.field, [self._vector(b) for b in self.basis]
            )
        return self._span.contains(self._vector(item))

    def d_component(self) -> list[LinearMap]:
        """For quasiderivation pairs: canonical basis of the D-projections."""
        if self.kind != "quasider":
            raise ValueError("d_component is defined for quasiderivation spaces")
        F = self.algebra.field
        n = self.algebra.dim
        pivots = sparse_rref([d.vector() for (d, _) in self.basis], F)
        return [LinearMap.from_flat(F, pivots[c], n, n) for c in sorted(pivots)]

    def to_json(self) -> dict:
        F = self.algebra.field
        data = {
            "kind": self.kind,
            "delta": None if self.delta is None else F.fmt(self.delta),
            "dim": self.dim,
        }
        if self.parity is not None:
            data["parity"] = self.parity
        if self.kind == "quasider":
            data["basis"] = [
                {"d": d.to_json(), "f": f.to_json()} for (d, f) in self.basis
            ]
        else:
            data["basis"] = [m.to_json() for m in self.basis]
        return data


def solve_delta_derivations(alg: Algebra, delta) -> SolutionSpace:
    delta = parse_scalar(alg.field, delta)
    return SolutionSpace(alg, "delta_der", delta, _maps(alg, [(delta, delta)]))


def solve_module_valued(alg: Algebra, M: ModuleAction, delta) -> SolutionSpace:
    """Delta-derivations D: L -> M, i.e. D(xy) = delta x.D(y) - delta y.D(x)
    for the left action of a Lie algebra on the module.

    These are the delta-derivations of the semidirect sum S = L + M that
    vanish on M and map L into M: on a pair from L the law of S is the law
    above, and on a pair with an entry in M both sides vanish, since
    D(M) = 0 and [M, M] = 0.  The rows of S are solved in the entries
    d_(k, n+l), k < n, alone, renumbered k*m + l as in the n x m map; every
    other entry is zero and drops out of the rows.
    """
    S = make_semidirect(alg, M)
    F = alg.field
    delta = parse_scalar(F, delta)
    n, m, s = alg.dim, M.mdim, S.dim
    pinned = set()

    def rows():
        # d_(k, n+l) is column k*s + n + l of S, and k*m + l here; the pins
        # of S are renumbered so once the stream is read
        pins = set()
        for row in _law_rows(S, [(delta, delta)], pinned=pins):
            yield {c // s * m + c % s - n: v for c, v in row.items() if c < n * s and c % s >= n}
        pinned.update(c // s * m + c % s - n for c in pins if c < n * s and c % s >= n)

    basis = [LinearMap.from_flat(F, v, n, m) for v in sparse_nullspace(rows(), n * m, F, pinned)]
    return SolutionSpace(alg, "module_valued", delta, basis)


def solve_centroid(alg: Algebra) -> SolutionSpace:
    """Maps commuting with all multiplications: chi(ab) = chi(a)b = a chi(b)."""
    one, zero = alg.field.one(), alg.field.zero()
    return SolutionSpace(alg, "centroid", None, _maps(alg, [(one, zero), (zero, one)]))


def _parity_columns(alg: Algebra, parity: int) -> set:
    """The entries d_ij, in column i*n + j, that a map of the given parity
    has zero: those sending e_i to a basis vector of the other parity."""
    n = alg.dim
    return {i * n + j for i in range(n) for j in range(n) if alg.grading[j] != (alg.grading[i] + parity) % 2}


def solve_superderivations(alg: Algebra, delta, parity: int) -> SolutionSpace:
    """Homogeneous delta-superderivations of the given parity:
    D(ab) = delta D(a)b + delta (-1)^(parity * deg a) a D(b)."""
    if alg.grading is None:
        raise GradingMissing("superderivations need a graded algebra")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    delta = parse_scalar(alg.field, delta)
    basis = _maps(alg, [(delta, delta)], parity, _parity_columns(alg, parity))
    return SolutionSpace(alg, "super_der", delta, basis, parity=parity)


def solve_supercentroid(alg: Algebra, parity: int | None = None) -> SolutionSpace:
    """Homogeneous maps with chi(ab) = chi(a)b = (-1)^(parity * deg a) a chi(b);
    with parity None, the direct sum over both parities."""
    if alg.grading is None:
        raise GradingMissing("the supercentroid needs a graded algebra")
    if parity is None:
        even = solve_supercentroid(alg, 0)
        odd = solve_supercentroid(alg, 1)
        return SolutionSpace(alg, "supercentroid", None, even.basis + odd.basis)
    one, zero = alg.field.one(), alg.field.zero()
    basis = _maps(alg, [(one, zero), (zero, one)], parity, _parity_columns(alg, parity))
    return SolutionSpace(alg, "supercentroid", None, basis, parity=parity)


def solve_quasiderivations(alg: Algebra) -> SolutionSpace:
    """Pairs (D, F) with F(xy) = D(x)y + x D(y); joint system in 2n^2 unknowns
    (D in columns 0..n^2-1, F in columns n^2..2n^2-1)."""
    F = alg.field
    n = alg.dim
    nn = n * n
    pinned = set()
    rows = _pointwise_rows(alg, [(F.one(), F.one())], pinned, x_offset=nn)
    basis = [
        (LinearMap.from_flat(F, v, n, n), LinearMap.from_flat(F, v, n, n, nn))
        for v in sparse_nullspace(rows, 2 * nn, F, pinned)
    ]
    return SolutionSpace(alg, "quasider", None, basis)


def is_delta_derivation(alg: Algebra, D: LinearMap, delta, parity=None) -> bool:
    """Whether D(xy) = delta (D(x) y) + delta (x D(y)) on all basis pairs
    (with the super sign when a parity is given).

    The check evaluates at D the rows that the solver assembles for this
    law, and requires D to vanish at the entries whose rows it never
    builds, so checking and solving share one encoding of it.
    A map that is not dim x dim raises ``ValueError``."""
    F = alg.field
    n = alg.dim
    if (D.nrows, D.ncols) != (n, n):
        raise ValueError(f"the map is {D.nrows} x {D.ncols}, not {n} x {n} as the algebra")
    delta = parse_scalar(F, delta)
    vec = D.vector()
    pinned = set()
    rows = _pointwise_rows(alg, [(delta, delta)], pinned, parity or 0)
    # the pin set is complete once every row has been read
    return all(F.is_zero(_row_value(row, vec, F)) for row in rows) and pinned.isdisjoint(vec)


# ---------------------------------------------------------------------------
# parametric delta


class ParametricResult(NamedTuple):
    generic_dim: int
    specials: list  # (delta payload in the base field, dimension)

    def to_json(self, field: Field) -> dict:
        return {
            "generic_dim": self.generic_dim,
            "specials": [[field.fmt(d), dim] for (d, dim) in self.specials],
        }


def _pivots_at(F: Field, block: list[dict], d) -> tuple[list[int], list[int]]:
    """The rows of a pencil block (entries [a] or [a, b], that is a + b
    delta, integers over Q) that become pivots when it is eliminated at
    delta = d, in order, and their pivot columns, sorted: the rank at d is
    their number.  The square submatrix on them is invertible at d, since
    the elimination turns those rows into the identity on those columns.
    With d = s/t in lowest terms each row is evaluated as t a + s b, t
    times its value at d, in ints.  The block is already pinned and split,
    so it goes straight to the one batch elimination, which reports the
    rows it chose: ``linalg._rref`` over GF(p), which reduces the ints mod
    p, and over Q its integer elimination ``linalg._int_rref``."""
    s, t = d.numerator, d.denominator
    rows = ({c: t * f[0] + s * f[1] if len(f) > 1 else t * f[0] for c, f in row.items()} for row in block)
    if isinstance(F, PrimeField):
        pivots, chosen = _rref(rows, F)
    else:
        pivots, _, chosen = _int_rref(rows)
    return chosen, sorted(pivots)


def _block_spectrum(F: Field, block: list[dict]) -> tuple[int, dict]:
    """Generic rank r of one pencil block and {d: rank at d} for the
    base-field delta at which its rank is below r.

    Let u be the least of the block's numbers of rows and columns.  Each
    block takes one of three routes, by disjoint conditions:

    - sweep, over GF(p) where u > 3 and p <= u + 1: the block is ranked at
      all p field points, no more than the square's search below could
      take.  A nonzero polynomial of degree below p does not vanish on all
      of GF(p), so the largest rank is r if it reaches u or if u < p; else
      r comes from fraction-free elimination, and in either case the drops
      are the points ranked below r;
    - Bareiss, over GF(p) where u <= 3: fraction-free elimination over
      GF(p)[delta] (``linalg.fraction_free_pivots``), whose last pivot is a
      nonzero r x r minor.  At most three steps with pivots of degree at
      most three cost less than the square's search and determinant on
      sl2 over GF(7);
    - square, over Q, and over GF(p) where u > 3 and p > u + 1: the rows,
      whose entries are ints (over Q the assembler's pencil is integral,
      see ``_law_terms``), are ranked at delta = 0, 1, ..., until a rank
      reaches u or u + 1 points are done.  The largest rank is r, since a
      nonzero r x r minor has at most r <= u roots, and the u + 1 < p
      points are distinct in GF(p) too.  The rows and pivot columns of an
      elimination of rank r, at the first point c that reaches it, give an
      r x r square S, nonsingular at c, whose determinant
      det S(c) det(I + (delta - c) S(c)^-1 S_1) comes from the
      characteristic polynomial of S(c)^-1 S_1 (``linalg._pencil_det``):
      over GF(p) in one pass mod p, over Q in passes mod word-size primes
      combined up to a Hadamard bound.

    On the last two routes the rank can drop only at the roots of that
    r x r minor (found exactly by ``linalg.base_field_roots``: over Q by
    p-adic lifting, over GF(p) by evaluation at every point or, for large p,
    by splitting gcd(f, x^p - x)), and the block is ranked at each of them,
    since the minor may vanish where another r x r minor does not.
    """
    columns = sorted({c for row in block for c in row})
    u = min(len(columns), len(block))
    prime = isinstance(F, PrimeField)

    def bareiss():
        return fraction_free_pivots(F, [[row.get(c, []) for c in columns] for row in block], len(columns))

    if prime and u > 3 and F.p <= u + 1:
        ranks = {d: len(_pivots_at(F, block, d)[0]) for d in range(F.p)}
        r = max(ranks.values())
        if r < u and u >= F.p:
            r = bareiss()[0]
        return r, {d: k for d, k in ranks.items() if k < r}
    if prime and u <= 3:
        r, pivots = bareiss()
        det = pivots[-1]
    else:
        # rows with fewer delta terms first: the square then takes as many
        # of them as it can, which lowers the degree of its determinant
        block = sorted(block, key=lambda row: sum(len(f) > 1 for f in row.values()))
        best = [], [], 0
        for d in range(u + 1):
            rows, cols = _pivots_at(F, block, d)
            if len(rows) > len(best[0]):
                best = rows, cols, d
            if len(rows) == u:
                break
        rows, cols, d = best
        r, det = len(rows), _pencil_det([[block[i].get(c, []) for c in cols] for i in rows], d, F.p)
    ranks = {d: len(_pivots_at(F, block, d)[0]) for d in base_field_roots(F, det)}
    return r, {d: k for d, k in ranks.items() if k < r}


def _pencil_spectrum(F: Field, pencil) -> tuple[int, dict]:
    """``_block_spectrum`` of a whole pencil, from its pinned columns and
    the spectra of the blocks of the rows left (see ``solve_parametric``)."""
    pinned, rows = _pin(pencil, lambda f: len(f) == 1)
    spectra = [_block_spectrum(F, block) for block in _blocks(rows)]
    drops = {d for _, ranks in spectra for d in ranks}
    ranks_at = {d: len(pinned) + sum(ranks.get(d, r) for r, ranks in spectra) for d in drops}
    return len(pinned) + sum(r for r, _ in spectra), ranks_at


def solve_parametric(alg: Algebra) -> ParametricResult:
    """Generic nullspace dimension of the delta-derivation system over K[delta],
    plus the special base-field values of delta where the dimension jumps.

    The system is the pencil A + delta B, read off one assembly of the
    quasiderivation law (the x part gives A, the d part B), and pinned
    with a nonzero constant [a] as the unit: a row [a] forces its unknown
    to zero at every delta, but a one-entry row a + b delta pins nothing,
    as its rank drops at delta = -a/b.  At every delta the rank is then the number
    of pinned columns plus the sum of the ranks of the blocks of the rows
    left, none above its generic rank r, and ``_block_spectrum`` gives the
    r of each block and the points where its rank drops, with the rank
    there, by one of three routes (sweep, Bareiss, square) that its
    docstring sets out.
    """
    F = alg.field
    if isinstance(F, QuotientRing):
        raise ValueError("parametric solving needs a rational or prime base field")
    nn = alg.dim * alg.dim

    # the pencil A + delta B as sparse rows {column: [a] or [a, b]}, read off
    # one quasiderivation-layout assembly: column nn + c gives A, column c B
    def pencil():
        for row in _law_rows(alg, [(F.one(), F.one())], x_offset=nn):
            const = {c - nn: v for c, v in row.items() if c >= nn}
            entries = {c: [v] for c, v in const.items()}
            entries.update({c: [const.get(c, 0), v] for c, v in row.items() if c < nn})
            yield entries

    rank, ranks = _pencil_spectrum(F, pencil())
    return ParametricResult(nn - rank, [(d, nn - k) for d, k in sorted(ranks.items())])


# ---------------------------------------------------------------------------
# Grassmann lifts and exponentials


def lift_grassmann(env: Algebra, D: LinearMap, g: tuple = ()) -> LinearMap:
    """Lift a delta-superderivation D of L to the Grassmann envelope:
    D^(x (x) h) = D(x) (x) g h, where g is a Grassmann monomial whose parity
    matches the parity of D."""
    from .algebras import grassmann_mul

    basis = env.meta.get("envelope_basis")
    L = env.meta.get("envelope_source")
    if basis is None or L is None:
        raise AlgebraError("the algebra is not a Grassmann envelope")
    g = tuple(sorted(g))
    q = len(g) % 2
    F = env.field
    for c in sorted(_parity_columns(L, q)):
        i, j = divmod(c, L.dim)
        if j in D.entries.get(i, {}):
            raise ParityMismatch(
                f"map sends parity {L.grading[i]} to parity {L.grading[j]}, "
                f"but the monomial has parity {q}"
            )
    index = {b: p for p, b in enumerate(basis)}
    entries = {}
    for p, (i, h) in enumerate(basis):
        gh = grassmann_mul(g, h)
        if gh is None:
            continue
        sign, mono = gh
        sgn = F.from_int(sign)
        # distinct j give distinct targets (j, mono)
        entries[p] = {
            index[j, mono]: F.mul(c, sgn) for j, c in D.entries.get(i, {}).items() if (j, mono) in index
        }
    return LinearMap.from_entries(F, entries, env.dim, env.dim)


class ExpResult(NamedTuple):
    phi: LinearMap
    psi: LinearMap
    verified: bool


def _nilpotent_powers(field: Field, M: LinearMap) -> list[LinearMap]:
    """[I, M, M^2, ..., M^(k-1)] for the nilpotency index k of M, which must
    be less than the characteristic (any index in char 0)."""
    powers = [LinearMap.identity(field, M.nrows)]
    while not powers[-1].is_zero():
        if len(powers) > M.nrows:
            raise NilpotencyTooDeep("map is not nilpotent")
        powers.append(powers[-1].compose(M))
    idx = len(powers) - 1
    if field.char and idx >= field.char:
        raise NilpotencyTooDeep(
            f"nilpotency index {idx} is not less than the characteristic {field.char}"
        )
    return powers[:-1]


def _exp(field: Field, powers: list[LinearMap], c) -> LinearMap:
    """exp(c M) = sum_k c^k M^k / k!, read off the powers of a nilpotent M."""
    acc = powers[0]
    coeff = field.one()
    for k, term in enumerate(powers[1:], 1):
        coeff = field.div(field.mul(coeff, c), field.from_int(k))
        acc = acc.add(term.scale(coeff))
    return acc


def exp_quasiautomorphism(
    alg: Algebra, D: LinearMap, delta=None, F_map: LinearMap | None = None
) -> ExpResult:
    """Exponentiate a nilpotent delta-derivation (or quasiderivation pair).

    For a delta-derivation D: phi = exp(delta D), psi = exp(D), and
    psi(xy) = phi(x) phi(y) is verified on all basis pairs.  For a
    quasiderivation pair (D, F): phi = exp(D), psi = exp(F).  Requires
    nilpotency index less than the characteristic (any index in char 0).
    """
    F = alg.field
    n = alg.dim
    if F_map is None:
        if delta is None:
            raise ValueError("a delta-derivation exponential needs delta")
        delta = parse_scalar(F, delta)
        powers = _nilpotent_powers(F, D)
        phi, psi = _exp(F, powers, delta), _exp(F, powers, F.one())
    else:
        phi = _exp(F, _nilpotent_powers(F, D), F.one())
        psi = _exp(F, _nilpotent_powers(F, F_map), F.one())
    images = [phi.apply(alg.unit_vector(i)) for i in range(n)]
    ok = all(
        F.eq(a, b)
        for i in range(n)
        for j in range(n)
        for a, b in zip(psi.apply(alg.product_vec(i, j)), alg.bracket(images[i], images[j]))
    )
    return ExpResult(phi, psi, ok)
