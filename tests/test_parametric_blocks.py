"""The block-by-block parametric solver against the monolithic reference.

``solve_parametric`` finds the generic rank of each connected block of the
delta-pencil and the base-field delta where the block's rank drops below
it, and adds the drops over the blocks: the dimension at a special delta is
the generic one plus the sum of those drops.  The reference here is the
plain monolithic algorithm: the whole pencil A + delta B, built from the
structure constants and densified, one fraction-free elimination, the
base-field roots of its last pivot, and a pointwise solve at each root.
Both must give the same ``ParametricResult`` on the algebras of the
parametric benchmark workload and on random sparse anticommutative algebras
drawn with hypothesis.  The per-block sweep and the squared GF(p) path
are also checked against fraction-free elimination and a dense
Gauss-Jordan rank at every field point, the squared Q path against
fraction-free elimination of the whole block on tall, square and wide
blocks, and the pinned pencil against the spectrum of the whole unpinned
pencil.  The spectra of sl_n over large prime fields are those over Q read
mod p, found from a few points of each block, and those of sl2 and sl3 in
bases with fractional constants, whose pencils are lowered to integers by
the lcm of the denominators, are those of the standard bases.  Where sympy
is installed, its ``Matrix.rank`` of the pencil at each special delta and
at one generic delta is a second reference over Q.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from deltader.algebras import (
    Algebra,
    make_elduque4,
    make_osp12,
    make_special_linear,
    make_witt_type,
    make_zassenhaus,
)
from deltader.fields import PrimeField, Rationals, poly_trim
from deltader.linalg import base_field_roots, fraction_free_pivots
from deltader.solver import (
    ParametricResult,
    _block_spectrum,
    _pencil_spectrum,
    _pivots_at,
    solve_delta_derivations,
    solve_parametric,
)

from conftest import _integer_entries, dense_gauss_nullspace, diagonally_scaled, poly_eval, rebased

Q = Rationals()


def structure_pencil(alg):
    """The whole pencil, dense, with entries [], [a] or [a, b] for a + delta b,
    built from the structure constants: row (i, j, l) is

        sum_k C_ij^k d_kl  -  delta (sum_k C_kj^l d_ik + sum_k C_ik^l d_jk)

    over every ordered basis pair (i, j), or only i < j for a Lie algebra,
    whose (j, i) rows are the (i, j) rows negated and whose (i, i) rows
    vanish.  Any such full set of pairs has the same rank at every delta,
    generic or special, so the rank does not depend on which pairs the
    package assembles."""
    F = alg.field
    n = alg.dim
    ncols = n * n
    dense = []
    for i in range(n):
        for j in range(i + 1 if alg.flavor == "lie" else 0, n):
            rows = [[[F.zero(), F.zero()] for _ in range(ncols)] for _ in range(n)]
            for k, c in alg.product(i, j).items():
                for l in range(n):
                    rows[l][k * n + l][0] = F.add(rows[l][k * n + l][0], c)
            for k in range(n):
                for l, c in alg.product(k, j).items():
                    rows[l][i * n + k][1] = F.sub(rows[l][i * n + k][1], c)
                for l, c in alg.product(i, k).items():
                    rows[l][j * n + k][1] = F.sub(rows[l][j * n + k][1], c)
            dense.extend([poly_trim(F, entry) for entry in row] for row in rows)
    return dense


def monolithic_parametric(alg):
    """The whole ``structure_pencil`` through one Bareiss elimination.  Every
    special delta is a root of its last pivot, a maximal nonvanishing minor,
    and is confirmed by a pointwise solve."""
    F = alg.field
    ncols = alg.dim * alg.dim
    rank, pivots = fraction_free_pivots(F, structure_pencil(alg), ncols)
    generic = ncols - rank
    specials = []
    for cand in base_field_roots(F, pivots[-1]) if pivots else []:
        d = solve_delta_derivations(alg, cand).dim
        if d > generic:
            specials.append((cand, d))
    return ParametricResult(generic, specials)


WORKLOAD = {
    "sl2/Q": lambda: make_special_linear(2, Q),
    "sl2/GF7": lambda: make_special_linear(2, PrimeField(7)),
    "W11/GF5": lambda: make_zassenhaus(5, 1),
    "W11/GF7": lambda: make_zassenhaus(7, 1),
    "wittZ5/GF7": lambda: make_witt_type(PrimeField(7), range(5), modulus=5),
    "wittZ7/GF11": lambda: make_witt_type(PrimeField(11), range(7), modulus=7),
    "elduque4/Q": lambda: make_elduque4(Q),
    "osp12/Q": lambda: make_osp12(Q),
    "sl3/Q": lambda: make_special_linear(3, Q),
    "wittZ5/Q": lambda: make_witt_type(Q, range(5), modulus=5),
    "wittZ7/Q": lambda: make_witt_type(Q, range(7), modulus=7),
}


@pytest.mark.parametrize("name", list(WORKLOAD))
def test_blocks_match_monolithic_on_workload(name):
    alg = WORKLOAD[name]()
    assert solve_parametric(alg) == monolithic_parametric(alg)


@st.composite
def anticommutative_algebras(draw):
    """A sparse anticommutative algebra of dim 3-6 over GF(5), GF(7) or Q."""
    F = draw(st.sampled_from([PrimeField(5), PrimeField(7), Q]))
    n = draw(st.integers(3, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    products = {}
    for pair in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)):
        terms = draw(st.dictionaries(
            st.integers(0, n - 1), st.integers(-3, 3).filter(bool), min_size=1, max_size=2,
        ))
        products[pair] = {k: F.coerce(Fraction(c, draw(st.sampled_from([1, 2])))) for k, c in terms.items()}
    return Algebra(F, n, [f"e{i}" for i in range(n)], products)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(anticommutative_algebras())
def test_blocks_match_monolithic_on_random_algebras(alg):
    res = solve_parametric(alg)
    assert res == monolithic_parametric(alg)
    F = alg.field
    if isinstance(F, PrimeField):
        specials = dict(res.specials)
        for d in range(F.p):
            assert solve_delta_derivations(alg, d).dim == specials.get(d, res.generic_dim)


# Bases whose constants carry denominators, D > 1 in the lowering of the
# pencil: the seeded dense basis of conftest for sl2 and sl3, and a diagonal
# one for sl3.  Dense sl3 is one pencil block of 64 unknowns, whose square's
# determinant has repeated rational roots; the monolithic reference is left
# out there, since its one Bareiss elimination over Q[delta] of the dense
# 168 x 64 pencil does not end within five minutes, and every special is
# checked pointwise instead, as is delta = 2, which is special for none.
CHANGED_BASES = {
    "rebased sl2/Q": (2, lambda sl: rebased(sl, 5, scale=True), [(-1, 5), (Fraction(1, 2), 1), (1, 3)], True),
    "scaled sl3/Q": (3, lambda sl: diagonally_scaled(sl, [Fraction(x) for x in ("2", "1/2", "3", "-1/3", "5/7", "1", "-2", "7/4")]),
                     [(Fraction(1, 2), 1), (1, 8)], True),
    "rebased sl3/Q": (3, lambda sl: rebased(sl, 1, scale=True), [(Fraction(1, 2), 1), (1, 8)], False),
}


@pytest.mark.parametrize("name", list(CHANGED_BASES))
def test_spectrum_is_invariant_under_change_of_basis(name):
    """The delta-spectrum of sl_n in a basis with fractional constants is
    that of the standard basis and that of the monolithic reference."""
    n, change, specials, monolithic = CHANGED_BASES[name]
    standard = make_special_linear(n, Q)
    alg = change(standard)
    assert math.lcm(*(c.denominator for terms in alg.products.values() for c in terms.values())) > 1
    res = solve_parametric(alg)
    assert (res.generic_dim, res.specials) == (0, [(Q.coerce(d), dim) for d, dim in specials])
    assert res == solve_parametric(standard)
    if monolithic:
        assert res == monolithic_parametric(alg)
    else:
        for d, dim in specials + [(2, 0)]:
            assert solve_delta_derivations(alg, d).dim == dim


# Results that the monolithic elimination cannot reach in reasonable time
# (W(1,2)/GF(5) is a 7500 x 625 pencil); each special is checked pointwise,
# and so is delta = 2, which is special for none of them.
PINNED = {
    "W12/GF5": (lambda: make_zassenhaus(5, 2), 0, [(1, 26), (3, 25)]),
    "sl4/Q": (lambda: make_special_linear(4, Q), 0, [(Fraction(1, 2), 1), (1, 15)]),
    "W11/GF11": (lambda: make_zassenhaus(11, 1), 0, [(1, 11), (6, 11)]),
    "W12/GF7": (lambda: make_zassenhaus(7, 2), 0, [(1, 50), (4, 49)]),
    "sl5/Q": (lambda: make_special_linear(5, Q), 0, [(Fraction(1, 2), 1), (1, 24)]),
}


@pytest.mark.parametrize("p, m", [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2)])
def test_zassenhaus_spectrum_in_closed_form(p, m):
    """W(1, m) over GF(p) has no delta-derivations at a generic delta; the
    derivations have dim p^m + m - 1, the 1/2-derivations dim p^m, and no
    other delta is special."""
    res = solve_parametric(make_zassenhaus(p, m))
    assert (res.generic_dim, res.specials) == (0, [(1, p**m + m - 1), ((p + 1) // 2, p**m)])


@pytest.mark.parametrize("name", list(PINNED))
def test_parametric_pinned(name):
    make, generic, specials = PINNED[name]
    alg = make()
    res = solve_parametric(alg)
    assert (res.generic_dim, res.specials) == (generic, [(alg.field.coerce(d), dim) for d, dim in specials])
    for d, dim in specials:
        assert solve_delta_derivations(alg, d).dim == dim
    assert solve_delta_derivations(alg, 2).dim == generic


@pytest.mark.parametrize("n, p, specials", [
    (2, 10007, [(1, 3), (5004, 1), (10006, 5)]),
    (3, 1009, [(1, 8), (505, 1)]),
    (4, 101, [(1, 15), (51, 1)]),
    (2, 2**31 - 1, [(1, 3), (2**30, 1), (2**31 - 2, 5)]),
    (3, 1000003, [(1, 8), (500002, 1)]),
])
def test_gf_spectrum_of_sl_is_its_q_spectrum_mod_p(n, p, specials):
    """sl_n over a large prime field has the special delta of sl_n over Q,
    read mod p: -1 as p - 1, 1/2 as (p + 1)/2 and 1 as 1."""
    F = PrimeField(p)
    rational = solve_parametric(make_special_linear(n, Q))
    res = solve_parametric(make_special_linear(n, F))
    assert res.generic_dim == rational.generic_dim
    assert res.specials == sorted((F.coerce(d), dim) for d, dim in rational.specials) == specials


def test_squared_gf_blocks_are_ranked_at_few_points(monkeypatch):
    """On sl3 over GF(1009) no block is ranked at more than u + 1 points
    to find its square, u the least of its numbers of rows and columns,
    plus one point for each root of the square's determinant: the blocks
    are not swept over the field."""
    import deltader.solver as solver

    spectrum, pivots_at, roots = solver._block_spectrum, solver._pivots_at, solver.base_field_roots
    blocks, current = [], []

    def counted_spectrum(F, block):
        u = min(len(block), len({c for row in block for c in row}))
        current.append({"u": u, "points": 0, "roots": 0})
        blocks.append(current[-1])
        try:
            return spectrum(F, block)
        finally:
            current.pop()

    def counted_pivots_at(F, block, d):
        current[-1]["points"] += 1
        return pivots_at(F, block, d)

    def counted_roots(F, f):
        found = roots(F, f)
        current[-1]["roots"] += len(found)
        return found

    monkeypatch.setattr(solver, "_block_spectrum", counted_spectrum)
    monkeypatch.setattr(solver, "_pivots_at", counted_pivots_at)
    monkeypatch.setattr(solver, "base_field_roots", counted_roots)
    res = solve_parametric(make_special_linear(3, PrimeField(1009)))
    assert res.specials == [(1, 8), (505, 1)]
    assert any(b["u"] > 3 for b in blocks)
    for b in blocks:
        assert b["points"] <= b["u"] + 1 + b["roots"], b


@pytest.mark.parametrize("name", ["sl2/Q", "elduque4/Q", "osp12/Q", "sl3/Q", "wittZ5/Q"])
def test_q_spectrum_matches_sympy_rank(name):
    """n^2 minus sympy's rank of ``structure_pencil`` at delta is the
    dimension at each special delta and at the generic delta 7/13."""
    sympy = pytest.importorskip("sympy")
    alg = WORKLOAD[name]()
    res = solve_parametric(alg)
    pencil = structure_pencil(alg)
    for d, dim in res.specials + [(Fraction(7, 13), res.generic_dim)]:
        values = [[poly_eval(Q, f, d) for f in row] for row in pencil]
        matrix = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in values])
        assert alg.dim**2 - matrix.rank() == dim


def pointwise_rank(F, block, ncols, d):
    """Rank of a pencil block at delta = d, by textbook Gauss-Jordan."""
    rows = [[poly_eval(F, row.get(c, []), d) for c in range(ncols)] for row in block]
    return ncols - len(dense_gauss_nullspace(F, rows, ncols))


@st.composite
def pencil_blocks(draw):
    """Sparse rows {column: [a, b]} of a pencil a + delta b over GF(5) or
    GF(7), with at least four rows and columns so that the sweep runs."""
    F = draw(st.sampled_from([PrimeField(5), PrimeField(7)]))
    ncols = draw(st.integers(4, 7))
    entry = st.tuples(st.integers(0, F.p - 1), st.integers(0, F.p - 1)).filter(any)
    block = [
        {c: poly_trim(F, list(ab)) for c, ab in row.items()}
        for row in draw(st.lists(
            st.dictionaries(st.integers(0, ncols - 1), entry, min_size=1, max_size=3),
            min_size=4, max_size=9,
        ))
    ]
    assume(len({c for row in block for c in row}) >= 4)
    return F, block, ncols


@settings(derandomize=True, deadline=None, max_examples=200)
@given(pencil_blocks())
def test_block_sweep_matches_bareiss(drawn):
    """The block's generic rank is the Bareiss rank, and its candidates are
    exactly the points where the rank drops, with the rank there; they lie
    among the roots of the last fraction-free pivot."""
    F, block, ncols = drawn
    rank, candidates = _block_spectrum(F, block)
    dense = [[row.get(c, []) for c in range(ncols)] for row in block]
    bareiss_rank, pivots = fraction_free_pivots(F, dense, ncols)
    roots = base_field_roots(F, pivots[-1])
    assert rank == bareiss_rank
    ranks = {d: pointwise_rank(F, block, ncols, d) for d in range(F.p)}
    drops = {d: k for d, k in ranks.items() if k < rank}
    assert candidates == drops
    assert set(drops) <= set(roots)


def test_block_rank_below_every_field_point_needs_bareiss():
    """diag(delta - a) for a = 0..4 over GF(5), joined by a unit
    superdiagonal, has determinant delta^5 - delta: generic rank 5, but
    rank 4 at each of the five field points, so no sweep can see rank 5."""
    F = PrimeField(5)
    block = [{i: [F.neg(i), 1]} for i in range(5)]
    for i in range(4):
        block[i][i + 1] = [1]
    assert all(pointwise_rank(F, block, 5, d) == 4 for d in range(5))
    rank, candidates = _block_spectrum(F, block)
    assert (rank, sorted(candidates)) == (5, [0, 1, 2, 3, 4])


def integral(block):
    """A Q pencil block with each row scaled to integers by the lcm of its
    denominators, as the assembler makes it: over Q ``_block_spectrum``
    and ``_pencil_spectrum`` take rows of ints.  A row scaled by a nonzero
    constant has the same rank at every delta."""
    return [dict(zip(row, _integer_entries(row.values()))) for row in block]


def diagonal_block(F, roots, chained=False):
    """diag(delta - a) over the given a, joined by a unit superdiagonal if
    ``chained``."""
    block = [{i: [F.neg(F.from_int(a)), F.one()]} for i, a in enumerate(roots)]
    if chained:
        for i in range(len(roots) - 1):
            block[i][i + 1] = [F.one()]
    return block


@pytest.mark.parametrize(
    "F, block, spectrum, calls",
    [
        # swept, u = 4 and p = 5 <= u + 1: rank u at delta = 4 settles it
        (PrimeField(5), diagonal_block(PrimeField(5), range(4)), (4, {0: 3, 1: 3, 2: 3, 3: 3}),
         {"_pivots_at": 5, "_pencil_det": 0, "fraction_free_pivots": 0, "base_field_roots": 0}),
        # swept, u = p = 5 and rank 4 at every point: one fraction-free
        # elimination gives r = 5, and the drops are the swept ranks
        (PrimeField(5), diagonal_block(PrimeField(5), range(5), chained=True), (5, {d: 4 for d in range(5)}),
         {"_pivots_at": 5, "_pencil_det": 0, "fraction_free_pivots": 1, "base_field_roots": 0}),
        # u = 3: fraction-free elimination, ranked only at the roots of its
        # last pivot
        (PrimeField(7), diagonal_block(PrimeField(7), range(3)), (3, {0: 2, 1: 2, 2: 2}),
         {"_pivots_at": 3, "_pencil_det": 0, "fraction_free_pivots": 1, "base_field_roots": 1}),
        # over Q: squared, with rank u first at delta = 4, then ranked at
        # the four roots of the square's determinant
        (Q, integral(diagonal_block(Q, range(4))), (4, {0: 3, 1: 3, 2: 3, 3: 3}),
         {"_pivots_at": 9, "_pencil_det": 1, "fraction_free_pivots": 0, "base_field_roots": 1}),
    ],
    ids=["sweep", "sweep-below-every-point", "bareiss", "square"],
)
def test_block_route_table(monkeypatch, F, block, spectrum, calls):
    """Each block takes exactly one route of ``_block_spectrum``, read off
    the calls it makes."""
    import deltader.solver as solver

    counts = dict.fromkeys(calls, 0)

    def counted(name):
        original = getattr(solver, name)

        def call(*args):
            counts[name] += 1
            return original(*args)

        return call

    for name in calls:
        monkeypatch.setattr(solver, name, counted(name))
    assert _block_spectrum(F, block) == spectrum
    assert counts == calls


@st.composite
def squared_gf_blocks(draw):
    """Sparse rows {column: [a, b]} of a pencil a + delta b over GF(11),
    GF(13) or GF(101), with 4-8 columns and 4-14 rows, so that u, the least
    of the numbers of rows and columns, is above three and below p - 1:
    the block is squared, and it is often tall.  Small coefficients are
    favoured, so that entries vanish at delta = 0 and ranks drop."""
    F = draw(st.sampled_from([PrimeField(11), PrimeField(13), PrimeField(101)]))
    ncols = draw(st.integers(4, 8))
    coef = st.one_of(st.sampled_from([0, 1, F.p - 1]), st.integers(0, F.p - 1))
    entry = st.tuples(coef, coef).filter(any)
    block = [
        {c: poly_trim(F, list(ab)) for c, ab in row.items()}
        for row in draw(st.lists(
            st.dictionaries(st.integers(0, ncols - 1), entry, min_size=1, max_size=3),
            min_size=4, max_size=14,
        ))
    ]
    assume(len({c for row in block for c in row}) >= 4)
    return F, block, ncols


@settings(derandomize=True, deadline=None, max_examples=150)
@given(squared_gf_blocks())
def test_squared_gf_block_matches_bareiss(drawn):
    """As ``test_block_sweep_matches_bareiss``, on blocks that are squared
    rather than swept: the generic rank is the Bareiss rank, and the drops
    are exactly the points of GF(p) where the rank falls below it."""
    F, block, ncols = drawn
    rank, candidates = _block_spectrum(F, block)
    dense = [[row.get(c, []) for c in range(ncols)] for row in block]
    bareiss_rank, pivots = fraction_free_pivots(F, dense, ncols)
    assert rank == bareiss_rank
    ranks = {d: pointwise_rank(F, block, ncols, d) for d in range(F.p)}
    drops = {d: k for d, k in ranks.items() if k < rank}
    assert candidates == drops
    assert set(drops) <= set(base_field_roots(F, pivots[-1]))


def test_squared_q_block_drops_only_at_one_half():
    """[[delta, 1/3, 0], [3/2, 1, 1/7], [0, 0, 1/5]] has determinant
    (delta - 1/2) / 5.  Its rows have the denominators 3, 14 and 5, and at
    delta = 1/2 each is ranked as t a + s b with s/t = 1/2: the constant
    entries must be scaled by t too, or the first two rows, proportional
    there, would not be."""
    third, half = Fraction(1, 3), Fraction(1, 2)
    block = [
        {0: [Fraction(0), Fraction(1)], 1: [third]},
        {0: [Fraction(3, 2)], 1: [Fraction(1)], 2: [Fraction(1, 7)]},
        {2: [Fraction(1, 5)]},
    ]
    assert pointwise_rank(Q, block, 3, half) == 2
    assert _block_spectrum(Q, integral(block)) == (3, {half: 2})


@pytest.mark.parametrize("F", [Q, PrimeField(7)], ids=["Q", "GF7"])
def test_spurious_root_of_last_pivot_is_not_a_drop(F):
    """The one row (delta, 1): its last pivot delta has the root 0, but the
    row keeps rank 1 there, so no delta is special."""
    assert _block_spectrum(F, [{0: [0, 1], 1: [1]}]) == (1, {})


def test_sweep_reduces_entries_that_vanish_mod_p():
    """The sweep evaluates a + b delta as a plain int: at delta = 2 the
    entry 3 + 2 delta of the first row is 7, zero in GF(7), and at delta = 6
    the entry 6 + 6 delta of the last row is 42.  Such an entry must be
    reduced away before elimination: left in, it would be taken as its
    row's pivot and its multiple of 7 inverted, or counted in the rank."""
    F = PrimeField(7)
    block = [
        {0: [3, 2], 1: [1]},
        {1: [1, 1], 2: [2]},
        {2: [0, 1], 3: [1]},
        {3: [6, 6], 0: [1]},
    ]
    assert _pivots_at(F, block[:1], 2) == ([0], [1])
    assert _pivots_at(F, [{3: [6, 6]}, {3: [1]}], 6) == ([1], [3])
    ranks = {d: pointwise_rank(F, block, 4, d) for d in range(F.p)}
    rank, drops = _block_spectrum(F, block)
    assert (rank, drops) == (4, {d: k for d, k in ranks.items() if k < 4})


def test_block_spectrum_takes_plain_int_entries_over_q():
    # Rationals.inv of a plain int used to give a float, which failed in
    # linalg._primitive
    assert _block_spectrum(Q, [{0: [0, 1], 1: [1]}]) == (1, {})


@st.composite
def tall_rational_blocks(draw):
    """Sparse rows {column: [a] or [a, b]} of a pencil a + delta b over Q,
    with more rows than columns, so that the squared path runs."""
    ncols = draw(st.integers(2, 6))
    entry = st.tuples(
        st.integers(-3, 3), st.integers(-2, 2), st.sampled_from([1, 2])
    ).filter(lambda t: t[0] or t[1])
    block = [
        {c: poly_trim(Q, [Fraction(a, den), Fraction(b, den)]) for c, (a, b, den) in row.items()}
        for row in draw(st.lists(
            st.dictionaries(st.integers(0, ncols - 1), entry, min_size=1, max_size=3),
            min_size=3, max_size=10,
        ))
    ]
    assume(len(block) > len({c for row in block for c in row}))
    return block, ncols


@settings(derandomize=True, deadline=None, max_examples=200)
@given(tall_rational_blocks())
def test_squared_block_matches_whole_bareiss(drawn):
    """The rank of the squared Q path is the Bareiss rank of the whole
    block, and its candidates are exactly the roots of the whole block's
    last pivot at which the block's rank drops."""
    block, ncols = drawn
    rank, candidates = _block_spectrum(Q, integral(block))
    dense = [[row.get(c, []) for c in range(ncols)] for row in block]
    bareiss_rank, pivots = fraction_free_pivots(Q, dense, ncols)
    assert rank == bareiss_rank
    drops = [d for d in base_field_roots(Q, pivots[-1]) if pointwise_rank(Q, block, ncols, d) < rank]
    assert sorted(candidates) == drops


@st.composite
def square_or_wide_rational_blocks(draw):
    """Sparse rows {column: [a] or [a, b]} of a pencil a + delta b over Q,
    with no more rows than columns, which the squared path takes too."""
    ncols = draw(st.integers(1, 7))
    entry = st.tuples(
        st.integers(-9, 9), st.integers(-5, 5), st.sampled_from([1, 2, 3, 7])
    ).filter(lambda t: t[0] or t[1])
    block = [
        {c: poly_trim(Q, [Fraction(a, den), Fraction(b, den)]) for c, (a, b, den) in row.items()}
        for row in draw(st.lists(
            st.dictionaries(st.integers(0, ncols - 1), entry, min_size=1, max_size=4),
            min_size=1, max_size=ncols,
        ))
    ]
    assume(len(block) <= len({c for row in block for c in row}))
    return block, ncols


@settings(derandomize=True, deadline=None, max_examples=200)
@given(square_or_wide_rational_blocks())
def test_square_and_wide_blocks_match_whole_bareiss(drawn):
    """As ``test_squared_block_matches_whole_bareiss``, on blocks with no
    more rows than columns."""
    block, ncols = drawn
    rank, candidates = _block_spectrum(Q, integral(block))
    dense = [[row.get(c, []) for c in range(ncols)] for row in block]
    bareiss_rank, pivots = fraction_free_pivots(Q, dense, ncols)
    assert rank == bareiss_rank
    drops = [d for d in base_field_roots(Q, pivots[-1]) if pointwise_rank(Q, block, ncols, d) < rank]
    assert sorted(candidates) == drops


def test_tall_block_rank_below_generic_at_first_points():
    """diag(delta - a) for a = 0..4 over Q, joined by a unit superdiagonal,
    with its first two rows repeated: rank 4 at delta = 0, 1, 2, 3, 4, so
    only the sixth point, delta = 5, shows the generic rank 5."""
    u = 5
    block = [{i: [Fraction(-i), Fraction(1)]} for i in range(u)]
    for i in range(u - 1):
        block[i][i + 1] = [Fraction(1)]
    block += [dict(row) for row in block[:2]]
    assert [pointwise_rank(Q, block, u, d) for d in range(u + 1)] == [4, 4, 4, 4, 4, 5]
    rank, candidates = _block_spectrum(Q, integral(block))
    assert (rank, sorted(candidates)) == (u, list(range(u)))


@st.composite
def cascading_pencils(draw):
    """Shuffled sparse rows {column: [a] or [a, b]} of a pencil a + delta b
    over GF(5), GF(7) or Q, as the assembly gives them: a != 0 in [a] and
    b != 0 in [a, b].  A row for each column of depth 0 to 3 has an entry
    there and its other entries in columns of lower depth, so it is left
    with that one entry once those are pinned.  The entry is a constant
    [a], which pins, or a + b delta or b delta, which must not, since its
    rank drops at delta = -a/b.  An unrelated block of rows on the other
    columns may also meet the cascade's columns."""
    F = draw(st.sampled_from([PrimeField(5), PrimeField(7), Q]))
    if isinstance(F, PrimeField):
        scalars = st.integers(1, F.p - 1)
    else:
        scalars = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from([1, 2]))
    entries = st.one_of(
        st.builds(lambda a: [a], scalars),
        st.builds(lambda a, b: [a, b], scalars, scalars),
        st.builds(lambda b: [F.zero(), b], scalars),
    )
    ncols = draw(st.integers(1, 9))
    order = draw(st.permutations(range(ncols)))
    layers, start = [], 0
    for k in draw(st.lists(st.integers(1, 3), max_size=4)):
        layer = order[start : start + k]
        if layer:
            layers.append(layer)
            start += len(layer)
    rows = []
    for d, layer in enumerate(layers):
        lower = [c for lay in layers[:d] for c in lay]
        for col in layer:
            row = {col: draw(entries)}
            if d:
                for c in draw(st.lists(st.sampled_from(lower), min_size=1, max_size=2, unique=True)):
                    row[c] = draw(entries)
            rows.append(row)
    cascade, free = order[:start], order[start:]
    for _ in range(draw(st.integers(0, 4)) if free else 0):
        cols = draw(st.lists(st.sampled_from(free), min_size=1, max_size=3, unique=True))
        cols += draw(st.lists(st.sampled_from(cascade), max_size=1)) if cascade else []
        rows.append({c: draw(entries) for c in cols})
    assume(rows)
    return F, draw(st.permutations(rows)), ncols


@settings(derandomize=True, deadline=None, max_examples=300)
@given(cascading_pencils())
def test_pinned_pencil_matches_unpinned_spectrum(drawn):
    """Pinning the constant one-entry rows, then adding up the spectra of
    the blocks left, gives the spectrum of the whole pencil unpinned, and
    over GF(p) the rank at every field point."""
    F, pencil, ncols = drawn
    if isinstance(F, Rationals):
        pencil = integral(pencil)
    rank, ranks = _pencil_spectrum(F, pencil)
    assert (rank, ranks) == _block_spectrum(F, pencil)
    if isinstance(F, PrimeField):
        assert all(pointwise_rank(F, pencil, ncols, d) == ranks.get(d, rank) for d in range(F.p))
