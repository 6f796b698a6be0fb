"""The block-by-block parametric solver against the monolithic reference.

``solve_parametric`` eliminates each connected block of the delta-pencil on
its own and takes its candidate delta from the roots of every block's last
pivot.  The reference here is the plain monolithic algorithm: the whole
pencil A + delta B densified to n^2(n-1)/2 x n^2, one fraction-free
elimination, the base-field roots of its last pivot, and a pointwise solve
at each root.  Both must give the same ``ParametricResult`` on the algebras
of the parametric benchmark workload and on random sparse anticommutative
algebras drawn with hypothesis.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
from deltader.solver import ParametricResult, _law_rows, solve_delta_derivations, solve_parametric

Q = Rationals()


def monolithic_parametric(alg):
    """The whole pencil, densified, through one Bareiss elimination."""
    F = alg.field
    ncols = alg.dim * alg.dim
    dense = []
    for a_row, ab_row in zip(_law_rows(alg, F.zero(), F.zero()), _law_rows(alg, F.one(), F.one())):
        r = [[] for _ in range(ncols)]
        for c in a_row.keys() | ab_row.keys():
            a = a_row.get(c, F.zero())
            r[c] = poly_trim(F, [a, F.sub(ab_row.get(c, F.zero()), a)])
        dense.append(r)
    rank, pivots = fraction_free_pivots(F, dense, ncols)
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


# Results that the monolithic elimination cannot reach in reasonable time
# (W(1,2)/GF(5) is a 7500 x 625 pencil); each special is checked pointwise,
# and so is delta = 2, which is special for none of them.
PINNED = {
    "W12/GF5": (lambda: make_zassenhaus(5, 2), 0, [(1, 26), (3, 25)]),
    "sl4/Q": (lambda: make_special_linear(4, Q), 0, [(Fraction(1, 2), 1), (1, 15)]),
    "W11/GF11": (lambda: make_zassenhaus(11, 1), 0, [(1, 11), (6, 11)]),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_parametric_pinned(name):
    make, generic, specials = PINNED[name]
    alg = make()
    res = solve_parametric(alg)
    assert (res.generic_dim, res.specials) == (generic, [(alg.field.coerce(d), dim) for d, dim in specials])
    for d, dim in specials:
        assert solve_delta_derivations(alg, d).dim == dim
    assert solve_delta_derivations(alg, 2).dim == generic
