"""The paper's first result as a metamorphic relation on current algebras.

Hypotheses: L is perfect ([L, L] = L) and centerless, and A is a unital
commutative associative algebra, all finite-dimensional over one field.
Then every delta-derivation of the current algebra L (x) A is a sum of maps
x (x) a -> D(x) (x) a with D in Der_delta(L) and, for delta = 1 only, maps
x (x) a -> chi(x) (x) d(a) with chi in the centroid Gamma(L) and d in Der(A),
so that

    dim Der_delta(L (x) A) = dim A * dim Der_delta(L) + [delta = 1] dim Gamma(L) dim Der(A).

Gamma(L) is read off ``solve_centroid`` and Der(A) off
``solve_delta_derivations(A, 1)``; the test checks the hypotheses on each
case before it compares the two sides.

At delta = 1/2 the formula says that the half-derivations of L (x) A are
Der_1/2(L) (x) A, and they compose as a ring of dimension
dim A * dim Der_1/2(L).  On every family below it is commutative and
local.  Each A here is local, so once dim A >= 2 it has a nilpotent t != 0,
and x (x) a -> x (x) ta is a nilpotent half-derivation, a divisor of zero:
the paper's negative answer to a question of Filippov.  For A = K the
ring of sl2 is K itself, with none.
"""

from fractions import Fraction

import pytest

from deltader.algebras import (
    Algebra,
    make_current,
    make_divided_powers,
    make_osp12,
    make_special_linear,
    make_zassenhaus,
)
from deltader.fields import PrimeField, Rationals
from deltader.halfring import build_composition_ring, find_zero_divisors, locality_report
from deltader.solver import solve_centroid, solve_delta_derivations

Q, GF5, GF7 = Rationals(), PrimeField(5), PrimeField(7)
HALF = Fraction(1, 2)


def truncated_polynomials(F, k: int) -> Algebra:
    """K[t]/(t^k) on the basis 1, t, ..., t^(k-1)."""
    products = {(i, j): {i + j: F.one()} for i in range(k) for j in range(i, k) if i + j < k}
    return Algebra(F, k, [f"t^{i}" for i in range(k)], products, flavor="assoc")


CASES = (
    [("sl2/Q", f"Q[t]/(t^{k})", d) for k in (1, 2, 3) for d in (1, HALF, -1, 2, 0)]
    + [("sl3/Q", "Q[t]/(t^2)", d) for d in (1, HALF, -1)]
    + [("W11/GF5", a, d) for a in ("O1(1)/GF5", "GF5[t]/(t^2)") for d in (1, HALF, -1, 2)]
    + [("sl2/GF7", "GF7[t]/(t^3)", d) for d in (1, HALF, -1, 2)]
    + [("osp12/GF7", "GF7[t]/(t^2)", d) for d in (1, HALF, -1)]
)


def build(name: str) -> Algebra:
    return {
        "sl2/Q": lambda: make_special_linear(2, Q),
        "sl3/Q": lambda: make_special_linear(3, Q),
        "W11/GF5": lambda: make_zassenhaus(5, 1),
        "sl2/GF7": lambda: make_special_linear(2, GF7),
        "osp12/GF7": lambda: make_osp12(GF7),
        "O1(1)/GF5": lambda: make_divided_powers(5, 1),
        "Q[t]/(t^1)": lambda: truncated_polynomials(Q, 1),
        "Q[t]/(t^2)": lambda: truncated_polynomials(Q, 2),
        "Q[t]/(t^3)": lambda: truncated_polynomials(Q, 3),
        "GF5[t]/(t^2)": lambda: truncated_polynomials(GF5, 2),
        "GF7[t]/(t^2)": lambda: truncated_polynomials(GF7, 2),
        "GF7[t]/(t^3)": lambda: truncated_polynomials(GF7, 3),
    }[name]()


def check_hypotheses(L: Algebra, A: Algebra) -> None:
    assert len(L.commutant()) == L.dim, "L is not perfect"
    assert L.center() == [], "L has a center"
    assert A.flavor == "assoc"  # stored for i <= j only, so commutative
    one = A.unit_vector(0)
    assert all(A.bracket(one, A.unit_vector(i)) == A.unit_vector(i) for i in range(A.dim)), "A has no unit e_0"


@pytest.mark.parametrize("left,right,delta", CASES, ids=[f"{l}x{r}@{d}" for l, r, d in CASES])
def test_current_algebra_delta_derivation_dimension(left, right, delta):
    L, A = build(left), build(right)
    check_hypotheses(L, A)
    expected = A.dim * solve_delta_derivations(L, delta).dim
    if delta == 1:
        expected += solve_centroid(L).dim * solve_delta_derivations(A, 1).dim
    assert solve_delta_derivations(make_current(L, A), delta).dim == expected


FAMILIES = list(dict.fromkeys((left, right) for left, right, _ in CASES))


@pytest.mark.parametrize("left,right", FAMILIES, ids=[f"{l}x{r}" for l, r in FAMILIES])
def test_current_algebra_half_ring_has_zero_divisors(left, right):
    L, A = build(left), build(right)
    check_hypotheses(L, A)
    ring = build_composition_ring(solve_delta_derivations(make_current(L, A), HALF))
    assert ring.dim == A.dim * solve_delta_derivations(L, HALF).dim
    assert ring.is_commutative() and locality_report(ring)["is_local"]
    pairs = find_zero_divisors(ring)
    assert bool(pairs) == (A.dim >= 2)
    for u, v in pairs:
        assert not ring.is_zero(u) and not ring.is_zero(v) and ring.is_zero(ring.mul(u, v))
