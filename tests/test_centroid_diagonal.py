"""The centroid's diagonal equations chi(e_i) e_i = 0.

For a Lie algebra the solvers assemble the equation pairs i < j only,
since a law with a = b has vanishing rows on (i, i).  The centroid's laws
(1, 0) and (0, 1), taken one at a time, say chi(e_i) e_i = chi(e_i e_i) = 0
there, which the other pairs do not imply on an algebra that is not
perfect; the same holds for the even basis vectors of a superalgebra.  The
drawn algebras are not perfect: x acts on an abelian ideal V by a drawn
matrix, so x is outside [L, L], beside a Heisenberg algebra, sl2 or
nothing, and some are taken to a dense basis.  Their centroids must be
those of the dense oracle of ``conftest``.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from deltader.algebras import Algebra
from deltader.fields import PrimeField, Rationals
from deltader.solver import solve_centroid, solve_supercentroid

from conftest import oracle_centroid, rebased

Q = Rationals()


def test_centroid_of_a_two_dimensional_action():
    """[e0, e1] = e0 / 2 in dimension 3: the map e1 -> e0 passes the
    equations of the pairs i < j but fails chi(e1) e1 = 0, so the
    centroid has dimension 3, the oracle's, not 4."""
    alg = Algebra(Q, 3, ["e0", "e1", "e2"], {(0, 1): {0: Fraction(1, 2)}})
    space = solve_centroid(alg)
    assert space.dim == len(oracle_centroid(alg)) == 3
    assert [m.flat() for m in space.basis] == oracle_centroid(alg)


def test_even_supercentroid_keeps_the_even_diagonal():
    """Even e0, e1 and odd e2 with [e0, e1] = e0: an even chi is a on
    e0 and e1, since chi(e1) e1 = 0 kills the e0 part of chi(e1), and
    free on e2, so the even supercentroid has dimension 2; the odd one
    has dimension 1."""
    alg = Algebra(Q, 3, ["e0", "e1", "e2"], {(0, 1): {0: Fraction(1)}}, flavor="super", grading=[0, 0, 1])
    assert solve_supercentroid(alg, 0).dim == 2
    assert solve_supercentroid(alg, 1).dim == 1


@st.composite
def non_perfect_lie_algebras(draw):
    """x acting on an abelian V (dim 1 or 2) by a drawn matrix, beside
    nothing, a Heisenberg algebra or sl2, over Q, GF(5) or GF(7); half of
    them in the dense basis of ``conftest.rebased``."""
    F = draw(st.sampled_from([Q, PrimeField(5), PrimeField(7)]))
    scalar = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)] if F == Q else range(F.p))
    k = draw(st.integers(1, 2))
    products = {}
    for i in range(k):
        terms = {1 + j: F.coerce(c) for j in range(k) if (c := draw(scalar))}
        if terms:
            products[(0, 1 + i)] = terms
    n = 1 + k
    extra = draw(st.sampled_from(["none", "heisenberg", "sl2"]))
    if extra == "heisenberg":
        products[(n, n + 1)] = {n + 2: F.one()}
        n += 3
    elif extra == "sl2":  # e, f, h: [e, f] = h, [e, h] = -2e, [f, h] = 2f
        products[(n, n + 1)] = {n + 2: F.one()}
        products[(n, n + 2)] = {n: F.coerce(-2)}
        products[(n + 1, n + 2)] = {n + 1: F.coerce(2)}
        n += 3
    alg = Algebra(F, n, [f"e{i}" for i in range(n)], products)
    if draw(st.booleans()):
        alg = rebased(alg, draw(st.integers(1, 50)))
    return alg


@settings(derandomize=True, deadline=None, max_examples=40)
@given(non_perfect_lie_algebras())
def test_centroid_matches_dense_oracle(alg):
    assert [m.flat() for m in solve_centroid(alg).basis] == oracle_centroid(alg)
