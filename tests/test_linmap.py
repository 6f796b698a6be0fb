"""``LinearMap`` keeps only its nonzero entries.  Every operation is checked
here against a dense reference written out below, on drawn maps over GF(p),
Q and Q[t]/(t^2), a ring with zero divisors, so that a product of nonzero
entries may vanish.  Drawn dense input has explicit zeros, and maps may have
no rows."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deltader.algebras import make_special_linear, make_zassenhaus
from deltader.fields import PrimeField, QuotientRing, Rationals
from deltader.linmap import LinearMap
from deltader.solver import is_delta_derivation

Q = Rationals()
T2 = QuotientRing(Q, [0, 0, 1])
FIELDS = {"GF5": PrimeField(5), "GF7": PrimeField(7), "Q": Q, "Q[t]/(t^2)": T2}


def scalars(F):
    if isinstance(F, PrimeField):
        return st.sampled_from([0, 0, 1, F.p - 1]) | st.integers(0, F.p - 1)
    if isinstance(F, Rationals):
        return st.sampled_from([Fraction(v) for v in (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 7))])
    small = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-2)])
    return st.tuples(small, small)


def dense_compose(F, a, b, ncols):
    """a then b, as ``LinearMap.compose``: the matrix product a b."""
    out = [[F.zero()] * ncols for _ in a]
    for i, row in enumerate(a):
        for k, c in enumerate(row):
            for j in range(ncols):
                out[i][j] = F.add(out[i][j], F.mul(c, b[k][j]))
    return out


def dense_apply(F, a, v, ncols):
    out = [F.zero()] * ncols
    for c, row in zip(v, a):
        out = [F.add(x, F.mul(c, y)) for x, y in zip(out, row)]
    return out


@st.composite
def matrices(draw, F, nrows, ncols):
    return [[draw(scalars(F)) for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def cases(draw):
    F = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    return F, n, k, m, draw(matrices(F, n, k)), draw(matrices(F, k, m)), draw(matrices(F, n, k))


def kept(F, M):
    """M as its dense rows, once its entries are checked to hold no zero
    coefficient and no empty row: ``is_zero`` and ``==`` rely on it."""
    assert all(M.entries.values())
    assert all(not F.is_zero(x) for row in M.entries.values() for x in row.values())
    assert M.is_zero() == (not M.entries)
    return M.rows


def same(F, got, want):
    return len(got) == len(want) and all(
        len(r) == len(s) and all(F.eq(x, y) for x, y in zip(r, s)) for r, s in zip(got, want)
    )


@settings(derandomize=True, deadline=None, max_examples=300)
@given(cases(), st.data())
def test_sparse_map_agrees_with_dense_reference(case, data):
    F, n, k, m, a, b, c = case
    A, B, C = LinearMap(F, a), LinearMap(F, b), LinearMap(F, c)
    cols = k if n else 0  # a map with no rows has no columns
    assert (A.nrows, A.ncols) == (n, cols)
    assert same(F, kept(F, A), a)
    assert same(F, [A.flat()], [[x for row in a for x in row]])
    assert A.to_json() == [[F.fmt(x) for x in row] for row in a]
    assert A.is_zero() == all(F.is_zero(x) for row in a for x in row)
    assert LinearMap.from_flat(F, A.vector(), n, k) == A
    assert LinearMap.from_flat(F, A.flat(), n, k) == A
    # compose, when the shapes meet
    if n:
        assert same(F, kept(F, A.compose(B)), dense_compose(F, a, b, m if k else 0))
    # add and scale
    total = [[F.add(x, y) for x, y in zip(r, s)] for r, s in zip(a, c)]
    assert same(F, kept(F, A.add(C)), total)
    assert A.add(C).is_zero() == all(F.is_zero(x) for row in total for x in row)
    s = data.draw(scalars(F))
    assert same(F, kept(F, A.scale(s)), [[F.mul(s, x) for x in row] for row in a])
    # apply
    v = data.draw(st.lists(scalars(F), min_size=n, max_size=n))
    assert same(F, [A.apply(v)], [dense_apply(F, a, v, cols)])
    # equality: the same map built another way, and a different one
    assert A == LinearMap(F, A.rows) == A.add(LinearMap.zero(F, n, k))
    assert (A == C) == same(F, a, c)
    assert (A != C) == (not same(F, a, c))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from(sorted(FIELDS)), st.integers(0, 4), st.integers(0, 4), st.data())
def test_power_agrees_with_dense_reference(name, n, k, data):
    F = FIELDS[name]
    a = data.draw(matrices(F, n, n))
    want = [[F.one() if i == j else F.zero() for j in range(n)] for i in range(n)]
    for _ in range(k):
        want = dense_compose(F, want, a, n)
    assert same(F, kept(F, LinearMap(F, a).power(k)), want)


def test_shape_mismatches_raise():
    F = PrimeField(5)
    a, b = LinearMap.identity(F, 2), LinearMap.identity(F, 3)
    with pytest.raises(ValueError, match="sum"):
        a.add(b)
    with pytest.raises(ValueError, match="sum"):
        LinearMap.zero(F, 2, 3).add(LinearMap.zero(F, 2, 2))
    with pytest.raises(ValueError, match="composition"):
        a.compose(b)
    with pytest.raises(ValueError, match="non-square"):
        LinearMap.zero(F, 2, 3).power(2)
    with pytest.raises(ValueError, match="lengths"):
        LinearMap(F, [[1, 0], [1]])


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 3), (4, 4)])
def test_delta_derivation_check_refuses_a_map_of_the_wrong_shape(shape):
    sl2 = make_special_linear(2, Q)
    with pytest.raises(ValueError, match="not 3 x 3"):
        is_delta_derivation(sl2, LinearMap.zero(Q, *shape), 1)
    w = make_zassenhaus(5, 1)
    assert is_delta_derivation(w, LinearMap.zero(w.field, 5), 1)
