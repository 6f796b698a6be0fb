from fractions import Fraction

import pytest

from deltader.algebras import (
    Algebra,
    make_current,
    make_special_linear,
    make_witt_type,
    make_zassenhaus,
)
from deltader.fields import PrimeField, Rationals
from deltader.halfring import (
    CompositionRing,
    build_composition_ring,
    find_zero_divisors,
    half_ring_report,
    locality_report,
    nilradical,
    witt_half_basis,
)
from deltader.linalg import same_span
from deltader.linmap import LinearMap
from deltader.solver import solve_delta_derivations

Q = Rationals()


def half_space(alg):
    F = alg.field
    return solve_delta_derivations(alg, F.div(F.one(), F.from_int(2)))


def test_ring_multiplication_is_composition():
    alg = make_zassenhaus(5, 1)
    F = alg.field
    ring = build_composition_ring(half_space(alg))
    for a in range(ring.dim):
        for b in range(ring.dim):
            ea = ring.unit(a) if callable(getattr(ring, "unit", None)) else None
            # table entry coordinates reproduce the actual composed map
            prod_map = ring.as_map(ring.table[a][b])
            composed = ring.basis[b].compose(ring.basis[a])
            assert prod_map.rows == composed.rows
    # u^0 is the identity map, which a ring without one cannot give
    u = ring.table[0][0]
    assert ring.as_map(ring.power(u, 0)).rows == LinearMap.identity(F, alg.dim).rows
    bare = CompositionRing(alg, ring.basis, ring.table, None)
    with pytest.raises(ValueError, match="no zeroth power"):
        bare.power(u, 0)
    # powers by squaring bracket the product otherwise, to the same value
    for u in ring.table[1] + [[1, 2, 0, 3, 4]]:
        acc = list(u)
        for k in range(1, 13):
            assert ring.power(u, k) == acc
            acc = ring.mul(acc, u)


def test_ring_commutative_local_w11():
    alg = make_zassenhaus(5, 1)
    ring = build_composition_ring(half_space(alg))
    assert ring.dim == 5
    assert ring.is_commutative()
    rep = locality_report(ring)
    assert rep["is_local"]
    assert rep["nilradical_dim"] == 4


def test_nilradical_elements_are_nilpotent():
    alg = make_zassenhaus(5, 1)
    ring = build_composition_ring(half_space(alg))
    for v in nilradical(ring):
        assert ring.is_nilpotent(v)


def test_sl2_ring_is_field():
    sl2 = make_special_linear(2, Q)
    ring = build_composition_ring(half_space(sl2))
    assert ring.dim == 1
    assert not find_zero_divisors(ring)
    rep = locality_report(ring)
    assert rep["nilradical_dim"] == 0


def truncated_polynomials(k):
    """Q[t]/(t^k) as a commutative associative algebra on 1, t, ..., t^(k-1)."""
    products = {(i, j): {i + j: Fraction(1)} for i in range(k) for j in range(i, k) if i + j < k}
    return Algebra(Q, k, [f"t{i}" for i in range(k)], products, flavor="assoc")


@pytest.mark.parametrize("k", [2, 3, 4])
def test_current_algebra_half_ring_over_q(k):
    # sl2 (x) Q[t]/(t^k): the half-derivations are the multiplications by
    # Q[t]/(t^k), a local ring with nilradical (t) of dim k - 1, and its
    # nilpotent half-derivations are divisors of zero
    alg = make_current(make_special_linear(2, Q), truncated_polynomials(k))
    ring = build_composition_ring(half_space(alg))
    rep = locality_report(ring)
    assert (ring.dim, rep["nilradical_dim"], rep["is_local"]) == (k, k - 1, True)
    assert all(ring.is_nilpotent(v) for v in nilradical(ring))
    pairs = find_zero_divisors(ring)
    assert pairs
    assert all(ring.is_zero(ring.mul(u, v)) for u, v in pairs)


def test_zero_divisors_verified():
    alg = make_zassenhaus(5, 1)
    ring = build_composition_ring(half_space(alg))
    pairs = find_zero_divisors(ring)
    assert pairs
    for u, v in pairs:
        assert not ring.is_zero(u)
        assert not ring.is_zero(v)
        assert ring.is_zero(ring.mul(u, v))


def test_witt_half_basis_spans_solution():
    for support in ([-1, 0, 1], [-4, 0, 4], [0]):
        alg = make_witt_type(Q, support)
        basis = witt_half_basis(alg)
        space = half_space(alg)
        assert len(basis) == space.dim
        assert same_span(
            [m.flat() for m in basis], [m.flat() for m in space.basis], Q
        )


def test_two_element_support_has_extra_half_derivation():
    # For R = {0, a} the truncated shift e_0 -> e_a, e_a -> 0 is also a
    # half-derivation, so the solution space is one bigger than the span of
    # the shift maps D_gamma with 2*gamma in R.
    alg = make_witt_type(Q, [0, 3])
    space = half_space(alg)
    basis = witt_half_basis(alg)
    assert space.dim == 2
    assert len(basis) == 1
    for m in basis:
        assert space.contains(m)


def test_half_ring_report_shape():
    rep = half_ring_report(make_zassenhaus(5, 1))
    assert rep["closed"] and rep["commutative"] and rep["is_local"]
    assert rep["half_derivations_dim"] == 5
    assert rep["nilradical_dim"] == 4
    assert rep["zero_divisor_witness"] is not None


def test_power_squares_the_ring_over_a_large_prime(monkeypatch):
    """Over GF(p) the nilradical raises each basis element to the p-th power.
    By repeated squaring a report of sl2 over GF(10^9 + 7) makes O(log p)
    ring multiplications, not p - 1 (about half an hour), and reads as the
    report over GF(7): the half-derivations are the scalars either way."""
    mul, calls = CompositionRing.mul, []

    def counted(ring, u, v):
        calls.append(None)
        if len(calls) > 500:
            raise AssertionError("more than 500 ring multiplications")
        return mul(ring, u, v)

    monkeypatch.setattr(CompositionRing, "mul", counted)
    rep = half_ring_report(make_special_linear(2, PrimeField(10**9 + 7)))
    assert rep == half_ring_report(make_special_linear(2, PrimeField(7)))
    assert rep["closed"] and rep["is_local"] and rep["nilradical_dim"] == 0


@pytest.mark.parametrize("p, m", [(7, 2), (5, 3)], ids=["W12/GF7", "W13/GF5"])
def test_zassenhaus_half_ring_has_zero_divisors(p, m):
    """The paper's answer to Filippov's question on W(1, m) over GF(p): the
    half-derivations, of dimension p^m, form a ring under composition that
    is closed, commutative and local, its nilradical of codimension 1, and
    it has zero divisors.  The witness is checked on the composed maps."""
    alg = make_zassenhaus(p, m)
    F = alg.field
    space = half_space(alg)
    assert space.dim == p**m
    report = half_ring_report(alg, space)
    assert report["closed"] and report["commutative"] and report["is_local"]
    assert report["nilradical_dim"] == space.dim - 1
    ring = build_composition_ring(space)
    u, v = ([F.coerce(c) for c in w] for w in report["zero_divisor_witness"])
    U, V = ring.as_map(u), ring.as_map(v)
    assert not U.is_zero() and not V.is_zero()
    assert U.compose(V).is_zero() and V.compose(U).is_zero()
