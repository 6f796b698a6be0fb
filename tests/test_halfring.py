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
    build_composition_ring,
    find_zero_divisors,
    half_ring_report,
    locality_report,
    nilradical,
    witt_half_basis,
)
from deltader.linalg import same_span
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
