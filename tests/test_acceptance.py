"""End-to-end checks of the library's headline computations.

Every numeric claim here is either verified against an independent oracle
(the dense textbook solver in conftest.py), asserted against a closed-form
dimension formula, or is a structural fact re-verified in place (ideals,
ring closure, exponential identities).
"""

import random
from fractions import Fraction

import pytest

from deltader.algebras import (
    Algebra,
    make_abelian,
    make_current,
    make_divided_powers,
    make_elduque4,
    make_grassmann_envelope,
    make_osp12,
    make_semidirect,
    make_special_linear,
    make_witt_type,
    make_zassenhaus,
    ModuleAction,
    validate,
)
from deltader.fields import PrimeField, Rationals
from deltader.linmap import LinearMap
from deltader.linalg import SpanSolver, same_span
from deltader.gradings import check_root_sum, check_semigroup, root_decompose
from deltader.halfring import (
    build_composition_ring,
    find_zero_divisors,
    locality_report,
    nilradical,
    witt_half_basis,
)
from deltader.solver import (
    NilpotencyTooDeep,
    _equation_pairs,
    _law_rows,
    exp_quasiautomorphism,
    is_delta_derivation,
    solve_centroid,
    solve_delta_derivations,
    solve_parametric,
    solve_quasiderivations,
    solve_superderivations,
    solve_supercentroid,
    lift_grassmann,
)
from deltader.superstd import (
    compute_s4,
    load_fixture,
    s4_envelope_report,
    verify_kernel_containment,
)

from conftest import oracle_delta_derivations, spans_equal

Q = Rationals()


def half_of(F):
    return F.div(F.one(), F.from_int(2))


# 1. half-derivations of the Zassenhaus family have dimension p^n


@pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (5, 2)])
def test_zassenhaus_half_derivations_dimension(p, n):
    alg = make_zassenhaus(p, n)
    F = alg.field
    space = solve_delta_derivations(alg, half_of(F))
    assert space.dim == p**n
    # independent oracle: dense nullspace of the defect system
    oracle = oracle_delta_derivations(alg, half_of(F))
    assert len(oracle) == p**n
    assert spans_equal(F, [D.flat() for D in space.basis], oracle)


# 2. the composition ring of half-derivations of W(5,1): commutative,
#    local, 4-dimensional nilradical, with explicit zero divisors


def shift_map(alg):
    """e_i -> (i + 2) e_{i+1} for i = -1..2, e_3 -> 0 (indices offset by 1)."""
    F = alg.field
    rows = [[F.zero()] * alg.dim for _ in range(alg.dim)]
    for idx in range(alg.dim - 1):
        rows[idx][idx + 1] = F.from_int(idx + 1)
    return LinearMap(F, rows)


def test_half_derivation_ring_structure():
    alg = make_zassenhaus(5, 1)
    F = alg.field
    space = solve_delta_derivations(alg, half_of(F))
    ring = build_composition_ring(space)
    rep = locality_report(ring)
    assert rep["commutative"]
    assert rep["is_local"]
    assert rep["nilradical_dim"] == 4
    pairs = find_zero_divisors(ring)
    assert pairs, "a local non-field ring must have zero divisors"
    for u, v in pairs:
        assert not ring.is_zero(u) and not ring.is_zero(v)
        assert ring.is_zero(ring.mul(u, v))


def test_half_derivation_shift_map_nilpotency():
    alg = make_zassenhaus(5, 1)
    F = alg.field
    D = shift_map(alg)
    assert is_delta_derivation(alg, D, half_of(F))
    space = solve_delta_derivations(alg, half_of(F))
    ring = build_composition_ring(space)
    u = ring.coordinates(D)
    assert u is not None
    # D^4 != 0 but D^5 = 0 in the composition ring, so (D^4, D) is an
    # explicit zero-divisor pair
    u4 = ring.power(u, 4)
    assert not ring.is_zero(u4)
    assert ring.is_zero(ring.mul(u4, u))
    assert ring.is_zero(ring.power(u, 5))


# 3. a randomized family of generalized Witt algebras: the half-derivation
#    space is spanned by support shifts, with dimension |{g in R : 2g in R}|
#    -- except on two-element supports, where one extra map appears


def random_supports(count, seed=20240819):
    """Every finite subset of Q closed under (a, b) -> a + b when the sum
    stays relevant and containing 0 is, up to the generator's constraints,
    one of {0}, {0, a}, {-a, 0, a}; sample those shapes with random a."""
    rng = random.Random(seed)
    shapes = []
    while len(shapes) < count:
        a = rng.randint(1, 60) * rng.choice([1, -1])
        shapes.append(rng.choice([[0], sorted([0, a]), sorted([-a, 0, a])]))
    # make sure every shape actually occurs
    shapes[0], shapes[1], shapes[2] = [0], [0, 7], [-3, 0, 3]
    return shapes


@pytest.mark.parametrize("support", random_supports(22))
def test_witt_type_half_derivations(support):
    alg = make_witt_type(Q, support)
    space = solve_delta_derivations(alg, Fraction(1, 2))
    half_r = [g for g in support if 2 * g in support]
    shifts = witt_half_basis(alg)
    assert len(shifts) == len(half_r)
    for D in shifts:
        assert space.contains(D)
    if len(support) == 2:
        # the shift family misses one map here: e_0 -> e_a, e_a -> 0 is
        # also a half-derivation, so the dimension exceeds |half R| by one
        assert space.dim == 2 == len(half_r) + 1
    else:
        assert space.dim == len(half_r)
        assert spans_equal(
            Q, [D.flat() for D in space.basis], [D.flat() for D in shifts]
        )


@pytest.mark.parametrize("p", [5, 7])
def test_witt_type_modular_full_support(p):
    F = PrimeField(p)
    alg = make_witt_type(F, list(range(p)), modulus=p)
    space = solve_delta_derivations(alg, half_of(F))
    # 2g mod p ranges over the whole support, so every shift survives
    shifts = witt_half_basis(alg)
    assert len(shifts) == p
    assert space.dim == p
    for D in shifts:
        assert space.contains(D)


# 4. classical simple algebras: nontrivial half- and (-1)-derivations on
#    sl2, quasiderivations of sl3 reduce to derivations plus centroid


def test_sl2_special_deltas():
    sl2 = make_special_linear(2, Q)
    assert solve_delta_derivations(sl2, Fraction(1, 2)).dim == 1
    minus = solve_delta_derivations(sl2, Fraction(-1))
    assert minus.dim == 5
    assert spans_equal(
        Q, [D.flat() for D in minus.basis], oracle_delta_derivations(sl2, Fraction(-1))
    )


def test_sl3_quasiderivations_collapse():
    sl3 = make_special_linear(3, Q)
    qd = solve_quasiderivations(sl3)
    der = solve_delta_derivations(sl3, Fraction(1))
    cent = solve_centroid(sl3)
    assert der.dim == 8 and cent.dim == 1
    d_flats = [m.flat() for m in qd.d_component()]
    span = SpanSolver(Q, d_flats)
    assert span.dim == 9
    for D in der.basis:
        assert span.contains(D.flat())
    for C in cent.basis:
        assert span.contains(C.flat())
    for delta in (Fraction(-1), Fraction(2), Fraction(1, 3)):
        assert solve_delta_derivations(sl3, delta).dim == 0


# 5. delta-derivations of current algebras L (x) A multiply:
#    dim Der_delta(L (x) A) = dim Der_delta(L) * dim A


def dual_numbers(F):
    return Algebra(
        F,
        2,
        ["1", "t"],
        {(0, 0): {0: F.one()}, (0, 1): {1: F.one()}},
        flavor="assoc",
    )


def test_current_multiplicativity_sl2():
    sl2 = make_special_linear(2, Q)
    cur = make_current(sl2, dual_numbers(Q))
    for delta, base_dim in [(Fraction(-1), 5), (Fraction(1, 2), 1)]:
        assert solve_delta_derivations(sl2, delta).dim == base_dim
        assert solve_delta_derivations(cur, delta).dim == base_dim * 2


def test_current_multiplicativity_zassenhaus():
    W = make_zassenhaus(5, 1)
    O = make_divided_powers(5, 1)
    F = W.field
    cur = make_current(W, O)
    assert cur.dim == 25
    assert solve_delta_derivations(cur, half_of(F)).dim == 5 * 5


# 6. the four-dimensional non-Lie example: a (-1)-derivation whose root
#    decomposition is a grading by a set that embeds in no semigroup


def test_elduque_grading_is_non_semigroup():
    F = PrimeField(5)
    alg = make_elduque4(F)
    space = solve_delta_derivations(alg, F.from_int(-1))
    rows = [[F.zero()] * 4 for _ in range(4)]
    rows[2][3] = F.from_int(-1)
    rows[3][2] = F.one()
    D = LinearMap(F, rows)
    assert space.contains(D)
    dec = root_decompose(alg, [D], F.from_int(-1))
    assert dec.complete
    assert sorted(len(s) for s in dec.spaces) == [1, 1, 2]
    # the root values are 0 and +/- i (i^2 = -1, realized as 2 and 3 mod 5)
    zero = dec.root_index((F.zero(),))
    i = dec.root_index((F.from_int(2),))
    mi = dec.root_index((F.from_int(3),))
    assert None not in (zero, i, mi)
    # 0 o 0 = 0, 0 o i = -i, 0 o (-i) = i: 0 is not idempotently absorbing,
    # and associativity fails on defined triples
    assert dec.circ(zero, zero) == zero
    assert dec.circ(zero, i) == mi
    assert dec.circ(zero, mi) == i
    verdict = check_semigroup(dec)
    assert verdict.verdict == "NonSemigroup"
    assert verdict.witness is not None and "triple" in verdict.witness


# 7. system assembly scales and has the documented shape


def test_system_shape_dimension_16():
    alg = make_abelian(Q, 16)
    n = 16
    assert len(_equation_pairs(alg)) * n == n * n * (n - 1) // 2
    # every equation of an abelian algebra vanishes, so no row is kept
    assert list(_law_rows(alg, [(Fraction(1, 2), Fraction(1, 2))])) == []


# 8. parametric solve over K[delta] finds exactly the special values


def test_parametric_sl2():
    sl2 = make_special_linear(2, Q)
    res = solve_parametric(sl2)
    assert res.generic_dim == 0
    specials = {d: dim for d, dim in res.specials}
    assert set(specials) == {Fraction(-1), Fraction(1, 2), Fraction(1)}
    assert specials[Fraction(-1)] == 5
    assert specials[Fraction(1, 2)] == 1
    assert specials[Fraction(1)] == 3
    rng = random.Random(7)
    for _ in range(5):
        d = Fraction(rng.randint(2, 40), rng.randint(2, 40))
        if d in specials or d == 0:
            continue
        assert solve_delta_derivations(sl2, d).dim == 0


# 9. the super/ordinary bridge on the five-dimensional orthosymplectic
#    algebra: super-Jacobi holds, the Grassmann envelope is an ordinary Lie
#    algebra, superderivations lift, and the half-superderivations are
#    exactly the supercentroid


def test_super_bridge():
    osp = load_fixture("osp12_gf7.json")
    F = osp.field
    assert validate(osp, "super_jacobi").ok
    env = make_grassmann_envelope(osp, 3)
    assert validate(env, "jacobi").ok
    # lifts of homogeneous superderivations are ordinary delta-derivations
    for parity, g in [(0, ()), (1, (0,))]:
        space = solve_superderivations(osp, F.one(), parity)
        for D in space.basis:
            lifted = lift_grassmann(env, D, g)
            assert is_delta_derivation(env, lifted, F.one())
    # no 2-superderivations in either parity
    assert solve_superderivations(osp, F.from_int(2), 0).dim == 0
    assert solve_superderivations(osp, F.from_int(2), 1).dim == 0
    # half-superderivations coincide with the supercentroid
    even_half = solve_superderivations(osp, half_of(F), 0)
    odd_half = solve_superderivations(osp, half_of(F), 1)
    assert even_half.dim == 1 and odd_half.dim == 0
    sc = solve_supercentroid(osp)
    assert sc.dim == 1
    assert spans_equal(
        F, [D.flat() for D in even_half.basis], [C.flat() for C in sc.basis]
    )


# 10. the degree-5 standard polynomial: values, envelope transfer, and the
#     kernel containment for delta-derivations with non-special delta


def test_standard_identity_values():
    assert compute_s4(make_special_linear(2, Q)).dim == 0
    s4 = compute_s4(make_special_linear(3, Q))
    assert s4.dim == 8 and s4.is_ideal


def test_standard_identity_envelope_transfer():
    osp = make_osp12(PrimeField(7))
    rep = s4_envelope_report(osp, m=5)
    assert rep["s4_dim"] == 5
    # the envelope value matches the lift of the super value on all
    # positive-degree Grassmann monomials and is contained in the full lift
    assert rep["match_positive_degree"]
    assert rep["contained"]


def test_standard_identity_kernel_containment():
    sl3 = make_special_linear(3, Q)
    ext = make_semidirect(sl3, ModuleAction.trivial(sl3, 2))
    space = solve_delta_derivations(ext, Fraction(2))
    assert space.dim > 0
    s4 = compute_s4(ext)
    assert s4.dim == 8 and s4.is_ideal
    assert verify_kernel_containment(space, s4)


# 11. exponentials of nilpotent half-derivations, with an honest failure
#     when the nilpotency index reaches the characteristic


def test_exp_quasiautomorphism():
    alg = make_zassenhaus(5, 1)
    F = alg.field
    D = shift_map(alg)
    D2 = D.compose(D)
    assert is_delta_derivation(alg, D2, half_of(F))
    res = exp_quasiautomorphism(alg, D2, half_of(F))
    assert res.verified
    # D itself has nilpotency index 5 = char, so 1/4! is the last usable
    # factorial and exp(D) cannot be formed
    with pytest.raises(NilpotencyTooDeep, match="^nilpotency index 5 is not less than the characteristic 5$"):
        exp_quasiautomorphism(alg, D, half_of(F))


# 12. root-sum realizability: every root of a perfect graded algebra must be
#     delta times a sum of two roots


def test_root_sum_criterion():
    ok = check_root_sum(Q, [Fraction(-1), Fraction(0), Fraction(1)], Fraction(1))
    assert ok["satisfiable"] and ok["violations"] == []
    bad = check_root_sum(Q, [Fraction(1)], Fraction(1, 4))
    assert not bad["satisfiable"]
    assert bad["violations"] == [Q.fmt(Fraction(1))]
