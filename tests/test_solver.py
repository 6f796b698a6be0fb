import random
from fractions import Fraction

import pytest

from deltader.algebras import (
    Algebra,
    GradingMissing,
    ModuleAction,
    make_abelian,
    make_elduque4,
    make_osp12,
    make_special_linear,
    make_witt_type,
    make_zassenhaus,
    make_grassmann_envelope,
)
from deltader.fields import PrimeField, Rationals
from deltader.gradings import check_root_sum, root_decompose
from deltader.linalg import SpanSolver, same_span
from deltader.linmap import LinearMap
from deltader.solver import (
    ParityMismatch,
    _equation_pairs,
    exp_quasiautomorphism,
    is_delta_derivation,
    lift_grassmann,
    NilpotencyTooDeep,
    solve_centroid,
    solve_delta_derivations,
    solve_module_valued,
    solve_parametric,
    solve_quasiderivations,
    solve_supercentroid,
    solve_superderivations,
)

from conftest import oracle_delta_derivations

Q = Rationals()


SMALL_ALGEBRAS = [
    ("sl2/Q", make_special_linear(2, Q)),
    ("elduque4/Q", make_elduque4(Q)),
    ("elduque4/GF5", make_elduque4(PrimeField(5))),
    ("W11/GF5", make_zassenhaus(5, 1)),
    ("osp12/GF7", make_osp12(PrimeField(7))),
]

DELTAS = [-1, 0, 1, 2, "1/2"]


@pytest.mark.parametrize("name,alg", SMALL_ALGEBRAS, ids=[n for n, _ in SMALL_ALGEBRAS])
@pytest.mark.parametrize("draw", DELTAS)
def test_solver_agrees_with_dense_oracle(name, alg, draw):
    F = alg.field
    delta = F.div(F.one(), F.from_int(2)) if draw == "1/2" else F.from_int(draw)
    space = solve_delta_derivations(alg, delta)
    oracle = oracle_delta_derivations(alg, delta)
    assert space.dim == len(oracle)
    assert same_span([m.flat() for m in space.basis], oracle, F)
    for m in space.basis:
        assert is_delta_derivation(alg, m, delta)


@pytest.mark.parametrize("name,alg", SMALL_ALGEBRAS, ids=[n for n, _ in SMALL_ALGEBRAS])
def test_delta_zero_dimension_formula(name, alg):
    # Der_0 = maps killing the commutant: dim = n * dim(L / [L,L])
    F = alg.field
    space = solve_delta_derivations(alg, F.zero())
    codim = alg.dim - len(alg.commutant())
    assert space.dim == alg.dim * codim


def test_inner_derivations_are_derivations():
    for _, alg in SMALL_ALGEBRAS:
        F = alg.field
        space = solve_delta_derivations(alg, F.one())
        for i in range(alg.dim):
            if alg.grading is not None and alg.grading[i] == 1:
                # odd multiplications are superderivations, not plain ones
                continue
            assert space.contains(alg.ad(i))


def test_derivation_brackets():
    # commutators of ordinary derivations are ordinary derivations, and
    # compositions of half-derivations of W_1(1) stay half-derivations
    alg = make_zassenhaus(5, 1)
    F = alg.field
    ders = solve_delta_derivations(alg, F.one())
    for A in ders.basis:
        for B in ders.basis:
            AB, BA = A.compose(B), B.compose(A)
            comm = LinearMap(
                F,
                [
                    [F.sub(x, y) for x, y in zip(r1, r2)]
                    for r1, r2 in zip(AB.rows, BA.rows)
                ],
            )
            assert is_delta_derivation(alg, comm, F.one())
    half = F.div(F.one(), F.from_int(2))
    halfs = solve_delta_derivations(alg, half)
    for A in halfs.basis:
        for B in halfs.basis:
            assert is_delta_derivation(alg, A.compose(B), half)


def test_centroid_inside_half_derivations():
    for _, alg in SMALL_ALGEBRAS:
        F = alg.field
        half = F.div(F.one(), F.from_int(2))
        cent = solve_centroid(alg)
        halfs = solve_delta_derivations(alg, half)
        for m in cent.basis:
            assert halfs.contains(m)
        assert cent.contains(LinearMap.identity(F, alg.dim))


def test_centroid_of_simple_is_scalars():
    for alg in (make_special_linear(2, Q), make_special_linear(3, Q)):
        assert solve_centroid(alg).dim == 1


def test_module_valued_adjoint_matches_plain():
    sl2 = make_special_linear(2, Q)
    adj = ModuleAction.adjoint(sl2)
    for d in (Fraction(1), Fraction(1, 2), Fraction(-1)):
        plain = solve_delta_derivations(sl2, d)
        modv = solve_module_valued(sl2, adj, d)
        assert plain.dim == modv.dim
        assert same_span(
            [m.flat() for m in plain.basis], [m.flat() for m in modv.basis], Q
        )


def test_quasiderivations_contain_derivations_and_centroid():
    for alg in (make_special_linear(2, Q), make_special_linear(3, Q)):
        qs = solve_quasiderivations(alg)
        dspan = qs.d_component()
        der = solve_delta_derivations(alg, Fraction(1))
        cent = solve_centroid(alg)
        span = SpanSolver(Q, [m.flat() for m in dspan])
        for m in list(der.basis) + list(cent.basis):
            assert span.contains(m.flat())
        # (D, D) with D a derivation is a quasiderivation pair, (D, 0) is not
        for m in der.basis:
            assert qs.contains((m, m))
            assert not qs.contains((m, m.scale(Q.zero())))
    # on sl3 the D-component is exactly derivations + centroid
    assert len(dspan) == der.dim + cent.dim == 9


def test_superderivations_grading_constraints():
    osp = make_osp12(PrimeField(7))
    F = osp.field
    one = F.one()
    even = solve_superderivations(osp, one, 0)
    odd = solve_superderivations(osp, one, 1)
    # inner superderivations: left multiplication x -> e_i x has parity p_i
    for i in range(osp.dim):
        target = even if osp.grading[i] == 0 else odd
        rows = [[F.zero()] * osp.dim for _ in range(osp.dim)]
        for j in range(osp.dim):
            for k, c in osp.product(i, j).items():
                rows[j][k] = c
        assert target.contains(LinearMap(F, rows))
    # even 1-superderivations are exactly grading-preserving ordinary derivations
    plain = solve_delta_derivations(osp, one)
    for m in even.basis:
        assert plain.contains(m)


def test_superderivations_require_grading():
    sl2 = make_special_linear(2, Q)
    with pytest.raises(GradingMissing):
        solve_superderivations(sl2, Fraction(1), 0)


def test_supercentroid_of_osp12():
    osp = make_osp12(PrimeField(7))
    sc = solve_supercentroid(osp)
    assert sc.dim == 1
    assert solve_supercentroid(osp, 1).dim == 0


def test_parametric_pointwise_consistency():
    rng = random.Random(11)
    for alg in (make_special_linear(2, Q), make_elduque4(Q)):
        res = solve_parametric(alg)
        specials = {d for d, _ in res.specials}
        for _ in range(6):
            d = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            dim = solve_delta_derivations(alg, d).dim
            if d in specials:
                assert dim > res.generic_dim
            else:
                assert dim == res.generic_dim
    # over GF(p) every delta is checked: <e0> + GF(7)^m with [e0, v] = A v,
    # the first A pinned (its specials 3 and 5 hang on the sign of the
    # e_i D(e_j) term of the pencil), the others drawn
    draws = random.Random(3)
    mats = [[[4, 0], [4, 6]]] + [
        [[draws.randrange(7) for _ in range(m)] for _ in range(m)] for m in (2, 3, 3)
    ]
    for mat in mats:
        m = len(mat)
        products = {
            (0, 1 + a): {1 + b: c for b, c in enumerate(row) if c}
            for a, row in enumerate(mat)
            if any(row)
        }
        alg = Algebra(PrimeField(7), m + 1, [f"e{i}" for i in range(m + 1)], products)
        res = solve_parametric(alg)
        specials = dict(res.specials)
        for d in range(7):
            assert solve_delta_derivations(alg, d).dim == specials.get(d, res.generic_dim)


def test_system_shape():
    alg = make_witt_type(Q, [-1, 0, 1])
    n = alg.dim
    assert len(_equation_pairs(alg)) * n == n * n * (n - 1) // 2


def test_abelian_everything_is_a_derivation():
    ab = make_abelian(Q, 3)
    for d in (Fraction(0), Fraction(1), Fraction(5, 3)):
        assert solve_delta_derivations(ab, d).dim == 9


def test_lift_grassmann_parity_checked():
    osp = make_osp12(PrimeField(7))
    F = osp.field
    env = make_grassmann_envelope(osp, 3)
    odd_space = solve_superderivations(osp, F.one(), 1)
    assert odd_space.dim > 0
    D = odd_space.basis[0]
    lifted = lift_grassmann(env, D, (0,))
    assert is_delta_derivation(env, lifted, F.one())
    with pytest.raises(ParityMismatch):
        lift_grassmann(env, D, ())  # odd map, even monomial


def test_exp_on_nilpotent_derivation():
    sl2 = make_special_linear(2, Q)
    # ad of a nilpotent element is a nilpotent derivation
    E = sl2.ad(0)
    res = exp_quasiautomorphism(sl2, E, Fraction(1))
    assert res.verified


def test_exp_rejects_non_nilpotent():
    sl2 = make_special_linear(2, Q)
    H = sl2.ad(2)  # semisimple, not nilpotent
    with pytest.raises(NilpotencyTooDeep, match="^map is not nilpotent$"):
        exp_quasiautomorphism(sl2, H, Fraction(1))
    with pytest.raises(NilpotencyTooDeep, match="^map is not nilpotent$"):
        exp_quasiautomorphism(sl2, sl2.ad(0), F_map=H)


def test_exp_of_quasiderivation_pairs():
    sl2 = make_special_linear(2, Q)
    E = sl2.ad(0)
    # (ad E, ad E) is a quasiderivation pair; exp(ad E) = I + ad E + (ad E)^2 / 2
    res = exp_quasiautomorphism(sl2, E, F_map=E)
    assert res.verified
    assert res.phi == res.psi
    assert res.phi == LinearMap.identity(Q, 3).add(E).add(E.compose(E).scale(Fraction(1, 2)))
    # exp(ad E) is an automorphism, so psi = exp(0) = I fails psi(xy) = phi(x) phi(y)
    zero = LinearMap.zero(Q, 3)
    res = exp_quasiautomorphism(sl2, E, F_map=zero)
    assert not res.verified
    assert res.psi == LinearMap.identity(Q, 3)


def test_solution_space_json():
    sl2 = make_special_linear(2, Q)
    space = solve_delta_derivations(sl2, Fraction(1, 2))
    data = space.to_json()
    assert data["delta"] == "1/2"
    assert data["kind"] == "delta_der"
    assert data["dim"] == 1
    assert len(data["basis"]) == 1


def scalar_calls():
    """Library entry points that take a scalar, each as a function of it."""
    sl2 = make_special_linear(2, Q)
    zero = LinearMap(Q, [[Q.zero()] * 3 for _ in range(3)])
    return {
        "solve_delta_derivations": lambda d: solve_delta_derivations(sl2, d).dim,
        "is_delta_derivation": lambda d: is_delta_derivation(sl2, sl2.ad(2), d),
        "root_decompose": lambda d: root_decompose(sl2, [zero], d).to_json(),
        "check_root_sum": lambda d: check_root_sum(Q, [Fraction(0), Fraction(1)], d),
    }


@pytest.mark.parametrize("name", sorted(scalar_calls()))
def test_library_scalars_follow_the_literal_grammar(name):
    """Library calls read scalars as flags and files do: exact integers,
    fractions and their string literals; no booleans, floats or decimals."""
    call = scalar_calls()[name]
    for bad in (True, 0.5, "0.5", "1e0"):
        with pytest.raises(ValueError):
            call(bad)
    assert call(Fraction(1, 2)) == call("1/2")
    assert call(1) == call(Fraction(1))
