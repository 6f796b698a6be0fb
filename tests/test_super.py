import os
from fractions import Fraction

import pytest

from deltader.algebras import (
    make_abelian,
    make_grassmann_envelope,
    make_osp12,
    make_semidirect,
    make_special_linear,
    ModuleAction,
    Algebra,
    validate,
)
from deltader.fields import PrimeField, Rationals
from deltader.linalg import SpanSolver, same_span
from deltader.solver import (
    lift_grassmann,
    solve_delta_derivations,
    solve_superderivations,
)
from deltader.superstd import (
    check_standard_identity,
    compute_s4,
    desk_check_theorems,
    envelope_subspace,
    fixture_dir,
    load_fixture,
    s4_envelope_report,
    verify_kernel_containment,
)

Q = Rationals()


def test_s4_sl2_vanishes():
    assert check_standard_identity(make_special_linear(2, Q))


def test_s4_sl3_is_whole_algebra():
    s4 = compute_s4(make_special_linear(3, Q))
    assert s4.dim == 8
    assert s4.is_ideal


def test_s4_super_osp12():
    osp = make_osp12(PrimeField(7))
    s4 = compute_s4(osp, "super")
    assert s4.dim == 5
    assert s4.is_ideal


def test_s4_abelian_zero():
    ab = make_abelian(Q, 5)
    assert compute_s4(ab).dim == 0


def test_s4_is_an_ideal_for_semidirect():
    sl3 = make_special_linear(3, Q)
    ext = make_semidirect(sl3, ModuleAction.trivial(sl3, 2))
    s4 = compute_s4(ext)
    assert s4.is_ideal
    # s4 of sl3 + trivial part = sl3
    assert s4.dim == 8


def test_kernel_containment_lemma():
    # delta = 2 derivations of sl3 + trivial abelian part kill s4
    sl3 = make_special_linear(3, Q)
    ext = make_semidirect(sl3, ModuleAction.trivial(sl3, 2))
    space = solve_delta_derivations(ext, Fraction(2))
    assert space.dim > 0  # maps supported on the abelian summand
    s4 = compute_s4(ext)
    assert verify_kernel_containment(space, s4)


def test_kernel_containment_vacuous_and_trivial():
    sl2 = make_special_linear(2, Q)
    s4 = compute_s4(sl2)
    # delta=2: zero space -> vacuous; delta=1: s4 = 0 -> trivial
    assert verify_kernel_containment(solve_delta_derivations(sl2, Fraction(2)), s4)
    assert verify_kernel_containment(solve_delta_derivations(sl2, Fraction(1)), s4)


def test_envelope_functoriality_m5():
    osp = make_osp12(PrimeField(7))
    rep = s4_envelope_report(osp, m=5)
    assert rep["s4_dim"] == 5
    assert rep["match_positive_degree"]
    assert rep["contained"]


def test_lifted_kernel_decomposition():
    # Ker of the lifted map splits as (Ker D|_{L0} x G0) + (Ker D|_{L1} x G1)
    osp = make_osp12(PrimeField(7))
    F = osp.field
    env = make_grassmann_envelope(osp, 3)
    odd = solve_superderivations(osp, F.one(), 1)
    D = odd.basis[0]
    lifted = lift_grassmann(env, D, (0,))
    from deltader.linalg import kernel_of_map

    ker_env = kernel_of_map(lifted.rows, F)
    ker_L = kernel_of_map(D.rows, F)
    expected = envelope_subspace(env, ker_L) if ker_L else []
    # rank counts: dim Ker(lift) >= dim of the lifted kernel subspace
    span = SpanSolver(F, ker_env)
    for v in expected:
        # multiplication by the odd monomial g kills top-degree parts, so
        # the lifted kernel contains the embedded kernel of D
        assert span.contains(v)


def test_desk_check_osp12():
    rep = desk_check_theorems(make_osp12(PrimeField(7)))
    assert rep["hypotheses_met"]
    assert rep["off_special_zero"]
    assert rep["off_special_zero_super"]
    assert rep["half_equals_centroid"]
    assert rep["half_super_equals_supercentroid"]
    assert rep["der_dims"]["1/2"] == rep["centroid_dim"] == 1


def test_desk_check_sl2():
    rep = desk_check_theorems(make_special_linear(2, Q))
    assert rep["hypotheses_met"]
    assert rep["der_dims"]["1/2"] == 1 == rep["centroid_dim"]
    assert rep["der_dims"]["-1"] > 0
    assert rep["half_equals_centroid"]


def test_desk_check_abelian_flags_hypotheses():
    rep = desk_check_theorems(make_abelian(Q, 2))
    assert rep["hypotheses_met"] is False


def test_fixture_loading_and_env_override(tmp_path, monkeypatch):
    alg = load_fixture("osp12_gf7.json")
    assert alg.dim == 5 and alg.flavor == "super"
    assert validate(alg, "super_jacobi").ok
    # env var override redirects the fixture directory
    src = os.path.join(fixture_dir(), "osp12_gf7.json")
    dst = tmp_path / "osp12_gf7.json"
    with open(src, encoding="utf-8") as fh:
        dst.write_text(fh.read())
    monkeypatch.setenv("DELTA_DER_FIXTURES", str(tmp_path))
    assert fixture_dir() == str(tmp_path)
    assert load_fixture("osp12_gf7.json").dim == 5


def test_fixture_corruption_detected(tmp_path, monkeypatch):
    import json

    src = os.path.join(fixture_dir(), "osp12_gf7.json")
    with open(src, encoding="utf-8") as fh:
        data = json.load(fh)
    prod = data["products"][0]
    prod["terms"][0][1] = str((int(prod["terms"][0][1]) + 1) % 7)
    bad = tmp_path / "osp12_gf7.json"
    bad.write_text(json.dumps(data))
    monkeypatch.setenv("DELTA_DER_FIXTURES", str(tmp_path))
    with pytest.raises(ValueError):
        load_fixture("osp12_gf7.json")


def test_super_jacobi_iff_envelope_jacobi():
    osp = make_osp12(PrimeField(7))
    env = make_grassmann_envelope(osp, 3)
    assert validate(env, "jacobi").ok
    # perturb the superalgebra: its envelope fails Jacobi
    products = {k: dict(v) for k, v in osp.products.items()}
    key = next(iter(products))
    kk = next(iter(products[key]))
    other = (kk + 2) % 5
    F = osp.field
    # keep the grading consistent: only perturb within the same parity
    par = (osp.grading[key[0]] + osp.grading[key[1]]) % 2
    targets = [i for i in range(5) if osp.grading[i] == par and i != kk]
    products[key][targets[0]] = F.add(products[key].get(targets[0], F.zero()), F.one())
    bad = Algebra(F, 5, osp.basis, products, flavor="super", grading=osp.grading)
    bad_env = make_grassmann_envelope(bad, 3)
    assert validate(bad, "super_jacobi").ok == validate(bad_env, "jacobi").ok
