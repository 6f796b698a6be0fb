import json
from fractions import Fraction

import pytest

from deltader.algebras import (
    Algebra,
    AlgebraError,
    GradingMissing,
    ModuleAction,
    NotADerivation,
    NotClosed,
    algebra_from_json,
    algebra_to_json,
    grassmann_monomials,
    make_abelian,
    make_current,
    make_deformed_zassenhaus,
    make_derivation_algebra,
    make_divided_powers,
    make_elduque4,
    make_grassmann_envelope,
    make_osp12,
    make_semidirect,
    make_special_linear,
    make_witt_type,
    make_zassenhaus,
    validate,
    validate_form,
    form_rank,
)
from deltader.fields import PrimeField, Rationals
from deltader.linmap import LinearMap

Q = Rationals()


def test_zassenhaus_jacobi():
    for p, n in [(5, 1), (7, 1), (5, 2)]:
        alg = make_zassenhaus(p, n)
        assert alg.dim == p**n
        assert validate(alg, "jacobi").ok


def test_witt_type_jacobi_and_closure():
    alg = make_witt_type(Q, [-1, 0, 1])
    assert validate(alg, "jacobi").ok
    with pytest.raises(NotClosed) as exc:
        make_witt_type(Q, [0, 1, 2])
    assert exc.value.witness == (1, 2)
    with pytest.raises(NotClosed):
        make_witt_type(Q, [1, 2, 3])  # 0 missing


@pytest.mark.parametrize("modulus", [0, 1, -3])
def test_witt_type_rejects_modulus_below_2(modulus):
    # a modulus of 0 is not read as "no modulus", which would build W over Z
    with pytest.raises(AlgebraError, match=f"modulus must be at least 2, got {modulus}"):
        make_witt_type(PrimeField(5), [0, 1, 2], modulus=modulus)


def test_divided_powers_assoc():
    alg = make_divided_powers(5, 1)
    assert alg.dim == 5
    assert validate(alg, "assoc").ok


def test_jacobi_detects_perturbation():
    alg = make_special_linear(2, Q)
    products = {k: dict(v) for k, v in alg.products.items()}
    key = next(iter(products))
    kk = next(iter(products[key]))
    # add a spurious extra component to one product
    other = (kk + 1) % alg.dim
    products[key][other] = products[key].get(other, Fraction(0)) + 1
    bad = Algebra(Q, alg.dim, alg.basis, products)
    assert not validate(bad, "jacobi").ok


def test_special_linear_dims_and_perfectness():
    for n, d in [(2, 3), (3, 8)]:
        alg = make_special_linear(n, Q)
        assert alg.dim == d
        assert validate(alg, "jacobi").ok
        assert len(alg.commutant()) == d
        assert len(alg.center()) == 0


def test_elduque4():
    alg = make_elduque4(Q)
    assert alg.dim == 4
    assert validate(alg, "jacobi").ok
    # [a,u]=u, [a,v]=w, [a,w]=v, everything else zero
    a, u, v, w = (alg.unit_vector(i) for i in range(4))
    assert alg.bracket(a, u) == u
    assert alg.bracket(a, v) == w
    assert alg.bracket(a, w) == v
    assert alg.bracket(u, v) == [Q.zero()] * 4


def test_osp12_super_jacobi_and_form():
    for F in (Q, PrimeField(7)):
        alg = make_osp12(F)
        assert alg.dim == 5
        assert alg.grading == [0, 0, 0, 1, 1]
        assert validate(alg, "super_jacobi").ok
        assert alg.form is not None
        assert validate_form(alg).ok
        assert form_rank(alg) == 5


def test_super_jacobi_detects_perturbation():
    alg = make_osp12(Q)
    products = {k: dict(v) for k, v in alg.products.items()}
    key = next(iter(products))
    kk = next(iter(products[key]))
    products[key][kk] = products[key][kk] + 1
    bad = Algebra(Q, 5, alg.basis, products, flavor="super", grading=alg.grading)
    assert not validate(bad, "super_jacobi").ok


def test_current_algebra():
    sl2 = make_special_linear(2, Q)
    dual = Algebra(
        Q, 2, ["1", "t"],
        {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)}},
        flavor="assoc",
    )
    cur = make_current(sl2, dual)
    assert cur.dim == 6
    assert validate(cur, "jacobi").ok


def test_semidirect_and_module_action():
    sl2 = make_special_linear(2, Q)
    triv = ModuleAction.trivial(sl2, 2)
    ext = make_semidirect(sl2, triv)
    assert ext.dim == 5
    assert validate(ext, "jacobi").ok
    adj = ModuleAction.adjoint(sl2)
    assert adj.validate().ok
    ext2 = make_semidirect(sl2, adj)
    assert validate(ext2, "jacobi").ok


def test_deformed_zassenhaus():
    alg = make_deformed_zassenhaus(5, 2)
    assert alg.dim == 25
    assert validate(alg, "jacobi").ok


def test_derivation_algebra():
    # d/dx on the divided powers algebra: x^i -> x^{i-1} (divided convention)
    A = make_divided_powers(5, 1)
    F = A.field
    rows = [[F.zero()] * 5 for _ in range(5)]
    for i in range(1, 5):
        rows[i][i - 1] = F.one()
    d = LinearMap(F, rows)
    alg = make_derivation_algebra(A, d)
    assert validate(alg, "jacobi").ok
    # a non-derivation is rejected
    bad_rows = [[F.zero()] * 5 for _ in range(5)]
    bad_rows[0][4] = F.one()
    with pytest.raises(NotADerivation):
        make_derivation_algebra(A, LinearMap(F, bad_rows))


def test_grassmann_envelope_dims_and_jacobi():
    osp = make_osp12(PrimeField(7))
    for m in (1, 2, 3):
        env = make_grassmann_envelope(osp, m)
        assert env.dim == 3 * 2 ** (m - 1) + 2 * 2 ** (m - 1)
        assert validate(env, "jacobi").ok
    # purely even algebra with m=1 is the algebra itself
    sl2 = make_special_linear(2, Q)
    graded = Algebra(
        Q, 3, sl2.basis, sl2.products, flavor="lie", grading=[0, 0, 0]
    )
    env1 = make_grassmann_envelope(graded, 1)
    assert env1.dim == 3
    assert env1.products == sl2.products


def test_grassmann_monomials():
    assert grassmann_monomials(3, 0) == [(), (0, 1), (0, 2), (1, 2)]
    assert grassmann_monomials(3, 1) == [(0,), (1,), (2,), (0, 1, 2)]


def test_storage_conventions_enforced():
    with pytest.raises(AlgebraError):
        Algebra(Q, 2, ["a", "b"], {(1, 0): {0: Fraction(1)}})  # lie needs i<j
    with pytest.raises(AlgebraError):
        Algebra(Q, 2, ["a", "b"], {(0, 0): {0: Fraction(1)}})  # diagonal in lie
    with pytest.raises(AlgebraError, match=r"index 7 outside range\(2\)"):
        Algebra(Q, 2, ["a", "b"], {(0, 1): {7: Fraction(1)}})
    with pytest.raises(AlgebraError, match=r"index 5 outside range\(2\)"):
        Algebra(Q, 2, ["a", "b"], {(0, 5): {1: Fraction(1)}})
    with pytest.raises(GradingMissing):
        Algebra(Q, 2, ["a", "b"], {}, flavor="super")
    with pytest.raises(AlgebraError):
        # even diagonal square must vanish in super flavor
        Algebra(
            Q, 2, ["a", "b"], {(0, 0): {1: Fraction(1)}},
            flavor="super", grading=[0, 1],
        )


def test_json_round_trip():
    for alg in (
        make_zassenhaus(5, 1),
        make_special_linear(2, Q),
        make_osp12(PrimeField(7)),
        make_elduque4(PrimeField(5)),
    ):
        data = algebra_to_json(alg)
        # canonical serialization is byte-stable through a round trip
        text = json.dumps(data, sort_keys=True)
        back = algebra_from_json(json.loads(text))
        assert back.dim == alg.dim
        assert back.field == alg.field
        assert back.flavor == alg.flavor
        assert back.grading == alg.grading
        assert back.products == alg.products
        assert json.dumps(algebra_to_json(back), sort_keys=True) == text


def test_abelian_center():
    ab = make_abelian(Q, 3)
    assert len(ab.center()) == 3
    assert len(ab.commutant()) == 0


@pytest.mark.parametrize(
    "change,message",
    [
        ({"drop": "dim"}, "missing key 'dim'"),
        ({"products": {"0": []}}, "'products' must be a list"),
        ({"products": [{"i": 0, "j": 1}]}, "products[0]: missing key 'terms'"),
        ({"products": [{"i": 0, "j": 1, "terms": [[1, "0.5"]]}]}, "products[0]: invalid scalar '0.5'"),
        ({"form": [["1"]]}, "'form' must be 2 x 2, got rows of lengths [1]"),
        ({"form": [["1", "0"], ["1"]]}, "'form' must be 2 x 2, got rows of lengths [2, 1]"),
        (
            {"products": [{"i": 0, "j": 1, "terms": [[0, "1"]]}, {"i": 0, "j": 1, "terms": [[1, "1"]]}]},
            "products[1]: the pair (0, 1) is given twice",
        ),
        ({"products": [{"i": 0, "j": 1, "terms": [[1, "1"], [1, "2"]]}]}, "products[0]: the term index 1 is given twice"),
    ],
    ids=["dim", "products-object", "terms", "decimal-term", "form-1x1", "form-ragged", "repeated-pair", "repeated-term"],
)
def test_algebra_from_json_rejects_malformed_input(change, message):
    """The library loader, not only the CLI, names what is wrong."""
    data = {"field": {"kind": "Q"}, "dim": 2, "flavor": "lie", "basis": ["a", "b"], "products": []}
    data.pop(change.pop("drop", None), None)
    data.update(change)
    with pytest.raises(AlgebraError) as exc:
        algebra_from_json(data)
    assert str(exc.value) == message
