from fractions import Fraction

import pytest

from deltader.algebras import (
    Algebra,
    NotADerivation,
    make_abelian,
    make_elduque4,
    make_special_linear,
    make_witt_type,
    make_zassenhaus,
)
from deltader.fields import PrimeField, QuotientRing, Rationals
from deltader.gradings import (
    BadDelta,
    NonSplitting,
    check_prop_root1,
    check_root_sum,
    check_semigroup,
    grading_report,
    root_decompose,
)
from deltader.linmap import LinearMap
from deltader.solver import solve_delta_derivations

Q = Rationals()


def elduque_witness_map(F):
    rows = [[F.zero()] * 4 for _ in range(4)]
    rows[2][3] = F.from_int(-1)
    rows[3][2] = F.one()
    return LinearMap(F, rows)


def test_sl2_cartan_grading():
    sl2 = make_special_linear(2, Q)
    H = sl2.ad(2)  # ad of the Cartan element h
    dec = root_decompose(sl2, [H], Fraction(1))
    assert sorted(dec.roots) == [(Fraction(-2),), (Fraction(0),), (Fraction(2),)]
    assert all(len(s) == 1 for s in dec.spaces)
    assert dec.complete
    verdict = check_semigroup(dec)
    assert verdict.verdict == "SemigroupConsistent"


def test_sl2_cartan_grading_large_prime():
    # the roots of the characteristic polynomial come from splitting
    # gcd(f, x^p - x), not from a sweep of the field
    F = PrimeField(2**31 - 1)
    sl2 = make_special_linear(2, F)
    H = sl2.ad(2)  # ad of the Cartan element h
    dec = root_decompose(sl2, [H], 1)
    assert sorted(dec.roots) == [(F.coerce(r),) for r in [0, 2, 2**31 - 3]]
    assert all(len(s) == 1 for s in dec.spaces)
    assert dec.complete
    verdict = check_semigroup(dec)
    assert verdict.verdict == "SemigroupConsistent"


def test_zero_map_single_root():
    sl2 = make_special_linear(2, Q)
    Z = LinearMap(Q, [[Q.zero()] * 3 for _ in range(3)])
    dec = root_decompose(sl2, [Z], Fraction(1))
    assert dec.roots == [(Fraction(0),)]
    assert len(dec.spaces[0]) == 3
    assert check_semigroup(dec).verdict == "SemigroupConsistent"


def test_non_derivation_rejected():
    sl2 = make_special_linear(2, Q)
    rows = [[Q.zero()] * 3 for _ in range(3)]
    rows[0][1] = Q.one()
    with pytest.raises(NotADerivation):
        root_decompose(sl2, [LinearMap(Q, rows)], Fraction(1))


def test_non_splitting_over_q():
    # the Elduque (-1)-derivation has eigenvalues 0, i, -i: irreducible over Q
    alg = make_elduque4(Q)
    D = elduque_witness_map(Q)
    with pytest.raises(NonSplitting) as exc:
        root_decompose(alg, [D], Fraction(-1))
    assert exc.value.factor is not None


def test_quotient_ring_field_rejected():
    QT = QuotientRing(Q, [Fraction(-2), Fraction(0), Fraction(1)])  # Q[t]/(t^2 - 2)
    sl2 = make_special_linear(2, QT)
    with pytest.raises(ValueError, match="rational or prime base field"):
        root_decompose(sl2, [sl2.ad(2)], 1)


def test_elduque_grading_gf5():
    F = PrimeField(5)
    alg = make_elduque4(F)
    D = elduque_witness_map(F)
    assert solve_delta_derivations(alg, F.from_int(-1)).contains(D)
    dec = root_decompose(alg, [D], F.from_int(-1))
    dims = sorted(len(s) for s in dec.spaces)
    assert dims == [1, 1, 2]
    assert dec.complete
    verdict = check_semigroup(dec)
    assert verdict.verdict == "NonSemigroup"
    assert verdict.witness is not None


def test_elduque_circ_table():
    # delta = -1 and i := 2 in GF(5): 0*0 = 0, 0*i = -i, 0*(-i) = i
    F = PrimeField(5)
    alg = make_elduque4(F)
    dec = root_decompose(alg, [elduque_witness_map(F)], F.from_int(-1))
    zero = dec.root_index((F.zero(),))
    i = dec.root_index((F.from_int(2),))
    mi = dec.root_index((F.from_int(-2),))
    assert None not in (zero, i, mi)
    assert dec.circ(zero, zero) == zero
    assert dec.circ(zero, i) == mi
    assert dec.circ(zero, mi) == i


def test_prop_root1_witnesses():
    F = PrimeField(5)
    alg = make_elduque4(F)
    dec = root_decompose(alg, [elduque_witness_map(F)], F.from_int(-1))
    rep = check_prop_root1(dec)
    # neither sufficient condition fires on this algebra: the root spaces
    # L_i, L_{-i} are 1-dim with vanishing mutual products, so the
    # non-semigroup certificate must come from a direct associativity
    # violation of the circ operation -- which check_semigroup finds
    assert rep["condition_i_witness"] is None
    assert rep["condition_ii_witness"] is None
    assert check_semigroup(dec).verdict == "NonSemigroup"


@pytest.mark.parametrize(
    "diagonal, witnesses",
    [
        # roots 1, 2, 6, 3, 18 on e1..e5: [[e1, e2], e4] = e5, three distinct roots
        ([1, 2, 6, 3, 18], {"condition_i_witness": [[1], [2], [3]], "condition_ii_witness": None}),
        # roots 1, 1, 4, 3, 14: [[L_1, L_1], L_3] contains [[e1, e2], e4] = e5
        ([1, 1, 4, 3, 14], {"condition_i_witness": None, "condition_ii_witness": [[1], [1], [3]]}),
    ],
)
def test_prop_root1_triple_product(diagonal, witnesses):
    # anticommutative, not Lie: [e1,e2] = e3, [e3,e4] = e5; a diagonal map
    # is a 2-derivation when d3 = 2(d1 + d2) and d5 = 2(d3 + d4)
    one = Q.one()
    alg = Algebra(Q, 5, ["e1", "e2", "e3", "e4", "e5"], {(0, 1): {2: one}, (2, 3): {4: one}})
    rows = LinearMap.zero(Q, 5).rows
    for i, d in enumerate(diagonal):
        rows[i][i] = Q.from_int(d)
    D = LinearMap(Q, rows)
    dec = root_decompose(alg, [D], Fraction(2))
    assert check_prop_root1(dec) == witnesses
    verdict = check_semigroup(dec)
    assert verdict.verdict == "NonSemigroup"
    assert verdict.witness == {
        "triple_product": witnesses["condition_i_witness"] or witnesses["condition_ii_witness"]
    }


def test_prop_root1_bad_delta():
    sl2 = make_special_linear(2, Q)
    H = sl2.ad(2)
    dec = root_decompose(sl2, [H], Fraction(1))
    with pytest.raises(BadDelta):
        check_prop_root1(dec)


def test_witt_grading_by_e0():
    alg = make_witt_type(Q, [-1, 0, 1])
    # ad(e_0) is a derivation with eigenvalue alpha on e_alpha
    idx0 = 1  # supports sorted: [-1, 0, 1]
    D = alg.ad(idx0)
    rows = [[Q.neg(c) for c in row] for row in D.rows]  # x -> [e_0, x]
    dec = root_decompose(alg, [LinearMap(Q, rows)], Fraction(1))
    assert sorted(dec.roots) == [(Fraction(-1),), (Fraction(0),), (Fraction(1),)]
    assert check_semigroup(dec).verdict == "SemigroupConsistent"


def test_root_sum():
    ok = check_root_sum(Q, [Fraction(-1), Fraction(0), Fraction(1)], Fraction(1))
    assert ok["satisfiable"] and not ok["violations"]
    bad = check_root_sum(Q, [Fraction(1)], Fraction(1, 4))
    assert not bad["satisfiable"]
    with pytest.raises(BadDelta):
        check_root_sum(Q, [Fraction(1)], Fraction(0))


def test_grading_report_structure():
    F = PrimeField(5)
    alg = make_elduque4(F)
    dec = root_decompose(alg, [elduque_witness_map(F)], F.from_int(-1))
    rep = grading_report(dec)
    assert rep["dims"] == [len(s) for s in dec.spaces]
    assert len(rep["roots"]) == len(dec.roots)
