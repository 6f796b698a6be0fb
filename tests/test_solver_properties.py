"""Property tests of the pointwise solvers beyond hand-picked algebras.

* On random sparse anticommutative algebras the canonical basis of Der_delta
  equals the one of the dense oracle in ``conftest``.  Both are the basis
  indexed by the free columns of the same kernel in the same coordinates
  (D(e_i) = sum_k v[i n + k] e_k), so they must agree exactly, which also
  compares the spans without the package's elimination.  Over Q the
  structure constants include fractions and integers of 64 to 80 bits, so
  the nullspace needs several primes.
* The same holds on commutative associative algebras, where the squares
  x_i x_i enter the law, and their quasiderivations satisfy it on every
  ordered pair.
* The dimensions of Der_delta (delta = 1/2, 1, -1), of the centroid and of
  the quasiderivations do not change under a random invertible change of
  basis.  A rebased system is one dense block over Q or GF(7).
* A drawn sequence of pointwise solves and checks on one algebra object,
  which keeps the part of each system that the pairs with no product give,
  answers each call as a freshly built copy of the algebra does.
* Over Q the solvers work on the structure constants and the law lowered
  to integers.  On constants with denominators (sl2 in a scaled dense
  basis, sparse algebras, osp(1|2) in a scaled basis) and at delta such as
  2/3 and -5/7, every Q pointwise solver and the check agree with a dense
  oracle in Fractions, and every payload they return is a Fraction.
"""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from deltader.algebras import (
    Algebra,
    ModuleAction,
    make_current,
    make_divided_powers,
    make_osp12,
    make_semidirect,
    make_special_linear,
    make_witt_type,
    make_zassenhaus,
    validate,
)
from deltader.fields import PrimeField, Rationals
from deltader.linmap import LinearMap
from deltader.solver import (
    is_delta_derivation,
    solve_centroid,
    solve_delta_derivations,
    solve_module_valued,
    solve_quasiderivations,
    solve_supercentroid,
    solve_superderivations,
)

import conftest
from conftest import dense_gauss_nullspace, diagonally_scaled, oracle_centroid, oracle_delta_derivations

Q = Rationals()
GF7 = PrimeField(7)

Q_CONSTANTS = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(Fraction, st.integers(-5, 5).filter(bool), st.sampled_from([2, 3, 7])),
    st.builds(lambda s, e, d: Fraction(s * (2**e + 1), d),
              st.sampled_from([-1, 1]), st.integers(64, 80), st.sampled_from([1, 3, 2**64 + 13])),
)


@st.composite
def sparse_algebras(draw, F):
    """A sparse anticommutative algebra of dim 3-6 over F, with a delta of F."""
    n = draw(st.integers(3, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    coeffs = Q_CONSTANTS if F == Q else st.integers(1, F.p - 1)
    products = {}
    for pair in draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=2 * n)):
        terms = draw(st.dictionaries(st.integers(0, n - 1), coeffs, min_size=1, max_size=2))
        products[pair] = {k: F.coerce(c) for k, c in terms.items()}
    if F == Q:
        delta = draw(st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2, 3)]))
    else:
        delta = draw(st.integers(0, F.p - 1))
    return Algebra(F, n, [f"e{i}" for i in range(n)], products), F.coerce(delta)


@pytest.mark.parametrize("F", [Q, PrimeField(5), GF7], ids=repr)
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_delta_derivations_match_dense_oracle(F, data):
    alg, delta = data.draw(sparse_algebras(F))
    basis = [m.flat() for m in solve_delta_derivations(alg, delta).basis]
    assert basis == oracle_delta_derivations(alg, delta)


def truncated_polynomials(F, k):
    """F[x]/(x^k) in the basis 1, x, ..., x^(k-1)."""
    products = {(i, j): {i + j: F.one()} for i in range(k) for j in range(i, k - i)}
    return Algebra(F, k, [f"x^{i}" for i in range(k)], products, flavor="assoc")


COMMUTATIVE = {
    "O1(1)/GF5": lambda: make_divided_powers(5, 1),
    "O1(1)/GF7": lambda: make_divided_powers(7, 1),
    "Q[x]/(x^4)": lambda: truncated_polynomials(Q, 4),
}


@pytest.mark.parametrize("delta", [1, 2, 3, Fraction(1, 2)], ids=str)
@pytest.mark.parametrize("name", list(COMMUTATIVE))
def test_commutative_associative_match_dense_oracle(name, delta):
    alg = COMMUTATIVE[name]()
    delta = alg.field.coerce(delta)
    basis = [m.flat() for m in solve_delta_derivations(alg, delta).basis]
    assert basis == oracle_delta_derivations(alg, delta)


@pytest.mark.parametrize("name,dim", [("O1(1)/GF5", 10), ("O1(1)/GF7", 14)])
def test_commutative_quasiderivations_satisfy_the_law(name, dim):
    """F(x_i x_j) = D(x_i) x_j + x_i D(x_j) on all ordered pairs, squares included."""
    alg = COMMUTATIVE[name]()
    F = alg.field
    space = solve_quasiderivations(alg)
    assert space.dim == dim
    for D, Fm in space.basis:
        for i in range(alg.dim):
            for j in range(alg.dim):
                lhs = Fm.apply(alg.product_vec(i, j))
                t1 = alg.bracket(D.rows[i], alg.unit_vector(j))
                t2 = alg.bracket(alg.unit_vector(i), D.rows[j])
                assert lhs == [F.add(a, b) for a, b in zip(t1, t2)]


ALGEBRAS = {
    "sl2/Q": lambda: make_special_linear(2, Q),
    "sl2/GF7": lambda: make_special_linear(2, GF7),
    "sl3/Q": lambda: make_special_linear(3, Q),
    "sl3/GF7": lambda: make_special_linear(3, GF7),
    "W11/GF7": lambda: make_zassenhaus(7, 1),
    "wittZ5/Q": lambda: make_witt_type(Q, range(5), modulus=5),
    "wittZ5/GF7": lambda: make_witt_type(GF7, range(5), modulus=5),
}


def dims(alg):
    F = alg.field
    der = [solve_delta_derivations(alg, F.coerce(d)).dim for d in (Fraction(1, 2), 1, -1)]
    return der, solve_centroid(alg).dim, solve_quasiderivations(alg).dim


@functools.cache
def standard(name):
    alg = ALGEBRAS[name]()
    return alg, (validate(alg).ok, dims(alg))


def change_basis(alg, ops, scales):
    """``alg`` in the basis f_a = sum_i P[a][i] e_i, where P is the product
    of the row operations ``ops`` (row i += t row j) and the row scalings
    ``scales``; P^-1 is built alongside from the inverse operations."""
    F = alg.field
    n = alg.dim
    P = [alg.unit_vector(i) for i in range(n)]
    Pinv = [alg.unit_vector(i) for i in range(n)]
    for i, j, t in ops:
        # P <- (I + t E_ij) P and P^-1 <- P^-1 (I - t E_ij)
        P[i] = [F.add(a, F.mul(t, b)) for a, b in zip(P[i], P[j])]
        for row in Pinv:
            row[j] = F.sub(row[j], F.mul(t, row[i]))
    for i, s in enumerate(scales):
        P[i] = [F.mul(s, a) for a in P[i]]
        for row in Pinv:
            row[i] = F.div(row[i], s)
    products = {}
    for a in range(n):
        for b in range(a + 1, n):
            v = alg.bracket(P[a], P[b])
            terms = {}
            for c in range(n):
                s = F.zero()
                for k in range(n):
                    s = F.add(s, F.mul(v[k], Pinv[k][c]))
                terms[c] = s
            products[(a, b)] = terms
    return Algebra(F, n, [f"f{i}" for i in range(n)], products)


@st.composite
def rebased(draw, name):
    alg, expected = standard(name)
    F, n = alg.field, alg.dim
    units = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3)] if F == Q else range(1, 7)
    unit = st.sampled_from([F.coerce(u) for u in units])
    index = st.integers(0, n - 1)
    ops = draw(st.lists(st.tuples(index, index, unit).filter(lambda o: o[0] != o[1]), min_size=n, max_size=2 * n))
    scales = draw(st.lists(unit, min_size=n, max_size=n))
    return change_basis(alg, ops, scales), expected


@pytest.mark.parametrize("name", list(ALGEBRAS))
@settings(derandomize=True, deadline=None, max_examples=3)
@given(data=st.data())
def test_dimensions_invariant_under_change_of_basis(name, data):
    alg, expected = data.draw(rebased(name))
    # Witt Z/5 over GF(7) is anticommutative but not Lie, in any basis
    assert (validate(alg).ok, dims(alg)) == expected


SEQUENCES = {
    "sl2/Q": lambda: make_special_linear(2, Q),
    "sl2/GF7": lambda: make_special_linear(2, GF7),
    "osp12/Q": lambda: make_osp12(Q),
    "osp12/GF7": lambda: make_osp12(GF7),
    "W11/GF5": lambda: make_zassenhaus(5, 1),
    "sl2xO1/GF5": lambda: make_current(make_special_linear(2, PrimeField(5)), make_divided_powers(5, 1)),
}


def fresh_copy(alg):
    return Algebra(alg.field, alg.dim, alg.basis, alg.products, alg.flavor, alg.grading, alg.form, alg.meta)


@st.composite
def calls(draw, alg):
    """A pointwise call (kind, delta, parity) on ``alg``: delta from the
    field, 0, 1/2 and 1 (where the two sides of sl2's rows cancel) always
    among the choices."""
    F = alg.field
    kinds = ["der", "centroid", "quasider", "check"]
    if alg.grading is not None:
        kinds += ["superder", "supercentroid"]
    kind = draw(st.sampled_from(kinds))
    extra = [Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(-2, 3)] if F == Q else range(2, F.p)
    pool = [F.zero(), F.div(F.one(), F.from_int(2)), F.one()] + [F.coerce(d) for d in extra]
    delta = draw(st.sampled_from(pool))
    graded = alg.grading is not None and kind in ("superder", "supercentroid", "check")
    parity = draw(st.sampled_from([0, 1])) if graded else None
    return kind, delta, parity


def answer(alg, kind, delta, parity, maps):
    """The canonical JSON of a solve, or the verdicts of ``is_delta_derivation``
    on ``maps``."""
    if kind == "der":
        return solve_delta_derivations(alg, delta).to_json()
    if kind == "superder":
        return solve_superderivations(alg, delta, parity).to_json()
    if kind == "centroid":
        return solve_centroid(alg).to_json()
    if kind == "supercentroid":
        return solve_supercentroid(alg, parity).to_json()
    if kind == "quasider":
        return solve_quasiderivations(alg).to_json()
    return [is_delta_derivation(alg, m, delta, parity) for m in maps]


@pytest.mark.parametrize("name", list(SEQUENCES))
@settings(derandomize=True, deadline=None, max_examples=12)
@given(data=st.data())
def test_solves_on_one_algebra_match_a_fresh_copy(name, data):
    alg = SEQUENCES[name]()
    for kind, delta, parity in data.draw(st.lists(calls(alg), min_size=2, max_size=8)):
        maps = []
        if kind == "check":
            # basis maps of Der_delta, solved on another copy, and some ad e_i
            maps = solve_delta_derivations(fresh_copy(alg), delta).basis[:2] + [alg.ad(i) for i in range(3)]
        assert answer(alg, kind, delta, parity, maps) == answer(fresh_copy(alg), kind, delta, parity, maps)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data())
def test_solves_on_one_random_algebra_match_a_fresh_copy(data):
    F = data.draw(st.sampled_from([Q, GF7]))
    alg, _ = data.draw(sparse_algebras(F))
    for kind, delta, parity in data.draw(st.lists(calls(alg), min_size=2, max_size=6)):
        maps = [alg.ad(i) for i in range(alg.dim)] if kind == "check" else []
        assert answer(alg, kind, delta, parity, maps) == answer(fresh_copy(alg), kind, delta, parity, maps)


# --- Q constants with denominators --------------------------------------------


def law_columns(alg, laws, parity=0, x_start=None):
    """u -> the defect X(e_i e_j) - a D(e_i) e_j - b (-1)^(parity deg e_i)
    e_i D(e_j), over every law (a, b), ordered pair (i, j) and coordinate,
    of the unit vector u: the elementary map E_kl, with k n + l = u mod n^2,
    as D and X, or as D where u < x_start and as X from x_start on.  The
    products come from ``bracket``, as in conftest's oracle."""
    F = alg.field
    n = alg.dim
    units = [alg.unit_vector(i) for i in range(n)]
    products = [[alg.bracket(ei, ej) for ej in units] for ei in units]

    def column(u):
        k, l = divmod(u % (n * n), n)
        is_x, is_d = x_start is None or u >= x_start, x_start is None or u < x_start
        out = [F.zero()] * (len(laws) * n**3)
        for t, (a, b) in enumerate(laws):
            for i in range(n):
                sb = b if parity and alg.grading[i] else F.neg(b)
                for j in range(n):
                    pos = ((t * n + i) * n + j) * n
                    if is_x:
                        out[pos + l] = F.add(out[pos + l], products[i][j][k])
                    for m in range(n):
                        if is_d and i == k:
                            out[pos + m] = F.sub(out[pos + m], F.mul(a, products[l][j][m]))
                        if is_d and j == k:
                            out[pos + m] = F.add(out[pos + m], F.mul(sb, products[i][l][m]))
        return out

    return column


def dense_oracle(F, ncols, allowed, column):
    """Canonical nullspace basis, among the vectors of length ncols that
    vanish outside the sorted columns ``allowed``, of the matrix with the
    column ``column(u)`` at each u: conftest's textbook elimination, zero
    and repeated rows left out, in the package's column order."""
    rows = list(dict.fromkeys(r for r in zip(*map(column, allowed)) if any(r)))
    basis = []
    for w in dense_gauss_nullspace(F, rows, len(allowed)):
        v = [F.zero()] * ncols
        for u, x in zip(allowed, w):
            v[u] = x
        basis.append(v)
    return basis


@st.composite
def denominator_algebras(draw):
    """A Q algebra whose structure constants carry denominators, and a
    delta: sl2 in a seeded dense scaled basis, a sparse algebra of
    ``Q_CONSTANTS``, or osp(1|2) in a basis scaled by them."""
    kind = draw(st.sampled_from(["rebased", "sparse", "osp12"]))
    if kind == "rebased":
        alg = conftest.rebased(make_special_linear(2, Q), draw(st.integers(1, 50)), scale=True)
    elif kind == "sparse":
        alg = draw(sparse_algebras(Q))[0]
    else:
        alg = diagonally_scaled(make_osp12(Q), [Q.coerce(draw(Q_CONSTANTS)) for _ in range(5)])
    assume(math.lcm(*(c.denominator for terms in alg.products.values() for c in terms.values())) > 1)
    delta = draw(st.sampled_from([Fraction(2, 3), Fraction(-5, 7), Fraction(1, 2), Fraction(1), Fraction(-1)]))
    return alg, delta


def fractions_only(space):
    flats = [b[0].flat() + b[1].flat() if isinstance(b, tuple) else b.flat() for b in space.basis]
    assert all(type(x) is Fraction for v in flats for x in v)
    return flats


@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_q_solvers_on_constants_with_denominators(data):
    """Over Q the assembler lowers the constants to D c and a law list to
    (t a, t b) with x coefficient t.  Every Q pointwise solver and the
    check must still give the dense oracle's answer, with every payload a
    Fraction, on constants and delta with denominators."""
    alg, delta = data.draw(denominator_algebras())
    F = alg.field
    n, nn = alg.dim, alg.dim**2
    one, zero = F.one(), F.zero()
    every = list(range(nn))
    der = solve_delta_derivations(alg, delta)
    assert fractions_only(der) == oracle_delta_derivations(alg, delta)
    assert fractions_only(solve_centroid(alg)) == oracle_centroid(alg)
    quasi = dense_oracle(F, 2 * nn, range(2 * nn), law_columns(alg, [(one, one)], x_start=nn))
    assert fractions_only(solve_quasiderivations(alg)) == quasi
    maps = der.basis[:2] + [alg.ad(i) for i in range(n)]
    maps.append(LinearMap.from_flat(F, [x + y for x, y in zip(*(m.flat() for m in maps[-2:]))], n, n))
    for q in [None] if alg.grading is None else [None, 0, 1]:
        columns = list(map(law_columns(alg, [(delta, delta)], q or 0), every))
        for m in maps:
            defect = [sum((x * y for x, y in zip(m.flat(), r) if x), zero) for r in zip(*columns)]
            assert is_delta_derivation(alg, m, delta, q) == (not any(defect))
    if alg.grading is not None:
        for q in (0, 1):
            allowed = [c for c in every if alg.grading[c % n] == (alg.grading[c // n] + q) % 2]
            space = solve_superderivations(alg, delta, q)
            assert fractions_only(space) == dense_oracle(F, nn, allowed, law_columns(alg, [(delta, delta)], q))
            space = solve_supercentroid(alg, q)
            assert fractions_only(space) == dense_oracle(F, nn, allowed, law_columns(alg, [(one, zero), (zero, one)], q))
        return
    module = ModuleAction.adjoint(alg) if validate(alg).ok else ModuleAction.trivial(alg, 2)
    S, m = make_semidirect(alg, module), module.mdim
    s = S.dim
    allowed = [k * s + n + l for k in range(n) for l in range(m)]
    expected = [[v[c] for c in allowed] for v in dense_oracle(F, s * s, allowed, law_columns(S, [(delta, delta)]))]
    assert fractions_only(solve_module_valued(alg, module, delta)) == expected
