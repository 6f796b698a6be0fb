"""The law checks against plain reference code that evaluates each law directly.

The package checks a delta-derivation, an invariant form, the center and the
parity of a Grassmann lift through the same equation rows that its solvers
assemble.  The reference below instead multiplies dense coordinate vectors
pair by pair, walks every basis triple of the form law, builds the center's
equations e_j e_i by hand and scans the map for parity-breaking entries.
Both must give the same verdicts, violation lists (labels and defects, in
order), canonical bases and ParityMismatch messages, on solved bases and on
perturbed and random maps and forms, over Q, GF(p) and Q[t]/(t^2 - 2).
The commutant and the center of drawn algebras are also checked against
textbook dense elimination of the products that ``product`` gives.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deltader.algebras import (
    Algebra,
    ModuleAction,
    invariant_forms,
    make_abelian,
    make_current,
    make_elduque4,
    make_grassmann_envelope,
    make_osp12,
    make_semidirect,
    make_special_linear,
    make_witt_type,
    make_zassenhaus,
    validate_form,
)
from deltader.fields import PrimeField, QuotientRing, Rationals, parse_scalar
from deltader.linalg import sparse_nullspace
from deltader.linmap import LinearMap
from deltader.solver import (
    ParityMismatch,
    is_delta_derivation,
    lift_grassmann,
    solve_centroid,
    solve_delta_derivations,
    solve_superderivations,
)

from conftest import dense_gauss_nullspace, dense_vectors, rebased

Q = Rationals()
GF5, GF7, GF11 = PrimeField(5), PrimeField(7), PrimeField(11)
QT = QuotientRing(Q, [Fraction(-2), Fraction(0), Fraction(1)])  # Q[t]/(t^2 - 2)


# ---------------------------------------------------------------------------
# reference code


def ref_is_delta_derivation(alg, D, delta, parity=None):
    F = alg.field
    n = alg.dim
    delta = parse_scalar(F, delta)
    for i in range(n):
        for j in range(n):
            lhs = D.apply(alg.product_vec(i, j))
            t1 = alg.bracket(D.rows[i], alg.unit_vector(j))
            t2 = alg.bracket(alg.unit_vector(i), D.rows[j])
            sgn = delta
            if parity is not None and parity and alg.grading[i]:
                sgn = F.neg(delta)
            rhs = [F.add(F.mul(delta, a), F.mul(sgn, b)) for a, b in zip(t1, t2)]
            if any(not F.eq(a, b) for a, b in zip(lhs, rhs)):
                return False
    return True


def ref_form_violations(alg):
    F = alg.field
    n = alg.dim
    B = alg.form
    violations = []
    for i in range(n):
        for j in range(n):
            expected = B[j][i]
            if alg.grading is not None and alg.grading[i] and alg.grading[j]:
                expected = F.neg(expected)
            if not F.eq(B[i][j], expected):
                violations.append(((i, j), [F.sub(B[i][j], expected)]))
            if alg.grading is not None and alg.grading[i] != alg.grading[j] and not F.is_zero(B[i][j]):
                violations.append(((i, j), [B[i][j]]))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = F.zero()
                for m, c in alg.product(i, j).items():
                    lhs = F.add(lhs, F.mul(c, B[m][k]))
                rhs = F.zero()
                for m, c in alg.product(j, k).items():
                    rhs = F.add(rhs, F.mul(c, B[i][m]))
                if not F.eq(lhs, rhs):
                    violations.append(((i, j, k), [F.sub(lhs, rhs)]))
    return violations


def ref_invariant_forms(alg):
    F = alg.field
    n = alg.dim
    eqs = []
    for i in range(n):
        for j in range(n):
            eq = {i * n + j: F.one()}
            sgn = F.neg(F.one())
            if alg.grading is not None and alg.grading[i] and alg.grading[j]:
                sgn = F.one()
            eq[j * n + i] = F.add(eq.get(j * n + i, F.zero()), sgn)
            eqs.append(eq)
            if alg.grading is not None and alg.grading[i] != alg.grading[j]:
                eqs.append({i * n + j: F.one()})
    for i in range(n):
        for j in range(n):
            for k in range(n):
                eq = {}
                for m, c in alg.product(i, j).items():
                    eq[m * n + k] = F.add(eq.get(m * n + k, F.zero()), c)
                for m, c in alg.product(j, k).items():
                    eq[i * n + m] = F.sub(eq.get(i * n + m, F.zero()), c)
                eqs.append(eq)
    sols = dense_vectors(F, sparse_nullspace(eqs, n * n, F), n * n)
    return [[sol[i * n : (i + 1) * n] for i in range(n)] for sol in sols]


def ref_center(alg):
    F = alg.field
    n = alg.dim
    eqs = []
    for i in range(n):
        for l in range(n):
            eq = {}
            for j in range(n):
                c = alg.product(j, i).get(l)
                if c is not None and not F.is_zero(c):
                    eq[j] = c
            if eq:
                eqs.append(eq)
    return dense_vectors(F, sparse_nullspace(eqs, n, F), n)


def ref_parity_mismatch(L, D, q):
    F = L.field
    for i in range(L.dim):
        for j in range(L.dim):
            if not F.is_zero(D.rows[i][j]) and L.grading[j] != (L.grading[i] + q) % 2:
                return (
                    f"map sends parity {L.grading[i]} to parity {L.grading[j]}, "
                    f"but the monomial has parity {q}"
                )
    return None


# ---------------------------------------------------------------------------
# inputs


def truncated_polynomials(F, k):
    """The commutative associative algebra F[t]/(t^k), basis 1, t, ..., t^(k-1)."""
    products = {(i, j): {i + j: F.one()} for i in range(k) for j in range(i, k) if i + j < k}
    return Algebra(F, k, [f"t{i}" for i in range(k)], products, flavor="assoc")


def random_map(F, n, rng, density=0.5):
    def entry():
        return F.sample(rng) if rng.random() < density else F.zero()

    return LinearMap(F, [[entry() for _ in range(n)] for _ in range(n)])


def perturbed(D, rng):
    """D plus a random multiple of one elementary matrix."""
    F = D.field
    rows = [list(r) for r in D.rows]
    k, l = rng.randrange(D.nrows), rng.randrange(D.ncols)
    rows[k][l] = F.add(rows[k][l], F.sample(rng))
    return LinearMap(F, rows)


ALGEBRAS = {
    "sl2/Q": lambda: make_special_linear(2, Q),
    "sl3/GF7": lambda: make_special_linear(3, GF7),
    "sl2/Q[t]": lambda: make_special_linear(2, QT),
    "W11/GF5": lambda: make_zassenhaus(5, 1),
    "witt/Q": lambda: make_witt_type(Q, [-1, 0, 1]),
    "elduque4/GF11": lambda: make_elduque4(GF11),
    "current/GF5": lambda: make_current(make_special_linear(2, GF5), truncated_polynomials(GF5, 2)),
    "assoc/Q": lambda: truncated_polynomials(Q, 4),
    "assoc/Q[t]": lambda: truncated_polynomials(QT, 3),
    "osp12/Q": lambda: make_osp12(Q),
    "osp12/GF7": lambda: make_osp12(GF7),
    "osp12/GF11": lambda: make_osp12(GF11),
    "osp12/Q[t]": lambda: make_osp12(QT),
    "osp12xt/GF7": lambda: make_current(make_osp12(GF7), truncated_polynomials(GF7, 2)),
}
GRADED = {name for name in ALGEBRAS if "osp12" in name}


def sample_maps(alg, rng):
    """Solved bases at several delta, their perturbations, ad maps and random maps."""
    F = alg.field
    n = alg.dim
    maps = []
    for delta in (F.one(), F.from_int(-1), F.inv(F.from_int(2)), F.zero()):
        maps += [(delta, D) for D in solve_delta_derivations(alg, delta).basis[:3]]
    maps += [(F.one(), D) for D in solve_centroid(alg).basis[:2]]
    if alg.grading is not None:
        for q in (0, 1):
            maps += [(F.one(), D) for D in solve_superderivations(alg, F.one(), q).basis[:3]]
    maps += [(delta, perturbed(D, rng)) for delta, D in maps[:6]]
    maps += [(F.one(), alg.ad(i)) for i in range(min(n, 4))]
    maps += [(F.sample(rng), random_map(F, n, rng)) for _ in range(3)]
    maps.append((F.one(), LinearMap.zero(F, n)))
    return maps


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_is_delta_derivation_matches_reference(name):
    alg = ALGEBRAS[name]()
    rng = random.Random(name)
    parities = (None, 0, 1) if name in GRADED else (None, 0)
    verdicts = set()
    for delta, D in sample_maps(alg, rng):
        for parity in parities:
            got = is_delta_derivation(alg, D, delta, parity)
            assert got == ref_is_delta_derivation(alg, D, delta, parity), (name, delta, parity)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_is_delta_derivation_on_envelope_lifts():
    osp = make_osp12(GF7)
    F = osp.field
    env = make_grassmann_envelope(osp, 2)
    rng = random.Random(7)
    for q, g in ((0, ()), (1, (0,)), (0, (0, 1))):
        for D in solve_superderivations(osp, F.one(), q).basis[:2]:
            lifted = lift_grassmann(env, D, g)
            for M in (lifted, perturbed(lifted, rng)):
                for delta in (F.one(), F.from_int(3)):
                    assert is_delta_derivation(env, M, delta) == ref_is_delta_derivation(env, M, delta)


def with_form(alg, form):
    return Algebra(alg.field, alg.dim, alg.basis, alg.products, alg.flavor, alg.grading, form)


@pytest.mark.parametrize(
    "name", ["osp12/Q", "osp12/GF7", "osp12/GF11", "osp12/Q[t]", "sl2/Q", "sl3/GF7", "assoc/Q"]
)
def test_validate_form_matches_reference(name):
    alg = ALGEBRAS[name]()
    F = alg.field
    n = alg.dim
    rng = random.Random(name)
    forms = invariant_forms(alg)
    assert forms
    candidates = list(forms)
    for B in forms:
        for _ in range(10):
            P = [list(r) for r in B]
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(n), rng.randrange(n)
                P[i][j] = F.add(P[i][j], F.sample(rng))
            candidates.append(P)
    candidates += [random_map(F, n, rng).rows for _ in range(5)]
    found = 0
    for B in candidates:
        violations = validate_form(with_form(alg, B)).violations
        assert violations == ref_form_violations(with_form(alg, B))
        found += bool(violations)
    assert found > len(candidates) // 2


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_invariant_forms_match_reference(name):
    alg = ALGEBRAS[name]()
    assert invariant_forms(alg) == ref_invariant_forms(alg)


def semidirect_with_trivial(L, mdim):
    return make_semidirect(L, ModuleAction.trivial(L, mdim))


CENTER_ALGEBRAS = {
    **ALGEBRAS,
    "abelian/GF7": lambda: make_abelian(GF7, 3),
    "heisenberg/Q": lambda: Algebra(Q, 3, ["x", "y", "z"], {(0, 1): {2: Fraction(1)}}),
    "affine2/GF5": lambda: Algebra(GF5, 2, ["x", "y"], {(0, 1): {1: 1}}),
    "semidirect/Q": lambda: semidirect_with_trivial(make_special_linear(2, Q), 2),
    "envelope/GF7": lambda: make_grassmann_envelope(make_osp12(GF7), 2),
}


@pytest.mark.parametrize("name", sorted(CENTER_ALGEBRAS))
def test_center_matches_reference(name):
    alg = CENTER_ALGEBRAS[name]()
    assert alg.center() == ref_center(alg)


def dense_span_rref(F, vectors, ncols):
    """The nonzero rows of the RREF of dense vectors, by textbook
    Gauss-Jordan elimination: the canonical basis of their span."""
    mat = [list(v) for v in vectors]
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if not F.is_zero(mat[i][c])), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = F.inv(mat[r][c])
        mat[r] = [F.mul(inv, x) for x in mat[r]]
        for i, row in enumerate(mat):
            if i != r and not F.is_zero(row[c]):
                f = row[c]
                mat[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(row, mat[r])]
        r += 1
    return mat[:r]


@st.composite
def drawn_algebras(draw, F, flavor):
    """A sparse algebra of the flavor ("lie" or "super") and dim 2-6 over F,
    its constants (a + b t) / d, d = 1..4, with b t only over
    Q[t]/(t^2 - 2), respecting a drawn grading; a Lie algebra over Q is then rebased
    (conftest) with the scaled basis, so its dense constants carry
    denominators."""
    n = draw(st.integers(2, 6))
    grading = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) if flavor == "super" else None
    par = grading or [0] * n
    pairs = [(i, j) for i in range(n) for j in range(i, n) if i < j or par[i]]

    def scalar():
        a, b, d = draw(st.integers(-4, 4)), draw(st.integers(-2, 2)), draw(st.integers(1, 4))
        c = F.add(F.from_int(a), F.mul(F.from_int(b), F.t)) if F is QT else F.from_int(a)
        return F.div(c, F.from_int(d))

    products = {}
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=2 * n)):
        targets = [k for k in range(n) if par[k] == (par[i] + par[j]) % 2]
        if targets:
            terms = draw(st.lists(st.sampled_from(targets), unique=True, min_size=1, max_size=2))
            products[(i, j)] = {k: scalar() for k in terms}
    alg = Algebra(F, n, [f"e{i}" for i in range(n)], products, flavor=flavor, grading=grading)
    if F is Q and flavor == "lie":
        alg = rebased(alg, draw(st.integers(1, 7)), scale=True)
    return alg


@pytest.mark.parametrize("flavor", ["lie", "super"])
@pytest.mark.parametrize("F", [GF5, GF7, Q, QT], ids=["GF5", "GF7", "Q", "Q[t]"])
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_commutant_and_center_match_dense_oracles(F, flavor, data):
    """The commutant is the RREF of every product e_i e_j, and the center
    the nullspace of the equations (v e_i)_l = sum_j v_j (e_j e_i)_l = 0,
    both from ``product`` alone; the stored products, which reach the
    commutant's elimination, are left as they were."""
    alg = data.draw(drawn_algebras(F, flavor))
    n = alg.dim
    stored = {key: dict(terms) for key, terms in alg.products.items()}
    prods = [[alg.product(i, j) for j in range(n)] for i in range(n)]
    vecs = [[prod.get(k, F.zero()) for k in range(n)] for row in prods for prod in row]
    eqs = [[prods[j][i].get(l, F.zero()) for j in range(n)] for i in range(n) for l in range(n)]
    commutant, center = alg.commutant(), alg.center()
    assert commutant == dense_span_rref(F, vecs, n)
    assert center == dense_gauss_nullspace(F, eqs, n)
    if F is Q:
        # the center is read off constants lowered to integers; a stray int
        # would still compare equal to the oracle's Fraction
        assert all(type(c) is Fraction for v in commutant + center for c in v)
    assert alg.products == stored


def test_lift_grassmann_parity_messages_match_reference():
    osp = make_osp12(GF7)
    F = osp.field
    env = make_grassmann_envelope(osp, 3)
    rng = random.Random(12)
    maps = [D for q in (0, 1) for D in solve_superderivations(osp, F.one(), q).basis]
    maps += [random_map(F, osp.dim, rng, density=0.2) for _ in range(6)]
    maps.append(LinearMap.zero(F, osp.dim))
    raised = 0
    for D in maps:
        for g in ((), (0,), (1, 2), (0, 1, 2)):
            expected = ref_parity_mismatch(osp, D, len(g) % 2)
            if expected is None:
                lift_grassmann(env, D, g)
                continue
            with pytest.raises(ParityMismatch) as err:
                lift_grassmann(env, D, g)
            assert str(err.value) == expected
            raised += 1
    assert raised > 0
