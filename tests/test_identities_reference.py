"""The alternating identities against plain reference evaluations.

``compute_s4`` and ``validate`` evaluate their identities only on the sorted
argument tuples of ``index_tuples``, and ``compute_s4`` builds the signed sum
over S4 by a recursion over subsets of argument positions.  The references
here are the plain forms: the standard identity as a sum over all 24
permutations with an explicit Koszul sign per permutation, and the
(super-)Jacobi sum evaluated on every ordered triple.  Random sparse graded
algebras over GF(7) and Q, their Grassmann envelopes and perturbed copies of
known Lie (super)algebras are drawn with hypothesis.

``compute_s4`` also skips every evaluation whose degree, under the grading
``_support_degrees`` reads off the structure constants (off the basis, on a
Grassmann envelope), has no basis vector or an already spanned component.
That grading is checked against every nonzero structure constant, an
envelope's against the one its structure constants give, and s4 against
the reference on known algebras with real root gradings and on a dense
change of basis, whose grading has rank 0.

``compute_s4`` meets the argument tuples in a seeded spread order, so it
is also checked to commute with permutations of the basis (and of the
Grassmann supports of an envelope): only its speed may depend on the
order of the basis.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from deltader.algebras import (
    Algebra,
    FlavorMismatch,
    _support_degrees,
    index_tuples,
    make_divided_powers,
    make_grassmann_envelope,
    make_osp12,
    make_special_linear,
    make_zassenhaus,
    validate,
)
from deltader.fields import PrimeField, QuotientRing, Rationals
from deltader.linalg import rref_dense
from deltader.superstd import compute_s4, load_fixture

from conftest import rebased

FIELDS = [PrimeField(7), Rationals()]
SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


def koszul_sign(perm, parities) -> int:
    """sign(perm) times -1 for every inversion of two odd arguments."""
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
                if parities[perm[a]] and parities[perm[b]]:
                    sign = -sign
    return sign


def reference_s4(alg, law):
    """(canonical basis, is_ideal) of s4 as the 24-permutation sum of nested
    products on every non-decreasing 4-tuple whose repeats are odd; on an
    envelope, tuples and y whose Grassmann supports overlap are skipped
    (their nested products vanish)."""
    F = alg.field
    n = alg.dim
    par = alg.grading if law == "super" else [0] * n
    supports = alg.meta.get("supports")

    memo = {}

    def nested(y, args):
        """(...((y a1) a2) ...) ak for the tuple args, from the memoised
        value of its prefix: the permutations of a tuple share prefixes."""
        if not args:
            return {y: F.one()}
        if (y, args) not in memo:
            nxt = {}
            for i, c in nested(y, args[:-1]).items():
                for k, w in alg.product(i, args[-1]).items():
                    nxt[k] = F.add(nxt.get(k, F.zero()), F.mul(c, w))
            memo[y, args] = {k: c for k, c in nxt.items() if not F.is_zero(c)}
        return memo[y, args]

    vectors = []
    for t in combinations_with_replacement(range(n), 4):
        if any(t[a] == t[a + 1] and not par[t[a]] for a in range(3)):
            continue
        union = set()
        if supports is not None:
            if sum(len(supports[i]) for i in t) != len(union.union(*(supports[i] for i in t))):
                continue
            union = union.union(*(supports[i] for i in t))
        for y in range(n):
            if supports is not None and supports[y] & union:
                continue
            acc = [F.zero()] * n
            for perm in permutations(range(4)):
                sign = koszul_sign(perm, [par[i] for i in t])
                for k, c in nested(y, tuple(t[s] for s in perm)).items():
                    acc[k] = F.add(acc[k], c) if sign > 0 else F.sub(acc[k], c)
            vectors.append(acc)
    basis = rref_dense(vectors, F)
    is_ideal = all(
        len(rref_dense(basis + [alg.bracket(v, alg.unit_vector(i))], F)) == len(basis)
        for v in basis
        for i in range(n)
    )
    return basis, is_ideal


def reference_violations(alg, law):
    """{sorted triple: defect} over every ordered triple with a nonzero
    (super-)Jacobi sum; the defect is that of the sorted triple."""
    F = alg.field
    n = alg.dim
    par = alg.grading if law == "super_jacobi" else [0] * n

    def term(a, b, c):
        v = [F.zero()] * n
        for m, x in alg.product(a, b).items():
            for l, y in alg.product(m, c).items():
                v[l] = F.add(v[l], F.mul(x, y))
        return [F.neg(x) for x in v] if par[a] and par[c] else v

    def defect(i, j, k):
        terms = [term(i, j, k), term(j, k, i), term(k, i, j)]
        return [F.add(F.add(x, y), z) for x, y, z in zip(*terms)]

    out = {}
    for t in product(range(n), repeat=3):
        if any(not F.is_zero(x) for x in defect(*t)):
            s = tuple(sorted(t))
            out[s] = defect(*s)
    return out


@st.composite
def graded_algebras(draw, flavor=None):
    """A sparse algebra of dim 3-7 over GF(7) or Q: anticommutative, or
    super-anticommutative with products that respect a random grading."""
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(3, 7))
    flavor = flavor or draw(st.sampled_from(["lie", "super"]))
    grading = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)) if flavor == "super" else None
    par = grading or [0] * n
    pairs = [(i, j) for i in range(n) for j in range(i, n) if i < j or par[i]]
    products = {}
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)):
        targets = [k for k in range(n) if par[k] == (par[i] + par[j]) % 2]
        if targets:
            terms = draw(st.dictionaries(
                st.sampled_from(targets), st.integers(-3, 3).filter(bool), min_size=1, max_size=2,
            ))
            products[(i, j)] = {k: F.coerce(Fraction(c, draw(st.sampled_from([1, 2])))) for k, c in terms.items()}
    return Algebra(F, n, [f"e{i}" for i in range(n)], products, flavor=flavor, grading=grading)


def s4_result(alg, law):
    ideal = compute_s4(alg, law)
    if isinstance(alg.field, Rationals):
        # s4 reads the table of constants lowered to integers; a stray int
        # would still compare equal to the reference's Fraction
        assert all(type(c) is Fraction for v in ideal.basis for c in v)
    return ideal.basis, ideal.is_ideal


@SETTINGS
@given(graded_algebras())
def test_s4_ordinary_matches_permutation_sum(alg):
    assert s4_result(alg, "ordinary") == reference_s4(alg, "ordinary")


@SETTINGS
@given(graded_algebras("super"))
def test_s4_super_matches_permutation_sum(alg):
    assert s4_result(alg, "super") == reference_s4(alg, "super")


@settings(derandomize=True, deadline=None, max_examples=15)
@given(graded_algebras("super"), st.sampled_from([2, 3]))
def test_s4_envelope_matches_permutation_sum(alg, m):
    env = make_grassmann_envelope(alg, m)
    assert s4_result(env, "ordinary") == reference_s4(env, "ordinary")


@SETTINGS
@given(graded_algebras())
def test_validate_matches_all_triples(alg):
    law = "super_jacobi" if alg.flavor == "super" else "jacobi"
    rep = validate(alg)
    assert rep.law == law
    expected = reference_violations(alg, law)
    assert rep.ok == (not expected)
    assert dict(rep.violations) == expected
    assert rep.violations == sorted(expected.items())


KNOWN = {
    "sl2/GF7": lambda: make_special_linear(2, PrimeField(7)),
    "sl3/Q": lambda: make_special_linear(3, Rationals()),
    "W11/GF7": lambda: make_zassenhaus(7, 1),
    "osp12/Q": lambda: make_osp12(Rationals()),
    "osp12/GF7": lambda: load_fixture("osp12_gf7.json"),
    "G2(osp12/GF7)": lambda: make_grassmann_envelope(load_fixture("osp12_gf7.json"), 2),
    "rebased sl3/Q": lambda: rebased(make_special_linear(3, Rationals()), scale=True),
    "rebased W11/GF7": lambda: rebased(make_zassenhaus(7, 1)),
}


def perturbed(alg, data, scalars=None, min_size=0):
    """A copy of ``alg`` with up to two drawn scalars (by default 1 to 6)
    added to structure constants that its storage rule and grading allow."""
    F = alg.field
    par = alg.grading or [0] * alg.dim
    products = {key: dict(terms) for key, terms in alg.products.items()}
    pairs = [
        (i, j) for i in range(alg.dim) for j in range(i, alg.dim)
        if i < j or alg.flavor == "assoc" or (alg.flavor == "super" and par[i])
    ]
    if scalars is None:
        scalars = st.integers(1, 6).map(F.from_int)
    for i, j in data.draw(st.lists(st.sampled_from(pairs), unique=True, min_size=min_size, max_size=2)):
        k = data.draw(st.sampled_from([k for k in range(alg.dim) if par[k] == (par[i] + par[j]) % 2]))
        terms = products.setdefault((i, j), {})
        terms[k] = F.add(terms.get(k, F.zero()), data.draw(scalars))
    return Algebra(F, alg.dim, alg.basis, products, flavor=alg.flavor, grading=alg.grading)


@SETTINGS
@given(st.sampled_from(sorted(KNOWN)), st.data())
def test_validate_perturbed_matches_all_triples(name, data):
    alg = KNOWN[name]()
    bent = perturbed(alg, data)
    assert validate(alg).ok
    rep = validate(bent)
    expected = reference_violations(bent, rep.law)
    assert rep.ok == (not expected)
    assert dict(rep.violations) == expected
    assert rep.violations == sorted(expected.items())


def reference_assoc(alg):
    """[(i, j, k), defect] for every ordered triple, in lexicographic order,
    at which (e_i e_j) e_k - e_i (e_j e_k) is nonzero, by dense products."""
    F = alg.field
    out = []
    for i, j, k in product(range(alg.dim), repeat=3):
        left = alg.bracket(alg.product_vec(i, j), alg.unit_vector(k))
        right = alg.bracket(alg.unit_vector(i), alg.product_vec(j, k))
        defect = [F.sub(x, y) for x, y in zip(left, right)]
        if any(not F.is_zero(x) for x in defect):
            out.append(((i, j, k), defect))
    return out


def truncated_polynomials(k: int) -> Algebra:
    """Q[t]/(t^k): t^i t^j = t^(i+j) while i + j < k."""
    products = {(i, j): {i + j: Fraction(1)} for i in range(k) for j in range(i, k) if i + j < k}
    return Algebra(Rationals(), k, [f"t^{i}" for i in range(k)], products, flavor="assoc")


ASSOCIATIVE = {
    "Q[t]/(t^3)": lambda: truncated_polynomials(3),
    "Q[t]/(t^5)": lambda: truncated_polynomials(5),
    "O1(1)/GF5": lambda: make_divided_powers(5, 1),
}


@SETTINGS
@given(st.sampled_from(sorted(ASSOCIATIVE)), st.data())
def test_assoc_matches_all_ordered_triples(name, data):
    alg = ASSOCIATIVE[name]()
    rep = validate(alg)
    assert rep.law == "assoc" and rep.ok and reference_assoc(alg) == []
    bent = perturbed(alg, data)
    assert validate(bent, "assoc").violations == reference_assoc(bent)


QT = QuotientRing(Rationals(), [Fraction(-2), Fraction(0), Fraction(1)])  # Q[t]/(t^2 - 2)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.data())
def test_validate_over_quotient_ring_matches_all_triples(data):
    sl2 = make_special_linear(2, QT)
    assert validate(sl2).ok
    scalars = st.sampled_from([QT.t, QT.add(QT.one(), QT.t), QT.coerce([Fraction(1, 2), Fraction(-3)])])
    bent = perturbed(sl2, data, scalars, min_size=1)
    assert validate(bent).violations == sorted(reference_violations(bent, "jacobi").items())


def test_quotient_ring_defect_is_not_an_integer():
    # [E01, H] = (t - 2) E01 leaves the Jacobi sum -t H on (E01, E10, H)
    sl2 = make_special_linear(2, QT)
    products = {key: dict(terms) for key, terms in sl2.products.items()}
    products[(0, 2)][0] = QT.add(products[(0, 2)][0], QT.t)
    bent = Algebra(QT, 3, sl2.basis, products)
    rep = validate(bent)
    assert rep.violations == sorted(reference_violations(bent, "jacobi").items())
    assert rep.violations == [((0, 1, 2), [QT.zero(), QT.zero(), QT.neg(QT.t)])]


def test_jacobi_law_rejected_on_super_algebras():
    # the ordinary Jacobi sum fails on triples with a repeated odd index,
    # which the sorted triples of a super algebra never visit
    osp = load_fixture("osp12_gf7.json")
    assert {(1, 3, 3), (1, 4, 4), (2, 3, 3)} <= set(reference_violations(osp, "jacobi"))
    with pytest.raises(FlavorMismatch, match="super_jacobi"):
        validate(osp, "jacobi")
    assert validate(osp, "super_jacobi").ok


@SETTINGS
@given(st.lists(st.integers(0, 1), min_size=1, max_size=6), st.integers(1, 4), st.data())
def test_index_tuples_is_the_filtered_product(parities, k, data):
    n = len(parities)
    expected = [
        t for t in combinations_with_replacement(range(n), k)
        if not any(t[a] == t[a + 1] and not parities[t[a]] for a in range(k - 1))
    ]
    assert list(index_tuples(parities, k)) == expected
    supports = [frozenset(s) for s in data.draw(st.lists(
        st.sets(st.integers(0, 3), max_size=2), min_size=n, max_size=n,
    ))]
    pruned = [
        t for t in expected
        if sum(len(supports[i]) for i in t) == len(frozenset().union(*(supports[i] for i in t)))
    ]
    masks = [sum(1 << g for g in s) for s in supports]
    assert list(index_tuples(parities, k, masks)) == pruned


def rebased_sl3():
    return rebased(make_special_linear(3, Rationals()))


def test_rebased_sl3_is_a_change_of_basis():
    assert validate(rebased_sl3()).ok
    scaled = KNOWN["rebased sl3/Q"]()
    assert any(c.denominator > 1 for terms in scaled.products.values() for c in terms.values())
    assert validate(scaled).ok


def assert_degrees_respect_products(alg):
    w = _support_degrees(alg)
    assert len(w) == alg.dim and len({len(d) for d in w}) == 1
    for (i, j), terms in alg.products.items():
        for k in terms:
            assert w[k] == tuple(a + b for a, b in zip(w[i], w[j])), (i, j, k)


@SETTINGS
@given(graded_algebras())
def test_support_degrees_respect_random_products(alg):
    assert_degrees_respect_products(alg)


@pytest.mark.parametrize("name", sorted(KNOWN))
def test_support_degrees_respect_known_products(name):
    assert_degrees_respect_products(KNOWN[name]())


@pytest.mark.parametrize("make, rank", [
    (lambda: make_special_linear(2, Rationals()), 1),
    (lambda: make_special_linear(3, Rationals()), 2),
    (lambda: make_special_linear(4, Rationals()), 3),
    (lambda: make_grassmann_envelope(load_fixture("osp12_gf7.json"), 1), 2),
    (lambda: make_grassmann_envelope(load_fixture("osp12_gf7.json"), 2), 3),
    (lambda: make_grassmann_envelope(load_fixture("osp12_gf7.json"), 5), 6),
    (rebased_sl3, 0),
], ids=["sl2/Q", "sl3/Q", "sl4/Q", "G1(osp12/GF7)", "G2(osp12/GF7)", "G5(osp12/GF7)", "rebased sl3/Q"])
def test_support_degrees_rank(make, rank):
    alg = make()
    assert {len(d) for d in _support_degrees(alg)} == {rank}


def components(degrees) -> list:
    """The partition of the basis indices by degree."""
    parts: dict = {}
    for k, w in enumerate(degrees):
        parts.setdefault(w, []).append(k)
    return sorted(parts.values())


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_envelope_degrees_read_off_the_basis(m):
    """An envelope's degrees, read off its basis, split it into the same
    components as the nullspace of its structure constants' relations (the
    same algebra without the envelope's basis in its meta), and s4 is the
    same under either."""
    env = make_grassmann_envelope(load_fixture("osp12_gf7.json"), m)
    bare = Algebra(env.field, env.dim, env.basis, env.products, env.flavor, env.grading,
                   meta={"supports": env.meta["supports"]})
    assert components(_support_degrees(env)) == components(_support_degrees(bare))
    assert s4_result(env, "ordinary") == s4_result(bare, "ordinary")


@pytest.mark.parametrize("name, law", [
    (name, law) for name in sorted(KNOWN) for law in ("ordinary", "super")
    # a dense sl3 is checked by the two test_s4_*rebased_matches_permutation_sum
    if name != "rebased sl3/Q" and (law == "ordinary" or KNOWN[name]().grading is not None)
])
def test_s4_known_matches_permutation_sum(name, law):
    alg = KNOWN[name]()
    assert s4_result(alg, law) == reference_s4(alg, law)


def test_s4_rebased_matches_permutation_sum():
    # a single homogeneous component: the grading has rank 0
    alg = rebased_sl3()
    assert s4_result(alg, "ordinary") == reference_s4(alg, "ordinary")


def test_s4_rescaled_rebased_matches_permutation_sum():
    # constants with denominators, lowered in s4's table by D = 4: the table
    # holds the int 4 c for every constant c, and some c has denominator 4
    alg = KNOWN["rebased sl3/Q"]()
    table = alg._table()
    lowered = [(table[i][j][k], c) for (i, j), terms in alg.products.items() for k, c in terms.items()]
    assert all(type(x) is int and x == 4 * c for x, c in lowered)
    assert any(c.denominator == 4 for _, c in lowered)
    assert s4_result(alg, "ordinary") == reference_s4(alg, "ordinary")


def permuted(alg, perm):
    """``alg`` in the basis e'_a = e_perm[a], its grading and Grassmann
    supports carried along."""
    n = alg.dim
    inv = {k: a for a, k in enumerate(perm)}
    products = {}
    for a in range(n):
        for b in range(a if alg.flavor == "super" else a + 1, n):
            terms = {inv[k]: c for k, c in alg.product(perm[a], perm[b]).items()}
            if terms:
                products[(a, b)] = terms
    grading = None if alg.grading is None else [alg.grading[k] for k in perm]
    meta = {"supports": [alg.meta["supports"][k] for k in perm]} if "supports" in alg.meta else None
    return Algebra(alg.field, n, [alg.basis[k] for k in perm], products, alg.flavor, grading, meta=meta)


def assert_s4_commutes_with(alg, law, perm):
    """s4 of the permuted algebra is the permuted s4: the order in which
    ``compute_s4`` meets the argument tuples changes only its speed."""
    basis, is_ideal = s4_result(alg, law)
    moved = rref_dense([[v[k] for k in perm] for v in basis], alg.field)
    assert s4_result(permuted(alg, perm), law) == (moved, is_ideal)


@SETTINGS
@given(graded_algebras(), st.data())
def test_s4_of_permuted_basis_is_permuted_s4(alg, data):
    assert_s4_commutes_with(alg, "ordinary", data.draw(st.permutations(range(alg.dim))))


@SETTINGS
@given(graded_algebras("super"), st.data())
def test_super_s4_of_permuted_basis_is_permuted_s4(alg, data):
    assert_s4_commutes_with(alg, "super", data.draw(st.permutations(range(alg.dim))))


@pytest.mark.parametrize("make, law", [
    (lambda: make_grassmann_envelope(load_fixture("osp12_gf7.json"), 2), "ordinary"),
    (lambda: make_grassmann_envelope(load_fixture("osp12_gf7.json"), 3), "ordinary"),
    (lambda: make_grassmann_envelope(load_fixture("osp12_gf7.json"), 5), "ordinary"),
    (lambda: make_special_linear(3, Rationals()), "ordinary"),
    (lambda: make_zassenhaus(7, 1), "ordinary"),
    (lambda: load_fixture("osp12_gf7.json"), "super"),
    (lambda: make_osp12(Rationals()), "super"),
], ids=["G2(osp12/GF7)", "G3(osp12/GF7)", "G5(osp12/GF7)", "sl3/Q", "W11/GF7", "osp12/GF7 super",
        "osp12/Q super"])
@pytest.mark.parametrize("seed", [1, 2])
def test_s4_of_permuted_known_basis(make, law, seed):
    alg = make()
    assert_s4_commutes_with(alg, law, random.Random(seed).sample(range(alg.dim), alg.dim))
