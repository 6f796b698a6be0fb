"""The alternating identities against plain reference evaluations.

``compute_s4`` and ``validate`` evaluate their identities only on the sorted
argument tuples of ``index_tuples``, and ``compute_s4`` builds the signed sum
over S4 by a recursion over subsets of argument positions.  The references
here are the plain forms: the standard identity as a sum over all 24
permutations with an explicit Koszul sign per permutation, and the
(super-)Jacobi sum evaluated on every ordered triple.  Random sparse graded
algebras over GF(7) and Q, their Grassmann envelopes and perturbed copies of
known Lie (super)algebras are drawn with hypothesis.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

from hypothesis import given, settings, strategies as st

from deltader.algebras import (
    Algebra,
    index_tuples,
    make_grassmann_envelope,
    make_osp12,
    make_special_linear,
    make_zassenhaus,
    validate,
)
from deltader.fields import PrimeField, Rationals
from deltader.linalg import rref_dense
from deltader.superstd import compute_s4, load_fixture

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

    def nested(y, args):
        vec = {y: F.one()}
        for j in args:
            nxt = {}
            for i, c in vec.items():
                for k, w in alg.product(i, j).items():
                    nxt[k] = F.add(nxt.get(k, F.zero()), F.mul(c, w))
            vec = {k: c for k, c in nxt.items() if not F.is_zero(c)}
        return vec

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
                for k, c in nested(y, [t[s] for s in perm]).items():
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


KNOWN = {
    "sl2/GF7": lambda: make_special_linear(2, PrimeField(7)),
    "sl3/Q": lambda: make_special_linear(3, Rationals()),
    "W11/GF7": lambda: make_zassenhaus(7, 1),
    "osp12/Q": lambda: make_osp12(Rationals()),
    "osp12/GF7": lambda: load_fixture("osp12_gf7.json"),
    "G2(osp12/GF7)": lambda: make_grassmann_envelope(load_fixture("osp12_gf7.json"), 2),
}


@SETTINGS
@given(st.sampled_from(sorted(KNOWN)), st.data())
def test_validate_perturbed_matches_all_triples(name, data):
    alg = KNOWN[name]()
    F = alg.field
    par = alg.grading or [0] * alg.dim
    products = {key: dict(terms) for key, terms in alg.products.items()}
    pairs = [(i, j) for i in range(alg.dim) for j in range(i, alg.dim) if i < j or (alg.flavor == "super" and par[i])]
    for i, j in data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2)):
        k = data.draw(st.sampled_from([k for k in range(alg.dim) if par[k] == (par[i] + par[j]) % 2]))
        terms = products.setdefault((i, j), {})
        terms[k] = F.add(terms.get(k, F.zero()), F.from_int(data.draw(st.integers(1, 6))))
    bent = Algebra(F, alg.dim, alg.basis, products, flavor=alg.flavor, grading=alg.grading)
    assert validate(alg).ok
    rep = validate(bent)
    expected = reference_violations(bent, rep.law)
    assert rep.ok == (not expected)
    assert dict(rep.violations) == expected


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
        (t, frozenset().union(*(supports[i] for i in t))) for t in expected
        if sum(len(supports[i]) for i in t) == len(frozenset().union(*(supports[i] for i in t)))
    ]
    assert list(index_tuples(parities, k, supports)) == pruned
