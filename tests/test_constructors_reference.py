"""The constructors against plain reference code that builds the same algebras
the direct way.

The reference multiplies dense n x n matrices for sl(n) and decomposes each
commutator, and runs its own double loop over basis pairs for the current
algebra L (x) A, the Grassmann envelope G(L), the derivation algebra A d and
the deformed Zassenhaus algebra.  Every constructor must give the canonical
JSON of its reference byte for byte.
"""

import json

import pytest

from deltader.algebras import (
    Algebra,
    algebra_to_json,
    binom_mod_p,
    grassmann_monomials,
    grassmann_mul,
    make_current,
    make_deformed_zassenhaus,
    make_derivation_algebra,
    make_divided_powers,
    make_grassmann_envelope,
    make_osp12,
    make_special_linear,
    make_zassenhaus,
)
from deltader.fields import PrimeField, Rationals
from deltader.linmap import LinearMap

Q = Rationals()


def ref_special_linear(nmat, F):
    pairs = [(i, j) for i in range(nmat) for j in range(nmat) if i != j]
    dim = nmat * nmat - 1
    mats = []
    for i, j in pairs:
        m = [[F.zero()] * nmat for _ in range(nmat)]
        m[i][j] = F.one()
        mats.append(m)
    for k in range(nmat - 1):
        m = [[F.zero()] * nmat for _ in range(nmat)]
        m[k][k] = F.one()
        m[k + 1][k + 1] = F.neg(F.one())
        mats.append(m)

    def mat_mul(X, Y):
        out = [[F.zero()] * nmat for _ in range(nmat)]
        for i in range(nmat):
            for j in range(nmat):
                for k in range(nmat):
                    out[i][j] = F.add(out[i][j], F.mul(X[i][k], Y[k][j]))
        return out

    products = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            ab, ba = mat_mul(mats[a], mats[b]), mat_mul(mats[b], mats[a])
            comm = [[F.sub(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]
            coeffs = [comm[i][j] for i, j in pairs]
            acc = F.zero()
            for k in range(nmat - 1):
                acc = F.add(acc, comm[k][k])
                coeffs.append(acc)
            terms = {k: c for k, c in enumerate(coeffs) if not F.is_zero(c)}
            if terms:
                products[(a, b)] = terms
    names = [f"E{i}{j}" for (i, j) in pairs] + [f"H{k}" for k in range(nmat - 1)]
    return Algebra(F, dim, names, products)


def ref_current(L, A):
    F = L.field
    nA = A.dim
    dim = L.dim * nA
    grading = None if L.grading is None else [L.grading[p // nA] for p in range(dim)]
    products = {}
    for p1 in range(dim):
        i, a = divmod(p1, nA)
        lo = p1 if L.flavor == "super" else p1 + 1
        for p2 in range(lo, dim):
            j, b = divmod(p2, nA)
            if p1 == p2 and not (grading and grading[p1]):
                continue
            terms = {}
            for k, c1 in L.product(i, j).items():
                for c, c2 in A.product(a, b).items():
                    key = k * nA + c
                    terms[key] = F.add(terms.get(key, F.zero()), F.mul(c1, c2))
            terms = {k: v for k, v in terms.items() if not F.is_zero(v)}
            if terms:
                products[(p1, p2)] = terms
    names = [f"{L.basis[p // nA]}*{A.basis[p % nA]}" for p in range(dim)]
    return Algebra(F, dim, names, products, flavor=L.flavor, grading=grading)


def ref_deformed_zassenhaus(p, n):
    cur = ref_current(make_zassenhaus(p, 1), make_divided_powers(p, n - 1))
    F = cur.field
    nO = p ** (n - 1)
    top = (p - 1) * nO
    products = {k: dict(v) for k, v in cur.products.items()}
    for a in range(nO):
        for b in range(a + 1, nO):
            tgt = a + b - 1
            if tgt >= nO:
                continue
            val = (binom_mod_p(tgt, b - 1, p) if b >= 1 else 0) - (
                binom_mod_p(tgt, a - 1, p) if a >= 1 else 0
            )
            if val % p:
                terms = products.setdefault((a, b), {})
                terms[top + tgt] = F.add(terms.get(top + tgt, F.zero()), F.from_int(val))
                if F.is_zero(terms[top + tgt]):
                    del terms[top + tgt]
                if not terms:
                    del products[(a, b)]
    return Algebra(F, cur.dim, cur.basis, products)


def ref_derivation_algebra(A, partial):
    F = A.field
    n = A.dim
    products = {}
    for i in range(n):
        for j in range(i + 1, n):
            di = partial.apply(A.unit_vector(i))
            dj = partial.apply(A.unit_vector(j))
            vec = A.bracket(A.unit_vector(i), dj)
            t = A.bracket(A.unit_vector(j), di)
            terms = {k: F.sub(x, y) for k, (x, y) in enumerate(zip(vec, t))}
            terms = {k: c for k, c in terms.items() if not F.is_zero(c)}
            if terms:
                products[(i, j)] = terms
    return Algebra(F, n, [f"{A.basis[i]}.d" for i in range(n)], products)


def ref_grassmann_envelope(L, m):
    F = L.field
    basis = [(i, g) for i in range(L.dim) for g in grassmann_monomials(m, L.grading[i])]
    index = {b: p for p, b in enumerate(basis)}
    products = {}
    for p1, (i, g) in enumerate(basis):
        for p2 in range(p1 + 1, len(basis)):
            j, h = basis[p2]
            gh = grassmann_mul(g, h)
            if gh is None:
                continue
            sign, mono = gh
            terms = {}
            for k, c in L.product(i, j).items():
                key = index[(k, mono)]
                terms[key] = F.add(terms.get(key, F.zero()), F.mul(c, F.from_int(sign)))
            terms = {k: v for k, v in terms.items() if not F.is_zero(v)}
            if terms:
                products[(p1, p2)] = terms
    names = [
        L.basis[i] + ("(x)1" if not g else "(x)g" + "g".join(str(t) for t in g))
        for i, g in basis
    ]
    return Algebra(F, len(basis), names, products)


def divided_power_derivation(p):
    """d(x^i) = x^(i-1) on O_1(1) over GF(p)."""
    F = PrimeField(p)
    rows = [[F.one() if j == i - 1 else F.zero() for j in range(p)] for i in range(p)]
    return make_divided_powers(p, 1), LinearMap(F, rows)


CASES = {}
for n in range(2, 7):
    for F in (Q, PrimeField(5), PrimeField(7)):
        CASES[f"sl{n}/{F!r}"] = (make_special_linear, ref_special_linear, (n, F))
for m in range(1, 7):
    CASES[f"G(osp12/GF(7)),m={m}"] = (
        make_grassmann_envelope, ref_grassmann_envelope, (make_osp12(PrimeField(7)), m))
CASES["G(osp12/Q),m=3"] = (make_grassmann_envelope, ref_grassmann_envelope, (make_osp12(Q), 3))
for name, L, O in [
    ("sl2", make_special_linear(2, PrimeField(5)), make_divided_powers(5, 1)),
    ("W(1,1)", make_zassenhaus(5, 1), make_divided_powers(5, 1)),
    ("osp12", make_osp12(PrimeField(7)), make_divided_powers(7, 1)),
]:
    CASES[f"{name}(x)O1(1)/{O.field!r}"] = (make_current, ref_current, (L, O))
for p, n in [(5, 2), (5, 3), (7, 2)]:
    CASES[f"W(1,{n})/GF({p}) deformed"] = (make_deformed_zassenhaus, ref_deformed_zassenhaus, (p, n))
CASES["O1(1)d/GF(5)"] = (make_derivation_algebra, ref_derivation_algebra, divided_power_derivation(5))


@pytest.mark.parametrize("name", list(CASES))
def test_constructor_matches_reference(name):
    make, ref, args = CASES[name]
    got, want = (json.dumps(algebra_to_json(build(*args)), sort_keys=True) for build in (make, ref))
    assert got == want
