"""root_decompose and grading_report against a plain reference.

The reference below is the earlier, loop-based decomposition: it shifts the
restricted matrix by lambda entry by entry, lifts kernel coordinates with a
triple loop, reads coordinates and span membership off the textbook
elimination of conftest, and finds product targets with its own root
lookup; its report re-implements the semigroup and triple-product searches
as nested loops.  The package must give the same roots, spaces, defined
pairs and canonical report bytes on every input, and raise the same errors.
"""

from fractions import Fraction

import pytest

from deltader.algebras import (
    Algebra,
    AlgebraError,
    NotADerivation,
    make_elduque4,
    make_grassmann_envelope,
    make_osp12,
    make_special_linear,
    make_zassenhaus,
)
from deltader.cli import canonical_json
from deltader.fields import PrimeField, Rationals, parse_scalar, poly_deg
from deltader.gradings import (
    NonCommuting,
    NonSplitting,
    _poly_splits,
    grading_report,
    root_decompose,
)
from deltader.linalg import base_field_roots, charpoly, kernel_of_map, rref_dense
from deltader.linmap import LinearMap
from deltader.solver import is_delta_derivation

from conftest import gauss_coordinates

Q = Rationals()
GF5, GF7, GF13 = PrimeField(5), PrimeField(7), PrimeField(13)


# -- reference -----------------------------------------------------------------


def ref_root_decompose(alg, D_set, delta):
    """(roots, spaces, defined) by the loop-based refinement."""
    F = alg.field
    n = alg.dim
    delta = parse_scalar(F, delta)
    for a, Da in enumerate(D_set):
        if not is_delta_derivation(alg, Da, delta):
            raise NotADerivation(f"map {a} is not a delta-derivation for this delta")
        for b in range(a + 1, len(D_set)):
            if Da.compose(D_set[b]) != D_set[b].compose(Da):
                raise NonCommuting(f"maps {a} and {b} do not commute")

    pieces = [((), [alg.unit_vector(i) for i in range(n)])]
    for D in D_set:
        refined = []
        for root, vecs in pieces:
            mat = []
            for v in vecs:
                coords = gauss_coordinates(F, vecs, D.apply(v))
                if coords is None:
                    raise NonCommuting("subspace is not invariant; the maps do not commute")
                mat.append(coords)
            cp = charpoly(F, mat)
            mult, residual = _poly_splits(F, cp, base_field_roots(F, cp))
            if poly_deg(residual) > 0:
                raise NonSplitting(
                    "characteristic polynomial does not split over the field", factor=residual
                )
            s = len(vecs)
            for lam in sorted(mult):
                shifted = [
                    [F.sub(mat[i][j], lam if i == j else F.zero()) for j in range(s)]
                    for i in range(s)
                ]
                kern = kernel_of_map(LinearMap(F, shifted).power(s).rows, F)
                lifted = []
                for k in kern:
                    vec = [F.zero()] * n
                    for c, v in zip(k, vecs):
                        if not F.is_zero(c):
                            for t in range(n):
                                vec[t] = F.add(vec[t], F.mul(c, v[t]))
                    lifted.append(vec)
                refined.append((root + (lam,), rref_dense(lifted, F)))
        pieces = refined

    roots = [r for r, _ in pieces]
    spaces = [s for _, s in pieces]
    defined = set()
    for a in range(len(roots)):
        for b in range(len(roots)):
            target = tuple(F.mul(delta, F.add(x, y)) for x, y in zip(roots[a], roots[b]))
            tgt_idx = None
            for idx, r in enumerate(roots):
                if all(F.eq(x, y) for x, y in zip(r, target)):
                    tgt_idx = idx
                    break
            for u in spaces[a]:
                for v in spaces[b]:
                    w = alg.bracket(u, v)
                    if all(F.is_zero(c) for c in w):
                        continue
                    if tgt_idx is None or gauss_coordinates(F, spaces[tgt_idx], w) is None:
                        raise AlgebraError(
                            "product of root spaces escapes the expected root space"
                        )
                    defined.add((a, b))
    return roots, spaces, defined


def ref_report(alg, delta, roots, spaces, defined):
    """The grading report of a decomposition, by nested loops."""
    F = alg.field
    delta = parse_scalar(F, delta)
    k = len(roots)
    fmt = lambda idx: [F.fmt(x) for x in roots[idx]]

    def circ(a, b):
        if (a, b) not in defined:
            return None
        target = tuple(F.mul(delta, F.add(x, y)) for x, y in zip(roots[a], roots[b]))
        for idx, r in enumerate(roots):
            if all(F.eq(x, y) for x, y in zip(r, target)):
                return idx
        return None

    def triple_nonzero(a, b, c):
        for u in spaces[a]:
            for v in spaces[b]:
                w = alg.bracket(u, v)
                if all(F.is_zero(x) for x in w):
                    continue
                for z in spaces[c]:
                    if any(not F.is_zero(x) for x in alg.bracket(w, z)):
                        return True
        return False

    def semigroup_witness():
        for a in range(k):
            for b in range(k):
                ab = circ(a, b)
                if ab is None:
                    continue
                for c in range(k):
                    bc = circ(b, c)
                    if bc is None:
                        continue
                    left, right = circ(ab, c), circ(a, bc)
                    if left is not None and right is not None and left != right:
                        return {"triple": [fmt(a), fmt(b), fmt(c)], "left": fmt(left),
                                "right": fmt(right)}
        if F.eq(delta, F.zero()) or F.eq(delta, F.one()):
            return None
        wit_i = wit_ii = None
        for a in range(k):
            for b in range(k):
                if a == b:
                    continue
                if wit_ii is None and triple_nonzero(a, a, b):
                    wit_ii = [fmt(a), fmt(a), fmt(b)]
                for c in range(k):
                    if c not in (a, b) and wit_i is None and triple_nonzero(a, b, c):
                        wit_i = [fmt(a), fmt(b), fmt(c)]
        return {"triple_product": wit_i or wit_ii} if wit_i or wit_ii else None

    witness = semigroup_witness()
    return {
        "delta": F.fmt(delta),
        "roots": [fmt(i) for i in range(k)],
        "dims": [len(s) for s in spaces],
        "defined": sorted([a, b] for (a, b) in defined),
        "complete": sum(len(s) for s in spaces) == alg.dim,
        "verdict": "SemigroupConsistent" if witness is None else "NonSemigroup",
        "witness": witness,
    }


# -- inputs --------------------------------------------------------------------


def elduque(F):
    rows = [[F.zero()] * 4 for _ in range(4)]
    rows[2][3] = F.from_int(-1)
    rows[3][2] = F.one()
    return make_elduque4(F), [LinearMap(F, rows)], F.from_int(-1)


def triple_product_algebra():
    """Anticommutative, not Lie: [e1,e2] = e3, [e3,e4] = e5."""
    one = Q.one()
    return Algebra(Q, 5, ["e1", "e2", "e3", "e4", "e5"], {(0, 1): {2: one}, (2, 3): {4: one}})


def diag(F, entries):
    rows = LinearMap.zero(F, len(entries)).rows
    for i, d in enumerate(entries):
        rows[i][i] = F.from_int(d)
    return LinearMap(F, rows)


def ad_sum(alg, idx):
    acc = LinearMap.zero(alg.field, alg.dim)
    for i in idx:
        acc = acc.add(alg.ad(i))
    return acc


def sl(n, F, idx, extra=()):
    alg = make_special_linear(n, F)
    return alg, [alg.ad(i) for i in idx] + [ad_sum(alg, s) for s in extra], F.one()


def ads(alg, idx, delta=1):
    return alg, [alg.ad(i) for i in idx], alg.field.from_int(delta)


def envelope(F):
    # h (x) 1 and h (x) g0g1 commute: [h, h] = 0
    alg = make_grassmann_envelope(make_osp12(F), 3)
    basis = alg.meta["envelope_basis"]
    return ads(alg, [basis.index((1, ())), basis.index((1, (0, 1)))])


CASES = {
    "sl2/Q cartan": lambda: sl(2, Q, [2]),
    "sl3/Q cartan": lambda: sl(3, Q, [6, 7]),
    "sl3/Q cartan, 3 maps": lambda: sl(3, Q, [6, 7], extra=[(6, 7)]),
    "sl3/GF7 cartan": lambda: sl(3, GF7, [6, 7]),
    "sl4/Q cartan, 2 maps": lambda: sl(4, Q, [12, 14]),
    "sl4/Q cartan, 3 maps": lambda: sl(4, Q, [12, 13, 14]),
    "sl4/GF5 cartan, 3 maps": lambda: sl(4, GF5, [12, 13, 14]),
    "sl3/Q nilpotent": lambda: sl(3, Q, [0]),
    "sl3/GF7 nilpotent": lambda: sl(3, GF7, [0]),
    "sl3/Q cartan and nilpotent": lambda: sl(3, Q, [0], extra=[(6, 7, 7)]),
    "sl3/Q zero map": lambda: sl(3, Q, [], extra=[()]),
    "osp12/GF7": lambda: ads(make_osp12(GF7), [1]),
    "osp12/Q nilpotent": lambda: ads(make_osp12(Q), [0]),
    "G(osp12)/GF7 m=3": lambda: envelope(GF7),
    "G(osp12)/Q m=3": lambda: envelope(Q),
    "W11/GF5": lambda: ads(make_zassenhaus(5, 1), [1]),
    "W11/GF7": lambda: ads(make_zassenhaus(7, 1), [1]),
    "W12/GF5": lambda: ads(make_zassenhaus(5, 2), [1]),
    "elduque/GF5": lambda: elduque(GF5),
    "elduque/GF13": lambda: elduque(GF13),
    "triple product (i)": lambda: (triple_product_algebra(), [diag(Q, [1, 2, 6, 3, 18])], 2),
    "triple product (ii)": lambda: (triple_product_algebra(), [diag(Q, [1, 1, 4, 3, 14])], 2),
    "half-derivation identity": lambda: (
        make_special_linear(3, Q), [LinearMap.identity(Q, 8)], Fraction(1, 2)),
}

# name -> (error both versions raise, input)
FAILING = {
    "elduque/Q": (NonSplitting, lambda: elduque(Q)),
    "sl3/Q non-commuting": (NonCommuting, lambda: sl(3, Q, [0, 2])),
    "sl3/Q not a derivation": (
        NotADerivation, lambda: (make_special_linear(3, Q), [LinearMap.identity(Q, 8)], 1)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_decomposition_matches_reference(name):
    alg, maps, delta = CASES[name]()
    roots, spaces, defined = ref_root_decompose(alg, maps, delta)
    dec = root_decompose(alg, maps, delta)
    assert dec.roots == roots
    assert dec.spaces == spaces
    assert dec.defined == defined
    assert canonical_json(grading_report(dec)) == canonical_json(
        ref_report(alg, delta, roots, spaces, defined)
    )


@pytest.mark.parametrize("name", sorted(FAILING))
def test_errors_match_reference(name):
    error, make = FAILING[name]
    alg, maps, delta = make()
    with pytest.raises(error) as ref:
        ref_root_decompose(alg, maps, delta)
    with pytest.raises(error) as new:
        root_decompose(alg, maps, delta)
    assert type(new.value) is type(ref.value) is error
    assert str(new.value) == str(ref.value)
    assert getattr(new.value, "factor", None) == getattr(ref.value, "factor", None)


def test_generalized_eigenspace_is_not_the_eigenspace():
    # ad(E01) on sl3 is nilpotent: one root, whose space is all of sl3,
    # while its kernel (the eigenspace) is smaller
    alg, maps, delta = sl(3, Q, [0])
    dec = root_decompose(alg, maps, delta)
    assert dec.roots == [(Q.zero(),)] and len(dec.spaces[0]) == alg.dim
    assert len(kernel_of_map(maps[0].rows, Q)) < alg.dim
