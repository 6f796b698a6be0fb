"""Root-space decompositions induced by commuting delta-derivations.

Given a set of pairwise commuting delta-derivations, the algebra decomposes
into joint generalized eigenspaces L_lambda, refined one map at a time: the
characteristic polynomial of the map's restriction M to each piece found so
far must split over the base field (else NonSplitting), and each of its roots
lambda cuts out the new piece ker (M - lambda)^m, m the multiplicity of lambda
as a root of that polynomial (the generalized eigenspace of lambda has
dimension m, so (M - lambda)^m already vanishes on it).

Products of root spaces obey [L_lambda, L_mu] <= L_(delta(lambda+mu)), so the
roots carry the partial operation lambda o mu = delta(lambda + mu), defined
on pairs whose product space is nonzero.  For delta outside {0, 1} this
operation is frequently impossible to embed into a semigroup; the checkers
here certify that by exhibiting associativity contradictions on defined
triples.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .algebras import Algebra, AlgebraError, NotADerivation
from .linalg import SpanSolver, base_field_roots, charpoly, rref_dense
from .linmap import LinearMap
from .solver import is_delta_derivation
from .fields import QuotientRing, parse_scalar, poly_deg, poly_divmod, poly_trim


class NonCommuting(AlgebraError):
    pass


class NonSplitting(AlgebraError):
    """A characteristic polynomial has an irreducible factor of degree > 1
    over the given field; extend the field to proceed."""

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


class BadDelta(ValueError):
    pass


class RootDecomposition(NamedTuple):
    algebra: Algebra
    delta: object  # field payload
    derivations: list  # the commuting maps
    roots: list  # tuples of eigenvalue payloads, one entry per derivation
    spaces: list  # per-root list of basis vectors (algebra coordinates)
    defined: set  # pairs (a, b) of root indices with [L_a, L_b] != 0

    @property
    def complete(self) -> bool:
        return sum(len(s) for s in self.spaces) == self.algebra.dim

    def root_index(self, root: tuple):
        F = self.algebra.field
        for idx, r in enumerate(self.roots):
            if all(F.eq(x, y) for x, y in zip(r, root)):
                return idx
        return None

    def sum_index(self, a: int, b: int):
        """Index of the root delta(lambda_a + lambda_b), or None if it is
        not a root."""
        F = self.algebra.field
        return self.root_index(
            tuple(F.mul(self.delta, F.add(x, y)) for x, y in zip(self.roots[a], self.roots[b]))
        )

    def circ(self, a: int, b: int):
        """lambda_a o lambda_b = delta(lambda_a + lambda_b) as a root index,
        or None when the pair is undefined ([L_a, L_b] = 0)."""
        return self.sum_index(a, b) if (a, b) in self.defined else None

    def root_json(self, idx: int) -> list:
        F = self.algebra.field
        return [F.fmt(x) for x in self.roots[idx]]

    def to_json(self) -> dict:
        return {
            "delta": self.algebra.field.fmt(self.delta),
            "roots": [self.root_json(i) for i in range(len(self.roots))],
            "dims": [len(s) for s in self.spaces],
            "defined": sorted([a, b] for (a, b) in self.defined),
            "complete": self.complete,
        }


def _poly_splits(field, f: list, roots: list):
    """Deflate f by its base-field roots; return (multiplicities, residual)."""
    mult = {}
    residual = list(f)
    for r in roots:
        linear = [field.neg(r), field.one()]
        while True:
            q, rem = poly_divmod(field, residual, linear)
            if poly_trim(field, rem):
                break
            residual = q
            mult[r] = mult.get(r, 0) + 1
    return mult, residual


def root_decompose(alg: Algebra, D_set: list[LinearMap], delta) -> RootDecomposition:
    """Joint generalized eigenspace decomposition for commuting
    delta-derivations, with the product inclusion
    [L_lambda, L_mu] <= L_(delta(lambda+mu)) verified on every defined pair."""
    F = alg.field
    if isinstance(F, QuotientRing):
        raise ValueError("root decomposition needs a rational or prime base field")
    delta = parse_scalar(F, delta)
    for a, Da in enumerate(D_set):
        if not is_delta_derivation(alg, Da, delta):
            raise NotADerivation(f"map {a} is not a delta-derivation for this delta")
        for b in range(a + 1, len(D_set)):
            if Da.compose(D_set[b]) != D_set[b].compose(Da):
                raise NonCommuting(f"maps {a} and {b} do not commute")

    # pieces are (root so far, dense basis vectors of the piece)
    pieces = [((), [alg.unit_vector(i) for i in range(alg.dim)])]
    for D in D_set:
        refined = []
        for root, basis in pieces:
            span = SpanSolver(F, basis)
            # restriction of D to the invariant subspace spanned by the basis
            mat = [span.coordinates(D.apply(v)) for v in basis]
            if None in mat:
                raise NonCommuting("subspace is not invariant; the maps do not commute")
            cp = charpoly(F, mat)
            mult, residual = _poly_splits(F, cp, base_field_roots(F, cp))
            if poly_deg(residual) > 0:
                raise NonSplitting(
                    "characteristic polynomial does not split over the field", factor=residual
                )
            M = LinearMap(F, mat)
            identity = LinearMap.identity(F, M.nrows)
            B = LinearMap(F, basis)
            for lam in sorted(mult):
                shifted = M.add(identity.scale(F.neg(lam)))
                lifted = [B.apply(k) for k in shifted.power(mult[lam]).kernel()]
                refined.append((root + (lam,), rref_dense(lifted, F)))
        pieces = refined

    dec = RootDecomposition(
        alg, delta, list(D_set), [r for r, _ in pieces], [b for _, b in pieces], set()
    )
    # verify product inclusions and record the defined mask
    spans = [SpanSolver(F, s) for s in dec.spaces]
    for a, b in product(range(len(dec.roots)), repeat=2):
        target = dec.sum_index(a, b)
        for u, v in product(dec.spaces[a], dec.spaces[b]):
            w = alg.bracket(u, v)
            if _is_zero(F, w):
                continue
            if target is None or not spans[target].contains(w):
                raise AlgebraError("product of root spaces escapes the expected root space")
            dec.defined.add((a, b))
    return dec


def _is_zero(field, v: list) -> bool:
    return all(field.is_zero(c) for c in v)


class SemigroupVerdict(NamedTuple):
    non_semigroup: bool
    witness: dict | None

    @property
    def verdict(self) -> str:
        return "NonSemigroup" if self.non_semigroup else "SemigroupConsistent"


def check_semigroup(dec: RootDecomposition) -> SemigroupVerdict:
    """Search for associativity contradictions in the partial operation
    lambda o mu = delta(lambda + mu) on defined pairs.

    NonSemigroup means a derivable contradiction was found (a direct
    associativity violation on defined triples, or the triple-product
    mechanism of check_prop_root1); SemigroupConsistent means none was found,
    which is not a proof of embeddability.
    """
    F = dec.algebra.field
    fmt = dec.root_json
    idx = range(len(dec.roots))
    circ = {(a, b): dec.circ(a, b) for a, b in product(idx, repeat=2)}
    for a, b, c in product(idx, repeat=3):
        ab, bc = circ[a, b], circ[b, c]
        if ab is None or bc is None:
            continue
        left, right = circ[ab, c], circ[a, bc]
        if left is not None and right is not None and left != right:
            return SemigroupVerdict(
                True,
                {"triple": [fmt(a), fmt(b), fmt(c)], "left": fmt(left), "right": fmt(right)},
            )
    if not F.eq(dec.delta, F.zero()) and not F.eq(dec.delta, F.one()):
        wit = check_prop_root1(dec)
        triple = wit["condition_i_witness"] or wit["condition_ii_witness"]
        if triple:
            return SemigroupVerdict(True, {"triple_product": triple})
    return SemigroupVerdict(False, None)


def _triple_product_nonzero(dec: RootDecomposition, a: int, b: int, c: int) -> bool:
    alg = dec.algebra
    F = alg.field
    for u, v in product(dec.spaces[a], dec.spaces[b]):
        w = alg.bracket(u, v)
        if not _is_zero(F, w) and any(not _is_zero(F, alg.bracket(w, z)) for z in dec.spaces[c]):
            return True
    return False


def check_prop_root1(dec: RootDecomposition) -> dict:
    """Witnesses for the two sufficient non-semigroup conditions
    (delta outside {0, 1}), each the first in lexicographic order of root
    indices:

    (i)  three pairwise distinct roots with [[L_lambda, L_mu], L_eta] != 0;
    (ii) two distinct roots with [[L_lambda, L_lambda], L_mu] != 0.
    """
    F = dec.algebra.field
    if F.eq(dec.delta, F.zero()) or F.eq(dec.delta, F.one()):
        raise BadDelta("the criterion applies only for delta outside {0, 1}")

    def first(triples):
        for t in triples:
            if _triple_product_nonzero(dec, *t):
                return [dec.root_json(r) for r in t]
        return None

    idx = range(len(dec.roots))
    return {
        "condition_i_witness": first(t for t in product(idx, repeat=3) if len(set(t)) == 3),
        "condition_ii_witness": first((a, a, b) for a, b in product(idx, repeat=2) if a != b),
    }


def check_root_sum(field, roots: list, delta) -> dict:
    """For every root eta, is there a pair lambda, mu in the root list with
    eta = delta (lambda + mu)?  A violation shows that no perfect algebra
    realizes this root set for this delta."""
    delta = parse_scalar(field, delta)
    if field.is_zero(delta):
        raise BadDelta("delta must be nonzero")
    roots = [parse_scalar(field, r) for r in roots]
    violations = []
    for eta in roots:
        ok = any(
            field.eq(eta, field.mul(delta, field.add(lam, mu)))
            for lam in roots
            for mu in roots
        )
        if not ok:
            violations.append(eta)
    return {
        "satisfiable": not violations,
        "violations": [field.fmt(v) for v in violations],
    }


def grading_report(dec: RootDecomposition) -> dict:
    verdict = check_semigroup(dec)
    data = dec.to_json()
    data["verdict"] = verdict.verdict
    data["witness"] = verdict.witness
    return data
