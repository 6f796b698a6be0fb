"""The ring of half-derivations under composition.

For a prime Lie algebra the half-derivations form an associative commutative
algebra under composition.  This module builds that ring from a solved
half-derivation space, expands every composite in the computed basis (and
reports, rather than assumes, failure of closure), and studies its
structure: commutativity, nilradical, locality, zero divisors.
"""

from __future__ import annotations

from .algebras import Algebra
from .fields import Field, PrimeField, Rationals
from .linalg import SpanSolver, kernel_of_map
from .linmap import LinearMap
from .solver import SolutionSpace, is_delta_derivation


class NotClosedRing(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotCommutative(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CompositionRing:
    """A space of linear maps closed under composition, with its
    multiplication table re-expanded in the given basis."""

    def __init__(self, algebra: Algebra, basis: list[LinearMap], table, unit):
        self.algebra = algebra
        self.field = algebra.field
        self.basis = basis
        self.dim = len(basis)
        self.table = table  # table[a][b] = coords of basis[a] o basis[b]
        self.unit = unit  # coords of the identity map, or None

    def mul(self, u: list, v: list) -> list:
        F = self.field
        out = [F.zero()] * self.dim
        for a, ca in enumerate(u):
            if F.is_zero(ca):
                continue
            for b, cb in enumerate(v):
                if F.is_zero(cb):
                    continue
                c = F.mul(ca, cb)
                for k, t in enumerate(self.table[a][b]):
                    if not F.is_zero(t):
                        out[k] = F.add(out[k], F.mul(c, t))
        return out

    def power(self, u: list, k: int) -> list:
        F = self.field
        if k == 0:
            if self.unit is None:
                raise ValueError("ring without identity has no zeroth power")
            return list(self.unit)
        acc = list(u)
        for _ in range(k - 1):
            acc = self.mul(acc, u)
        return acc

    def is_zero(self, u: list) -> bool:
        return all(self.field.is_zero(c) for c in u)

    def is_nilpotent(self, u: list) -> bool:
        acc = list(u)
        for _ in range(self.dim):
            if self.is_zero(acc):
                return True
            acc = self.mul(acc, u)
        return self.is_zero(acc)

    def commutativity_witness(self):
        """A basis pair (a, b) with ab != ba, or None."""
        F = self.field
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                if any(
                    not F.eq(x, y) for x, y in zip(self.table[a][b], self.table[b][a])
                ):
                    return (a, b)
        return None

    def is_commutative(self) -> bool:
        return self.commutativity_witness() is None

    def as_map(self, u: list) -> LinearMap:
        F = self.field
        n = self.algebra.dim
        acc = LinearMap.zero(F, n, n)
        for a, c in enumerate(u):
            if not F.is_zero(c):
                acc = acc.add(self.basis[a].scale(c))
        return acc

    def coordinates(self, m: LinearMap):
        span = SpanSolver(self.field, [b.flat() for b in self.basis])
        return span.coordinates(m.flat())


def build_composition_ring(space: SolutionSpace) -> CompositionRing:
    """Composition table of a half-derivation space in its canonical basis."""
    if space.kind != "delta_der":
        raise ValueError("expected a delta-derivation solution space")
    F = space.algebra.field
    half = F.div(F.one(), F.from_int(2))
    if space.delta is None or not F.eq(space.delta, half):
        raise ValueError("the composition ring is built from half-derivations")
    basis = space.basis
    span = SpanSolver(F, [b.flat() for b in basis])
    table = []
    for a, Da in enumerate(basis):
        row = []
        for b, Db in enumerate(basis):
            comp = Db.compose(Da)  # x -> Da(Db(x))
            coords = span.coordinates(comp.flat())
            if coords is None:
                raise NotClosedRing(
                    f"composite of basis maps {a} and {b} leaves the span",
                    witness=(a, b),
                )
            row.append(coords)
        table.append(row)
    unit = span.coordinates(LinearMap.identity(F, space.algebra.dim).flat())
    return CompositionRing(space.algebra, basis, table, unit)


def nilradical(ring: CompositionRing) -> list[list]:
    """Basis of the set of nilpotent elements of a commutative ring.

    Over GF(p) the p-th power map u -> u^p is linear; iterating it until the
    accumulated exponent reaches the ring dimension gives a linear map whose
    kernel is exactly the nilpotent elements.  Over the rationals the
    nilradical is the kernel of the trace form (a, b) -> trace(R_{ab}),
    read off the vector of traces of the basis multiplications.
    """
    F = ring.field
    d = ring.dim
    if isinstance(F, PrimeField):
        p = F.p
        rows = []
        for a in range(d):
            ea = [F.zero()] * d
            ea[a] = F.one()
            rows.append(ring.power(ea, p))
        frob = LinearMap(F, rows)
        total = p
        acc = frob
        while total < d:
            acc = acc.compose(frob)
            total *= p
        return kernel_of_map(acc.rows, F)
    if isinstance(F, Rationals):
        # trace(R_u) is linear in u, and R_{e_c} has diagonal table[c][b][b]
        tr = [sum(ring.table[c][b][b] for b in range(d)) for c in range(d)]
        form = [[sum(x * t for x, t in zip(row, tr)) for row in rows] for rows in ring.table]
        return kernel_of_map(form, F)
    raise ValueError("nilradical computation needs a rational or prime field")


def locality_report(ring: CompositionRing) -> dict:
    """Commutativity, nilradical dimension, and locality of the ring.

    The ring is local exactly when its nilpotents form an ideal of
    codimension one (non-units of a finite-dimensional commutative algebra
    over a field are the nilpotents of its local factors; codimension one
    means a single factor).
    """
    w = ring.commutativity_witness()
    if w is not None:
        raise NotCommutative(f"basis maps {w[0]} and {w[1]} do not commute", witness=w)
    rad = nilradical(ring)
    report = {
        "dim": ring.dim,
        "commutative": True,
        "nilradical_dim": len(rad),
        "is_local": len(rad) == ring.dim - 1,
    }
    return report


def find_zero_divisors(ring: CompositionRing) -> list:
    """Pairs (u, v) of nonzero ring elements (coordinate vectors) with uv = 0.

    All basis pairs are checked; for rings of dimension at most 6 a
    certificate pair is also extracted from the nilradical (a nilpotent u of
    index k gives the pair (u^(k-1), u)).
    """
    F = ring.field
    out = []
    for a in range(ring.dim):
        ea = [F.zero()] * ring.dim
        ea[a] = F.one()
        if ring.is_zero(ea):
            continue
        for b in range(ring.dim):
            eb = [F.zero()] * ring.dim
            eb[b] = F.one()
            if ring.is_zero(ring.table[a][b]):
                out.append((ea, eb))
    if ring.dim <= 6 and ring.is_commutative():
        for u in nilradical(ring):
            if ring.is_zero(u):
                continue
            prev = list(u)
            while True:
                nxt = ring.mul(prev, u)
                if ring.is_zero(nxt):
                    break
                prev = nxt
            pair = (prev, u)
            if not ring.is_zero(prev) and pair not in out:
                out.append(pair)
    return out


def witt_half_basis(alg: Algebra) -> list[LinearMap]:
    """The expected half-derivation basis of a Witt-type algebra:
    D_gamma(e_alpha) = e_(alpha+gamma) for each gamma in the support with
    2*gamma also in the support (and 0 when alpha+gamma falls outside).

    Each returned map is verified to be a half-derivation.
    """
    R = alg.meta.get("witt_support")
    if R is None:
        raise ValueError("the algebra was not built by make_witt_type")
    modulus = alg.meta.get("witt_modulus")
    F = alg.field
    index = {a: i for i, a in enumerate(R)}

    def norm(x):
        return x % modulus if modulus else x

    half = F.div(F.one(), F.from_int(2))
    out = []
    for gamma in R:
        if norm(2 * gamma) not in index:
            continue
        rows = []
        for alpha in R:
            row = [F.zero()] * alg.dim
            tgt = norm(alpha + gamma)
            if tgt in index:
                row[index[tgt]] = F.one()
            rows.append(row)
        D = LinearMap(F, rows)
        if not is_delta_derivation(alg, D, half):
            raise ArithmeticError(
                f"shift map for gamma={gamma} is unexpectedly not a half-derivation"
            )
        out.append(D)
    return out


def half_ring_report(alg: Algebra) -> dict:
    """Aggregate JSON-ready report on the half-derivation composition ring."""
    from .solver import solve_delta_derivations

    F = alg.field
    half = F.div(F.one(), F.from_int(2))
    space = solve_delta_derivations(alg, half)
    report: dict = {"half_derivations_dim": space.dim}
    try:
        ring = build_composition_ring(space)
    except NotClosedRing as e:
        report["closed"] = False
        report["witness"] = list(e.witness)
        return report
    report["closed"] = True
    w = ring.commutativity_witness()
    report["commutative"] = w is None
    if w is None:
        loc = locality_report(ring)
        report["is_local"] = loc["is_local"]
        report["nilradical_dim"] = loc["nilradical_dim"]
        zd = find_zero_divisors(ring)
        report["zero_divisor_witness"] = (
            [[F.fmt(c) for c in zd[0][0]], [F.fmt(c) for c in zd[0][1]]] if zd else None
        )
    else:
        report["commutativity_witness"] = list(w)
    return report
