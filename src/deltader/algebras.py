"""Structure-constant algebras and the constructors used throughout.

An :class:`Algebra` is a finite-dimensional algebra given by sparse
structure constants over an exact field.  Three flavors exist:

* ``"lie"``    -- anticommutative: products stored for i < j only,
  e_i e_i = 0, e_j e_i = -e_i e_j synthesized on access;
* ``"assoc"``  -- associative commutative: products stored for i <= j;
* ``"super"``  -- super-anticommutative (Z2-graded): products stored for
  i <= j, with a diagonal product allowed for odd basis vectors and the
  sign rule e_j e_i = -(-1)^{|i||j|} e_i e_j synthesized on access.

The flavor ``"super"`` extends the two flavors of the interchange format:
a genuine Lie superalgebra has symmetric products of odd pairs (e.g. the
square of an odd root vector), which strict anticommutative storage cannot
represent.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .fields import Field, PrimeField, Rationals, field_from_json, field_to_json, parse_scalar
from .linalg import (
    _dense,
    _dense_pivot_rows,
    _row_value,
    dense_to_sparse,
    kernel_of_map,
    sparse_nullspace,
    sparse_rank,
    sparse_rref,
)
from .linmap import LinearMap


class AlgebraError(ValueError):
    pass


class NotClosed(AlgebraError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class GradingMissing(AlgebraError):
    pass


class FlavorMismatch(AlgebraError):
    pass


class InvalidAction(AlgebraError):
    pass


class NotADerivation(AlgebraError):
    pass


class FormMissing(AlgebraError):
    pass


def binom_mod_p(a: int, b: int, p: int) -> int:
    """Binomial coefficient C(a, b) mod p by Lucas' theorem."""
    if b < 0 or a < 0 or b > a:
        return 0
    r = 1
    while a or b:
        ad, bd = a % p, b % p
        if bd > ad:
            return 0
        num = den = 1
        for t in range(bd):
            num = num * (ad - t) % p
            den = den * (t + 1) % p
        r = r * num * pow(den, -1, p) % p
        a //= p
        b //= p
    return r


class ValidationReport(NamedTuple):
    law: str
    violations: list  # (basis tuple, defect vector)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


class Algebra:
    """Finite-dimensional algebra over an exact field, sparse constants.

    An algebra is not modified after construction.  The solvers rely on
    that: they keep what they derive from the structure constants, the one
    product table (``_table``) with its constants lowered to integers over
    Q, and the part of each pointwise system that the pairs with no product
    give (``solver._zero_part``), in a store on the instance, ``_memo``,
    which is freed with it.
    """

    def __init__(
        self,
        field: Field,
        dim: int,
        basis: list[str],
        products: dict,
        flavor: str = "lie",
        grading: list[int] | None = None,
        form: list[list] | None = None,
        meta: dict | None = None,
    ):
        if dim < 1:
            raise AlgebraError(f"dimension {dim} < 1: zero-dimensional algebras are not supported")
        if len(basis) != dim:
            raise AlgebraError("dimension / basis mismatch")
        if flavor not in ("lie", "assoc", "super"):
            raise AlgebraError(f"unknown flavor {flavor!r}")
        if flavor == "super" and grading is None:
            raise GradingMissing("flavor 'super' requires a grading")
        if grading is not None and (
            len(grading) != dim or any(g not in (0, 1) for g in grading)
        ):
            raise AlgebraError("grading must be a 0/1 vector of length dim")
        if form is not None and (len(form) != dim or any(len(row) != dim for row in form)):
            raise AlgebraError(f"'form' must be {dim} x {dim}, got rows of lengths {[len(row) for row in form]}")
        self.field = field
        self.dim = dim
        self.basis = list(basis)
        self.flavor = flavor
        self.grading = list(grading) if grading is not None else None
        self.form = form
        self.meta = meta or {}
        self._memo: dict = {}
        self.products = {}
        for (i, j), terms in products.items():
            bad = [x for x in (i, j, *terms) if not 0 <= x < dim]
            if bad:
                raise AlgebraError(f"product e_{i} e_{j}: index {bad[0]} outside range({dim})")
            if flavor == "lie" and not i < j:
                raise AlgebraError(f"lie products must be stored for i<j, got ({i},{j})")
            if flavor in ("assoc", "super") and not i <= j:
                raise AlgebraError(f"products must be stored for i<=j, got ({i},{j})")
            if flavor == "super" and i == j and self.grading[i] == 0:
                raise AlgebraError(f"even diagonal product e_{i} e_{i} must vanish")
            terms = {k: v for k, v in terms.items() if not field.is_zero(v)}
            if terms:
                self.products[(i, j)] = terms
        if self.grading is not None and flavor != "assoc":
            self._check_grading()

    def _check_grading(self):
        for (i, j), terms in self.products.items():
            par = (self.grading[i] + self.grading[j]) % 2
            for k in terms:
                if self.grading[k] != par:
                    raise AlgebraError(
                        f"product e_{i} e_{j} violates the grading at e_{k}"
                    )

    def product(self, i: int, j: int) -> dict:
        """e_i e_j as {k: coeff}, synthesizing the storage sign rule."""
        F = self.field
        if self.flavor == "assoc":
            return self.products.get((min(i, j), max(i, j)), {})
        if i == j:
            return self.products.get((i, i), {}) if self.flavor == "super" else {}
        if i < j:
            return self.products.get((i, j), {})
        terms = self.products.get((j, i), {})
        if self.flavor == "super" and self.grading[i] and self.grading[j]:
            return terms  # odd-odd products are symmetric
        return {k: F.neg(v) for k, v in terms.items()}

    def _table(self) -> list[list[dict]]:
        """Every product e_i e_j, as ``product`` gives it, at [i][j]: made
        once and kept in the store.  Its dicts are shared, one empty dict
        for every vanishing product among them, and must not be modified.
        Over Q its constants are lowered to the ints D c, D the lcm of their
        denominators, which the store keeps beside it as ``"scale"`` (1 over
        any other field).  This is the one place the constants are lowered:
        the solvers, s4, the identity checks (``_lowered``) and the center
        read the table, and over Q a value made from it is a power of D
        times its value, which no canonical RREF or zero test can see."""
        table = self._memo.get("table")
        if table is None:
            n, empty, D = self.dim, {}, 1
            table = [[self.product(i, j) or empty for j in range(n)] for i in range(n)]
            if isinstance(self.field, Rationals):
                D = math.lcm(*(c.denominator for terms in self.products.values() for c in terms.values()))
                table = [
                    [{k: c.numerator * (D // c.denominator) for k, c in prod.items()} if prod else prod for prod in row]
                    for row in table
                ]
            self._memo["table"], self._memo["scale"] = table, D
        return table

    def product_vec(self, i: int, j: int) -> list:
        v = [self.field.zero()] * self.dim
        for k, c in self.product(i, j).items():
            v[k] = c
        return v

    def bracket(self, u: list, v: list) -> list:
        """Product of two coordinate vectors."""
        F = self.field
        out = [F.zero()] * self.dim
        for i, a in enumerate(u):
            if F.is_zero(a):
                continue
            for j, b in enumerate(v):
                if F.is_zero(b):
                    continue
                ab = F.mul(a, b)
                for k, c in self.product(i, j).items():
                    out[k] = F.add(out[k], F.mul(ab, c))
        return out

    def unit_vector(self, i: int) -> list:
        v = [self.field.zero()] * self.dim
        v[i] = self.field.one()
        return v

    def ad(self, i: int) -> LinearMap:
        """Right multiplication by e_i: x -> x e_i, rows are images of e_j."""
        rows = [self.product_vec(j, i) for j in range(self.dim)]
        return LinearMap(self.field, rows)

    def commutant(self) -> list[list]:
        """Canonical basis of the span of all products: the RREF of the
        stored products, which span them all."""
        return _dense_pivot_rows(sparse_rref(self.products.values(), self.field), self.dim, self.field)

    def center(self) -> list[list]:
        """{v : v e_i = 0 for all i} (two-sided by (anti)commutativity): the
        kernel of the map sending e_j to (e_j e_0, ..., e_j e_(n-1)), read
        off the rows of ``_table``, whose scale the kernel does not see."""
        n = self.dim
        rows = [{i * n + k: c for i, prod in enumerate(row) for k, c in prod.items()} for row in self._table()]
        return kernel_of_map(rows, self.field)

    def __repr__(self):
        return f"Algebra({self.flavor}, dim={self.dim}, field={self.field!r})"


def _support_degrees(alg: Algebra) -> list[tuple]:
    """An integer degree tuple w_k for each basis index k, with
    w_k = w_i + w_j whenever c_ij^k != 0 (w_k = 2 w_i on the diagonal).

    The coordinates are a basis of the nullspace over Q of those relations,
    each scaled to integers: the torsion-free part of the universal grading
    read off the support of the structure constants (Patera and Zassenhaus,
    "On Lie gradings I", 1989).  Every product of homogeneous vectors is
    homogeneous of the summed degree.  An algebra with no such grading gets
    the empty tuple everywhere: a single component.

    A Grassmann envelope's degrees are read off its basis instead: x (x) g
    has the degree of x in the source, followed by the 0/1 indicator of
    each generator in g.  (x (x) g)(y (x) h) is zero unless g and h are
    disjoint, when the indicators add, so this too grades the envelope."""
    envelope = alg.meta.get("envelope_basis")
    if envelope is not None:
        w = _support_degrees(alg.meta["envelope_source"])
        m = 1 + max((t for _, g in envelope for t in g), default=-1)
        return [w[i] + tuple(int(t in g) for t in range(m)) for i, g in envelope]
    relations = set()
    for (i, j), terms in alg.products.items():
        for k in terms:
            row = {k: 1}
            row[i] = row.get(i, 0) - 1
            row[j] = row.get(j, 0) - 1
            relations.add(tuple(sorted((c, a) for c, a in row.items() if a)))
    scaled = []
    for v in sparse_nullspace([dict(r) for r in relations], alg.dim, Rationals()):
        den = math.lcm(*(x.denominator for x in v.values()))
        scaled.append({k: int(x * den) for k, x in v.items()})
    return [tuple(v.get(k, 0) for v in scaled) for k in range(alg.dim)]


# ---------------------------------------------------------------------------
# validation


_FLAVOR_LAW = {"lie": "jacobi", "super": "super_jacobi", "assoc": "assoc"}


def index_tuples(parities, k: int, supports=None):
    """The non-decreasing k-tuples (k >= 1) of indices into ``parities`` in
    which only odd indices repeat, in lexicographic order.

    A (super)alternating identity vanishes on a repeated even argument and
    takes the value of the sorted tuple, up to sign, on any other; an
    ordinary algebra is the case of zero parities (strictly increasing
    tuples).  Given Grassmann ``supports`` (an int bitmask of generators per
    index, zero for every index by default), only indices whose support
    misses the union so far extend a prefix.  Those indices are listed once
    per union, when it first occurs.
    """
    n = len(parities)
    masks = supports or [0] * n
    free: dict[int, list] = {}  # union -> the indices whose support misses it

    def extend(prefix, start, union):
        idx = free.get(union)
        if idx is None:
            idx = free[union] = [i for i in range(n) if not masks[i] & union]
        for i in idx[bisect_left(idx, start):]:
            t = prefix + (i,)
            if len(t) == k:
                yield t
            else:
                yield from extend(t, i if parities[i] else i + 1, union | masks[i])

    return extend((), 0, 0)


def _lowered(alg: Algebra):
    """``(rows, cols, makers, add, mul, neg, finish)`` for the nonzero cells
    e_a e_b = sum of c e_k of ``Algebra._table``, its constants lowered as
    set out in :func:`validate`: ``rows[a]`` holds (b, terms), ``cols[b]``
    (a, terms) and ``makers[k]`` (a, b, c), each by descending a or b, with
    terms the (k, c).  ``finish`` reads a sum of products of two lowered
    constants, taken with ``add``, ``mul`` and ``neg``, as a field scalar."""
    F = alg.field
    table = alg._table()
    finish = lambda s: s
    ops = operator.add, operator.mul, operator.neg
    if isinstance(F, PrimeField):
        finish = lambda s: s % F.p
    elif isinstance(F, Rationals):
        D2, zero = alg._memo["scale"] ** 2, F.zero()
        finish = lambda s: Fraction(s, D2) if s else zero
    else:
        ops = F.add, F.mul, F.neg
    n = alg.dim
    rows, cols, makers = [[] for _ in range(n)], [[] for _ in range(n)], [[] for _ in range(n)]
    for a in reversed(range(n)):
        for b in reversed(range(n)):
            if table[a][b]:
                terms = list(table[a][b].items())
                rows[a].append((b, terms))
                cols[b].append((a, terms))
                for k, c in terms:
                    makers[k].append((a, b, c))
    return rows, cols, makers, *ops, finish


def _path_sums(alg: Algebra, law: str, par, last: int = 0):
    """Yield (triple, defect) for every basis triple at which ``law`` fails,
    in lexicographic order; see :func:`validate`.  Jacobi triples whose
    last index is below ``last`` are left out."""
    F = alg.field
    n = alg.dim
    zero = F.zero()
    rows, cols, makers, add, mul, neg, finish = _lowered(alg)
    after = [i if par[i] else i + 1 for i in range(n)]  # least index after i in a triple
    acc = {}

    def put(key, x, terms):
        d = acc.get(key)
        if d is None:
            d = acc[key] = {}
        for l, y in terms:
            d[l] = add(d[l], mul(x, y)) if l in d else mul(x, y)

    for i in range(n):
        acc = {}
        if law == "assoc":
            for b, ab in rows[i]:  # + (e_i e_b) e_c
                for m, x in ab:
                    for c, mc in rows[m]:
                        put((b, c), x, mc)
            for m, im in rows[i]:  # - e_i (e_a e_b)
                for a, b, x in makers[m]:
                    put((a, b), neg(x), im)
        else:
            # the cyclic shifts (i, j, k), (j, k, i), (k, i, j) of i <= j <= k
            si = after[i]
            for b, ib in rows[i]:  # (e_i e_b) e_c, b <= c
                if b < si:
                    break
                least = max(after[b], last)
                for m, x in ib:
                    for c, mc in rows[m]:
                        if c < least:
                            break
                        put((b, c), neg(x) if par[i] and par[c] else x, mc)
            for m, mi in cols[i]:  # (e_a e_b) e_i, a <= b
                for a, b, x in makers[m]:
                    if a < si:
                        break
                    if b >= max(after[a], last):
                        put((a, b), neg(x) if par[a] and par[i] else x, mi)
            for a, ai in cols[i]:  # (e_a e_i) e_c, c <= a
                if a < max(si, last):
                    break
                for m, x in ai:
                    for c, mc in rows[m]:
                        if c < si:
                            break
                        if a >= after[c]:
                            put((c, a), neg(x) if par[a] and par[c] else x, mc)
        for key in sorted(acc):
            defect = {l: finish(s) for l, s in acc[key].items()}
            if any(not F.is_zero(v) for v in defect.values()):
                yield (i, *key), [defect.get(l, zero) for l in range(n)]


def validate(alg: Algebra, law: str | None = None) -> ValidationReport:
    """Check a defining law; report every violating basis triple with its defect.

    Laws: "jacobi", "super_jacobi", "assoc"; by default the law of the
    algebra's flavor.  A Jacobi defect is the sum of (-1)^{|a||c|}
    (e_a e_b) e_c over the cyclic shifts (a, b, c) of a triple i <= j <= k
    of :func:`index_tuples`, with zero parities for the ordinary law; a
    skipped triple (repeated even index) sums to zero by the storage rule.
    An "assoc" defect is (e_i e_j) e_k - e_i (e_j e_k) on every ordered
    triple.  The "jacobi" law of a "super" algebra is rejected: its triples
    with a repeated odd index would be skipped although they need not sum
    to zero.

    Only the nonzero product paths e_a e_b -> e_m, e_m e_c are walked,
    those of one leading index i at a time.  A path adds to its sorted
    triple once for every cyclic shift of that triple equal to (a, b, c),
    so (i, i, i) with i odd counts its one path three times and an odd
    permutation of distinct indices counts not at all.  The paths are read
    off the product table (see ``_lowered`` and ``Algebra._table``): over
    GF(p) each defect coordinate is a sum of products of residues, reduced
    mod p once; over Q the table's constants are scaled by D, the lcm of
    their denominators, so a defect coordinate is the integer sum s read
    as s / D^2; quotient-ring scalars are summed with the ring's own
    operations in the same loop.
    """
    if law is None:
        law = _FLAVOR_LAW[alg.flavor]
    if law not in ("jacobi", "super_jacobi", "assoc"):
        raise AlgebraError(f"unknown law {law!r}")
    if law == "jacobi" and alg.flavor == "super":
        raise FlavorMismatch("a super algebra satisfies super_jacobi, not the jacobi law")
    if law == "super_jacobi" and alg.grading is None:
        raise GradingMissing("super-Jacobi requires a grading")
    par = alg.grading if law == "super_jacobi" else [0] * alg.dim
    return ValidationReport(law, list(_path_sums(alg, law, par)))


def _form_rows(alg: Algebra):
    """Labelled rows, in the unknowns B_ij (column i*n + j), of the laws of
    a (super)symmetric invariant bilinear form B:

    - (i, j): B_ij = (-1)^(deg e_i deg e_j) B_ji, and B_ij = 0 when e_i and
      e_j have different parities;
    - (i, j, k): (e_i e_j, e_k) = (e_i, e_j e_k).

    Rows that vanish identically are left out."""
    F = alg.field
    n = alg.dim
    graded = alg.grading is not None
    for i in range(n):
        for j in range(n):
            odd = graded and alg.grading[i] and alg.grading[j]
            row = {i * n + j: F.one()}
            x = F.add(row.pop(j * n + i, F.zero()), F.one() if odd else F.neg(F.one()))
            if not F.is_zero(x):
                row[j * n + i] = x
            if row:
                yield (i, j), row
            if graded and alg.grading[i] != alg.grading[j]:
                yield (i, j), {i * n + j: F.one()}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = {m * n + k: c for m, c in alg.product(i, j).items()}
                for m, c in alg.product(j, k).items():
                    x = F.sub(row.pop(i * n + m, F.zero()), c)
                    if not F.is_zero(x):
                        row[i * n + m] = x
                if row:
                    yield (i, j, k), row


def validate_form(alg: Algebra) -> ValidationReport:
    """(Super)symmetry and invariance ((ab, c) = (a, bc)) of the attached form:
    every row of ``_form_rows`` that does not vanish at it, with its value."""
    if alg.form is None:
        raise FormMissing("no bilinear form attached")
    F = alg.field
    n = alg.dim
    flat = {i * n + j: c for i, row in enumerate(alg.form) for j, c in enumerate(row) if not F.is_zero(c)}
    violations = []
    for label, row in _form_rows(alg):
        value = _row_value(row, flat, F)
        if not F.is_zero(value):
            violations.append((label, [value]))
    return ValidationReport("form", violations)


def form_rank(alg: Algebra) -> int:
    if alg.form is None:
        raise FormMissing("no bilinear form attached")
    return sparse_rank(dense_to_sparse(alg.form, alg.field), alg.field)


def invariant_forms(alg: Algebra) -> list[list[list]]:
    """Basis of (super)symmetric invariant bilinear forms, as n x n matrices."""
    n = alg.dim
    sols = sparse_nullspace((row for _, row in _form_rows(alg)), n * n, alg.field)
    flats = [_dense(sol, n * n, alg.field) for sol in sols]
    return [[flat[i * n : (i + 1) * n] for i in range(n)] for flat in flats]


# ---------------------------------------------------------------------------
# module actions


class ModuleAction:
    """Left action of an algebra on a module: x_i . m_j = sum_k A[i][j][k] m_k."""

    def __init__(self, algebra: Algebra, mdim: int, action: dict):
        self.algebra = algebra
        self.mdim = mdim
        self.action = {
            (i, j): {k: v for k, v in terms.items() if not algebra.field.is_zero(v)}
            for (i, j), terms in action.items()
        }

    def validate(self) -> ValidationReport:
        """The module law [x_i, x_j].m_k = x_i.(x_j.m_k) - x_j.(x_i.m_k).

        It is the Jacobi identity of the semidirect sum S = L + M (see
        :func:`make_semidirect`) on the triples (e_i, e_j, m_k), i < j, whose
        cyclic sum is the defect [x_i, x_j].m_k - x_i.(x_j.m_k) + x_j.(x_i.m_k)
        in M.  Only those triples are evaluated, by the path walk of
        :func:`validate`: one with two or three entries in M has no nonzero
        product path, since [M, M] = 0, and one inside L is the Jacobi
        identity of L.  A violation is labelled (i, j, k), its defect given
        in the coordinates of M.  The algebra must be of flavor "lie".
        """
        L = self.algebra
        return ValidationReport("module", _module_violations(L, _semidirect(L, self)))

    @classmethod
    def adjoint(cls, alg: Algebra) -> "ModuleAction":
        action = {}
        for i in range(alg.dim):
            for j in range(alg.dim):
                terms = alg.product(i, j)
                if terms:
                    action[(i, j)] = dict(terms)
        return cls(alg, alg.dim, action)

    @classmethod
    def trivial(cls, alg: Algebra, mdim: int = 1) -> "ModuleAction":
        return cls(alg, mdim, {})


# ---------------------------------------------------------------------------
# constructors


def make_abelian(field: Field, dim: int, flavor: str = "lie") -> Algebra:
    return Algebra(field, dim, [f"e{i}" for i in range(dim)], {}, flavor=flavor)


def make_witt_type(field: Field, support, modulus: int | None = None) -> Algebra:
    """Witt-type algebra W_R: [e_a, e_b] = (b - a) e_{a+b}.

    ``support`` is a finite list of integers (group elements); with
    ``modulus`` given (at least 2), elements are residues and sums wrap
    mod ``modulus``.
    Requires 0 in R and closure of R under sums of distinct elements.
    """
    if modulus is not None and modulus < 2:
        raise AlgebraError(f"Witt modulus must be at least 2, got {modulus}")
    R = sorted({(a % modulus) if modulus else a for a in support})
    if 0 not in R:
        raise NotClosed("0 must belong to the support set")
    index = {a: i for i, a in enumerate(R)}
    for a, b in combinations(R, 2):
        s = (a + b) % modulus if modulus else a + b
        if s not in index:
            raise NotClosed(f"support not closed: {a} + {b} not in R", witness=(a, b))
    products = {}
    for a, b in combinations(R, 2):
        s = (a + b) % modulus if modulus else a + b
        coeff = field.from_int(b - a)
        if not field.is_zero(coeff):
            products[(index[a], index[b])] = {index[s]: coeff}
    alg = Algebra(field, len(R), [f"e{a}" for a in R], products)
    alg.meta["witt_support"] = R
    alg.meta["witt_modulus"] = modulus
    return alg


def make_zassenhaus(p: int, n: int) -> Algebra:
    """Zassenhaus algebra W_1(n) over GF(p) in the divided-power basis e_i,
    i = -1 .. p^n - 2, with [e_i, e_j] = (C(i+j+1, j) - C(i+j+1, i)) e_{i+j}."""
    if n < 1:
        raise AlgebraError(f"W_1({n}) needs height n >= 1")
    F = PrimeField(p)
    N = p**n
    products = {}
    for ii in range(N):
        for jj in range(ii + 1, N):
            i, j = ii - 1, jj - 1
            if not (-1 <= i + j <= N - 2):
                continue
            c = (binom_mod_p(i + j + 1, j, p) - binom_mod_p(i + j + 1, i, p)) % p
            if c:
                products[(ii, jj)] = {i + j + 1: c}
    return Algebra(F, N, [f"e{i - 1}" for i in range(N)], products)


def make_divided_powers(p: int, n: int) -> Algebra:
    """Divided powers algebra O_1(n): x^i x^j = C(i+j, j) x^{i+j}, dim p^n."""
    if n < 1:
        raise AlgebraError(f"O_1({n}) needs height n >= 1")
    F = PrimeField(p)
    N = p**n
    products = {}
    for i in range(N):
        for j in range(i, N):
            if i + j >= N:
                continue
            c = binom_mod_p(i + j, j, p)
            if c:
                products[(i, j)] = {i + j: c}
    return Algebra(F, N, [f"x^{i}" for i in range(N)], products, flavor="assoc")


def _tensor_products(L: Algebra, basis: list, second, square: list) -> dict:
    """Structure constants of a tensor product with L.

    ``basis`` lists the basis vectors x_i (x) a as pairs (i, a);
    [x_i (x) a, x_j (x) b] = [x_i, x_j] (x) second(a, b), where ``second``
    returns {c: scalar} and x_k (x) c is looked up in ``basis``.  Products
    are taken for positions p < q, and for p = q where ``square[p]``.
    """
    F = L.field
    index = {b: p for p, b in enumerate(basis)}
    products = {}
    for p, (i, a) in enumerate(basis):
        for q in range(p if square[p] else p + 1, len(basis)):
            j, b = basis[q]
            ab = second(a, b)
            if not ab:
                continue
            terms = {}
            for k, x in L.product(i, j).items():
                for c, y in ab.items():
                    key = index[k, c]
                    terms[key] = F.add(terms.get(key, F.zero()), F.mul(x, y))
            if terms:
                products[p, q] = terms
    return products


def make_current(L: Algebra, A: Algebra) -> Algebra:
    """Current algebra L (x) A: [x (x) a, y (x) b] = [x, y] (x) ab."""
    if L.flavor not in ("lie", "super") or A.flavor != "assoc":
        raise FlavorMismatch("need (anti)commutative L and associative commutative A")
    if L.field != A.field:
        raise FlavorMismatch("tensor factors must share the field")
    basis = [(i, a) for i in range(L.dim) for a in range(A.dim)]
    grading = None if L.grading is None else [L.grading[i] for i, _ in basis]
    square = [L.flavor == "super" and L.grading[i] == 1 for i, _ in basis]
    products = _tensor_products(L, basis, A.product, square)
    names = [f"{L.basis[i]}*{A.basis[a]}" for i, a in basis]
    return Algebra(L.field, len(basis), names, products, flavor=L.flavor, grading=grading)


def _semidirect(L: Algebra, M: ModuleAction) -> Algebra:
    """L + M with [x, m] = x.m and [M, M] = 0, the action unchecked; the
    basis of L comes first, then m_k at index dim L + k."""
    if L.flavor != "lie":
        raise FlavorMismatch("semidirect sums are implemented for flavor 'lie'")
    n = L.dim
    products = dict(L.products)
    for i in range(n):
        for j in range(M.mdim):
            terms = M.action.get((i, j))
            if terms:
                products[(i, n + j)] = {n + k: v for k, v in terms.items()}
    names = L.basis + [f"m{j}" for j in range(M.mdim)]
    return Algebra(L.field, n + M.mdim, names, products)


def _module_violations(L: Algebra, S: Algebra) -> list:
    """The triples (e_i, e_j, m_k), i < j, of the semidirect sum S = L + M
    whose Jacobi sum does not vanish, labelled (i, j, k), each with its
    defect in the coordinates of M (see :meth:`ModuleAction.validate`): the
    Jacobi triples of S whose last index lies in M."""
    n = L.dim
    return [
        ((i, j, k - n), defect[n:])
        for (i, j, k), defect in _path_sums(S, "jacobi", [0] * S.dim, last=n)
    ]


def make_semidirect(L: Algebra, M: ModuleAction) -> Algebra:
    """Semidirect sum L + M with [x, m] = x.m and [M, M] = 0.

    The action is checked as in :meth:`ModuleAction.validate`, by the
    Jacobi identity of this sum on the triples (e_i, e_j, m_k), walked as
    in :func:`validate`.  A
    delta-derivation D: L -> M, D(xy) = delta x.D(y) - delta y.D(x), is a
    delta-derivation of this sum with D(M) = 0 and D(L) inside M, which is
    how ``solver.solve_module_valued`` finds them.  With the adjoint module
    the sum is the current algebra L (x) K[t]/(t^2)."""
    if M.algebra is not L:
        raise InvalidAction("module action is attached to a different algebra")
    S = _semidirect(L, M)
    violations = _module_violations(L, S)
    if violations:
        raise InvalidAction(f"action fails the bracket law on {violations[0][0]}")
    return S


def make_deformed_zassenhaus(p: int, n: int) -> Algebra:
    """W_1(n) realized as W_1(1) (x) O_1(n-1) deformed by the Kuznetsov cocycle:
    the bracket gains e_{p-2} (x) (a d(b) - b d(a)) on pairs of e_{-1} (x) * ."""
    if n < 2:
        raise AlgebraError("the deformation requires n >= 2")
    W = make_zassenhaus(p, 1)
    O = make_divided_powers(p, n - 1)
    cur = make_current(W, O)
    nO = O.dim
    top = (p - 1) * nO  # index of e_{p-2} (x) x^0
    # e_{-1} (x) x^a has global index a (e_{-1} is the first W basis vector).
    # [e_{-1}, e_{-1}] = 0, so a pair of these carries only the cocycle
    # x^a d(x^b) - x^b d(x^a) with d(x^i) = x^{i-1}, which lies in O only
    # while a + b - 1 < nO.
    products = dict(cur.products)
    for a in range(nO):
        for b in range(a + 1, min(nO, nO - a + 1)):
            val = binom_mod_p(a + b - 1, b - 1, p) - binom_mod_p(a + b - 1, a - 1, p)
            products[a, b] = {top + a + b - 1: cur.field.from_int(val)}
    alg = Algebra(cur.field, cur.dim, cur.basis, products)
    rep = validate(alg, "jacobi")
    if not rep.ok:
        raise AlgebraError(f"deformation broke Jacobi at {rep.violations[0][0]}")
    return alg


def make_derivation_algebra(A: Algebra, partial: LinearMap) -> Algebra:
    """The Lie algebra A d of derivations a.d with [a d, b d] = (a d(b) - b d(a)) d."""
    if A.flavor != "assoc":
        raise FlavorMismatch("A must be associative commutative")
    from .solver import is_delta_derivation  # solver imports this module

    if not is_delta_derivation(A, partial, 1):
        raise NotADerivation("the map fails the Leibniz rule")
    F = A.field
    n = A.dim
    d = [partial.apply(A.unit_vector(j)) for j in range(n)]
    products = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec = zip(A.bracket(A.unit_vector(i), d[j]), A.bracket(A.unit_vector(j), d[i]))
            products[i, j] = {k: F.sub(x, y) for k, (x, y) in enumerate(vec)}
    alg = Algebra(F, n, [f"{A.basis[i]}.d" for i in range(n)], products)
    rep = validate(alg, "jacobi")
    if not rep.ok:
        raise AlgebraError(f"A d fails Jacobi at {rep.violations[0][0]}")
    return alg


def make_elduque4(field: Field) -> Algebra:
    """The 4-dimensional algebra on {a, u, v, w} with [a,u]=u, [a,v]=w, [a,w]=v."""
    one = field.one()
    products = {(0, 1): {1: one}, (0, 2): {3: one}, (0, 3): {2: one}}
    return Algebra(field, 4, ["a", "u", "v", "w"], products)


def make_special_linear(nmat: int, field: Field) -> Algebra:
    """sl(n) over the field, basis E_ij (i != j) then H_k = E_kk - E_{k+1,k+1}.

    Basis matrices are sparse {(row, col): c} and products follow the
    matrix-unit rule E_ij E_kl = [j = k] E_il, so each commutator costs O(1).
    A commutator is traceless; its H-coordinates are the partial sums
    m_00 + ... + m_kk of its diagonal.
    """
    if nmat < 2:
        raise AlgebraError(f"sl({nmat}) is zero-dimensional: n must be at least 2")
    F = field
    one, zero = F.one(), F.zero()
    pairs = [(i, j) for i in range(nmat) for j in range(nmat) if i != j]
    index = {ij: a for a, ij in enumerate(pairs)}
    mats = [{ij: one} for ij in pairs]
    mats += [{(k, k): one, (k + 1, k + 1): F.neg(one)} for k in range(nmat - 1)]
    names = [f"E{i}{j}" for (i, j) in pairs] + [f"H{k}" for k in range(nmat - 1)]

    def commutator(X, Y) -> dict:
        m = {}
        for P, Q, sign in ((X, Y, one), (Y, X, F.neg(one))):
            for (i, k), x in P.items():
                for (l, j), y in Q.items():
                    if k == l:
                        m[i, j] = F.add(m.get((i, j), zero), F.mul(sign, F.mul(x, y)))
        return m

    products = {}
    for a, b in combinations(range(len(mats)), 2):
        m = commutator(mats[a], mats[b])
        terms = {index[ij]: c for ij, c in sorted(m.items()) if ij[0] != ij[1]}
        acc = zero
        for k in range(nmat - 1):
            acc = F.add(acc, m.get((k, k), zero))
            terms[len(pairs) + k] = acc
        products[a, b] = terms
    return Algebra(F, len(mats), names, products)


def make_osp12(field: Field) -> Algebra:
    """The 5-dimensional simple Lie superalgebra osp(1|2):
    even part sl(2) = <e, h, f>, odd part <x, y>, with a nondegenerate
    supersymmetric invariant form attached."""
    F = field
    one = F.one()
    two = F.from_int(2)
    m1 = F.neg(one)
    m2 = F.neg(two)
    # basis order: e, h, f, x, y
    products = {
        (0, 1): {0: m2},  # [e,h] = -2e
        (0, 2): {1: one},  # [e,f] = h
        (1, 2): {2: m2},  # [h,f] = -2f
        (0, 4): {3: m1},  # [e,y] = -x
        (1, 3): {3: one},  # [h,x] = x
        (1, 4): {4: m1},  # [h,y] = -y
        (2, 3): {4: m1},  # [f,x] = -y
        (3, 3): {0: two},  # [x,x] = 2e
        (3, 4): {1: one},  # [x,y] = h
        (4, 4): {2: m2},  # [y,y] = -2f
    }
    alg = Algebra(
        F, 5, ["e", "h", "f", "x", "y"], products, flavor="super", grading=[0, 0, 0, 1, 1]
    )
    rep = validate(alg, "super_jacobi")
    if not rep.ok:
        raise AlgebraError(f"osp(1|2) constants fail super-Jacobi at {rep.violations[0][0]}")
    forms = invariant_forms(alg)
    if len(forms) != 1:
        raise AlgebraError("expected a one-dimensional space of invariant forms")
    alg.form = forms[0]
    if form_rank(alg) != 5:
        raise AlgebraError("invariant form on osp(1|2) is degenerate")
    return alg


# ---------------------------------------------------------------------------
# Grassmann envelope


def grassmann_monomials(m: int, parity: int) -> list[tuple]:
    """Monomials in m anticommuting generators of the given parity,
    ordered by (degree, lexicographic)."""
    out = [
        tuple(c)
        for d in range(parity, m + 1, 2)
        for c in combinations(range(m), d)
    ]
    return out


def grassmann_mul(g: tuple, h: tuple) -> tuple[int, tuple] | None:
    """Product of two monomials: None if they share a generator,
    else (sign, merged monomial)."""
    if set(g) & set(h):
        return None
    sign = 1
    merged = list(g)
    for gen in h:
        pos = len(merged)
        while pos > 0 and merged[pos - 1] > gen:
            pos -= 1
        sign *= (-1) ** (len(merged) - pos)
        merged.insert(pos, gen)
    return sign, tuple(merged)


def make_grassmann_envelope(L: Algebra, m: int) -> Algebra:
    """Grassmann envelope G(L): basis x (x) g with matching parities,
    [x (x) g, y (x) h] = [x, y] (x) gh.  G truncated to m generators."""
    if L.grading is None:
        raise GradingMissing("the Grassmann envelope needs a grading")
    if m < 1:
        raise AlgebraError("need at least one Grassmann generator")
    F = L.field
    mono = {0: grassmann_monomials(m, 0), 1: grassmann_monomials(m, 1)}
    basis = [(i, g) for i in range(L.dim) for g in mono[L.grading[i]]]
    signs = {sign: F.from_int(sign) for sign in (1, -1)}

    def signed_product(g, h):
        gh = grassmann_mul(g, h)
        return {} if gh is None else {gh[1]: signs[gh[0]]}

    dim = len(basis)
    products = _tensor_products(L, basis, signed_product, [False] * dim)
    names = [
        L.basis[i] + ("(x)1" if not g else "(x)g" + "g".join(str(t) for t in g))
        for i, g in basis
    ]
    alg = Algebra(F, dim, names, products)
    alg.meta["envelope_basis"] = basis
    alg.meta["envelope_source"] = L
    alg.meta["supports"] = [frozenset(g) for _, g in basis]
    return alg


# ---------------------------------------------------------------------------
# JSON interchange


def algebra_to_json(alg: Algebra) -> dict:
    F = alg.field
    prods = []
    for (i, j) in sorted(alg.products):
        terms = [[k, F.fmt(v)] for k, v in sorted(alg.products[(i, j)].items())]
        prods.append({"i": i, "j": j, "terms": terms})
    data = {
        "field": field_to_json(F),
        "dim": alg.dim,
        "flavor": alg.flavor,
        "basis": alg.basis,
        "products": prods,
    }
    if alg.grading is not None:
        data["grading"] = alg.grading
    if alg.form is not None:
        data["form"] = [[F.fmt(v) for v in row] for row in alg.form]
    return data


def _integer(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise AlgebraError(f"{what} must be an integer, got {value!r}")
    return value


def _scalar(field: Field, value, where: str):
    try:
        return parse_scalar(field, value)
    except ValueError as exc:
        raise AlgebraError(f"{where}: invalid scalar {value!r}") from exc


def algebra_from_json(data: dict) -> Algebra:
    """Read an algebra from its interchange form; every malformed input
    raises :class:`AlgebraError` naming the key or product at fault."""
    for key in ("field", "dim", "basis"):
        if not isinstance(data, dict) or key not in data:
            raise AlgebraError(f"missing key {key!r}")
    entries = data.get("products", [])
    if not isinstance(entries, list):
        raise AlgebraError("'products' must be a list")
    for idx, entry in enumerate(entries):
        for key in ("i", "j", "terms"):
            if not isinstance(entry, dict) or key not in entry:
                raise AlgebraError(f"products[{idx}]: missing key {key!r}")
    try:
        F = field_from_json(data["field"])
    except KeyError as exc:
        raise AlgebraError(f"'field': missing key {exc}") from exc
    except ValueError as exc:
        raise AlgebraError(f"'field': {exc}") from exc
    basis = data["basis"]
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise AlgebraError(f"'basis' must be a list of names, got {basis!r}")
    products = {}
    for idx, entry in enumerate(entries):
        where = f"products[{idx}]"
        i, j = (_integer(entry[key], f"{where}: {key!r}") for key in ("i", "j"))
        terms = entry["terms"]
        if not isinstance(terms, list) or not all(isinstance(t, list) and len(t) == 2 for t in terms):
            raise AlgebraError(f"{where}: 'terms' must be a list of [index, scalar] pairs, got {terms!r}")
        if (i, j) in products:
            raise AlgebraError(f"{where}: the pair ({i}, {j}) is given twice")
        row = products[(i, j)] = {}
        for k, v in terms:
            k = _integer(k, f"{where}: term index")
            if k in row:
                raise AlgebraError(f"{where}: the term index {k} is given twice")
            row[k] = _scalar(F, v, where)
    form, grading = data.get("form"), data.get("grading")
    if form is not None:
        if not isinstance(form, list) or not all(isinstance(row, list) for row in form):
            raise AlgebraError(f"'form' must be a list of rows, got {form!r}")
        form = [[_scalar(F, v, "form") for v in row] for row in form]
    if grading is not None and not isinstance(grading, list):
        raise AlgebraError(f"'grading' must be a list of parities, got {grading!r}")
    return Algebra(
        F,
        _integer(data["dim"], "'dim'"),
        basis,
        products,
        flavor=data.get("flavor", "lie"),
        grading=grading,
        form=form,
    )
