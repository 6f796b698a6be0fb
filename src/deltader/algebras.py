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

from dataclasses import dataclass, field as dc_field
from itertools import combinations

from .fields import Field, field_from_json, field_to_json
from .linalg import SpanSolver, rref_dense, sparse_nullspace, sparse_rank
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


@dataclass
class ValidationReport:
    law: str
    violations: list  # (basis tuple, defect vector)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


class Algebra:
    """Finite-dimensional algebra over an exact field, sparse constants."""

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
        if dim < 1 or len(basis) != dim:
            raise AlgebraError("dimension / basis mismatch")
        if flavor not in ("lie", "assoc", "super"):
            raise AlgebraError(f"unknown flavor {flavor!r}")
        if flavor == "super" and grading is None:
            raise GradingMissing("flavor 'super' requires a grading")
        if grading is not None and (
            len(grading) != dim or any(g not in (0, 1) for g in grading)
        ):
            raise AlgebraError("grading must be a 0/1 vector of length dim")
        self.field = field
        self.dim = dim
        self.basis = list(basis)
        self.flavor = flavor
        self.grading = list(grading) if grading is not None else None
        self.form = form
        self.meta = meta or {}
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

    def parity(self, i: int) -> int:
        if self.grading is None:
            raise GradingMissing("algebra is not graded")
        return self.grading[i]

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
        """Canonical basis of the span of all products."""
        vecs = []
        for (i, j) in self.products:
            vecs.append(self.product_vec(i, j))
        return rref_dense(vecs, self.field)

    def center(self) -> list[list]:
        """{v : v e_i = 0 for all i} (two-sided by (anti)commutativity)."""
        F = self.field
        eqs = []
        for i in range(self.dim):
            for l in range(self.dim):
                eq = {}
                for j in range(self.dim):
                    c = self.product(j, i).get(l)
                    if c is not None and not F.is_zero(c):
                        eq[j] = c
                if eq:
                    eqs.append(eq)
        return sparse_nullspace(eqs, self.dim, F)

    def __repr__(self):
        return f"Algebra({self.flavor}, dim={self.dim}, field={self.field!r})"


# ---------------------------------------------------------------------------
# validation


_FLAVOR_LAW = {"lie": "jacobi", "super": "super_jacobi", "assoc": "assoc"}


def index_tuples(parities, k: int, supports=None):
    """The non-decreasing k-tuples of indices into ``parities`` in which only
    odd indices repeat, in lexicographic order.

    A (super)alternating identity vanishes on a repeated even argument and
    takes the value of the sorted tuple, up to sign, on any other; an
    ordinary algebra is the case of zero parities (strictly increasing
    tuples).  Given Grassmann ``supports`` (a frozenset per index), a branch
    is pruned as soon as a new index's support meets the union so far, and
    the items are ``(tuple, union)``.
    """
    n = len(parities)
    empty = frozenset()

    def extend(prefix, start, union):
        if len(prefix) == k:
            yield prefix if supports is None else (prefix, union)
            return
        for i in range(start, n):
            support = empty if supports is None else supports[i]
            if not support & union:
                yield from extend(prefix + (i,), i if parities[i] else i + 1, union | support)

    return extend((), 0, empty)


def validate(alg: Algebra, law: str | None = None) -> ValidationReport:
    """Check a defining law; report every violating basis triple with its defect.

    Laws: "jacobi", "super_jacobi", "assoc"; by default the law of the
    algebra's flavor.  Both Jacobi laws are one loop over
    :func:`index_tuples` summing (-1)^{|a||c|} (e_a e_b) e_c over the cyclic
    shifts of each triple, with zero parities for the ordinary law; a
    skipped triple (repeated even index) sums to zero by the storage rule.
    """
    if law is None:
        law = _FLAVOR_LAW[alg.flavor]
    F = alg.field
    n = alg.dim
    violations = []

    def add_to(d: list, x, terms: dict) -> None:
        for l, y in terms.items():
            d[l] = F.add(d[l], F.mul(x, y))

    def check(triple, d: list) -> None:
        if any(not F.is_zero(v) for v in d):
            violations.append((triple, d))

    if law in ("jacobi", "super_jacobi"):
        if law == "super_jacobi" and alg.grading is None:
            raise GradingMissing("super-Jacobi requires a grading")
        par = alg.grading if law == "super_jacobi" else [0] * n
        for i, j, k in index_tuples(par, 3):
            d = [F.zero()] * n
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, x in alg.product(a, b).items():
                    add_to(d, F.neg(x) if par[a] and par[c] else x, alg.product(m, c))
            check((i, j, k), d)
        return ValidationReport(law, violations)

    if law == "assoc":
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    d = [F.zero()] * n
                    for m, x in alg.product(i, j).items():
                        add_to(d, x, alg.product(m, k))
                    for m, x in alg.product(j, k).items():
                        add_to(d, F.neg(x), alg.product(i, m))
                    check((i, j, k), d)
        return ValidationReport(law, violations)

    raise AlgebraError(f"unknown law {law!r}")


def validate_form(alg: Algebra) -> ValidationReport:
    """(Super)symmetry and invariance ((ab, c) = (a, bc)) of the attached form."""
    if alg.form is None:
        raise FormMissing("no bilinear form attached")
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
            if (
                alg.grading is not None
                and alg.grading[i] != alg.grading[j]
                and not F.is_zero(B[i][j])
            ):
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
    return ValidationReport("form", violations)


def form_rank(alg: Algebra) -> int:
    if alg.form is None:
        raise FormMissing("no bilinear form attached")
    rows = [
        {j: v for j, v in enumerate(row) if not alg.field.is_zero(v)}
        for row in alg.form
    ]
    return sparse_rank(rows, alg.field)


def invariant_forms(alg: Algebra) -> list[list[list]]:
    """Basis of (super)symmetric invariant bilinear forms, as n x n matrices."""
    F = alg.field
    n = alg.dim
    eqs = []

    def var(i, j):
        return i * n + j

    for i in range(n):
        for j in range(n):
            eq = {var(i, j): F.one()}
            sgn = F.neg(F.one())
            if alg.grading is not None and alg.grading[i] and alg.grading[j]:
                sgn = F.one()
            prev = eq.get(var(j, i), F.zero())
            eq[var(j, i)] = F.add(prev, sgn)
            eq = {c: v for c, v in eq.items() if not F.is_zero(v)}
            if eq:
                eqs.append(eq)
            if alg.grading is not None and alg.grading[i] != alg.grading[j]:
                eqs.append({var(i, j): F.one()})
    for i in range(n):
        for j in range(n):
            for k in range(n):
                eq: dict = {}
                for m, c in alg.product(i, j).items():
                    eq[var(m, k)] = F.add(eq.get(var(m, k), F.zero()), c)
                for m, c in alg.product(j, k).items():
                    eq[var(i, m)] = F.sub(eq.get(var(i, m), F.zero()), c)
                eq = {c: v for c, v in eq.items() if not F.is_zero(v)}
                if eq:
                    eqs.append(eq)
    sols = sparse_nullspace(eqs, n * n, F)
    return [[sol[i * n : (i + 1) * n] for i in range(n)] for sol in sols]


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

    def act(self, i: int, j: int) -> dict:
        return self.action.get((i, j), {})

    def act_vec(self, i: int, m: list) -> list:
        F = self.algebra.field
        out = [F.zero()] * self.mdim
        for j, c in enumerate(m):
            if F.is_zero(c):
                continue
            for k, a in self.act(i, j).items():
                out[k] = F.add(out[k], F.mul(c, a))
        return out

    def validate(self) -> ValidationReport:
        """[x,y].m = x.(y.m) - y.(x.m) on all basis triples."""
        alg = self.algebra
        F = alg.field
        violations = []
        for i in range(alg.dim):
            for j in range(alg.dim):
                for m in range(self.mdim):
                    em = [F.zero()] * self.mdim
                    em[m] = F.one()
                    lhs = [F.zero()] * self.mdim
                    for k, c in alg.product(i, j).items():
                        for l, a in self.act(k, m).items():
                            lhs[l] = F.add(lhs[l], F.mul(c, a))
                    rhs = self.act_vec(i, self.act_vec(j, em))
                    t = self.act_vec(j, self.act_vec(i, em))
                    rhs = [F.sub(x, y) for x, y in zip(rhs, t)]
                    d = [F.sub(x, y) for x, y in zip(lhs, rhs)]
                    if any(not F.is_zero(x) for x in d):
                        violations.append(((i, j, m), d))
        return ValidationReport("module", violations)

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
    ``modulus`` given, elements are residues and sums wrap mod ``modulus``.
    Requires 0 in R and closure of R under sums of distinct elements.
    """
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
    from .fields import PrimeField

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
    from .fields import PrimeField

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


def make_current(L: Algebra, A: Algebra) -> Algebra:
    """Current algebra L (x) A: [x (x) a, y (x) b] = [x, y] (x) ab."""
    if L.flavor not in ("lie", "super") or A.flavor != "assoc":
        raise FlavorMismatch("need (anti)commutative L and associative commutative A")
    if L.field != A.field:
        raise FlavorMismatch("tensor factors must share the field")
    F = L.field
    nL, nA = L.dim, A.dim
    dim = nL * nA

    def idx(i, a):
        return i * nA + a

    grading = None
    if L.grading is not None:
        grading = [L.grading[p // nA] for p in range(dim)]
    products = {}
    for p1 in range(dim):
        i, a = divmod(p1, nA)
        lo = p1 if L.flavor == "super" else p1 + 1
        for p2 in range(lo, dim):
            j, b = divmod(p2, nA)
            if p1 == p2 and not (grading and grading[p1]):
                continue
            terms = {}
            lp = L.product(i, j)
            ap = A.product(a, b)
            for k, c1 in lp.items():
                for c, c2 in ap.items():
                    key = idx(k, c)
                    v = F.mul(c1, c2)
                    terms[key] = F.add(terms.get(key, F.zero()), v)
            terms = {k: v for k, v in terms.items() if not F.is_zero(v)}
            if terms:
                products[(p1, p2)] = terms
    names = [f"{L.basis[p // nA]}*{A.basis[p % nA]}" for p in range(dim)]
    return Algebra(F, dim, names, products, flavor=L.flavor, grading=grading)


def make_semidirect(L: Algebra, M: ModuleAction) -> Algebra:
    """Semidirect sum L + M with [x, m] = x.m and [M, M] = 0."""
    if M.algebra is not L:
        raise InvalidAction("module action is attached to a different algebra")
    rep = M.validate()
    if not rep.ok:
        raise InvalidAction(f"action fails the bracket law on {rep.violations[0][0]}")
    if L.flavor != "lie":
        raise FlavorMismatch("semidirect sums are implemented for flavor 'lie'")
    n, m = L.dim, M.mdim
    products = {}
    for (i, j), terms in L.products.items():
        products[(i, j)] = dict(terms)
    for i in range(n):
        for j in range(m):
            terms = {n + k: v for k, v in M.act(i, j).items()}
            if terms:
                products[(i, n + j)] = terms
    names = L.basis + [f"m{j}" for j in range(m)]
    return Algebra(L.field, n + m, names, products)


def make_deformed_zassenhaus(p: int, n: int) -> Algebra:
    """W_1(n) realized as W_1(1) (x) O_1(n-1) deformed by the Kuznetsov cocycle:
    the bracket gains e_{p-2} (x) (a d(b) - b d(a)) on pairs of e_{-1} (x) * ."""
    if n < 2:
        raise AlgebraError("the deformation requires n >= 2")
    W = make_zassenhaus(p, 1)
    O = make_divided_powers(p, n - 1)
    cur = make_current(W, O)
    F = cur.field
    nO = O.dim
    top = (p - 1) * nO  # index of e_{p-2} (x) x^0
    products = {k: dict(v) for k, v in cur.products.items()}
    # e_{-1} (x) x^a has global index a (e_{-1} is the first W basis vector)
    for a in range(nO):
        for b in range(a + 1, nO):
            # a d(b) - b d(a) with d(x^i) = x^{i-1}
            val = 0
            tgt = a + b - 1
            if tgt < nO:
                val = (binom_mod_p(a + b - 1, b - 1, p) if b >= 1 else 0) - (
                    binom_mod_p(a + b - 1, a - 1, p) if a >= 1 else 0
                )
                val %= p
            if val and tgt < nO:
                key = (a, b)
                terms = products.setdefault(key, {})
                tk = top + tgt
                terms[tk] = F.add(terms.get(tk, F.zero()), F.from_int(val))
                if F.is_zero(terms[tk]):
                    del terms[tk]
                if not terms:
                    del products[key]
    alg = Algebra(F, cur.dim, cur.basis, products)
    rep = validate(alg, "jacobi")
    if not rep.ok:
        raise AlgebraError(f"deformation broke Jacobi at {rep.violations[0][0]}")
    return alg


def make_derivation_algebra(A: Algebra, partial: LinearMap) -> Algebra:
    """The Lie algebra A d of derivations a.d with [a d, b d] = (a d(b) - b d(a)) d."""
    if A.flavor != "assoc":
        raise FlavorMismatch("A must be associative commutative")
    F = A.field
    n = A.dim
    for i in range(n):
        for j in range(n):
            lhs = partial.apply(A.product_vec(i, j))
            di = partial.apply(A.unit_vector(i))
            dj = partial.apply(A.unit_vector(j))
            rhs = A.bracket(di, A.unit_vector(j))
            t = A.bracket(A.unit_vector(i), dj)
            rhs = [F.add(x, y) for x, y in zip(rhs, t)]
            if any(not F.eq(x, y) for x, y in zip(lhs, rhs)):
                raise NotADerivation(f"Leibniz fails on (x_{i}, x_{j})")
    products = {}
    for i in range(n):
        for j in range(i + 1, n):
            dj = partial.apply(A.unit_vector(j))
            di = partial.apply(A.unit_vector(i))
            vec = A.bracket(A.unit_vector(i), dj)
            t = A.bracket(A.unit_vector(j), di)
            vec = [F.sub(x, y) for x, y in zip(vec, t)]
            terms = {k: c for k, c in enumerate(vec) if not F.is_zero(c)}
            if terms:
                products[(i, j)] = terms
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


def _mat_mul(F: Field, A, B):
    n = len(A)
    return [
        [
            _dot(F, [A[i][k] for k in range(n)], [B[k][j] for k in range(n)])
            for j in range(n)
        ]
        for i in range(n)
    ]


def _dot(F: Field, u, v):
    s = F.zero()
    for a, b in zip(u, v):
        s = F.add(s, F.mul(a, b))
    return s


def make_special_linear(nmat: int, field: Field) -> Algebra:
    """sl(n) over the field, basis E_ij (i != j) then H_k = E_kk - E_{k+1,k+1}."""
    F = field
    pairs = [(i, j) for i in range(nmat) for j in range(nmat) if i != j]
    dim = nmat * nmat - 1

    def emat(i, j):
        m = [[F.zero()] * nmat for _ in range(nmat)]
        m[i][j] = F.one()
        return m

    mats = [emat(i, j) for (i, j) in pairs]
    for k in range(nmat - 1):
        m = [[F.zero()] * nmat for _ in range(nmat)]
        m[k][k] = F.one()
        m[k + 1][k + 1] = F.neg(F.one())
        mats.append(m)
    names = [f"E{i}{j}" for (i, j) in pairs] + [f"H{k}" for k in range(nmat - 1)]

    def decompose(m):
        coeffs = [F.zero()] * dim
        for idx, (i, j) in enumerate(pairs):
            coeffs[idx] = m[i][j]
        acc = F.zero()
        for k in range(nmat - 1):
            acc = F.add(acc, m[k][k])
            coeffs[len(pairs) + k] = acc
        return coeffs

    products = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            ab = _mat_mul(F, mats[a], mats[b])
            ba = _mat_mul(F, mats[b], mats[a])
            comm = [[F.sub(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]
            coeffs = decompose(comm)
            terms = {k: c for k, c in enumerate(coeffs) if not F.is_zero(c)}
            if terms:
                products[(a, b)] = terms
    return Algebra(F, dim, names, products)


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
    basis = []  # (L index, monomial)
    for i in range(L.dim):
        for g in mono[L.grading[i]]:
            basis.append((i, g))
    index = {b: p for p, b in enumerate(basis)}
    dim = len(basis)
    products = {}
    for p1 in range(dim):
        i, g = basis[p1]
        for p2 in range(p1 + 1, dim):
            j, h = basis[p2]
            gh = grassmann_mul(g, h)
            if gh is None:
                continue
            sign, mono_out = gh
            lp = L.product(i, j)
            if not lp:
                continue
            terms = {}
            for k, c in lp.items():
                key = index.get((k, mono_out))
                if key is None:
                    continue  # parity-mismatched target cannot occur for graded L
                v = F.mul(c, F.from_int(sign))
                terms[key] = F.add(terms.get(key, F.zero()), v)
            terms = {k: v for k, v in terms.items() if not F.is_zero(v)}
            if terms:
                products[(p1, p2)] = terms
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


def algebra_from_json(data: dict) -> Algebra:
    F = field_from_json(data["field"])
    products = {}
    for entry in data.get("products", []):
        i, j = int(entry["i"]), int(entry["j"])
        products[(i, j)] = {int(k): F.coerce(v) for k, v in entry["terms"]}
    form = None
    if data.get("form") is not None:
        form = [[F.coerce(v) for v in row] for row in data["form"]]
    return Algebra(
        F,
        int(data["dim"]),
        data["basis"],
        products,
        flavor=data.get("flavor", "lie"),
        grading=data.get("grading"),
        form=form,
    )
