"""Exact linear algebra for the benchmark's answer checks.

Nothing here imports ``deltader``.  The offline answer generator
(``make_expected.py``) and the run-time checks in ``jobs.py`` use this module
to derive and verify answers without trusting the code under test: the
systems are assembled from raw structure constants over *all* ordered basis
pairs (the package assembles a reduced pair set), and elimination is a
separate echelon-then-back-substitute routine.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


class QQ:
    """The rationals on ``Fraction`` payloads."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def of(self, k):
        return Fraction(k)

    def fmt(self, a):
        return int(a) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"


class GF:
    """The prime field GF(p) on integer payloads in [0, p)."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        self.p = self.char = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def of(self, k):
        if isinstance(k, Fraction):
            return k.numerator * pow(k.denominator, -1, self.p) % self.p
        return k % self.p

    def fmt(self, a):
        return a


class GFk:
    """GF(p^k) as GF(p)[t]/(m) for a monic irreducible ``m``; payloads are
    k-tuples, low degree first.  Used to evaluate a pencil A + tB at points
    outside the prime field."""

    def __init__(self, p: int, modulus: list):
        self.p = self.char = p
        self.m = modulus  # monic, length k + 1
        self.k = len(modulus) - 1
        self.zero = (0,) * self.k
        self.one = (1,) + (0,) * (self.k - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d] % p
            if c:
                for i in range(k + 1):
                    prod[d - k + i] -= c * self.m[i]
        return tuple(c % p for c in prod[:k])

    def inv(self, a):
        # a^(p^k - 2) by square and multiply
        e = self.p**self.k - 2
        out, base = self.one, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def is_zero(self, a):
        return not any(a)

    def of(self, k):
        return (GF(self.p).of(k),) + (0,) * (self.k - 1)


def irreducible_cubic(p: int) -> list:
    """The first monic cubic over GF(p) without roots (hence irreducible)."""
    for c0 in range(1, p):
        for c1 in range(p):
            for c2 in range(p):
                m = [c0, c1, c2, 1]
                if all((c0 + c1 * x + c2 * x * x + x**3) % p for x in range(p)):
                    return m
    raise ValueError(f"no irreducible cubic over GF({p})")


def field_of(alg):
    """Oracle field for an algebra's base field, read from its JSON form."""
    kind = alg["field"]["kind"]
    if kind == "Q":
        return QQ()
    if kind == "GFp":
        return GF(int(alg["field"]["p"]))
    raise ValueError(f"unsupported field {kind!r}")


# ---------------------------------------------------------------------------
# structure constants


def full_table(alg, F) -> dict:
    """All ordered products e_i e_j as {(i, j): {k: c}} from an algebra in
    the package's JSON interchange form, with the storage sign rule applied
    here, independently of the package."""
    grading = alg.get("grading")
    flavor = alg.get("flavor", "lie")
    table: dict = {}
    for entry in alg["products"]:
        i, j = int(entry["i"]), int(entry["j"])
        terms = {int(k): F.of(Fraction(v)) for k, v in entry["terms"]}
        terms = {k: c for k, c in terms.items() if not F.is_zero(c)}
        if not terms:
            continue
        table[(i, j)] = terms
        if i == j:
            continue
        if flavor == "assoc" or (flavor == "super" and grading[i] and grading[j]):
            table[(j, i)] = dict(terms)
        else:
            table[(j, i)] = {k: F.sub(F.zero, c) for k, c in terms.items()}
    return table


def _add(row: dict, col: int, val, F):
    nv = F.add(row.get(col, F.zero), val)
    if F.is_zero(nv):
        row.pop(col, None)
    else:
        row[col] = nv


def law_rows(alg, F, kind: str, delta=None, parity=None) -> list[dict]:
    """Equation rows of a derivation-type law over every ordered basis pair.

    kinds: ``der`` (delta-derivations, optionally super of the given parity),
    ``centroid`` (optionally super of the given parity) and ``quasider``
    (pairs (D, F), F in the second n^2 columns).  Unknown d_kl sits in column
    k*n + l, the coefficient of e_l in D(e_k).
    """
    n = int(alg["dim"])
    grading = alg.get("grading")
    C = full_table(alg, F)
    nn = n * n
    one = F.one
    rows = []
    for i in range(n):
        for j in range(n):
            sgn = one
            if parity and grading[i]:
                sgn = F.sub(F.zero, one)
            cij = C.get((i, j), {})
            if kind == "centroid":
                # chi(e_i e_j) = chi(e_i) e_j  and  chi(e_i e_j) = sgn e_i chi(e_j)
                left = [dict() for _ in range(n)]
                right = [dict() for _ in range(n)]
                for k, c in cij.items():
                    for l in range(n):
                        _add(left[l], k * n + l, c, F)
                        _add(right[l], k * n + l, c, F)
                neg_sgn = F.sub(F.zero, sgn)
                for k in range(n):
                    for l, c in C.get((k, j), {}).items():
                        _add(left[l], i * n + k, F.sub(F.zero, c), F)
                    for l, c in C.get((i, k), {}).items():
                        _add(right[l], j * n + k, F.mul(neg_sgn, c), F)
                rows.extend(left)
                rows.extend(right)
                continue
            eq = [dict() for _ in range(n)]
            off = nn if kind == "quasider" else 0
            d = one if kind == "quasider" else delta
            for k, c in cij.items():
                for l in range(n):
                    _add(eq[l], off + k * n + l, c, F)
            neg_d = F.sub(F.zero, d)
            neg_sd = F.sub(F.zero, F.mul(sgn, d))
            for k in range(n):
                for l, c in C.get((k, j), {}).items():
                    _add(eq[l], i * n + k, F.mul(neg_d, c), F)
                for l, c in C.get((i, k), {}).items():
                    _add(eq[l], j * n + k, F.mul(neg_sd, c), F)
            rows.extend(eq)
    if parity is not None:
        for i in range(n):
            for j in range(n):
                if grading[j] != (grading[i] + parity) % 2:
                    rows.append({i * n + j: one})
    return rows


def pencil_rows(alg, F) -> list[dict]:
    """The delta-derivation system with delta an indeterminate: entries are
    pairs (a, b) meaning a + delta*b."""
    n = int(alg["dim"])
    C = full_table(alg, F)
    rows = []
    for i in range(n):
        for j in range(n):
            eq = [dict() for _ in range(n)]

            def put(row, col, a, b):
                x, y = row.get(col, (F.zero, F.zero))
                x, y = F.add(x, a), F.add(y, b)
                if F.is_zero(x) and F.is_zero(y):
                    row.pop(col, None)
                else:
                    row[col] = (x, y)

            for k, c in C.get((i, j), {}).items():
                for l in range(n):
                    put(eq[l], k * n + l, c, F.zero)
            for k in range(n):
                for l, c in C.get((k, j), {}).items():
                    put(eq[l], i * n + k, F.zero, F.sub(F.zero, c))
                for l, c in C.get((i, k), {}).items():
                    put(eq[l], j * n + k, F.zero, F.sub(F.zero, c))
            rows.extend(eq)
    return rows


def specialize(pencil: list[dict], F, value) -> list[dict]:
    out = []
    for row in pencil:
        r = {}
        for col, (a, b) in row.items():
            v = F.add(a, F.mul(value, b))
            if not F.is_zero(v):
                r[col] = v
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# elimination


def rref(rows, F) -> dict:
    """Reduced echelon form {pivot column: row}, pivot entries 1.

    Rows are first brought to echelon form by their leading column only,
    then reduced by back substitution from the rightmost pivot."""
    piv: dict = {}
    for row in rows:
        r = {c: v for c, v in row.items() if not F.is_zero(v)}
        while r:
            c = min(r)
            prow = piv.get(c)
            if prow is None:
                inv = F.inv(r[c])
                piv[c] = {j: F.mul(inv, v) for j, v in r.items()}
                break
            f = r[c]
            for j, v in prow.items():
                _add(r, j, F.sub(F.zero, F.mul(f, v)), F)
    for c in sorted(piv, reverse=True):
        row = piv[c]
        for j in sorted(j for j in row if j != c and j in piv):
            f = row.get(j)
            if f is None:
                continue
            for q, v in piv[j].items():
                _add(row, q, F.sub(F.zero, F.mul(f, v)), F)
    return piv


def rank(rows, F) -> int:
    return len(rref(rows, F))


def nullspace(rows, ncols: int, F) -> list[list]:
    """Canonical nullspace basis: one vector per free column c, with 1 at c
    and the negated reduced-row entries at the pivot columns."""
    piv = rref(rows, F)
    out = []
    for c in range(ncols):
        if c in piv:
            continue
        v = [F.zero] * ncols
        v[c] = F.one
        for p, row in piv.items():
            if c in row:
                v[p] = F.sub(F.zero, row[c])
        out.append(v)
    return out


def digest(vectors, F) -> str:
    """Short hash of a list of vectors, written with the package's scalar
    format (integers or "a/b")."""
    h = hashlib.sha256()
    for v in vectors:
        h.update((",".join(str(F.fmt(c)) for c in v) + ";").encode())
    return h.hexdigest()[:16]


def satisfies(rows, vec, F) -> bool:
    """True iff every equation row vanishes on the vector."""
    for row in rows:
        acc = F.zero
        for c, v in row.items():
            x = vec[c]
            if not F.is_zero(x):
                acc = F.add(acc, F.mul(v, x))
        if not F.is_zero(acc):
            return False
    return True


def lie_law_holds(alg, F) -> bool:
    """Jacobi identity (graded by the Koszul sign for the super flavor) on
    every basis triple, from the full product table."""
    n = int(alg["dim"])
    C = full_table(alg, F)
    g = alg.get("grading") if alg.get("flavor") == "super" else None

    def prod(vec: dict, j: int) -> dict:
        out: dict = {}
        for i, c in vec.items():
            for k, w in C.get((i, j), {}).items():
                _add(out, k, F.mul(c, w), F)
        return out

    def sign(a, b):
        return -1 if g is not None and g[a] and g[b] else 1

    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc: dict = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    term = prod(dict(C.get((a, b), {})), c)
                    s = sign(a, c)
                    for col, v in term.items():
                        _add(acc, col, v if s > 0 else F.sub(F.zero, v), F)
                if acc:
                    return False
    return True


def s4_rank(alg, F) -> int:
    """Dimension of the span of all values of the degree-5 standard
    polynomial sum_sigma sign(sigma) [[[[y, x_s1], x_s2], x_s3], x_s4] over
    basis vectors (alternation: increasing 4-tuples suffice)."""
    from itertools import combinations, permutations

    n = int(alg["dim"])
    C = full_table(alg, F)
    perms = []
    for p in permutations(range(4)):
        inv = sum(1 for a in range(4) for b in range(a + 1, 4) if p[a] > p[b])
        perms.append((p, inv % 2))
    values = []
    for y in range(n):
        for t in combinations(range(n), 4):
            acc: dict = {}
            for p, odd in perms:
                vec = {y: F.one}
                for s in p:
                    nxt: dict = {}
                    for i, c in vec.items():
                        for k, w in C.get((i, t[s]), {}).items():
                            _add(nxt, k, F.mul(c, w), F)
                    vec = nxt
                    if not vec:
                        break
                for k, c in vec.items():
                    _add(acc, k, F.sub(F.zero, c) if odd else c, F)
            if acc:
                values.append(acc)
    return rank(values, F)
