"""Shared helpers: an independent dense nullspace oracle, coordinates read
off it, a seeded dense change of basis and a diagonal one, an
independent rational root oracle by Sturm bisection, and an independent
pencil determinant by interpolation of integer determinants.

The oracle deliberately avoids the package's sparse elimination and its
structure-constant index manipulation: it evaluates the defining law of a
derivation-type map on elementary matrices, from the products of basis
vectors given by ``bracket`` and the one nonzero image of each such map,
and runs a plain dense Gaussian elimination written here.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce


def dense_gauss_nullspace(field, rows, ncols):
    """Nullspace basis of the matrix given by ``rows`` (list of dense rows),
    computed by textbook Gauss-Jordan elimination."""
    F = field
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if not F.is_zero(mat[i][c]):
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = F.inv(mat[r][c])
        prow = mat[r] = [F.mul(inv, x) for x in mat[r]]
        # subtracting a multiple of the pivot row changes only the columns
        # where the pivot row is nonzero
        support = [j for j, y in enumerate(prow) if not F.is_zero(y)]
        for i, row in enumerate(mat):
            if i != r and not F.is_zero(row[c]):
                f = row[c]
                for j in support:
                    row[j] = F.sub(row[j], F.mul(f, prow[j]))
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [F.zero()] * ncols
        v[fc] = F.one()
        for pr, pc in enumerate(pivots):
            v[pc] = F.neg(mat[pr][fc])
        basis.append(v)
    return basis


def dense_vectors(field, vectors, ncols):
    """Sparse vectors {index: value}, as ``sparse_nullspace`` gives them,
    written out as dense lists of length ncols, once each is checked to
    hold no zero value."""
    out = []
    for v in vectors:
        assert not any(field.is_zero(x) for x in v.values()), v
        dense = [field.zero()] * ncols
        for j, x in v.items():
            dense[j] = x
        out.append(dense)
    return out


def gauss_coordinates(field, basis, v):
    """Coefficients of v over the independent vectors ``basis``, or None if
    v is not in their span, from the textbook nullspace of the matrix whose
    columns are the basis vectors and then v: a relation exists exactly when
    v is in the span, and it is then the one nullspace vector, 1 at v."""
    F = field
    k = len(basis)
    null = dense_gauss_nullspace(F, [[b[r] for b in basis] + [x] for r, x in enumerate(v)], k + 1)
    if not null:
        return None
    (relation,) = null
    assert F.eq(relation[k], F.one())
    return [F.neg(x) for x in relation[:k]]


def elementary_defect(alg, k, l, a, b, products):
    """Defect D(e_i e_j) - a D(e_i) e_j - b e_i D(e_j) of the elementary
    map D = E_kl over all ordered pairs (i, j), given the products
    ``products[i][j] = bracket(e_i, e_j)``, as {n^2 i + n j + m: coordinate m}
    with zeros left out.  The one nonzero image of D is D(e_k) = e_l, so
    D(e_i e_j) is the e_k-coefficient of e_i e_j times e_l, D(e_i) e_j is
    e_l e_j when i = k, and e_i D(e_j) is e_i e_l when j = k."""
    F = alg.field
    n = alg.dim
    out = {}

    def add(pos, val):
        if not F.is_zero(val):
            out[pos] = F.add(out.get(pos, F.zero()), val)

    for i in range(n):
        for j in range(n):
            add((i * n + j) * n + l, products[i][j][k])
    for x in range(n):
        for m in range(n):
            add((k * n + x) * n + m, F.neg(F.mul(a, products[l][x][m])))
            add((x * n + k) * n + m, F.neg(F.mul(b, products[x][l][m])))
    return {pos: v for pos, v in out.items() if not F.is_zero(v)}


def oracle_law_maps(alg, laws):
    """Independent computation of the maps D with D(xy) = a D(x)y + b xD(y)
    for every (a, b) in ``laws``: the nullspace of the defect map on
    elementary matrices.  Returns a list of flat n^2 coefficient vectors."""
    F = alg.field
    n = alg.dim
    units = [alg.unit_vector(i) for i in range(n)]
    products = [[alg.bracket(ei, ej) for ej in units] for ei in units]
    # transpose: equations are rows, E_kl is column k n + l; law t takes
    # the rows from t n^3 on
    equations = {}
    for t, (a, b) in enumerate(laws):
        for k in range(n):
            for l in range(n):
                for r, v in elementary_defect(alg, k, l, a, b, products).items():
                    equations.setdefault(t * n**3 + r, {})[k * n + l] = v
    # Zero rows add nothing, and neither does a row that is a multiple of
    # another (for an anticommutative algebra the (j, i) equations are the
    # negatives of the (i, j) ones), so each row is scaled to lead with 1
    # and only the first of equal rows kept.
    rows = {}
    for r in sorted(equations):
        eq = equations[r]
        inv = F.inv(eq[min(eq)])
        row = [F.zero()] * (n * n)
        for c, v in eq.items():
            row[c] = F.mul(inv, v)
        rows.setdefault(tuple(row))
    return dense_gauss_nullspace(F, list(rows), n * n)


def oracle_delta_derivations(alg, delta):
    """Der_delta from ``oracle_law_maps``: D(xy) = delta (D(x)y + xD(y))."""
    return oracle_law_maps(alg, [(delta, delta)])


def oracle_centroid(alg):
    """The centroid from ``oracle_law_maps``: D(xy) = D(x)y = xD(y)."""
    one, zero = alg.field.one(), alg.field.zero()
    return oracle_law_maps(alg, [(one, zero), (zero, one)])


def spans_equal(field, vecs_a, vecs_b):
    from deltader.linalg import same_span

    return same_span(list(vecs_a), list(vecs_b), field)


def poly_eval(field, f, x):
    """f(x) by Horner's rule with the field's own methods."""
    acc = field.zero()
    for c in reversed(f):
        acc = field.add(field.mul(acc, x), c)
    return acc


def rebased(alg, seed: int = 1, scale: bool = False):
    """The Lie algebra ``alg`` in the basis f_a = d_a sum_i P[a][i] e_i for
    the seeded dense unimodular P = S1 M S2 of the rebased benchmark
    workload: M[i][j] = min(i, j) + 1, whose inverse is tridiagonal, and S1,
    S2 signed permutations.  With ``scale``, d = (2, 1/2, 1, ..., 1), so the
    constants may carry denominators (those of sl3 do at seeds 1 to 7, those
    of sl2 only at seeds 5 and 6 among them); otherwise d = 1.  The products are dense,
    so their support carries no grading."""
    from deltader.algebras import Algebra

    F, n = alg.field, alg.dim
    rng = random.Random(seed)
    p1, p2 = rng.sample(range(n), n), rng.sample(range(n), n)
    s1, s2 = [rng.choice((-1, 1)) for _ in range(n)], [rng.choice((-1, 1)) for _ in range(n)]
    d = [Fraction(2), Fraction(1, 2)] + [Fraction(1)] * (n - 2) if scale else [Fraction(1)] * n
    M = [[min(i, j) + 1 for j in range(n)] for i in range(n)]
    Minv = [[2 if i == j < n - 1 else 1 if i == j else -1 if abs(i - j) == 1 else 0
             for j in range(n)] for i in range(n)]
    P = [[F.coerce(d[i] * s1[i] * M[p1[i]][p2[j]] * s2[j]) for j in range(n)] for i in range(n)]
    Pinv = [[F.coerce(s2[j] * Minv[p2[j]][p1[i]] * s1[i] / d[i]) for i in range(n)] for j in range(n)]
    products = {}
    for a in range(n):
        for b in range(a + 1, n):
            v = alg.bracket(P[a], P[b])
            products[(a, b)] = {
                c: reduce(F.add, (F.mul(v[k], Pinv[k][c]) for k in range(n))) for c in range(n)
            }
    return Algebra(F, n, [f"f{i}" for i in range(n)], products)


def diagonally_scaled(alg, scales):
    """``alg`` in the basis f_i = s_i e_i, whose constants are c s_i s_j / s_k:
    the grading and the sparsity of the products are kept."""
    from deltader.algebras import Algebra

    F = alg.field
    products = {
        (i, j): {k: F.div(F.mul(c, F.mul(scales[i], scales[j])), scales[k]) for k, c in terms.items()}
        for (i, j), terms in alg.products.items()
    }
    return Algebra(F, alg.dim, alg.basis, products, alg.flavor, alg.grading)


def _int_prem(f, g):
    """(r, s): the pseudo-remainder r = lc(g)^s f - q g of integer
    polynomials (low degree first), with s the number of steps taken."""
    r, s = list(f), 0
    while len(r) >= len(g):
        c, shift = r[-1], len(r) - len(g)
        r = [g[-1] * x for x in r]
        for i, y in enumerate(g):
            r[shift + i] -= c * y
        s += 1
        while r and not r[-1]:
            r.pop()
    return r, s


def _int_primitive(f):
    """f times a positive rational: coprime integer coefficients, same signs."""
    den = math.lcm(*(Fraction(c).denominator for c in f))
    ints = [int(Fraction(c) * den) for c in f]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _int_sign_at(f, y, q):
    """Sign of f(y/q) for q > 0, from the integer q^deg f(y/q)."""
    acc, qk = f[-1], 1
    for c in reversed(f[:-1]):
        qk *= q
        acc = acc * y + c * qk
    return (acc > 0) - (acc < 0)


def sturm_rational_roots(f):
    """Distinct rational roots of f (coefficients low degree first, the
    last nonzero, degree >= 1) by Sturm bisection in integers.

    The squarefree part is f over gcd(f, f'), taken by the primitive
    pseudo-remainder sequence and an exact division.  Each Sturm step is the
    primitive pseudo-remainder times the sign of lc^steps, that is minus the
    remainder over Q times a positive number, so the chain is the classical
    one made primitive.  On the primitive squarefree part, every rational
    root x satisfies lead * x = y for an integer y, so the Sturm counts of
    roots in (a/lead, b/lead] are bisected over integer a < b down to
    b - a = 1, where the only candidate left is y = b.
    """
    f = _int_primitive(f)

    def derivative(g):
        return _int_primitive([k * c for k, c in enumerate(g)][1:])

    g, h = f, derivative(f)
    while h:
        r = _int_prem(g, h)[0]
        g, h = h, _int_primitive(r) if r else []
    # f / g, exact in integers
    r, quo = list(f), [0] * (len(f) - len(g) + 1)
    for shift in range(len(quo) - 1, -1, -1):
        c = quo[shift] = r[shift + len(g) - 1] // g[-1]
        for i, y in enumerate(g):
            r[shift + i] -= c * y
    f = quo
    lead = abs(f[-1])
    seq = [f, derivative(f)]
    while len(seq[-1]) > 1:
        rem, steps = _int_prem(seq[-2], seq[-1])
        sign = -1 if seq[-1][-1] < 0 and steps % 2 else 1
        seq.append([-sign * c for c in _int_primitive(rem)])

    def variations(y):
        signs = [s for s in (_int_sign_at(g, y, lead) for g in seq) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # Cauchy: every root x has |lead * x| < lead + max |coefficient|
    m = lead + max(abs(c) for c in f)
    roots, todo = [], [(-m, variations(-m), m, variations(m))]
    while todo:
        a, va, b, vb = todo.pop()
        if va == vb:
            continue
        if b - a == 1:
            if _int_sign_at(f, b, lead) == 0:
                roots.append(Fraction(b, lead))
            continue
        c = (a + b) // 2
        vc = variations(c)
        todo += [(a, va, c, vc), (c, vc, b, vb)]
    return sorted(roots)


def int_det(m):
    """Determinant of a square integer matrix (consumed) by fraction-free
    (Bareiss) elimination: every division is exact, and each row swap
    flips the sign."""
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        i = next((i for i in range(k, n) if m[i][k]), None)
        if i is None:
            return 0
        if i != k:
            m[k], m[i] = m[i], m[k]
            sign = -sign
        top = m[k][k + 1 :]
        p = m[k][k]
        for i in range(k + 1, n):
            row, a = m[i], m[i][k]
            if a:
                row[k + 1 :] = [(p * x - a * y) // prev for x, y in zip(row[k + 1 :], top)]
            else:
                row[k + 1 :] = [p * x // prev for x in row[k + 1 :]]
        prev = p
    return sign * prev


def _integer_entries(entries):
    """Pencil entries (coefficient lists over Q, or plain ints) times the
    lcm of all their denominators: integers in the same ratios."""
    entries = list(entries)
    den = math.lcm(*(c.denominator for f in entries for c in f))
    return [[c.numerator * (den // c.denominator) for c in f] for f in entries]


def interpolated_pencil_det(square):
    """det(A + tB), as integer coefficients low-degree-first ([] if it
    vanishes), for a square of integer pencil entries [], [a] or [a, b],
    that is a + b t.

    The determinant has degree at most k, the number of rows with a t term,
    so its integer values at t = 0..k, from ``int_det``, determine it:
    with D^j the j-th forward difference of those values at t = 0,
    k! det(t) = sum_j D^j (k! / j!) t (t - 1) ... (t - j + 1), all in
    integers (Newton interpolation), and one exact division by k! leaves
    det(t).  Reduced mod p it is the determinant of the residues over
    GF(p), for any k.
    """
    rows, k = [], 0
    for row in square:
        a = [f[0] if f else 0 for f in row]
        b = [f[1] if len(f) > 1 else 0 for f in row]
        k += any(b)
        rows.append((a, b))
    values = [int_det([[x + t * y for x, y in zip(a, b)] for a, b in rows]) for t in range(k + 1)]
    diffs = []
    for _ in range(k + 1):
        diffs.append(values[0])
        values = [y - x for x, y in zip(values, values[1:])]
    # Horner's scheme in the falling factorials: c_j + (t - j)(c_(j+1) + ...),
    # with c_j = D^j k! / j!, so that scale ends at k!
    det, scale = [diffs[k]], 1
    for j in range(k - 1, -1, -1):
        scale *= j + 1
        det = [x - j * y for x, y in zip([0] + det, det + [0])]
        det[0] += diffs[j] * scale
    det = [x // scale for x in det]
    while det and not det[-1]:
        det.pop()
    return det
