"""Shared helpers: an independent dense nullspace oracle.

The oracle deliberately avoids the package's sparse elimination and its
structure-constant index manipulation: it evaluates the defining law of a
derivation-type map on elementary matrices via ``bracket``/``apply`` and
runs a plain dense Gaussian elimination written here.
"""

from __future__ import annotations

from deltader.linmap import LinearMap


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
        mat[r] = [F.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not F.is_zero(mat[i][c]):
                f = mat[i][c]
                mat[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(mat[i], mat[r])]
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


def elementary_map(field, n, k, l):
    rows = [[field.zero()] * n for _ in range(n)]
    rows[k][l] = field.one()
    return LinearMap(field, rows)


def derivation_defect(alg, D, delta, units, products):
    """Concatenated defect D([e_i,e_j]) - delta([D e_i, e_j] + [e_i, D e_j])
    over all ordered pairs (i, j), given the unit vectors and the products
    ``products[i][j] = bracket(e_i, e_j)``."""
    F = alg.field
    images = [D.apply(e) for e in units]
    out = []
    for i, ei in enumerate(units):
        for j, ej in enumerate(units):
            lhs = D.apply(products[i][j])
            t1 = alg.bracket(images[i], ej)
            t2 = alg.bracket(ei, images[j])
            for a, b, c in zip(lhs, t1, t2):
                out.append(F.sub(a, F.mul(delta, F.add(b, c))))
    return out


def oracle_delta_derivations(alg, delta):
    """Independent computation of Der_delta: nullspace of the defect map on
    elementary matrices.  Returns a list of flat n^2 coefficient vectors."""
    F = alg.field
    n = alg.dim
    units = [alg.unit_vector(i) for i in range(n)]
    products = [[alg.bracket(ei, ej) for ej in units] for ei in units]
    cols = []
    for k in range(n):
        for l in range(n):
            cols.append(derivation_defect(alg, elementary_map(F, n, k, l), delta, units, products))
    # transpose: equations are rows.  Zero rows add nothing, and neither does
    # a row that is a multiple of another (for an anticommutative algebra the
    # (j, i) equations are the negatives of the (i, j) ones), so each row is
    # scaled to lead with 1 and only the first of equal rows kept.
    rows = {}
    for r in range(len(cols[0])):
        row = [cols[c][r] for c in range(n * n)]
        lead = next((x for x in row if not F.is_zero(x)), None)
        if lead is not None:
            inv = F.inv(lead)
            rows.setdefault(tuple(F.mul(inv, x) for x in row))
    return dense_gauss_nullspace(F, list(rows), n * n)


def spans_equal(field, vecs_a, vecs_b):
    from deltader.linalg import same_span

    return same_span(list(vecs_a), list(vecs_b), field)
