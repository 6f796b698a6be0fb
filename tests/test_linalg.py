import random
from fractions import Fraction

from deltader.fields import PrimeField, Rationals, poly_mul
from deltader.linalg import (
    SpanSolver,
    base_field_roots,
    charpoly,
    dense_nullspace,
    fraction_free_pivots,
    kernel_of_map,
    rref_dense,
    same_span,
    sparse_rank,
)

from conftest import dense_gauss_nullspace


def random_matrix(F, rng, nrows, ncols):
    return [[F.sample(rng) for _ in range(ncols)] for _ in range(nrows)]


def test_nullspace_matches_textbook_gauss():
    rng = random.Random(3)
    for F in (Rationals(), PrimeField(7)):
        for _ in range(25):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            mat = random_matrix(F, rng, nr, nc)
            ours = dense_nullspace(mat, F)
            ref = dense_gauss_nullspace(F, mat, nc)
            assert len(ours) == len(ref)
            assert same_span(ours, ref, F)
            # every basis vector actually solves the system
            for v in ours:
                for row in mat:
                    s = F.zero()
                    for a, b in zip(row, v):
                        s = F.add(s, F.mul(a, b))
                    assert F.is_zero(s)


def test_rank_nullity():
    rng = random.Random(4)
    F = PrimeField(11)
    for _ in range(20):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        mat = random_matrix(F, rng, nr, nc)
        sparse = [
            {j: c for j, c in enumerate(row) if not F.is_zero(c)} for row in mat
        ]
        assert sparse_rank(sparse, F) + len(dense_nullspace(mat, F)) == nc


def test_span_solver_coordinates():
    F = Rationals()
    rng = random.Random(5)
    vecs = [[F.sample(rng) for _ in range(5)] for _ in range(3)]
    span = SpanSolver(F, vecs)
    # random combination is recovered exactly
    coeffs = [Fraction(2), Fraction(-1, 3), Fraction(7)]
    target = [F.zero()] * 5
    for c, v in zip(coeffs, vecs):
        target = [F.add(t, F.mul(c, x)) for t, x in zip(target, v)]
    got = span.coordinates(target)
    assert got is not None
    recon = [F.zero()] * 5
    for c, v in zip(got, vecs):
        recon = [F.add(t, F.mul(c, x)) for t, x in zip(recon, v)]
    assert recon == target
    # a dependent insertion changes neither the span nor its canonical basis
    assert not span.add([F.add(a, b) for a, b in zip(vecs[0], vecs[1])])
    assert span.dim == 3 and span.basis() == rref_dense(vecs, F)
    assert span.coordinates(target) == got + [F.zero()]


def test_rref_canonical():
    F = Rationals()
    a = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]]
    b = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    assert rref_dense(a, F) == rref_dense(b, F) or same_span(
        rref_dense(a, F), rref_dense(b, F), F
    )
    # same span in different presentation -> identical canonical bases
    c = [[Fraction(3), Fraction(7)], [Fraction(5), Fraction(11)]]
    d = [[Fraction(8), Fraction(18)], [Fraction(-2), Fraction(-4)]]
    assert rref_dense(c, F) == rref_dense(d, F)


def test_charpoly_and_roots():
    F = Rationals()
    # companion-style matrix with eigenvalues 1, 2, 3
    mat = [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(2), Fraction(0)],
        [Fraction(5), Fraction(0), Fraction(3)],
    ]
    cp = charpoly(F, mat)
    assert cp == [Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)]
    roots = base_field_roots(F, cp)
    assert sorted(roots) == [Fraction(1), Fraction(2), Fraction(3)]


def product(F, factors):
    f = [F.one()]
    for g in factors:
        f = poly_mul(F, f, [Fraction(c) for c in g])
    return f


def test_rational_roots_large_coefficients():
    # (5x - 6)(2x - 1)^2 (x^2 + 2^80 + 1): an 80-bit constant term, a double
    # root and an irreducible quadratic
    F = Rationals()
    f = product(F, [[-6, 5], [-1, 2], [-1, 2], [2**80 + 1, 0, 1]])
    assert base_field_roots(F, f) == [Fraction(1, 2), Fraction(6, 5)]


def test_rational_roots_seeded_products():
    F = Rationals()
    rng = random.Random(20261018)
    for _ in range(40):
        roots = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(rng.randint(0, 5))]
        factors = [[-r.numerator, r.denominator] for r in roots for _ in range(rng.randint(1, 2))]
        # x^2 - 2 and x^2 + 1 + a have no rational root
        factors.append(rng.choice([[-2, 0, 1], [1 + rng.randint(0, 2**40), 0, 1]]))
        scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 99))
        f = [c * scale for c in product(F, factors)]
        assert base_field_roots(F, f) == sorted(set(roots))


def test_charpoly_gfp():
    F = PrimeField(5)
    mat = [[F.coerce(2), F.zero()], [F.zero(), F.coerce(3)]]
    roots = base_field_roots(F, charpoly(F, mat))
    assert sorted(roots) == [2, 3]


def test_kernel_of_map():
    F = Rationals()
    rows = [
        [Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(0)],
    ]  # e0 -> e1, e1 -> 0 (row convention)
    ker = kernel_of_map(rows, F)
    assert len(ker) == 1 and ker[0] == [Fraction(0), Fraction(1)]


def test_fraction_free_pivots_parametric():
    # rows with entries c0 + c1 * s: the matrix [[s, 1], [1, s]] has generic
    # rank 2 and drops rank exactly at s = 1 and s = -1
    F = Rationals()
    rows = [
        [[Fraction(0), Fraction(1)], [Fraction(1)]],
        [[Fraction(1)], [Fraction(0), Fraction(1)]],
    ]
    rank, pivots = fraction_free_pivots(F, rows, 2)
    assert rank == 2
    roots = set()
    for piv in pivots:
        roots.update(base_field_roots(F, piv))
    assert {Fraction(1), Fraction(-1)} <= roots
