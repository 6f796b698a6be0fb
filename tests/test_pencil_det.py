"""Pencil determinants modulo word-size primes, the integer root search and charpoly.

``solver._block_spectrum`` and ``linalg.charpoly`` take the determinant of
a square pencil A + t B, its rows scaled to integers, from
``linalg._pencil_det``: at a point c where S(c) = A + cB is nonsingular,
det S(t) = det S(c) det(I + (t - c) S(c)^-1 B), the second factor read off
the characteristic polynomial of S(c)^-1 B by Hessenberg reduction, in one
pass mod p over GF(p) and, over Q, in passes mod 62-bit primes combined by
the Chinese remainder theorem up to a Hadamard bound.  The references here
are independent of that route: the interpolation of integer determinants
at t = 0..k in ``conftest`` (``interpolated_pencil_det``), and one-step
fraction-free (Bareiss) elimination over Q[t] or GF(p)[t] of the same
square, whose last pivot is the determinant up to a constant where the
square is nonsingular; the determinant of the scaled rows is checked
exactly against a ``Fraction`` determinant at rational points.  The
squares are drawn over Q and over GF(7), GF(11), GF(101) and
GF(2^31 - 1); a pass whose prime divides det S(c) moves on to the next
point.  ``charpoly`` over GF(p) is checked for n >= p too, and its pass
mod p at p = 2 and 3 as well, which ``PrimeField`` refuses.
``base_field_roots`` over Q lifts the simple roots mod a small prime to
roots mod a power of it and reconstructs fractions from them, making f
squarefree first where every tried prime meets a multiple root; it is
checked on polynomials built from known linear factors and against the
Sturm bisection of conftest, on draws that take each branch.  Over GF(p)
the splitting of gcd(f, x^p - x) is checked against evaluation at every
point, and on planted roots over GF(1000003) and GF(2^31 - 1).  Neither the
parametric solver over Q nor ``charpoly`` over any field reaches Bareiss.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from deltader import linalg, solver
from deltader.algebras import (
    make_elduque4,
    make_osp12,
    make_special_linear,
    make_witt_type,
    make_zassenhaus,
)
from deltader.fields import PrimeField, Rationals, _is_prime, poly_mul, poly_trim
from deltader.linalg import (
    _pencil_det,
    base_field_roots,
    charpoly,
    fraction_free_pivots,
)
from deltader.solver import solve_parametric

from conftest import _integer_entries, interpolated_pencil_det, poly_eval, sturm_rational_roots

Q = Rationals()


def fraction_det(matrix):
    """Determinant of a square Fraction matrix by Gaussian elimination."""
    m = [list(row) for row in matrix]
    n, det = len(m), Fraction(1)
    for k in range(n):
        i = next((i for i in range(k, n) if m[i][k]), None)
        if i is None:
            return Fraction(0)
        if i != k:
            m[k], m[i] = m[i], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def monic(f):
    return [Fraction(c) / f[-1] for c in f]


big = st.builds(
    Fraction,
    st.integers(-(2**40), 2**40),
    st.one_of(st.just(1), st.integers(1, 10**6)),
)


@st.composite
def q_squares(draw):
    """A square of pencil entries [], [a] or [a, b] over Q, with r = 1..7:
    numerators up to 2^40 and denominators up to 10^6, some rows with no
    t term or none at all (k = 0), and singular squares with one row a
    multiple of another."""
    r = draw(st.integers(1, 7))
    constant = draw(st.booleans())
    nonzero = big.filter(bool)
    entry = st.one_of(
        st.just([]),
        st.builds(lambda a: [a], nonzero),
        st.builds(lambda a, b: [a, b], big, nonzero),
    )
    if constant:
        entry = st.one_of(st.just([]), st.builds(lambda a: [a], nonzero))
    square = [[draw(entry) for _ in range(r)] for _ in range(r)]
    if r > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(r)))[:2]
        c = draw(nonzero)
        square[i] = [[c * x for x in f] for f in square[j]]
    return square


@settings(derandomize=True, deadline=None, max_examples=300)
@given(q_squares(), st.integers(-3, 9))
@example([[[Fraction(1, 2), Fraction(1, 2)], [1]], [[1], [Fraction(1, 3), 1]]], 0)
@example([[[0, 1], [1]], [[1], [0, 1]]], 0)
def test_pencil_det_matches_last_bareiss_pivot(square, point):
    """``_pencil_det`` of the square's rows scaled to integers, from any
    first point, is the interpolated determinant of conftest, the last
    Bareiss pivot up to a constant, [] where the square is singular over
    Q[t], and the determinant of the scaled rows exactly."""
    r = len(square)
    ints = [_integer_entries(row) for row in square]
    det = _pencil_det(ints, point)
    assert all(isinstance(c, int) for c in det)
    assert det == interpolated_pencil_det(ints)
    rank, pivots = fraction_free_pivots(Q, square, r)
    if rank < r:
        assert det == []
        return
    assert monic(det) == monic(pivots[-1])
    k = sum(any(len(f) > 1 and f[1] for f in row) for row in square)
    assert len(det) - 1 <= k
    for t in (Fraction(1, 3), Fraction(-7, 2)):
        exact = fraction_det([[poly_eval(Q, f, t) for f in row] for row in ints])
        assert poly_eval(Q, det, t) == exact


@st.composite
def gf_squares(draw):
    """(p, square, point): a square of pencil entries [], [a] or [a, b] of
    residues over GF(7), GF(11), GF(101) or GF(2^31 - 1), r = 1..7, rows
    with no t term, singular squares with one row a multiple of another,
    and a first point anywhere in the field."""
    p = draw(st.sampled_from([7, 11, 101, 2**31 - 1]))
    r = draw(st.integers(1, 7))
    coef = st.one_of(st.sampled_from([1, p - 1]), st.integers(1, p - 1))
    entry = st.one_of(
        st.just([]),
        st.builds(lambda a: [a], coef),
        st.builds(lambda a, b: [a, b], st.one_of(st.just(0), coef), coef),
    )
    constant = st.one_of(st.just([]), st.builds(lambda a: [a], coef))
    no_t = draw(st.lists(st.booleans(), min_size=r, max_size=r))
    square = [[draw(constant if c else entry) for _ in range(r)] for c in no_t]
    if r > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(r)))[:2]
        c = draw(coef)
        square[i] = [[c * x % p for x in f] for f in square[j]]
    return p, square, draw(st.integers(0, p - 1))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(gf_squares())
# diag(t - a) over every a in GF(7): t^7 - t, which vanishes at every point
@example((7, [[[-a % 7, 1] if i == a else [] for i in range(7)] for a in range(7)], 3))
def test_gf_pencil_det_matches_oracles(drawn):
    """Over GF(p) ``_pencil_det`` is the interpolated integer determinant
    reduced mod p, and the last Bareiss pivot over GF(p)[t] up to a
    constant; where k >= p and the square is singular at every point of
    GF(p) it cannot be read off a point, and says so."""
    p, square, point = drawn
    F = PrimeField(p)
    want = [c % p for c in interpolated_pencil_det(square)]
    while want and not want[-1]:
        want.pop()
    if want and all(poly_eval(F, want, a) == 0 for a in range(p)):
        with pytest.raises(ArithmeticError):
            _pencil_det(square, point, p)
        return
    det = _pencil_det(square, point, p)
    assert det == want
    rank, pivots = fraction_free_pivots(F, square, len(square))
    if rank < len(square):
        assert det == []
    else:
        assert monic_mod(det, p) == monic_mod(pivots[-1], p)


def monic_mod(f, p):
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def test_pass_whose_prime_divides_det_moves_to_the_next_point(monkeypatch):
    """A first prime q that divides det S(c) leaves S(c) singular mod q:
    that pass moves on to c + 1, the other primes' passes stay at c, and
    the combined determinant is exact."""
    q = 1009
    # det S(t) = (q + t)(2 + 3t) - t^2, and det S(0) = 2 q
    square = [[[q, 1], [0, 1]], [[0, 1], [2, 3]]]
    word_primes, inverse_times = linalg._word_primes, linalg._inverse_times
    passes = []

    def primes():
        yield q
        yield from word_primes()

    def record(m, r, p):
        point = m[0][0] - square[0][0][0]
        det = inverse_times(m, r, p)
        passes.append((p, point % p, det))
        return det

    monkeypatch.setattr(linalg, "_word_primes", primes)
    monkeypatch.setattr(linalg, "_inverse_times", record)
    det = _pencil_det(square, 0)
    assert det == interpolated_pencil_det(square) == [2 * q, 3 * q + 2, 2]
    assert [(p, c, bool(d)) for p, c, d in passes[:3]] == [(q, 0, False), (q, 1, True), (next(word_primes()), 0, True)]


@st.composite
def small_prime_matrices(draw):
    """(p, M): p in {2, 3, 5} and a square matrix of residues of size 1 to
    p + 4, so that n >= p, with repeated and zero rows and scalar matrices."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, p + 4))
    if draw(st.booleans()):
        c = draw(st.integers(0, p - 1))
        return p, [[c * (i == j) for j in range(n)] for i in range(n)]
    matrix = [[draw(st.integers(0, p - 1)) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        matrix[i] = list(matrix[j]) if draw(st.booleans()) else [0] * n
    return p, matrix


def oracle_charpoly(matrix):
    """det(tI - M) of an integer matrix, from the interpolation oracle."""
    n = len(matrix)
    return interpolated_pencil_det([[[-matrix[i][j], 1] if i == j else [-matrix[i][j]] for j in range(n)] for i in range(n)])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(small_prime_matrices())
# n = 6 > p = 2: the identity, whose polynomial (t + 1)^6 has one root
@example((2, [[int(i == j) for j in range(6)] for i in range(6)]))
def test_charpoly_pass_mod_small_primes_matches_oracle(drawn):
    """The characteristic polynomial pass mod p, at p = 2, 3 and 5 and
    n >= p, is the integer one of conftest reduced mod p: the Hessenberg
    reduction divides by nothing but its pivots."""
    p, matrix = drawn
    want = [c % p for c in oracle_charpoly(matrix)]
    assert linalg._charpoly_mod([list(row) for row in matrix], p) == want
    if p == 5:
        assert charpoly(PrimeField(5), matrix) == want


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.lists(st.builds(Fraction, st.integers(-(2**40), 2**40), st.integers(1, 10**6)), min_size=n, max_size=n),
    min_size=n, max_size=n,
)))
def test_q_charpoly_matches_interpolated_oracle(matrix):
    """Over Q, with denominators, ``charpoly`` is the interpolated integer
    determinant of the row-scaled xI - M, made monic."""
    n = len(matrix)
    scaled = [_integer_entries([[-matrix[i][j], 1] if i == j else [-matrix[i][j]] for j in range(n)]) for i in range(n)]
    det = interpolated_pencil_det(scaled)
    assert charpoly(Q, matrix) == [Fraction(c, det[-1]) for c in det]


def test_q_charpoly_skips_a_prime_that_divides_a_row_denominator(monkeypatch):
    """A word prime q that divides the lcm D_i of a row's denominators
    leaves D_i M_i without an inverse scale mod q: ``charpoly`` skips q,
    passes on the next primes, and is still the interpolated determinant
    of the row-scaled xI - M, made monic."""
    q = 1009
    matrix = [
        [Fraction(3, q), Fraction(-5, 2 * q), Fraction(7)],
        [Fraction(1, 3), Fraction(2), Fraction(-4, 9)],
        [Fraction(6), Fraction(0), Fraction(11, 5)],
    ]
    word_primes, charpoly_mod = linalg._word_primes, linalg._charpoly_mod
    passes = []

    def primes():
        yield q
        yield from word_primes()

    def record(m, p):
        passes.append(p)
        return charpoly_mod(m, p)

    monkeypatch.setattr(linalg, "_word_primes", primes)
    monkeypatch.setattr(linalg, "_charpoly_mod", record)
    n = len(matrix)
    scaled = [_integer_entries([[-matrix[i][j], 1] if i == j else [-matrix[i][j]] for j in range(n)]) for i in range(n)]
    det = interpolated_pencil_det(scaled)
    assert charpoly(Q, matrix) == [Fraction(c, det[-1]) for c in det]
    assert passes and q not in passes


def from_factors(factors, scale):
    f = [Fraction(scale)]
    for g in factors:
        f = poly_mul(Q, f, [Fraction(c) for c in g])
    return f


rationals = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**4))


@st.composite
def rational_polys(draw):
    """(f, its distinct rational roots): linear factors with multiplicity 1
    to 3, maybe a root at 0, maybe an irreducible quadratic x^2 + c with c
    up to 2^80, and a leading coefficient of either sign."""
    roots = draw(st.lists(rationals, max_size=4, unique=True))
    if draw(st.booleans()):
        roots = roots + [Fraction(0)] if 0 not in roots else roots
    factors = [[-x.numerator, x.denominator] for x in roots for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        factors.append([draw(st.integers(1, 2**80)), 0, 1])
    if not factors:
        factors.append([draw(st.integers(1, 2**80)), 0, 1])
    scale = draw(st.builds(Fraction, st.integers(1, 99), st.integers(1, 99)))
    if draw(st.booleans()):
        scale = -scale
    return from_factors(factors, scale), sorted(roots)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(rational_polys())
# -x (x - 2) (x + 2): its first Sturm pseudo-remainder takes one step by a
# divisor with a negative leading coefficient
@example((from_factors([[0, 1], [-2, 1], [2, 1]], -1), [Fraction(-2), Fraction(0), Fraction(2)]))
def test_rational_roots_of_drawn_products(drawn):
    f, roots = drawn
    assert base_field_roots(Q, f) == roots


@st.composite
def lifting_polys(draw):
    """(f, its distinct rational roots), drawn so that each branch of the
    p-adic root search is taken: a root whose denominator 1155 = 3 5 7 11
    makes lc(f) a multiple of the first four odd primes; roots r and
    r + 105, one root mod 3, 5 and 7; roots of multiplicity 2 or 3, and 0
    of multiplicity above 1, which make f mod p have a multiple root at
    every p, so that f is made squarefree; the square of x^2 - 2, which has
    double roots mod 7; and a root at the bound, r/s = +-f(0)/lc(f), where
    every other factor is monic with constant term 1 or -1."""
    if draw(st.booleans()):
        r = draw(st.integers(-(2**70), 2**70).filter(bool))
        s = draw(st.integers(1, 2**70).filter(lambda s: math.gcd(r, s) == 1))
        units = draw(st.lists(st.sampled_from([[1, 1], [-1, 1], [1, 0, 1], [1, 1, 1], [1, 1, 0, 1]]), max_size=3))
        roots = {Fraction(r, s)} | {Fraction(-g[0]) for g in units if len(g) == 2}
        return from_factors([[-r, s]] + units, draw(st.sampled_from([1, -3]))), sorted(roots)
    mult = {}
    if draw(st.booleans()):
        r = draw(st.integers(-(10**6), 10**6).filter(lambda r: math.gcd(r, 1155) == 1))
        mult[Fraction(r, 1155 * draw(st.integers(1, 9)))] = 1
    if draw(st.booleans()):
        r = draw(st.integers(-1000, 1000))
        mult.update({Fraction(r): 1, Fraction(r + 105): 1})
    for x in draw(st.lists(rationals, max_size=3)):
        mult[x] = draw(st.integers(1, 3))
    if draw(st.booleans()):
        mult[Fraction(0)] = draw(st.integers(2, 4))
    factors = [[-x.numerator, x.denominator] for x, m in mult.items() for _ in range(m)]
    if draw(st.booleans()) or not factors:
        factors += [[-2, 0, 1], [-2, 0, 1]]
    return from_factors(factors, draw(rationals.filter(bool))), sorted(mult)


LIFTING_EXAMPLES = {
    # lc(f) = 1155, so the first four odd primes are passed over; 13 serves
    "lc 3 5 7 11": ([[-1, 1155], [2, 0, 1]], 13, False),
    # 4 and 109 meet mod 3, 5 and 7: f is made squarefree, and 11 serves
    "r and r + 105": ([[-4, 1], [-109, 1]], 11, True),
    "repeated roots": ([[-3, 2], [-3, 2], [5, 1], [5, 1], [5, 1]], 3, True),
    # 3 and 5 divide lc(f), and x^2 - 2 has the double roots 3 and 4 mod 7
    "(x^2 - 2)^2": ([[-1, 15], [-2, 0, 1], [-2, 0, 1]], 11, False),
    "0 of multiplicity 3": ([[0, 1], [0, 1], [0, 1], [-5, 1]], 3, False),
    # the root -(2^61 - 1)/6 meets -1 mod 5 and 1 mod 7
    "at the bound f(0)/lc": ([[2**61 - 1, 6], [-1, 0, 1]], 11, False),
    "at the bound -f(0)/lc": ([[-(2**61 - 1), 6], [1, 1, 1]], 5, False),
}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(lifting_polys())
def test_lifted_roots_match_sturm_bisection(drawn):
    """``base_field_roots`` over Q, by p-adic lifting, finds the roots that
    the Sturm bisection of conftest finds, and those the factors plant."""
    f, roots = drawn
    assert base_field_roots(Q, f) == sturm_rational_roots(f) == roots


@pytest.mark.parametrize("name", list(LIFTING_EXAMPLES))
def test_lifting_takes_each_branch(name, monkeypatch):
    """Each example lifts from the prime named, and is made squarefree
    only where that is named; its roots are those of the Sturm oracle."""
    factors, prime, squarefree = LIFTING_EXAMPLES[name]
    f = from_factors(factors, 1)
    served, squared = [], []
    lifting_prime, make_squarefree = linalg._lifting_prime, linalg._squarefree

    def record(g, tries=None):
        found = lifting_prime(g, tries)
        served.append(found and found[0])
        return found

    monkeypatch.setattr(linalg, "_lifting_prime", record)
    monkeypatch.setattr(linalg, "_squarefree", lambda g: squared.append(g) or make_squarefree(g))
    assert base_field_roots(Q, f) == sturm_rational_roots(f)
    assert (served[-1], bool(squared)) == (prime, squarefree)


# every prime that PrimeField takes, up to 211
SMALL_PRIMES = [p for p in range(5, 212) if _is_prime(p)]


@st.composite
def gf_polys(draw):
    """(p, f): p a prime from 5 to 211, f a product of linear factors, some
    repeated, and of a drawn polynomial, of degree 1 to 12 in all."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    planted = draw(st.lists(st.integers(0, p - 1), max_size=6))
    rest = draw(st.lists(st.integers(0, p - 1), min_size=0 if planted else 1, max_size=5))
    f = rest + [draw(st.integers(1, p - 1))]
    for r in planted + planted[:2]:
        f = poly_mul(PrimeField(p), f, [-r % p, 1])
    return p, f


@settings(derandomize=True, deadline=None, max_examples=300)
@given(gf_polys())
def test_split_roots_match_evaluation(drawn):
    """The splitting route finds the roots that evaluation at every point
    of GF(p) finds, below the prime where ``base_field_roots`` takes it,
    and so does ``base_field_roots``, which sweeps the field there."""
    p, f = drawn
    F = PrimeField(p)
    roots = [a for a in range(p) if not poly_eval(F, f, a)]
    assert linalg._split_roots(F, f) == roots
    assert base_field_roots(F, f) == roots


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.sampled_from([1000003, 2**31 - 1]).flatmap(
    lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p - 1), min_size=1, max_size=6), st.integers(1, p - 1))
))
def test_roots_in_large_prime_fields(drawn):
    """Planted roots over GF(1000003) and GF(2^31 - 1), some repeated,
    times x^2 - n c^2 for a non-residue n, which has no root."""
    p, roots, c = drawn
    F = PrimeField(p)
    n = next(n for n in range(2, p) if pow(n, p // 2, p) == p - 1)
    f = [-n * c * c % p, 0, 1]
    for r in roots + roots[:2]:
        f = poly_mul(F, f, [-r % p, 1])
    assert base_field_roots(F, f) == sorted(set(roots))


@st.composite
def q_matrices(draw):
    n = draw(st.integers(1, 8))
    value = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-(2**20), 2**20), st.integers(1, 100)),
    )
    return [[draw(value) for _ in range(n)] for _ in range(n)]


def bareiss_charpoly(F, matrix):
    """det(xI - M) made monic, from the last pivot of Bareiss elimination
    of xI - M over F[x], where it has full rank."""
    n = len(matrix)
    rows = [
        [poly_trim(F, [F.neg(c), F.from_int(i == j)]) for j, c in enumerate(row)]
        for i, row in enumerate(matrix)
    ]
    rank, pivots = fraction_free_pivots(F, rows, n)
    assert rank == n
    inv = F.inv(pivots[-1][-1])
    return [F.mul(inv, c) for c in pivots[-1]]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(q_matrices())
def test_charpoly_is_monic_last_bareiss_pivot(matrix):
    assert charpoly(Q, matrix) == bareiss_charpoly(Q, matrix)


@st.composite
def gf_matrices(draw):
    """(p, M): a square matrix over GF(p), p in {5, 7, 11}, of size n from 1
    to p + 3, so that n >= p, where k! = 0 mod p, is drawn too; with zero
    rows, repeated rows and scalar matrices, whose characteristic
    polynomials have repeated roots."""
    p = draw(st.sampled_from([5, 7, 11]))
    n = draw(st.integers(1, p + 3))
    kind = draw(st.sampled_from(["dense", "sparse", "scalar"]))
    if kind == "scalar":
        c = draw(st.integers(0, p - 1))
        return p, [[c * (i == j) for j in range(n)] for i in range(n)]
    value = st.integers(0, p - 1) if kind == "dense" else st.sampled_from([0, 0, 0, 1, p - 1])
    matrix = [[draw(value) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        matrix[i] = list(matrix[j]) if draw(st.booleans()) else [0] * n
    return p, matrix


@settings(derandomize=True, deadline=None, max_examples=80)
@given(gf_matrices())
# n = 7 >= p = 5, where rows 5 and 6 repeat rows 0 and 1
@example((5, [[(i * j + 1) % 5 for j in range(7)] for i in range(7)]))
def test_gf_charpoly_is_monic_last_bareiss_pivot(drawn):
    p, matrix = drawn
    F = PrimeField(p)
    assert charpoly(F, matrix) == bareiss_charpoly(F, matrix)


def test_q_spectra_and_charpoly_never_reach_bareiss(monkeypatch):
    def refuse(*args):
        raise AssertionError("fraction_free_pivots called")

    monkeypatch.setattr(linalg, "fraction_free_pivots", refuse)
    monkeypatch.setattr(solver, "fraction_free_pivots", refuse)
    for alg in (
        make_special_linear(2, Q),
        make_special_linear(3, Q),
        make_elduque4(Q),
        make_osp12(Q),
        make_witt_type(Q, range(5), modulus=5),
    ):
        solve_parametric(alg)
    assert charpoly(Q, [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == [-2, -5, 1]
    # over GF(p) too, for n >= p: ad e_0 of W(1,2) over GF(5) acts with the
    # roots 0..4, each five times, so its characteristic polynomial is
    # (x^5 - x)^5 = x^25 - x^5
    F = PrimeField(5)
    assert charpoly(F, make_zassenhaus(5, 2).ad(1).rows) == [0] * 5 + [4] + [0] * 19 + [1]
    assert charpoly(F, [[2, 1], [0, 3]]) == [1, 0, 1]
