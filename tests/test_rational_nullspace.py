"""Nullspaces over Q by integer elimination against fraction arithmetic.

``sparse_rref`` over Q pins and splits the system into blocks as over any
field; ``linalg._rref`` eliminates each block by fraction-free
Gauss-Jordan elimination of its rows scaled to integers, and
``sparse_nullspace`` reads its basis off that RREF.  The reference
nullspace here is the textbook dense Gauss-Jordan elimination of
``conftest`` in ``Fraction`` arithmetic; the two bases must be equal, not
merely span the same space.  The hand-made systems are rank-deficient or
move a pivot modulo a large prime, or have entries of 80 bits; the drawn
ones add large numerators and denominators, dependent rows, explicit
zeros, empty rows and direct sums of blocks.  ``_rref`` over Q is also
compared, RREF and chosen rows, with the incremental field step
(``_eliminate`` and ``_add_pivot`` in ``Fraction`` arithmetic) on drawn
dense blocks.  Where sympy is installed, its ``Matrix.nullspace`` is a
second reference.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deltader import linalg
from deltader.fields import Rationals
from deltader.linalg import dense_nullspace, kernel_of_map, sparse_nullspace

from conftest import dense_gauss_nullspace, dense_vectors

Q = Rationals()
P1 = 2**31 - 1  # the largest prime below 2**31


def nullspace(rows, ncols):
    """``sparse_nullspace`` over Q, its sparse vectors written out dense."""
    return dense_vectors(Q, sparse_nullspace(rows, ncols, Q), ncols)


def fraction_nullspace(rows, ncols):
    dense = [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]
    return dense_gauss_nullspace(Q, dense, ncols)


def fraction_rref(rows):
    """The RREF of the rows and the indices of the rows that became pivots,
    from the incremental field step in ``Fraction`` arithmetic."""
    pivots, chosen = {}, []
    for k, row in enumerate(rows):
        row = {c: v for c, v in row.items() if v}
        linalg._eliminate(row, pivots, Q)
        if row:
            linalg._add_pivot(row, pivots, Q)
            chosen.append(k)
    return pivots, chosen


def rows_of(*dense):
    return [{c: Fraction(v) for c, v in enumerate(row) if v} for row in dense]


# Systems that are singular, or move a pivot, modulo the large primes p1 and
# p2: an elimination that reduced modulo a prime would go wrong on them.


def test_rank_deficient_mod_first_prime():
    # rank 2 over Q, rank 1 mod p1
    rows = rows_of([1, 1, 0], [1, 1 + P1, 0])
    assert nullspace(rows, 3) == fraction_nullspace(rows, 3) == [[0, 0, 1]]


def test_full_rank_over_q_rank_deficient_mod_first_prime():
    rows = rows_of([1, 1], [1, 1 + P1])
    assert nullspace(rows, 2) == fraction_nullspace(rows, 2) == []


def test_pivot_column_moves_mod_first_prime():
    # over Q the pivot is column 0 and the kernel (-1/p1, 1); mod p1 the
    # pivot is column 1 and the kernel e0
    rows = rows_of([P1, 1])
    assert nullspace(rows, 2) == fraction_nullspace(rows, 2) == [[Fraction(-1, P1), 1]]
    rows = rows_of([P1, 1, 0, 3], [0, 0, P1, 1])
    assert nullspace(rows, 4) == fraction_nullspace(rows, 4)


def test_two_block_system():
    # the block [P1, 1] beside the block [1, 2], each eliminated on its own
    rows = rows_of([P1, 1, 0, 0], [0, 0, 1, 2])
    assert nullspace(rows, 4) == fraction_nullspace(rows, 4) == [
        [Fraction(-1, P1), 1, 0, 0],
        [0, 0, -2, 1],
    ]


def test_unlucky_prime_after_a_lucky_one():
    # p1 fixes the pivot list; p2 moves the pivot
    p2 = 2147483629
    rows = rows_of([p2, 1, 1], [0, 0, 2])
    assert nullspace(rows, 3) == fraction_nullspace(rows, 3) == [[Fraction(-1, p2), 1, 0]]


def test_entries_of_80_bits():
    big = 2**80
    rows = [
        {0: Fraction(big + 1), 1: Fraction(3**50, 7), 3: Fraction(-1)},
        {1: Fraction(big - 1, big + 3), 2: Fraction(5)},
        {0: Fraction(1, big), 2: Fraction(big * 3 + 1), 3: Fraction(2)},
    ]
    basis = nullspace(rows, 5)
    assert basis == fraction_nullspace(rows, 5)
    assert max(abs(x.numerator) for v in basis for x in v) > 2**100


def test_degenerate_systems():
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert nullspace([], 3) == identity
    assert nullspace([{}, {1: Fraction(0)}], 3) == identity
    assert nullspace([], 0) == nullspace([{}], 0) == []
    assert dense_nullspace([[Fraction(0)] * 3] * 2, Q) == identity
    assert kernel_of_map([], Q) == []


# numerators and denominators, small and of 64 to 80 bits, and p1 itself
NUMERATORS = st.one_of(
    st.integers(-4, 4), st.integers(-(2**80), 2**80), st.sampled_from([P1, -P1, 2 * P1, 2**64 + 13])
)
DENOMINATORS = st.sampled_from([1, 1, 1, 2, 3, 7, P1, 2**64 + 13, 3**50])


@st.composite
def one_system(draw):
    ncols = draw(st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        cols = draw(st.lists(st.integers(0, ncols - 1), unique=True, max_size=4))
        rows.append({c: Fraction(draw(NUMERATORS), draw(DENOMINATORS)) for c in cols})
    # a row that repeats a combination of the others keeps the rank low
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(st.sampled_from([(1, 1), (2, -3), (P1, 1)]))
        rows.append({c: a * rows[0].get(c, 0) + b * rows[1].get(c, 0) for c in rows[0].keys() | rows[1].keys()})
    return rows, ncols


@st.composite
def rational_systems(draw):
    rows, ncols = draw(one_system())
    # a direct sum on disjoint columns, eliminated block by block
    if draw(st.booleans()):
        more, extra = draw(one_system())
        rows += [{ncols + c: v for c, v in row.items()} for row in more]
        ncols += extra
    return rows, ncols


@settings(derandomize=True, deadline=None, max_examples=150)
@given(rational_systems())
def test_random_systems_match_fraction_elimination(system):
    rows, ncols = system
    assert nullspace(rows, ncols) == fraction_nullspace(rows, ncols)


@st.composite
def dense_blocks(draw):
    """Up to 10 x 12, with explicit zero entries and empty rows, and a last
    row that may repeat a combination of the first two."""
    ncols = draw(st.integers(1, 12))
    entry = st.one_of(st.just(None), st.just(0), st.builds(Fraction, NUMERATORS, DENOMINATORS))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        values = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        rows.append({c: Fraction(v) for c, v in enumerate(values) if v is not None})
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(st.sampled_from([(1, 1), (2, -3), (Fraction(1, 3**50), P1)]))
        rows.append({c: Fraction(a * rows[0].get(c, 0) + b * rows[1].get(c, 0)) for c in range(ncols)})
    return rows


@settings(derandomize=True, deadline=None, max_examples=200)
@given(dense_blocks())
def test_integer_rref_matches_fraction_rref(rows):
    assert linalg._rref(rows, Q) == fraction_rref(rows)


def test_random_systems_match_sympy():
    sympy = pytest.importorskip("sympy")

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(rational_systems())
    def check(system):
        rows, ncols = system
        entries = [sympy.Rational(x.numerator, x.denominator) for row in rows for x in (row.get(c, 0) for c in range(ncols))]
        kernel = sympy.Matrix(len(rows), ncols, entries).nullspace()
        assert nullspace(rows, ncols) == [[Fraction(int(x.p), int(x.q)) for x in v] for v in kernel]

    check()
