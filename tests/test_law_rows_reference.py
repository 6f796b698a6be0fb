"""The assembler ``solver._law_rows`` against plain reference code.

The reference builds, for every equation pair and law, all n rows, the x
part first, and adds every right and left term into them one scalar at a
time, multiplying the law's coefficient into each structure constant and
dropping an entry as soon as a sum is zero.  The package multiplies each
coefficient in once per j or i and adds only where two terms meet.  Both
must give the same list of rows: same order, same entries, and values of
the same type.  Over Q the package works in ints: each of its rows is the
reference row times t D, where D is the lcm of the denominators of the
structure constants and t that of the laws' coefficients, and every entry
is an int.  The cases cover a column where the two sides cancel
(2 - 2 delta on sl2 at delta = 1), the super sign, the quasiderivation and
centroid layouts, the diagonal pairs of an associative algebra, those
that the centroid's laws add to a Lie algebra and to a superalgebra's
even basis vectors, a semidirect sum, a quotient ring, a zero divisor
whose multiples vanish, and constants with denominators.

Given a pin set, the assembler must still yield every row it builds, in
the reference's order; it skips only the one-entry unit rows c x_kl that
it never builds, and puts their columns in the set.
"""

import math
from fractions import Fraction

import pytest

from deltader.algebras import (
    Algebra,
    ModuleAction,
    make_divided_powers,
    make_osp12,
    make_semidirect,
    make_special_linear,
    make_zassenhaus,
)
from deltader.fields import PrimeField, QuotientRing, Rationals
from deltader.linmap import LinearMap
from deltader.solver import _equation_pairs, _law_rows, _pointwise_rows, is_delta_derivation

from conftest import rebased

Q = Rationals()
SQRT2 = QuotientRing(Q, [-2, 0, 1])  # Q[t]/(t^2 - 2)
T2 = QuotientRing(Q, [0, 0, 1])  # Q[t]/(t^2): t is a zero divisor


def ref_law_rows(alg, laws, parity=0, x_offset=0):
    F = alg.field
    n = alg.dim

    def acc(row, col, val):
        nv = F.add(row.get(col, F.zero()), val)
        if F.is_zero(nv):
            row.pop(col, None)
        else:
            row[col] = nv

    out = []
    for i, j in _equation_pairs(alg, laws):
        for a, b in laws:
            rows = [{} for _ in range(n)]
            for k, c in alg.product(i, j).items():
                for l in range(n):
                    rows[l][x_offset + k * n + l] = c
            # - a D(e_i) e_j: D(e_i) = sum_k d_ik e_k
            for k in range(n):
                for l, c in alg.product(k, j).items():
                    acc(rows[l], i * n + k, F.mul(F.neg(a), c))
            # - b (-1)^(parity deg e_i) e_i D(e_j)
            sign_b = b if parity and alg.grading[i] else F.neg(b)
            for k in range(n):
                for l, c in alg.product(i, k).items():
                    acc(rows[l], j * n + k, F.mul(sign_b, c))
            out.extend(row for row in rows if row)
    return out


def typed(rows):
    return [{c: (type(v), v) for c, v in row.items()} for row in rows]


def lowered(alg, laws, rows):
    """The reference rows as the assembler writes them: over Q each row
    times t D, in ints; over any other field the rows themselves."""
    if not isinstance(alg.field, Rationals):
        return rows
    D = math.lcm(*(c.denominator for terms in alg.products.values() for c in terms.values()))
    t = math.lcm(*(c.denominator for law in laws for c in law))
    scaled = [{c: t * D * v for c, v in row.items()} for row in rows]
    assert all(v.denominator == 1 for row in scaled for v in row.values())
    return [{c: int(v) for c, v in row.items()} for row in scaled]


def heisenberg_t2():
    """e0 e1 = t e2 over Q[t]/(t^2): with delta = t every multiple t * t of
    a structure constant vanishes."""
    return Algebra(T2, 3, ["x", "y", "z"], {(0, 1): {2: T2.t}})


def sl3_adjoint():
    sl3 = make_special_linear(3, Q)
    return make_semidirect(sl3, ModuleAction.adjoint(sl3))


ALGEBRAS = {
    "sl2/Q": lambda: make_special_linear(2, Q),
    "osp12/GF7": lambda: make_osp12(PrimeField(7)),
    "W11/GF5": lambda: make_zassenhaus(5, 1),
    "O1/GF5": lambda: make_divided_powers(5, 1),
    "sl3+ad/Q": sl3_adjoint,
    "sl2/Q[t]/(t^2-2)": lambda: make_special_linear(2, SQRT2),
    "heis/Q[t]/(t^2)": heisenberg_t2,
    # constants with the denominators 2 and 4: D = 4
    "sl2-scaled/Q": lambda: rebased(make_special_linear(2, Q), 5, scale=True),
}

# (algebra, delta or the layout, parity)
CASES = [
    ("sl2/Q", 1, 0),
    ("sl2/Q", Fraction(1, 2), 0),
    ("sl2/Q", "quasi", 0),
    ("sl2/Q", "centroid", 0),
    ("osp12/GF7", 1, 1),
    ("osp12/GF7", 4, 1),
    ("osp12/GF7", 4, 0),
    ("osp12/GF7", "centroid", 1),
    ("osp12/GF7", "quasi", 1),
    ("W11/GF5", 3, 0),
    ("W11/GF5", "quasi", 0),
    ("O1/GF5", 1, 0),
    ("O1/GF5", "centroid", 0),
    ("sl3+ad/Q", Fraction(1, 2), 0),
    ("sl3+ad/Q", 1, 0),
    ("sl2/Q[t]/(t^2-2)", 1, 0),
    ("sl2/Q[t]/(t^2-2)", "t", 0),
    ("sl2/Q[t]/(t^2-2)", "centroid", 0),
    ("heis/Q[t]/(t^2)", "t", 0),
    ("heis/Q[t]/(t^2)", "quasi", 0),
    ("sl2-scaled/Q", Fraction(-5, 7), 0),
    ("sl2-scaled/Q", "centroid", 0),
    ("sl2-scaled/Q", "quasi", 0),
]


@pytest.mark.parametrize("name,delta,parity", CASES, ids=[f"{a}-{d}-q{q}" for a, d, q in CASES])
def test_law_rows_match_reference(name, delta, parity):
    alg = ALGEBRAS[name]()
    F = alg.field
    one, zero = F.one(), F.zero()
    kwargs = {}
    if delta == "centroid":
        laws = [(one, zero), (zero, one)]
    elif delta == "quasi":
        laws, kwargs = [(one, one)], {"x_offset": alg.dim**2}
    else:
        d = F.t if delta == "t" else F.coerce(delta)
        laws = [(d, d)]
    got = list(_law_rows(alg, laws, parity, **kwargs))
    assert typed(got) == typed(lowered(alg, laws, ref_law_rows(alg, laws, parity, **kwargs)))


def test_cancelling_column_is_dropped():
    """On sl2 = <e, f, h>, [e, h] = -2e, so the row of the pair (e, h) at
    the e coordinate holds -2 d_ee from D([e, h]) and 2 delta d_ee from
    -delta [D(e), h]: at delta = 1 column e n + e cancels and must be left
    out, and so must f n + f in the row of (f, h)."""
    alg = ALGEBRAS["sl2/Q"]()
    n = alg.dim
    one = list(_law_rows(alg, [(Q.one(), Q.one())]))
    third = list(_law_rows(alg, [(Fraction(1, 3), Fraction(1, 3))]))
    assert len(one) == len(third)
    cancelled = [b.keys() - a.keys() for a, b in zip(one, third)]
    assert sorted(c for cols in cancelled for c in cols) == [0 * n + 0, 1 * n + 1]
    assert all(v != 0 for row in one for v in row.values())


def case_laws(alg, delta):
    """The laws and layout of a case of ``CASES``."""
    F = alg.field
    one, zero = F.one(), F.zero()
    if delta == "centroid":
        return [(one, zero), (zero, one)], {}
    if delta == "quasi":
        return [(one, one)], {"x_offset": alg.dim**2}
    d = F.t if delta == "t" else F.coerce(delta)
    return [(d, d)], {}


def is_unit_row(F, row):
    return len(row) == 1 and F.is_unit(*row.values())


@pytest.mark.parametrize("name,delta,parity", CASES, ids=[f"{a}-{d}-q{q}" for a, d, q in CASES])
def test_pin_set_takes_the_one_entry_unit_rows(name, delta, parity):
    """Given a pin set, the assembler yields the reference's rows in order,
    with some rows skipped: each skipped row is a one-entry unit row c x_kl,
    k the one term of some pair's product, and the skipped rows' columns
    are exactly the pin set."""
    alg = ALGEBRAS[name]()
    F = alg.field
    n = alg.dim
    laws, kwargs = case_laws(alg, delta)
    x_offset = kwargs.get("x_offset", 0)
    pinned = set()
    got = typed(_law_rows(alg, laws, parity, pinned=pinned, **kwargs))
    ref = lowered(alg, laws, ref_law_rows(alg, laws, parity, **kwargs))
    targets = {k for i, j in _equation_pairs(alg, laws) if len(p := alg.product(i, j)) == 1 for k in p}
    skipped, at = set(), 0
    for row in ref:
        if at < len(got) and typed([row]) == got[at : at + 1]:
            at += 1
            continue
        assert is_unit_row(F, row)
        [c] = row
        assert 0 <= c - x_offset < n * n and (c - x_offset) // n in targets
        skipped.add(c)
    assert at == len(got)
    assert pinned == skipped


def test_one_entry_row_of_a_zero_divisor_stays_a_row():
    """Over Q[t]/(t^2) the rows t x_2l of the pair (x, y) say nothing about
    x_2l: they are yielded, and their columns are not pinned."""
    alg = heisenberg_t2()
    F = alg.field
    pinned = set()
    rows = list(_law_rows(alg, [(F.t, F.t)], pinned=pinned))
    lone = [row for row in rows if len(row) == 1]
    assert {c for row in lone for c in row} == {6, 7, 8}
    assert all(v == F.t for row in lone for v in row.values())
    assert not pinned & {6, 7, 8}


def with_center(alg):
    """The direct sum of the algebra and a one-dimensional even center
    <z>, z last."""
    grading = None if alg.grading is None else alg.grading + [0]
    return Algebra(alg.field, alg.dim + 1, alg.basis + ["z"], dict(alg.products), alg.flavor, grading)


@pytest.mark.parametrize("name,delta,parity", [("sl2/Q", Fraction(1, 2), 0), ("W11/GF5", 3, 0), ("osp12/GF7", 4, 1)])
def test_map_at_a_pinned_column_is_no_delta_derivation(name, delta, parity):
    """On L + <z>, z central, the rows c x_kz of a pair with product c e_k
    are never built, since no term of the law reaches the target z outside
    [L, L].  So a map that is nonzero only at such a column, e_k -> z, is in
    no row of the stream that ``is_delta_derivation`` reads, only in the
    pin set, and fails the check: the check reads the pins as well as the
    rows."""
    alg = with_center(ALGEBRAS[name]())
    F = alg.field
    n = alg.dim
    d = F.coerce(delta)
    pinned = set()
    rows = list(_pointwise_rows(alg, [(d, d)], pinned, parity))
    free = pinned - {c for row in rows for c in row}
    to_z = sorted({k * n + n - 1 for i, j in _equation_pairs(alg) for k in alg.product(i, j)})
    assert to_z and free.issuperset(to_z)
    for c in to_z[:3]:
        D = LinearMap.from_entries(F, {c // n: {c % n: F.one()}}, n, n)
        assert not is_delta_derivation(alg, D, d, parity or None)
