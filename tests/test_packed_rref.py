"""The packed GF(p) kernel against the dict kernel, and the routing of
``linalg._rref`` between them.

``_packed_rref`` packs each row of a dense block into one int, a slot per
column, and reduces the slots mod p only where it reads them;
``_dict_rref`` reduces every entry as it is made.  They run the same
elimination in the same row order, so they must return the same pivot rows
and the same chosen rows on every block: the dict kernel is the oracle.
The tall blocks are drawn as the solvers' dense systems are: many more
rows than columns, most of them dependent, so that the kernel basis the
packed kernel tracks shrinks, is repacked, and often runs out early.
The routing test solves dense systems end to end, checks the bases
against the dense oracle of ``conftest``, and checks which kernel ran.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from deltader import linalg, solver
from deltader.algebras import make_special_linear, make_zassenhaus
from deltader.fields import PrimeField

from conftest import dense_gauss_nullspace, oracle_centroid, oracle_delta_derivations, rebased

PRIMES = [2, 3, 5, 7, 11, 101, 65521]


def gf(p: int) -> PrimeField:
    """GF(p) for the kernels, p = 2 and 3 included, which ``PrimeField``
    refuses for algebras but the elimination does not care about."""
    F = PrimeField.__new__(PrimeField)
    F.p = F.char = p
    return F


@st.composite
def dense_blocks(draw):
    """A dense block over GF(p) with raw int entries, negative or >= p, as
    ``solver._pivots_at`` sends them; some blocks are at the slot bound's
    edge over GF(101), 64 columns, the most that fit, or 65.  The rows are drawn
    outright, which mostly gives full rank, or are integer combinations of
    a few drawn rows, which leaves the rank below the column count; then
    some rows are repeated and some are zero: empty, or with every entry a
    multiple of p.  Hypothesis draws the shape, a seeded generator the
    entries."""
    p, m = draw(st.sampled_from(PRIMES)), draw(st.integers(1, 40))
    if draw(st.integers(0, 5)) == 0:
        p, m = 101, draw(st.sampled_from([64, 65]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from([0.2, 0.5, 1.0]))
    nrows = draw(st.integers(1, 2 * m))

    def row():
        return [rng.randint(-3 * p, 3 * p) if rng.random() < density else 0 for _ in range(m)]

    if draw(st.booleans()):
        dense = [row() for _ in range(nrows)]
    else:
        base = [row() for _ in range(draw(st.integers(1, max(1, m - 1))))]
        dense = []
        for _ in range(nrows):
            coefs = [rng.randint(-p, p) for _ in base]
            dense.append([sum(a * b[c] for a, b in zip(coefs, base)) for c in range(m)])
    rows = [{c: v for c, v in enumerate(r) if v} for r in dense]
    rows += [dict(rng.choice(rows)) for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        rows.append({c: p * rng.randint(-2, 2) for c in range(m) if rng.random() < density})
    rng.shuffle(rows)
    if not any(rows):
        rows.append({0: 1})
    return p, rows


@settings(derandomize=True, deadline=None, max_examples=300)
@given(dense_blocks())
def test_packed_kernel_matches_dict_kernel(block):
    """Where the slots hold the block's bound the packed kernel gives the
    dict kernel's pair; past the bound ``_rref`` never packs the block,
    however dense it is, and gives the dict kernel's pair."""
    p, rows = block
    cols = sorted(set().union(*rows))
    oracle = linalg._dict_rref(rows, gf(p))
    if linalg._packs(p, len(cols)):
        assert linalg._packed_rref(rows, cols, p) == oracle
    else:
        with mock.patch.object(linalg, "_packed_rref", side_effect=AssertionError):
            assert linalg._rref(rows, gf(p)) == oracle


@st.composite
def tall_blocks(draw):
    """A tall block over GF(p) with raw int entries, on the sorted columns
    1, 3, 5, ...: r drawn rows, most often over half the m columns, so
    that the packed kernel repacks, and often all of them (full column
    rank); then at least 3m rows in all, integer combinations of them and
    rows whose every entry is a multiple of p, with the r rows among the
    first, so that the rank is reached early, or spread through the block.
    Over GF(p) the slots are 32 bits; at the first prime of
    ``_wide_primes`` for m columns, as the modular route over Q runs it,
    they are 64 bits.  Returns p, the typecode and the rows."""
    m = draw(st.integers(2, 24))
    if draw(st.booleans()):
        p, typecode = draw(st.sampled_from([5, 7, 11, 101])), linalg._SLOT
    else:
        p, typecode = next(linalg._wide_primes(m)), linalg._WIDE
    rng = random.Random(draw(st.integers(0, 2**32)))
    r = draw(st.one_of(st.just(m), st.integers(m // 2 + 1, m), st.integers(1, m)))
    base = [[rng.randint(-3 * p, 3 * p) if rng.random() < 0.7 else 0 for _ in range(m)] for _ in range(r)]
    rows = []
    for _ in range(3 * m + draw(st.integers(0, m))):
        if rng.random() < 0.1:
            rows.append([p * rng.randint(-2, 2) for _ in range(m)])
        else:
            coefs = [rng.randint(-p, p) if rng.random() < 0.5 else 0 for _ in base]
            rows.append([sum(a * b[c] for a, b in zip(coefs, base)) for c in range(m)])
    at = rng.sample(range(r + draw(st.integers(0, 3)) if draw(st.booleans()) else len(rows)), r)
    for i, row in zip(sorted(at), base):
        rows.insert(i, row)
    return p, typecode, [{2 * c + 1: v for c, v in enumerate(row) if v} for row in rows]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(tall_blocks())
def test_kernel_basis_on_tall_blocks(block):
    """The packed kernel gives the dict kernel's RREF and chosen rows, and
    the nullspace read off its RREF is the dense oracle's, for the rows
    and for the chosen rows alone."""
    p, typecode, rows = block
    m = 1 + max(max(row, default=0) for row in rows) // 2
    cols = [2 * c + 1 for c in range(m)]
    assert linalg._packs(p, m, typecode)
    pivots, chosen = linalg._packed_rref(rows, cols, p, typecode)
    assert (pivots, chosen) == linalg._dict_rref(rows, gf(p))
    F = PrimeField(p)

    def dense(rows):
        return [[v % p for v in (row.get(c, 0) for c in cols)] for row in rows]

    null = dense_gauss_nullspace(F, dense(rows), m)
    assert null == dense_gauss_nullspace(F, dense([rows[k] for k in chosen]), m)
    assert len(null) == m - len(pivots)
    ours = []
    for f in range(m):
        if cols[f] not in pivots:
            v = [0] * m
            v[f] = 1
            for q, row in pivots.items():
                v[cols.index(q)] = -row.get(cols[f], 0) % p
            ours.append(v)
    assert ours == null


def test_slot_bound():
    """p + m (m + 1) p^3 below 2^32: over GF(101) 64 columns are the most
    that fit, over GF(11) more than a thousand do, and over GF(65521) not
    the 16 of the smallest block dense enough to pack."""
    assert linalg._packs(101, 64) and not linalg._packs(101, 65)
    assert linalg._packs(11, 1000)
    assert not linalg._packs(65521, 16)


# ---------------------------------------------------------------------------
# routing, end to end


@pytest.fixture
def kernels(monkeypatch):
    """The number of columns of every block each kernel eliminates."""
    seen = {"packed": [], "dict": []}
    packed_rref, dict_rref = linalg._packed_rref, linalg._dict_rref

    def spy_packed(rows, cols, p):
        seen["packed"].append(len(cols))
        return packed_rref(rows, cols, p)

    def spy_dict(rows, F):
        seen["dict"].append(len(set().union(*rows)))
        return dict_rref(rows, F)

    monkeypatch.setattr(linalg, "_packed_rref", spy_packed)
    monkeypatch.setattr(linalg, "_dict_rref", spy_dict)
    return seen


def solved(alg):
    """The delta = 1/2 and delta = 1 derivations and the centroid, as flat
    bases, from the solver and from the dense oracle."""
    F = alg.field
    ours, oracle = [], []
    for delta in (F.coerce("1/2"), F.one()):
        ours.append([m.flat() for m in solver.solve_delta_derivations(alg, delta).basis])
        oracle.append(oracle_delta_derivations(alg, delta))
    ours.append([m.flat() for m in solver.solve_centroid(alg).basis])
    oracle.append(oracle_centroid(alg))
    return ours, oracle


@pytest.mark.parametrize(
    "name,make",
    [
        ("W11/GF11", lambda: make_zassenhaus(11, 1)),
        ("sl3/GF7", lambda: make_special_linear(3, PrimeField(7))),
    ],
)
def test_dense_blocks_take_the_packed_kernel(name, make, kernels):
    """In a dense basis each delta-derivation system and the centroid's is
    one dense block of n^2 columns, which the packed kernel eliminates.
    Every basis is the oracle's."""
    alg = rebased(make())
    ours, oracle = solved(alg)
    assert ours == oracle
    n2 = alg.dim**2
    assert kernels["packed"] == [n2, n2, n2]


def test_sparse_blocks_and_wide_primes_take_the_dict_kernel(kernels):
    """The blocks of a standard basis are too sparse for the packed kernel,
    and over GF(65521) no block of 16 columns or more keeps its slots below
    2^32: both stay on the dict kernel with the oracle's answer."""
    p = 65521
    assert not linalg._packs(p, 16)
    for alg in (make_zassenhaus(11, 1), rebased(make_special_linear(3, PrimeField(p)))):
        ours, oracle = solved(alg)
        assert ours == oracle
    assert kernels["packed"] == []
    assert max(kernels["dict"]) == 64
