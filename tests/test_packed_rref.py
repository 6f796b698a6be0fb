"""The packed GF(p) kernel against the dict kernel, and the routing of
``linalg._rref`` between them.

``_packed_rref`` packs each row of a dense block into one int, a slot per
column, and reduces the slots mod p only where it reads them;
``_dict_rref`` reduces every entry as it is made.  They run the same
elimination in the same row order, so they must return the same pivot rows
and the same chosen rows on every block: the dict kernel is the oracle.
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

from conftest import oracle_centroid, oracle_delta_derivations, rebased

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
    """In a dense basis each delta-derivation system is one dense block of
    n^2 columns, which the packed kernel eliminates.  Every basis is the
    oracle's."""
    alg = rebased(make())
    ours, oracle = solved(alg)
    assert ours == oracle
    n2 = alg.dim**2
    assert kernels["packed"] == [n2, n2]


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
