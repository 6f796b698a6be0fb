"""The modular route of ``linalg._rref`` over Q against integer elimination.

A dense Q block, of at least 16 columns and on average at least 10 entries
a row, is eliminated modulo word-size primes on the packed kernel, read
back by rational reconstruction and returned only once an exact
certificate shows that every input row lies in the candidate's row space;
otherwise it goes to ``_int_rref``.  The RREF over Q is canonical, so both
routes must give the same pivot rows, as ``Fraction`` values.  The drawn
blocks pass the gate and include dependent rows, repeated rows, rows that
vanish mod the first prime and rows congruent to another mod the first
prime; the dense oracle of ``conftest`` checks the nullspace read off the
RREF.  The hand-built blocks need several primes, meet an unlucky first
prime (one whose pivot set is later than over Q, and one that sees two
rows independent over Q as equal), or give a first candidate that fails
the certificate.
"""

import math
import random
from fractions import Fraction
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from deltader import linalg, solver
from deltader.algebras import make_special_linear, make_witt_type
from deltader.fields import Rationals

from conftest import dense_gauss_nullspace, oracle_centroid, oracle_delta_derivations, rebased

Q = Rationals()


def int_rref(rows):
    """The RREF from fraction-free integer elimination alone."""
    pivots, d, _ = linalg._int_rref(rows)
    return {p: {c: Fraction(x, d) for c, x in prow.items()} for p, prow in pivots.items()}


def first_prime(m):
    return next(linalg._wide_primes(m))


def nullspace_of(pivots, m):
    """The nullspace basis read off an RREF on the columns 0..m-1, dense:
    1 at each free column f, -x at each pivot whose row has x at f."""
    basis = []
    for f in range(m):
        if f not in pivots:
            v = [Fraction(0)] * m
            v[f] = Fraction(1)
            for p, row in pivots.items():
                v[p] = -row.get(f, 0)
            basis.append(v)
    return basis


@pytest.fixture
def route(monkeypatch):
    """Counts of the primes the modular route tries, its certificate's
    verdicts, and the blocks that go to ``_int_rref``."""
    seen = {"primes": 0, "certified": [], "int_rref": 0}
    packed_rref, certified, int_rref_ = linalg._packed_rref, linalg._certified, linalg._int_rref

    def spy_packed(rows, cols, p, typecode=linalg._SLOT):
        seen["primes"] += typecode == linalg._WIDE
        return packed_rref(rows, cols, p, typecode)

    def spy_certified(*args):
        seen["certified"].append(certified(*args))
        return seen["certified"][-1]

    def spy_int_rref(rows):
        seen["int_rref"] += 1
        return int_rref_(rows)

    monkeypatch.setattr(linalg, "_packed_rref", spy_packed)
    monkeypatch.setattr(linalg, "_certified", spy_certified)
    monkeypatch.setattr(linalg, "_int_rref", spy_int_rref)
    return seen


def unimodular(n, rng):
    """A dense integer matrix of determinant +-1: M[i][j] = min(i, j) + 1
    between seeded signed permutations."""
    p1, p2 = rng.sample(range(n), n), rng.sample(range(n), n)
    s1, s2 = [rng.choice((-1, 1)) for _ in range(n)], [rng.choice((-1, 1)) for _ in range(n)]
    return [[s1[i] * (min(p1[i], p2[j]) + 1) * s2[j] for j in range(n)] for i in range(n)]


def times(U, R):
    """The rows of U R as dicts, R given by dense integer rows."""
    m = len(R[0])
    return [{c: x for c in range(m) if (x := sum(u * r[c] for u, r in zip(row, R)))} for row in U]


@st.composite
def dense_blocks(draw):
    """A dense integer block of 16 to 28 columns that passes the gate.
    The rows are drawn outright or as integer combinations of a few drawn
    rows; entries are small, of about 10 bits or of about 40.  Then some
    rows are repeated, some are multiples of the first prime, and some are
    congruent to another row mod the first prime but independent of it."""
    m = draw(st.integers(16, 28))
    p = first_prime(m)
    rng = random.Random(draw(st.integers(0, 2**32)))
    size = draw(st.sampled_from([3, 1000, 2**40]))

    def row():
        return [rng.randint(-size, size) if rng.random() < 0.8 else 0 for _ in range(m)]

    nrows = draw(st.integers(2, 2 * m))
    if draw(st.booleans()):
        dense = [row() for _ in range(nrows)]
    else:
        base = [row() for _ in range(draw(st.integers(1, m - 1)))]
        dense = []
        for _ in range(nrows):
            coefs = [rng.randint(-3, 3) for _ in base]
            dense.append([sum(a * b[c] for a, b in zip(coefs, base)) for c in range(m)])
    for _ in range(draw(st.integers(0, 2))):
        dense.append(list(rng.choice(dense)))
    for _ in range(draw(st.integers(0, 2))):
        dense.append([p * x for x in row()])
    for _ in range(draw(st.integers(0, 3))):
        near = rng.choice(dense)
        dense.append([x + p * rng.randint(-1, 1) for x in near])
    rng.shuffle(dense)
    rows = [{c: x for c, x in enumerate(r) if x} for r in dense]
    # past the gate (at least 10 entries a row on average, on 16 columns or
    # more): rows of 12 entries or more
    rows = [r for r in rows if len(r) >= 12]
    if len(set().union(*rows)) < 16:
        rows.append({c: 1 for c in range(m)})
    return rows


@settings(derandomize=True, deadline=None, max_examples=60)
@given(dense_blocks())
def test_modular_route_matches_integer_elimination(rows):
    """The RREF is that of ``_int_rref``, with Fraction values; the
    nullspace read off it is the dense oracle's; and the chosen rows are a
    basis of the row space, one row per pivot."""
    m = max(c for row in rows for c in row) + 1
    with mock.patch.object(linalg, "_modular_rref", wraps=linalg._modular_rref) as modular:
        pivots, chosen = linalg._rref(rows, Q)
    assert modular.called, "the block did not pass the gate"
    assert pivots == int_rref(rows)
    assert all(type(x) is Fraction for row in pivots.values() for x in row.values())
    dense = [[row.get(c, Fraction(0)) for c in range(m)] for row in rows]
    assert nullspace_of(pivots, m) == dense_gauss_nullspace(Q, dense, m)
    assert len(chosen) == len(pivots)
    assert int_rref([rows[k] for k in chosen]) == pivots


def test_answer_needing_several_primes(route):
    """An RREF [I | X] with X of 64-bit numerators and 45-bit denominators,
    in a dense basis of its row space: no single prime reads it back, and
    the certified answer comes from several, with no integer elimination."""
    r, m = 8, 16
    X = [[Fraction(3**40 + 7 * i + j, 2**45 + 11 * j + i) for j in range(m - r)] for i in range(r)]
    R = [[Fraction(int(i == k)) for k in range(r)] + X[i] for i in range(r)]
    scaled = []
    for row in R:
        den = math.lcm(*(x.denominator for x in row))
        scaled.append([int(x * den) for x in row])
    rows = times(unimodular(r, random.Random(3)), scaled)
    pivots, chosen = linalg._rref(rows, Q)
    assert pivots == {i: {c: x for c, x in enumerate(R[i]) if x} for i in range(r)}
    assert route["primes"] >= 5 and route["int_rref"] == 0
    assert route["certified"][-1] is True and sorted(chosen) == list(range(r))


def test_first_prime_with_a_later_pivot_set(route):
    """[B | C] with det B = p, the first prime: over Q the pivots are the
    columns of B, mod p one of them moves into C.  The second prime's
    pivot set is earlier, so it replaces the first prime's residues, and
    the answer is certified without integer elimination."""
    r, m = 8, 16
    p = first_prime(m)
    rng = random.Random(5)
    U1, U2 = unimodular(r, rng), unimodular(r, rng)
    D = [[(p if i == j == r - 1 else int(i == j)) for j in range(r)] for i in range(r)]
    B = [[sum(U1[i][k] * D[k][l] * U2[l][j] for k in range(r) for l in range(r)) for j in range(r)] for i in range(r)]
    C = [[rng.randint(-5, 5) for _ in range(m - r)] for _ in range(r)]
    rows = [{c: x for c, x in enumerate(b + c_) if x} for b, c_ in zip(B, C)]
    assert sorted(linalg._packed_rref(rows, list(range(m)), p, linalg._WIDE)[0]) != list(range(r))
    route["primes"] = 0
    pivots, _ = linalg._rref(rows, Q)
    assert pivots == int_rref(rows) and sorted(pivots) == list(range(r))
    assert route["int_rref"] == 1  # the call just above, not the route
    assert route["primes"] >= 2 and route["certified"][-1] is True


def test_first_prime_equating_two_rows_falls_back(route):
    """Two rows congruent mod the first prime but independent over Q: the
    first prime chooses only one of them, so no candidate on its rows
    passes the certificate, and once the modulus passes 2 H^2 the block
    goes to ``_int_rref``."""
    m = 16
    p = first_prime(m)
    rng = random.Random(7)
    dense = [[rng.randint(-9, 9) or 1 for _ in range(m)] for _ in range(6)]
    dense.append([x + p * rng.choice((-1, 1)) for x in dense[-1]])
    rows = [dict(enumerate(r)) for r in dense]
    pivots, chosen = linalg._rref(rows, Q)
    assert pivots == int_rref(rows) and len(pivots) == 7
    assert route["int_rref"] == 2  # the route's fallback and the call above
    assert True not in route["certified"]
    assert chosen == list(range(7))


def test_candidate_failing_the_certificate(route):
    """An RREF entry 1 + p, p the first prime, reads back as 1 from that
    prime alone: the candidate fails the certificate, and the next primes
    give the answer, certified."""
    r, m = 8, 16
    p = first_prime(m)
    rng = random.Random(11)
    X = [[rng.randint(-3, 3) for _ in range(m - r)] for _ in range(r)]
    X[0][0] = 1 + p
    R = [[int(i == k) for k in range(r)] + X[i] for i in range(r)]
    rows = times(unimodular(r, rng), R)
    pivots, _ = linalg._rref(rows, Q)
    assert pivots == {i: {c: Fraction(x) for c, x in enumerate(R[i]) if x} for i in range(r)}
    assert route["certified"][0] is False and route["certified"][-1] is True
    assert route["int_rref"] == 0


def test_gate_keeps_sparse_and_narrow_blocks_on_integer_elimination(route):
    """Fewer than 10 entries a row, or fewer than 16 columns: no prime."""
    sparse = [{i: 1, i + 1: 2, i + 2: -1} for i in range(30)]
    narrow = [{c: (i + 1) * (c + 2) ** i for c in range(15)} for i in range(15)]
    for rows in (sparse, narrow):
        assert linalg._rref(rows, Q)[0] == int_rref(rows)
    assert route["primes"] == 0


def test_wide_primes_fit_64_bit_slots():
    """The first wide prime is the largest whose 64-bit slots hold
    p + m (m + 1) p^3: about 1.6e5 at 64 columns, 7e4 at 225."""
    for m, low, high in ((64, 1.5e5, 1.7e5), (225, 6.5e4, 7.5e4)):
        primes = linalg._wide_primes(m)
        p = next(primes)
        assert low < p < high and linalg._packs(p, m, linalg._WIDE)
        assert not linalg._packs(p + 1000, m, linalg._WIDE)
        assert next(primes) < p


def test_wide_primes_are_searched_once_per_width(route, monkeypatch):
    """The wide primes of a width are found once and kept: a second
    ``_wide_primes(m)``, or ``_modular_rref`` again on a block of the same
    m, tests no number for primality, and takes the same primes."""
    m = 19
    rng = random.Random(5)
    rows = [{c: rng.randint(-(10**6), 10**6) for c in range(m)} for _ in range(12)]
    primes = list(islice(linalg._wide_primes(m), 5))
    found = linalg._modular_rref(rows, list(range(m)))
    assert found[0] == int_rref(rows) and route["primes"] > 5
    tested = []
    is_prime = linalg._is_prime
    monkeypatch.setattr(linalg, "_is_prime", lambda n: tested.append(n) or is_prime(n))
    assert list(islice(linalg._wide_primes(m), 5)) == primes
    assert linalg._modular_rref(rows, list(range(m))) == found
    assert tested == []


@pytest.mark.parametrize(
    "name,make",
    [
        ("sl3/Q", lambda: make_special_linear(3, Q)),
        ("wittZ7/Q", lambda: make_witt_type(Q, range(7), modulus=7)),
    ],
)
def test_dense_q_systems_take_the_modular_route(name, make, route):
    """In a dense basis each Q system is one block: those of the delta = 1/2
    and delta = 1 derivations and the centroid's pass the gate and are
    certified by the route.  Every basis is the dense oracle's."""
    alg = rebased(make())
    F = alg.field
    for delta in (Fraction(1, 2), Fraction(1)):
        ours = [m.flat() for m in solver.solve_delta_derivations(alg, delta).basis]
        assert ours == oracle_delta_derivations(alg, F.coerce(delta))
    assert [m.flat() for m in solver.solve_centroid(alg).basis] == oracle_centroid(alg)
    assert route["certified"] == [True, True, True] and route["int_rref"] == 0
