"""The one assembler of derivation-type laws, ``solver._law_rows``.

``solve_parametric`` reads its pencil A + delta B off one assembly of the
quasiderivation law (x_offset = n^2, laws [(1, 1)]): column n^2 + c gives
A and column c gives B.  Folded at a field value delta, that pencil must
be the pointwise delta-(super)derivation system row for row, once the rows
that vanish at delta are dropped.  And no assembly, of any law, keeps a
row that vanishes identically.  The rows stream from the assembler to
``linalg._pin``, which holds only the rows it cannot pin at once, so a
solve never stores the whole system.  What an algebra keeps, the rows of
its zero-product pairs, spares every later solve of it their assembly,
is not used over a quotient ring, and is freed with the algebra.
"""

import gc
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from deltader import solver
from deltader.algebras import (
    Algebra,
    ModuleAction,
    make_abelian,
    make_elduque4,
    make_osp12,
    make_semidirect,
    make_special_linear,
    make_zassenhaus,
)
from deltader.fields import PrimeField, QuotientRing, Rationals
from deltader.solver import _law_rows, solve_centroid

Q = Rationals()

FOLDS = [
    ("W11/GF5", lambda: make_zassenhaus(5, 1), 0),
    ("osp12/GF7", lambda: make_osp12(PrimeField(7)), 0),
    ("osp12/GF7", lambda: make_osp12(PrimeField(7)), 1),
]


@pytest.mark.parametrize("name,make,parity", FOLDS, ids=[f"{n}-q{q}" for n, _, q in FOLDS])
def test_pencil_folds_to_pointwise_rows(name, make, parity):
    alg = make()
    F = alg.field
    nn = alg.dim * alg.dim
    pencil = list(_law_rows(alg, [(F.one(), F.one())], parity, x_offset=nn))
    assert all(pencil)
    for delta in range(F.p):
        folded = []
        for row in pencil:
            at = {}
            for c, v in row.items():
                col = c - nn if c >= nn else c
                at[col] = F.add(at.get(col, F.zero()), v if c >= nn else F.mul(delta, v))
            at = {c: v for c, v in at.items() if not F.is_zero(v)}
            if at:
                folded.append(at)
        assert folded == list(_law_rows(alg, [(delta, delta)], parity))


ALGEBRAS = {
    "abelian3/Q": lambda: make_abelian(Q, 3),
    "sl2/Q": lambda: make_special_linear(2, Q),
    "elduque4/GF5": lambda: make_elduque4(PrimeField(5)),
    "W11/GF5": lambda: make_zassenhaus(5, 1),
    "osp12/GF7": lambda: make_osp12(PrimeField(7)),
}


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_no_row_is_empty(name):
    alg = ALGEBRAS[name]()
    F = alg.field
    one, zero, two = F.one(), F.zero(), F.from_int(2)
    nn = alg.dim * alg.dim
    parities = (0, 1) if alg.grading is not None else (0,)
    assemblies = [list(_law_rows(alg, [(one, one)], x_offset=nn))]
    assemblies += [list(_law_rows(alg, [(one, zero), (zero, one)], q)) for q in parities]
    for delta in (zero, one, two, F.div(one, two)):
        assemblies += [list(_law_rows(alg, [(delta, delta)], q)) for q in parities]
        if alg.flavor == "lie":
            # module-valued laws are assembled on the semidirect sum
            S = make_semidirect(alg, ModuleAction.adjoint(alg))
            assemblies.append(list(_law_rows(S, [(delta, delta)])))
    for rows in assemblies:
        assert all(rows)
        assert all(not F.is_zero(v) for row in rows for v in row.values())


def test_centroid_system_is_not_stored():
    """The centroid system of W(1,2) over GF(7) has 62406 rows, 42480 of
    them with one entry: held as a list they take about 17 MiB of Python
    objects, streamed to the pin set about 6 MiB."""
    alg = make_zassenhaus(7, 2)
    tracemalloc.start()
    try:
        space = solve_centroid(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.dim == 1
    assert peak < 10 * 2**20


# --- the zero-product part, kept per algebra --------------------------------

GF7 = PrimeField(7)
REPEATS = {
    "sl3/Q": (lambda: make_special_linear(3, Q), None),
    "W11/GF5": (lambda: make_zassenhaus(5, 1), None),
    "osp12/GF7": (lambda: make_osp12(GF7), 0),
    "osp12/GF7-odd": (lambda: make_osp12(GF7), 1),
}


def spy_law_rows(monkeypatch):
    """Record the pairs each assembly of ``_law_rows`` is asked for (None
    for every equation pair)."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[5] if len(args) > 5 else kwargs.get("pairs"))
        return _law_rows(*args, **kwargs)

    monkeypatch.setattr(solver, "_law_rows", spy)
    return calls


def solve_at(alg, delta, parity):
    delta = alg.field.div(alg.field.one(), alg.field.from_int(2)) if delta == "1/2" else alg.field.from_int(delta)
    if parity is None:
        return solver.solve_delta_derivations(alg, delta)
    return solver.solve_superderivations(alg, delta, parity)


@pytest.mark.parametrize("name", list(REPEATS))
def test_repeat_solve_assembles_only_the_pairs_with_a_product(name, monkeypatch):
    """After a delta = 1/2 solve, a delta = 2 solve of the same algebra, its
    quasiderivations and the check of a map assemble no row of a pair whose
    product is zero, and call ``Algebra.product`` no more."""
    make, parity = REPEATS[name]
    alg = make()
    zero = [(i, j) for i, j in solver._equation_pairs(alg) if not alg.product(i, j)]
    assert zero
    solve_at(alg, "1/2", parity)
    ad = alg.ad(1)
    products = []
    monkeypatch.setattr(Algebra, "product", lambda self, i, j: products.append((i, j)))
    calls = spy_law_rows(monkeypatch)
    two = solve_at(alg, 2, parity)
    if parity is None:
        solver.solve_quasiderivations(alg)
    verdict = solver.is_delta_derivation(alg, ad, alg.field.one(), parity)
    assert len(calls) == (3 if parity is None else 2) and not products
    for pairs in calls:
        assert pairs is not None and not set(pairs) & set(zero)
    monkeypatch.undo()
    fresh = make()
    assert two.to_json() == solve_at(fresh, 2, parity).to_json()
    assert verdict == solver.is_delta_derivation(fresh, fresh.ad(1), fresh.field.one(), parity)


CENTROIDS = {
    "sl3/Q": lambda: make_special_linear(3, Q),
    "W11/GF5": lambda: make_zassenhaus(5, 1),
    # its centroid needs chi(e1) e1 = 0 (see tests/test_centroid_diagonal.py)
    "action/Q": lambda: Algebra(Q, 3, ["e0", "e1", "e2"], {(0, 1): {0: Fraction(1, 2)}}),
    "osp12/GF7": lambda: make_osp12(GF7),
}


def centroids(alg):
    spaces = [solver.solve_centroid(alg)]
    if alg.grading is not None:
        spaces.append(solver.solve_supercentroid(alg))
    return [space.to_json() for space in spaces]


@pytest.mark.parametrize("name", list(CENTROIDS))
def test_repeat_centroid_assembles_no_diagonal_pair(name, monkeypatch):
    """The diagonal pairs (i, i) of the centroid's laws have no product,
    so they are kept with the other zero-product pairs: after a first
    solve, a repeat centroid and supercentroid of the same algebra
    assemble none of them, and give a fresh algebra's answers."""
    make = CENTROIDS[name]
    alg = make()
    F = alg.field
    diagonal = solver._diagonal(alg, [(F.one(), F.zero())])
    assert diagonal
    centroids(alg)
    calls = spy_law_rows(monkeypatch)
    again = centroids(alg)
    assert len(calls) == (3 if alg.grading is not None else 1)
    for pairs in calls:
        assert pairs is not None and not set(pairs) & set(diagonal)
    monkeypatch.undo()
    assert again == centroids(make())


def test_quotient_ring_reads_the_full_stream(monkeypatch):
    """Over a quotient ring the row order decides whether a zero-divisor
    pivot is met, so every solve assembles every equation pair."""
    R = QuotientRing(Q, [-2, 0, 1])  # Q[t]/(t^2 - 2)
    alg = make_special_linear(2, R)
    solver.solve_delta_derivations(alg, R.t)
    calls = spy_law_rows(monkeypatch)
    solver.solve_delta_derivations(alg, R.from_int(2))
    solver.solve_centroid(alg)
    assert calls == [None, None]


def test_store_is_freed_with_the_algebra():
    """Solves of every kind keep nothing of the algebra alive once it and
    their results are dropped: the store lives on the instance."""
    algs = [make_osp12(GF7), make_special_linear(2, Q)]
    refs = [weakref.ref(alg) for alg in algs]
    for alg in algs:
        F = alg.field
        half = F.div(F.one(), F.from_int(2))
        space = solver.solve_delta_derivations(alg, half)
        solver.is_delta_derivation(alg, space.basis[0], half)
        solver.solve_delta_derivations(alg, F.zero())
        solver.solve_centroid(alg)
        solver.solve_quasiderivations(alg)
        solver.solve_parametric(alg)
        if alg.grading is not None:
            for q in (0, 1):
                solver.solve_superderivations(alg, half, q)
            solver.solve_supercentroid(alg)
        else:
            solver.solve_module_valued(alg, ModuleAction.adjoint(alg), half)
    del alg, algs, space
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
