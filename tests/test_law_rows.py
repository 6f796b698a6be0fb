"""The one assembler of derivation-type laws, ``solver._law_rows``.

``solve_parametric`` reads its pencil A + delta B off one assembly of the
quasiderivation law (x_offset = n^2, laws [(1, 1)]): column n^2 + c gives
A and column c gives B.  Folded at a field value delta, that pencil must
be the pointwise delta-(super)derivation system row for row, once the rows
that vanish at delta are dropped.  And no assembly, of any law, keeps a
row that vanishes identically.  The rows stream from the assembler to
``linalg._pin``, which holds only the rows it cannot pin at once, so a
solve never stores the whole system.
"""

import tracemalloc

import pytest

from deltader.algebras import (
    ModuleAction,
    make_abelian,
    make_elduque4,
    make_osp12,
    make_semidirect,
    make_special_linear,
    make_zassenhaus,
)
from deltader.fields import PrimeField, Rationals
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
