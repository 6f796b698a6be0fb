"""Base change from GF(7) to GF(49) = GF(7)[t]/(t^2 - 3).

3 is not a square mod 7, so t^2 - 3 is irreducible and the quotient ring is
a field extension of GF(7).  Every space computed here is the nullspace of
a linear system with entries in GF(7), or the span of vectors with entries
in GF(7), and neither changes its dimension under a field extension.  So
sl3 and the Witt algebra on Z/7 give the same dimensions over both fields,
and the same s4 ideal verdict.  Over the extension the entries are
payload tuples of characteristic 7, and every elimination goes through the
ring's own methods, in ``sparse_rref`` and in the s4 insertions.
"""

import pytest

from deltader.algebras import make_special_linear, make_witt_type
from deltader.fields import PrimeField, QuotientRing
from deltader.solver import solve_centroid, solve_delta_derivations
from deltader.superstd import compute_s4

GF7 = PrimeField(7)
GF49 = QuotientRing(GF7, [-3, 0, 1])

ALGEBRAS = {
    "sl3": lambda F: make_special_linear(3, F),
    "wittZ7": lambda F: make_witt_type(F, range(7), modulus=7),
}

# (dim Der_1/2, dim Der, dim centroid, dim s4, s4 is an ideal) over GF(7)
EXPECTED = {
    "sl3": (1, 8, 1, 8, True),
    "wittZ7": (7, 7, 1, 0, True),
}


def invariants(alg):
    F = alg.field
    half = F.div(F.one(), F.from_int(2))
    s4 = compute_s4(alg)
    return (
        solve_delta_derivations(alg, half).dim,
        solve_delta_derivations(alg, F.one()).dim,
        solve_centroid(alg).dim,
        s4.dim,
        s4.is_ideal,
    )


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_dimensions_survive_base_change(name):
    make = ALGEBRAS[name]
    assert invariants(make(GF7)) == invariants(make(GF49)) == EXPECTED[name]
