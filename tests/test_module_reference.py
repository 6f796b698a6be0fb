"""Module actions against plain reference code in the layout they used to have.

The package reads a module M of a Lie algebra L through the semidirect sum
S = L + M: ``solve_module_valued`` solves the delta-derivations of S that
vanish on M and map L into M, and ``ModuleAction.validate`` is the Jacobi
identity of S on the triples (e_i, e_j, m_k).  The reference below instead
writes the module law of a map D: L -> M directly, with d_kl (the m_l
coordinate of D(e_k)) in column k*m + l, and checks the action law
[x, y].m = x.(y.m) - y.(x.m) by dense products over every ordered pair of
basis vectors of L.  Solved spaces must have byte-identical JSON, and the
two checks the same verdicts, on valid and on perturbed actions.
"""

import json
import random
from fractions import Fraction

import pytest

from deltader.algebras import (
    FlavorMismatch,
    InvalidAction,
    ModuleAction,
    make_divided_powers,
    make_elduque4,
    make_semidirect,
    make_special_linear,
    make_witt_type,
    make_zassenhaus,
)
from deltader.fields import PrimeField, Rationals, parse_scalar
from deltader.linalg import sparse_nullspace
from deltader.linmap import LinearMap
from deltader.solver import SolutionSpace, solve_module_valued

Q = Rationals()

ALGEBRAS = {
    "sl2/Q": lambda: make_special_linear(2, Q),
    "sl3/Q": lambda: make_special_linear(3, Q),
    "W11/GF5": lambda: make_zassenhaus(5, 1),
    "elduque4/GF7": lambda: make_elduque4(PrimeField(7)),
    "wittZ5/GF5": lambda: make_witt_type(PrimeField(5), range(5), modulus=5),
}
MODULES = {
    "adjoint": ModuleAction.adjoint,
    "trivial2": lambda L: ModuleAction.trivial(L, 2),
}
DELTAS = ["1", "1/2", "-1", "2", "0"]


# ---------------------------------------------------------------------------
# reference code


def ref_act(F, M, i, v):
    """x_i . v for a dense coordinate vector v of the module."""
    out = [F.zero()] * M.mdim
    for j, c in enumerate(v):
        for k, a in M.action.get((i, j), {}).items():
            out[k] = F.add(out[k], F.mul(c, a))
    return out


def ref_module_valued(L, M, delta):
    """Canonical basis of D: L -> M with D(e_i e_j) = delta e_i.D(e_j) - delta e_j.D(e_i)."""
    F = L.field
    n, m = L.dim, M.mdim
    delta = parse_scalar(F, delta)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(m):
                row = {}

                def add(col, c):
                    row[col] = F.add(row.get(col, F.zero()), c)

                for k, c in L.product(i, j).items():
                    add(k * m + l, c)
                for k in range(m):
                    c = M.action.get((i, k), {}).get(l)
                    if c is not None:
                        add(j * m + k, F.neg(F.mul(delta, c)))
                    c = M.action.get((j, k), {}).get(l)
                    if c is not None:
                        add(i * m + k, F.mul(delta, c))
                row = {c: v for c, v in row.items() if not F.is_zero(v)}
                if row:
                    rows.append(row)
    basis = [LinearMap.from_flat(F, v, n, m) for v in sparse_nullspace(rows, n * m, F)]
    return SolutionSpace(L, "module_valued", delta, basis)


def ref_action_ok(M):
    """[x_i, x_j].m = x_i.(x_j.m) - x_j.(x_i.m) for every i, j and basis vector m."""
    L = M.algebra
    F = L.field
    for i in range(L.dim):
        for j in range(L.dim):
            for m in range(M.mdim):
                em = [F.zero()] * M.mdim
                em[m] = F.one()
                lhs = [F.zero()] * M.mdim
                for k, c in L.product(i, j).items():
                    lhs = [F.add(x, F.mul(c, y)) for x, y in zip(lhs, ref_act(F, M, k, em))]
                rhs = [
                    F.sub(x, y)
                    for x, y in zip(ref_act(F, M, i, ref_act(F, M, j, em)), ref_act(F, M, j, ref_act(F, M, i, em)))
                ]
                if any(not F.eq(x, y) for x, y in zip(lhs, rhs)):
                    return False
    return True


# ---------------------------------------------------------------------------
# module-valued delta-derivations


CASES = [(a, m, d) for a in ALGEBRAS for m in MODULES for d in DELTAS]


@pytest.mark.parametrize("alg_name,module_name,delta", CASES, ids=["-".join(c) for c in CASES])
def test_module_valued_matches_reference(alg_name, module_name, delta):
    L = ALGEBRAS[alg_name]()
    M = MODULES[module_name](L)
    got = json.dumps(solve_module_valued(L, M, delta).to_json(), sort_keys=True)
    assert got == json.dumps(ref_module_valued(L, M, delta).to_json(), sort_keys=True)


def test_module_valued_needs_a_lie_algebra():
    O = make_divided_powers(5, 1)
    with pytest.raises(FlavorMismatch):
        solve_module_valued(O, ModuleAction.adjoint(O), 1)


# ---------------------------------------------------------------------------
# the action law


def natural_sl2():
    """sl2 on K^2 by matrices: E_01 e_1 = e_0, E_10 e_0 = e_1, H e_0 = e_0, H e_1 = -e_1."""
    L = make_special_linear(2, Q)
    return ModuleAction(L, 2, {(0, 1): {0: 1}, (1, 0): {1: 1}, (2, 0): {0: 1}, (2, 1): {1: -1}})


def perturbed(M, seed):
    """M with one action coefficient changed or added, at random."""
    rng = random.Random(seed)
    F = M.algebra.field
    action = {key: dict(terms) for key, terms in M.action.items()}
    key = (rng.randrange(M.algebra.dim), rng.randrange(M.mdim))
    terms = action.setdefault(key, {})
    k = rng.randrange(M.mdim)
    terms[k] = F.add(terms.get(k, F.zero()), F.from_int(rng.randint(1, 3)))
    return ModuleAction(M.algebra, M.mdim, action)


ACTIONS = {
    **{f"{a}-{m}": (a, m) for a in ALGEBRAS for m in MODULES},
    **{f"{a}-{m}-perturbed{seed}": (a, m, seed) for a in ALGEBRAS for m in MODULES for seed in range(3)},
}


@pytest.mark.parametrize("name", list(ACTIONS))
def test_validate_matches_dense_check(name):
    alg_name, module_name, *seed = ACTIONS[name]
    L = ALGEBRAS[alg_name]()
    M = MODULES[module_name](L)
    if seed:
        M = perturbed(M, seed[0])
    rep = M.validate()
    assert rep.ok == ref_action_ok(M)
    if rep.ok:
        assert make_semidirect(L, M).dim == L.dim + M.mdim
    else:
        with pytest.raises(InvalidAction, match="action fails the bracket law on"):
            make_semidirect(L, M)
        with pytest.raises(InvalidAction):
            solve_module_valued(L, M, 1)


def test_natural_sl2_module():
    M = natural_sl2()
    assert ref_action_ok(M) and M.validate().ok
    assert solve_module_valued(M.algebra, M, Fraction(1)).to_json() == ref_module_valued(M.algebra, M, 1).to_json()
    broken = ModuleAction(M.algebra, 2, {**M.action, (2, 1): {1: 1}})
    rep = broken.validate()
    assert not rep.ok and not ref_action_ok(broken)
    (i, j, k), defect = rep.violations[0]
    assert i < j < M.algebra.dim and 0 <= k < 2 and len(defect) == 2
