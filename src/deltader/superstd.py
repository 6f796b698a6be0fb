"""The standard identity of degree 5, the s4 ideal, and superalgebra bridges.

The standard identity of degree 5 is

    sum over sigma in S4 of  sign(sigma) [[[[y, x_sigma(1)], x_sigma(2)], x_sigma(3)], x_sigma(4)] = 0 ,

and s4(L) is the span of all its left-hand sides, an ideal of L.  The super
variant multiplies sign(sigma) by the Koszul factor: every inversion of two
odd arguments contributes an extra -1 (so transposing two odd arguments
leaves the term invariant overall).  This sign convention is pinned down by
the envelope equality s4(G(L)) = G(s4(L)), which fails under any other
choice.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache

from .algebras import (
    Algebra,
    GradingMissing,
    algebra_from_json,
    form_rank,
    index_tuples,
    make_grassmann_envelope,
    validate,
    validate_form,
)
from .linalg import SpanSolver, _sub_multiple, rref_dense, same_span
from .solver import (
    solve_centroid,
    solve_delta_derivations,
    solve_supercentroid,
    solve_superderivations,
)

@lru_cache(maxsize=None)
def _koszul_steps(arg_par: tuple) -> list:
    """(S, p, negate) for each extension of a bitmask S of applied argument
    positions by a position p outside it, every S before its extensions."""
    return [
        (S, p, sum(1 + arg_par[s] * arg_par[p] for s in range(p + 1, 4) if S >> s & 1) % 2)
        for S in range(15)
        for p in range(4)
        if not S >> p & 1
    ]


@dataclass
class IdealBasis:
    algebra: Algebra
    basis: list  # canonical basis vectors
    is_ideal: bool

    @property
    def dim(self) -> int:
        return len(self.basis)


def _is_ideal(alg: Algebra, vectors: list) -> bool:
    span = SpanSolver(alg.field, vectors)
    for v in vectors:
        for i in range(alg.dim):
            w = alg.bracket(v, alg.unit_vector(i))
            if not span.contains(w):
                return False
    return True


def compute_s4(alg: Algebra, law: str = "ordinary") -> IdealBasis:
    """Span of all evaluations of the degree-5 standard (super)identity.

    One enumeration serves both laws: the arguments run over
    :func:`index_tuples` of the grading for the super law and of zero
    parities for the ordinary one.  On a Grassmann envelope, branches whose
    supports overlap are pruned during the enumeration and a y whose support
    meets theirs is skipped: those nested products vanish.  The enumeration
    stops once the span is the whole algebra.

    The signed sum over S4 is built over the set S of argument positions
    already applied: appending p after S contributes -1 for each s in S with
    s > p, and a further -1 when x_s and x_p are both odd, which is the
    Koszul sign above; 32 extensions over the 16 subsets give the 24 terms.
    """
    F = alg.field
    n = alg.dim
    if law == "super" and alg.grading is None:
        raise GradingMissing("the super identity needs a grading")
    if law not in ("ordinary", "super"):
        raise ValueError(f"unknown law {law!r}")
    par = alg.grading if law == "super" else [0] * n
    supports = alg.meta.get("supports") or [frozenset()] * n
    right = [[alg.product(i, j) for j in range(n)] for i in range(n)]

    def evaluations():
        for t, union in index_tuples(par, 4, supports):
            steps = _koszul_steps(tuple(par[i] for i in t))
            for y in range(n):
                if supports[y] & union:
                    continue
                acc = [{} for _ in range(16)]
                acc[0][y] = F.one()
                for S, p, negate in steps:
                    for i, c in acc[S].items():
                        coef = c if negate else F.neg(c)  # _sub_multiple subtracts
                        _sub_multiple(acc[S | 1 << p], coef, right[i][t[p]], -1, F)
                if acc[15]:
                    yield acc[15]

    span = SpanSolver(F)
    for vec in evaluations():
        span.add([vec.get(k, F.zero()) for k in range(n)])
        if span.dim == n:
            break
    vectors = span.basis()
    return IdealBasis(alg, vectors, _is_ideal(alg, vectors))


def check_standard_identity(alg: Algebra, law: str = "ordinary") -> bool:
    return compute_s4(alg, law).dim == 0


def envelope_subspace(env: Algebra, vectors: list, min_degree: int = 0) -> list:
    """The subspace of a Grassmann envelope spanned by v (x) g over the given
    homogeneous vectors v of the source algebra and all matching monomials g
    of degree >= min_degree."""
    L = env.meta["envelope_source"]
    basis = env.meta["envelope_basis"]
    F = env.field
    index = {b: p for p, b in enumerate(basis)}
    out = []
    for v in vectors:
        par = None
        for i, c in enumerate(v):
            if not F.is_zero(c):
                if par is None:
                    par = L.grading[i]
                elif par != L.grading[i]:
                    raise ValueError("subspace basis vector is not homogeneous")
        if par is None:
            continue
        monos = sorted(
            {
                g
                for (i, g) in basis
                if L.grading[i] == par and len(g) >= min_degree
            }
        )
        for g in monos:
            vec = [F.zero()] * env.dim
            for i, c in enumerate(v):
                if not F.is_zero(c):
                    vec[index[(i, g)]] = c
            out.append(vec)
    return rref_dense(out, F)


def verify_kernel_containment(space, ideal: IdealBasis) -> bool:
    """True iff every basis map of the solution space kills every ideal vector."""
    F = ideal.algebra.field
    for m in space.basis:
        maps = m if isinstance(m, tuple) else (m,)
        for mm in maps[:1]:
            for v in ideal.basis:
                if any(not F.is_zero(c) for c in mm.apply(v)):
                    return False
    return True


# ---------------------------------------------------------------------------
# fixtures


def fixture_dir() -> str:
    override = os.environ.get("DELTA_DER_FIXTURES")
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "fixtures")


def load_fixture(name: str) -> Algebra:
    """Load a fixture algebra and machine-verify its laws before returning it.

    Graded fixtures must pass the super-Jacobi identity; an attached form
    must be (super)symmetric, invariant and nondegenerate.
    """
    path = os.path.join(fixture_dir(), name)
    with open(path, "r", encoding="utf-8") as fh:
        alg = algebra_from_json(json.load(fh))
    rep = validate(alg)
    if not rep.ok:
        raise ValueError(f"fixture {name} violates {rep.law} at {rep.violations[0][0]}")
    if alg.form is not None:
        frep = validate_form(alg)
        if not frep.ok:
            raise ValueError(f"fixture {name} has a non-invariant form")
        if form_rank(alg) != alg.dim:
            raise ValueError(f"fixture {name} has a degenerate form")
    return alg


# ---------------------------------------------------------------------------
# desk checks


def desk_check_theorems(alg: Algebra) -> dict:
    """Dimension report for the prediction that a simple (super)algebra has
    no delta-(super)derivations off {-1, 0, 1/2, 1}, and that with a
    nondegenerate invariant form the half-(super)derivations coincide with
    the (super)centroid.  Primeness is the caller's responsibility; the
    report flags unmet hypotheses instead of asserting anything."""
    F = alg.field
    n = alg.dim
    report: dict = {}
    commutant = alg.commutant()
    center = alg.center()
    report["perfect"] = len(commutant) == n
    report["centerless"] = len(center) == 0
    if not (report["perfect"] or report["centerless"]):
        report["hypotheses_met"] = False
        return report
    report["hypotheses_met"] = True
    named = {
        "-1": F.from_int(-1),
        "0": F.zero(),
        "1/2": F.div(F.one(), F.from_int(2)),
        "1": F.one(),
        "2": F.from_int(2),
        "1/3": F.div(F.one(), F.from_int(3)),
    }
    spaces = {k: solve_delta_derivations(alg, v) for k, v in named.items()}
    report["der_dims"] = {k: s.dim for k, s in spaces.items()}
    report["off_special_zero"] = (
        report["der_dims"]["2"] == 0 and report["der_dims"]["1/3"] == 0
    )
    centroid = solve_centroid(alg)
    report["centroid_dim"] = centroid.dim
    report["half_equals_centroid"] = same_span(
        [m.flat() for m in spaces["1/2"].basis],
        [m.flat() for m in centroid.basis],
        F,
    )
    if alg.grading is not None:
        super_spaces = {
            k: (solve_superderivations(alg, v, 0), solve_superderivations(alg, v, 1))
            for k, v in named.items()
        }
        report["superder_dims"] = {
            k: {"even": even.dim, "odd": odd.dim} for k, (even, odd) in super_spaces.items()
        }
        report["off_special_zero_super"] = all(
            report["superder_dims"][k]["even"] == 0
            and report["superder_dims"][k]["odd"] == 0
            for k in ("2", "1/3")
        )
        supercent = solve_supercentroid(alg)
        report["supercentroid_dim"] = supercent.dim
        report["half_super_equals_supercentroid"] = same_span(
            [m.flat() for even_odd in super_spaces["1/2"] for m in even_odd.basis],
            [m.flat() for m in supercent.basis],
            F,
        )
    return report


def s4_envelope_report(alg: Algebra, m: int = 5) -> dict:
    """Compare s4 of the Grassmann envelope with the envelope of the super
    s4 ideal.

    On positive-degree monomials the two subspaces coincide.  The
    constant-monomial component v (x) 1 is unreachable by s4 of the
    envelope whenever the even part is too small for the 4-fold
    alternation (for example when dim L_0 = 3), so the comparison is made
    degreewise: equality over monomials of degree >= 1, plus containment
    of s4 of the envelope inside the full envelope of the s4 ideal.
    """
    env = make_grassmann_envelope(alg, m)
    s4_env = compute_s4(env, "ordinary")
    s4_super = compute_s4(alg, "super")
    lifted_all = envelope_subspace(env, s4_super.basis)
    lifted_pos = envelope_subspace(env, s4_super.basis, min_degree=1)
    all_span = SpanSolver(env.field, lifted_all)
    return {
        "s4_dim": s4_super.dim,
        "envelope_s4_dim": s4_env.dim,
        "match_positive_degree": s4_env.basis == lifted_pos,
        "contained": all(all_span.contains(v) for v in s4_env.basis),
    }
