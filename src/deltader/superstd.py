"""The standard identity of degree 5, the s4 ideal, and superalgebra bridges.

The standard identity of degree 5 is

    sum over sigma in S4 of  sign(sigma) [[[[y, x_sigma(1)], x_sigma(2)], x_sigma(3)], x_sigma(4)] = 0 ,

and s4(L) is the span of all its left-hand sides, an ideal of L.  The super
variant multiplies sign(sigma) by the Koszul factor: every inversion of two
odd arguments contributes an extra -1 (so transposing two odd arguments
leaves the term invariant overall).  This sign convention is pinned down by
the envelope equality s4(G(L)) = G(s4(L)), which fails under any other
choice.

s4(L) is computed one homogeneous component at a time.  The support of the
structure constants grades the basis by integer degrees (w_k = w_i + w_j
whenever c_ij^k != 0), so each evaluation on basis vectors is homogeneous
and its degree is known before it is evaluated: evaluations into a degree
no basis vector has, or into a component already spanned, are skipped.
Each component keeps its own sparse echelon rows; their columns are
disjoint, so together they are the canonical RREF of s4(L).

The argument tuples are met in a spread order: sorted over a fixed seeded
permutation of the basis rather than over the basis itself.  A Grassmann
envelope lists the copies x (x) g of one element x of L together, and a
tuple holding two copies of one even x has value 0; in basis order the
first few hundred tuples of a component are of that kind.  The order
changes only the speed.  A reordered tuple gives the same value up to
sign, and the canonical RREF of a span does not depend on the order its
vectors arrive in.  The enumeration stops early only when every component
is full, that is when s4(L) = L; on an envelope no tuple reaches the
components x (x) 1 of L_0, so every tuple is visited, most of them
without an evaluation.
"""

from __future__ import annotations

import json
import os
import random
from functools import lru_cache
from typing import NamedTuple

from .algebras import (
    Algebra,
    GradingMissing,
    _support_degrees,
    algebra_from_json,
    form_rank,
    index_tuples,
    make_grassmann_envelope,
    validate,
    validate_form,
)
from .linalg import (
    SpanSolver,
    _add_pivot,
    _dense_pivot_rows,
    _eliminate,
    _sub_multiple,
    rref_dense,
    same_span,
)
from .solver import (
    SolutionSpace,
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


class IdealBasis(NamedTuple):
    algebra: Algebra
    basis: list  # canonical basis vectors
    is_ideal: bool

    @property
    def dim(self) -> int:
        return len(self.basis)


def _packed_degrees(degrees: list[tuple], terms: int) -> list[int]:
    """Each degree tuple as one integer sum of w_c * B**c.  Packing is
    additive, so the packed degrees grade the algebra for any B; with B
    above twice the largest coordinate sum of ``terms`` degrees it also
    tells apart any two sums of at most ``terms`` degrees, so the
    components stay as fine as those of the tuples."""
    B = 2 * terms * max((abs(x) for w in degrees for x in w), default=0) + 1
    return [sum(x * B**c for c, x in enumerate(w)) for w in degrees]


def _is_ideal(F, right: list, degree: list, components: dict) -> bool:
    """Whether every pivot row times every e_i reduces to zero against the
    component of its degree.  The product is homogeneous, so no other
    component can reduce it; a nonzero product whose degree has no pivots
    lies outside the span."""
    n = len(degree)
    for d, pivots in components.items():
        for row in pivots.values():
            for i in range(n):
                w: dict = {}
                for k, c in row.items():
                    _sub_multiple(w, F.neg(c), right[k][i], -1, F)  # w += c e_k e_i
                if w:
                    _eliminate(w, components.get(d + degree[i], {}), F)
                    if w:
                        return False
    return True


def compute_s4(alg: Algebra, law: str = "ordinary") -> IdealBasis:
    """Span of all evaluations of the degree-5 standard (super)identity.

    One enumeration serves both laws: the arguments run over
    :func:`index_tuples` of the grading for the super law and of zero
    parities for the ordinary one.  On a Grassmann envelope, branches whose
    supports overlap are pruned during the enumeration; a y whose support
    meets theirs needs no check, as the value's degree would count a
    generator twice, and no basis vector has such a degree.

    The span is built one homogeneous component at a time.  Every nonzero
    structure constant c_ij^k respects the degrees of
    ``algebras._support_degrees`` (w_k = w_i + w_j), so the value of s4 on
    basis vectors y, t1..t4 is homogeneous of degree w_y + w_t1 + ... +
    w_t4.  The targets (d, y) of each degree sum dt of a tuple, those whose
    degree d = w_y + dt some basis vector has, are listed once; a target is
    skipped while its component is already spanned, and otherwise its value
    is reduced against the sparse echelon pivots of that component.  The
    components have disjoint columns, so the union of their RREFs is an
    RREF of the span and, by uniqueness, its canonical one (as for the
    blocks of ``linalg.sparse_nullspace``).

    The tuples are those of :func:`index_tuples` over the fixed permutation
    ``random.Random(0).sample(range(n), n)`` of the basis, mapped back to
    basis indices, with the supports as int bitmasks: the spread order of
    the module docstring, on which the result does not depend.  On
    G_5(osp(1|2)) over GF(7) it finds the 77 pivots in 87 evaluations,
    against 2357 in basis order.  The enumeration stops early once every
    component is full, that is once the span is the whole algebra;
    otherwise it visits every tuple, and a tuple whose targets are all
    spanned is not evaluated.

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
    masks = [sum(1 << g for g in s) for s in alg.meta.get("supports") or [()] * n]
    degree = _packed_degrees(_support_degrees(alg), 5)
    right = alg._table()
    by_degree: dict[int, list] = {}
    for y, d in enumerate(degree):
        by_degree.setdefault(d, []).append(y)
    components = {d: {} for d in by_degree}  # degree -> sparse pivot rows
    unspanned = set(by_degree)
    targets: dict[int, list] = {}  # dt -> (d, y) with w_y + dt = d a degree
    spread = random.Random(0).sample(range(n), n)

    def evaluate(y, t) -> dict:
        acc = [{} for _ in range(16)]
        acc[0][y] = F.one()
        for S, p, negate in _koszul_steps(tuple(par[i] for i in t)):
            for i, c in acc[S].items():
                coef = c if negate else F.neg(c)  # _sub_multiple subtracts
                _sub_multiple(acc[S | 1 << p], coef, right[i][t[p]], -1, F)
        return acc[15]

    for u in index_tuples([par[i] for i in spread], 4, [masks[i] for i in spread]):
        if not unspanned:
            break
        t = (spread[u[0]], spread[u[1]], spread[u[2]], spread[u[3]])
        dt = degree[t[0]] + degree[t[1]] + degree[t[2]] + degree[t[3]]
        reach = targets.get(dt)
        if reach is None:
            reach = targets[dt] = [(w + dt, y) for y, w in enumerate(degree) if w + dt in components]
        for d, y in reach:
            if d in unspanned:
                pivots = components[d]
                row = evaluate(y, t)
                _eliminate(row, pivots, F)
                if row:
                    _add_pivot(row, pivots, F)
                    if len(pivots) == len(by_degree[d]):
                        unspanned.remove(d)
    everything = {p: row for pivots in components.values() for p, row in pivots.items()}
    return IdealBasis(alg, _dense_pivot_rows(everything, n, F), _is_ideal(F, right, degree, components))


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
    """True iff every basis map of the solution space (the D part of a
    quasiderivation pair (D, D')) kills every ideal vector."""
    F = ideal.algebra.field
    for m in space.basis:
        D = m[0] if isinstance(m, tuple) else m
        for v in ideal.basis:
            if any(not F.is_zero(c) for c in D.apply(v)):
                return False
    return True


# ---------------------------------------------------------------------------
# fixtures


def fixture_dir() -> str:
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


def desk_check_theorems(alg: Algebra, half: SolutionSpace | None = None) -> dict:
    """Dimension report for the prediction that a simple (super)algebra has
    no delta-(super)derivations off {-1, 0, 1/2, 1}, and that with a
    nondegenerate invariant form the half-(super)derivations coincide with
    the (super)centroid.  Primeness is the caller's responsibility; the
    report flags unmet hypotheses instead of asserting anything.  ``half``,
    the half-derivations of the algebra, is solved for unless given."""
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
    spaces = {
        k: half if k == "1/2" and half is not None else solve_delta_derivations(alg, v)
        for k, v in named.items()
    }
    report["der_dims"] = {k: s.dim for k, s in spaces.items()}
    report["off_special_zero"] = (
        report["der_dims"]["2"] == 0 and report["der_dims"]["1/3"] == 0
    )
    centroid = solve_centroid(alg)
    report["centroid_dim"] = centroid.dim
    report["half_equals_centroid"] = same_span(
        [m.vector() for m in spaces["1/2"].basis],
        [m.vector() for m in centroid.basis],
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
            [m.vector() for even_odd in super_spaces["1/2"] for m in even_odd.basis],
            [m.vector() for m in supercent.basis],
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
