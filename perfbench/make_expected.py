#!/usr/bin/env python3
"""Derive the benchmark's expected answers and golden CLI output, offline.

    python3 perfbench/make_expected.py

Writes ``perfbench/expected.json`` and ``perfbench/golden/``.  Answers come
from ``exact.py``, which shares no code with the package; the package is
only used to construct the input algebras and, for the CLI goldens, to
record its byte output, which is then checked against the independent
answers before anything is written.  Parametric specials over Q need sympy
(polynomial gcd and rational roots); nothing else here or in the benchmark
does.  Any disagreement between the package and this script stops it.
"""

import json
import os
import random
import shutil
import sys
import tempfile
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import deltader  # noqa: E402,F401
import deltader.cli  # noqa: E402

import exact as X  # noqa: E402
import jobs as J  # noqa: E402

PKG = types.SimpleNamespace(**{m: sys.modules["deltader." + m] for m in (
    "fields", "linalg", "algebras", "solver", "halfring", "gradings", "superstd", "cli")})
RNG = random.Random(20091207)
# known values the derived answers must reproduce
KNOWN = {
    ("sl3/Q", "der", "1"): 8,
    ("sl4/Q", "der", "1"): 15,
    ("W12/GF5", "der", "1/2"): 25,
    ("W12/GF5", "der", "1"): 26,
}


def as_json(name):
    return PKG.algebras.algebra_to_json(J.build(name, PKG))


def solve_entry(alg, kind, delta=None, parity=None):
    F = X.field_of(alg)
    n = int(alg["dim"])
    d = None if delta is None else F.of(Fraction(delta))
    if kind == "supercentroid":
        vecs = X.nullspace(X.law_rows(alg, F, "centroid", None, 0), n * n, F)
        vecs += X.nullspace(X.law_rows(alg, F, "centroid", None, 1), n * n, F)
    else:
        ncols = 2 * n * n if kind == "quasider" else n * n
        vecs = X.nullspace(X.law_rows(alg, F, kind, d, parity), ncols, F)
    return {"dim": len(vecs), "digest": X.digest(vecs, F)}


# ---------------------------------------------------------------------------
# parametric answers


def nullity_at(pencil, ncols, F, value):
    return ncols - X.rank(X.specialize(pencil, F, value), F)


def generic_rank_gfp(pencil, p):
    """Rank over GF(p)(delta), as the largest rank at random points of
    GF(p^3) off GF(p); a point is a root of the rank-drop polynomial (degree
    at most the number of unknowns) with probability below 1/2 here."""
    E = X.GFk(p, X.irreducible_cubic(p))
    lifted = [{c: (E.of(a), E.of(b)) for c, (a, b) in row.items()} for row in pencil]
    best = 0
    for _ in range(10):
        t = (RNG.randrange(p), RNG.randrange(1, p), RNG.randrange(p))
        best = max(best, X.rank(X.specialize(lifted, E, t), E))
    return best


def bareiss_det(M):
    """Determinant of an integer matrix by fraction-free elimination."""
    M = [list(r) for r in M]
    n = len(M)
    sign, prev = 1, 1
    for c in range(n):
        p = next((r for r in range(c, n) if M[r][c]), None)
        if p is None:
            return 0
        if p != c:
            M[c], M[p] = M[p], M[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                M[i][j] = (M[c][c] * M[i][j] - M[i][c] * M[c][j]) // prev
            M[i][c] = 0
        prev = M[c][c]
    return sign * M[n - 1][n - 1]


def minor_combination(pencil, ncols, r):
    """det(P (A + tB) Q) for random integer P (r x rows), Q (cols x r): by
    Cauchy-Binet a random combination of the r x r minors, as integer
    coefficients low degree first (interpolated at t = 0..r)."""
    m = len(pencil)
    P = [[RNG.randint(-3, 3) for _ in range(m)] for _ in range(r)]
    Q = [[RNG.randint(-3, 3) for _ in range(r)] for _ in range(ncols)]
    PA = [[0] * ncols for _ in range(r)]
    PB = [[0] * ncols for _ in range(r)]
    for i, row in enumerate(pencil):
        for c, (a, b) in row.items():
            a, b = int(a), int(b)
            for k in range(r):
                pk = P[k][i]
                if pk:
                    PA[k][c] += pk * a
                    PB[k][c] += pk * b

    def times_q(M):
        return [[sum(M[k][c] * Q[c][j] for c in range(ncols) if M[k][c]) for j in range(r)] for k in range(r)]

    A, B = times_q(PA), times_q(PB)
    values = [bareiss_det([[A[i][j] + t * B[i][j] for j in range(r)] for i in range(r)]) for t in range(r + 1)]
    # Newton divided differences on t = 0..r, expanded to coefficients
    coef = [Fraction(v) for v in values]
    for lvl in range(1, r + 1):
        for i in range(r, lvl - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / lvl
    poly = [Fraction(0)] * (r + 1)
    for i in range(r, -1, -1):
        # poly = poly * (t - i) + coef[i]
        poly = [(poly[k - 1] if k else 0) - i * poly[k] for k in range(r + 1)]
        poly[0] += coef[i]
    assert all(c.denominator == 1 for c in poly)
    return [int(c) for c in poly]


def rational_specials(pencil, ncols, r):
    """Rational delta where the rank drops below r: the rational roots of
    the gcd of the r x r minors (gcd of three random combinations)."""
    import sympy

    t = sympy.Symbol("t")
    g = None
    for _ in range(3):
        coeffs = minor_combination(pencil, ncols, r)
        poly = sympy.Poly(list(reversed(coeffs)), t, domain="QQ")
        g = poly if g is None else sympy.gcd(g, poly)
    return sorted(Fraction(int(x.p), int(x.q)) for x in set(sympy.Poly(g, t).ground_roots()))


def parametric_entry(name):
    alg = as_json(name)
    F = X.field_of(alg)
    n = int(alg["dim"])
    ncols = n * n
    pencil = X.pencil_rows(alg, F)
    if isinstance(F, X.GF):
        generic = ncols - generic_rank_gfp(pencil, F.p)
        dims = {a: nullity_at(pencil, ncols, F, a) for a in range(F.p)}
        assert min(dims.values()) >= generic
        specials = [(a, d) for a, d in sorted(dims.items()) if d > generic]
    else:
        r = max(X.rank(X.specialize(pencil, F, Fraction(RNG.randint(10**6, 10**7), RNG.randint(10**5, 10**6))), F)
                for _ in range(3))
        generic = ncols - r
        roots = rational_specials(pencil, ncols, r)
        specials = [(a, nullity_at(pencil, ncols, F, a)) for a in roots]
        assert all(d > generic for _, d in specials), (name, specials)
        for probe in (-1, 0, Fraction(1, 2), 1, 2, Fraction(1, 3), 3, Fraction(-2, 7)):
            if probe not in roots:
                assert nullity_at(pencil, ncols, F, Fraction(probe)) == generic, (name, probe)
    return {"generic_dim": generic, "specials": [[F.fmt(a), d] for a, d in specials]}


# ---------------------------------------------------------------------------
# golden CLI output


def write_goldens(expected, golden_dir):
    os.makedirs(os.path.join(os.path.dirname(HERE), ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(os.path.dirname(HERE), ".bench_tmp"))
    try:
        wl = J.Workload("s4_report", 0, PKG, expected, tmp)
        wl.setup()
        for job in wl.jobs(0):
            golden = getattr(job, "golden", None)
            if golden is None:
                continue
            alg_name = job.name.split()[2]
            if job.known_defect:
                # what a working `solve --parametric --out` prints and writes
                exp = expected["parametric"][alg_name]
                specials = ", ".join(f"{d} (dim {k})" for d, k in exp["specials"])
                text = f"generic dim = {exp['generic_dim']}\nspecials: {specials or 'none'}\n"
                produced = PKG.cli.canonical_json(exp)
            else:
                code, text, produced = job.run()
                assert code == 0, job.name
                check_golden(expected, alg_name, golden.split(".")[1], text, produced)
            with open(os.path.join(golden_dir, golden + ".stdout"), "w", encoding="utf-8") as fh:
                fh.write(text)
            if produced is not None:
                with open(os.path.join(golden_dir, golden + ".out.json"), "w", encoding="utf-8") as fh:
                    fh.write(produced)
    finally:
        shutil.rmtree(tmp)


def check_golden(expected, alg_name, action, text, produced):
    """The package's CLI output agrees with the independent answers."""
    if action == "solve":
        sol = json.loads(produced)
        exp = expected["solve"][J.key(alg_name, "der", "1/2")]
        F = X.field_of(as_json(alg_name))
        vecs = [[F.of(Fraction(c)) for row in m for c in row] for m in sol["basis"]]
        assert sol["dim"] == exp["dim"] and X.digest(vecs, F) == exp["digest"], alg_name
    if action == "report":
        rep = json.loads(text)
        alg = as_json(alg_name)
        F = X.field_of(alg)
        assert rep["s4_dim"] == X.s4_rank(alg, F), alg_name
        assert rep["half_ring"]["half_derivations_dim"] == solve_entry(alg, "der", "1/2")["dim"]
        for d, dim in rep["desk_check"]["der_dims"].items():
            assert dim == solve_entry(alg, "der", d)["dim"], (alg_name, d)
        assert rep["desk_check"]["centroid_dim"] == solve_entry(alg, "centroid")["dim"]
    if action == "make":
        assert json.loads(produced)["dim"] == int(as_json(alg_name)["dim"])


def main():
    expected = {"valid": {}, "solve": {}, "parametric": {}, "s4": {}, "s4_envelope": {}}
    names = set(J.POINTWISE) | set(J.PARAMETRIC) | set(J.REBASED_POINTWISE) | set(J.REBASED_PARAMETRIC)
    names |= {a for a, _, _ in J.CLI_ALGEBRAS} | {J.S4_ALGEBRA}
    for name in sorted(names):
        alg = J.build(name, PKG)
        js = PKG.algebras.algebra_to_json(alg)
        ok = X.lie_law_holds(js, X.field_of(js))
        assert ok == PKG.algebras.validate(alg, J.law_of(alg)).ok, name
        expected["valid"][name] = ok

    def add(name, kind, delta=None, parity=None):
        k = J.key(name, kind, delta, parity)
        if k not in expected["solve"]:
            expected["solve"][k] = solve_entry(as_json(name), kind, delta, parity)
            print(k, expected["solve"][k], flush=True)

    for name in J.POINTWISE:
        for d in J.deltas_for(name):
            add(name, "der", d)
        add(name, "centroid")
        add(name, "quasider")
        if J.build(name, PKG).flavor == "super":
            for d in J.deltas_for(name):
                add(name, "der", d, 0)
                add(name, "der", d, 1)
            add(name, "supercentroid")
    for name in J.REBASED_POINTWISE:
        for d in J.REBASED_DELTAS:
            add(name, "der", d)
        add(name, "centroid")
    for name, _, _ in J.CLI_ALGEBRAS:
        add(name, "der", "1/2")
    for (name, kind, d), dim in KNOWN.items():
        assert expected["solve"][J.key(name, kind, d)]["dim"] == dim, (name, kind, d)

    for name in sorted(set(J.PARAMETRIC) | set(J.REBASED_PARAMETRIC)):
        expected["parametric"][name] = parametric_entry(name)
        print("parametric", name, expected["parametric"][name], flush=True)

    s4 = as_json(J.S4_ALGEBRA)
    dim = X.s4_rank(s4, X.field_of(s4))
    assert dim == 0  # an ideal trivially
    expected["s4"][J.S4_ALGEBRA] = {"dim": dim, "is_ideal": True}
    # known values: s4(osp(1|2)) has dimension 5 and s4 of its m = 5
    # Grassmann envelope dimension 77; they agree degreewise (s4_envelope_report)
    env_name, m = J.S4_ENVELOPE
    expected["s4_envelope"][f"{env_name} m={m}"] = {
        "s4_dim": 5, "envelope_s4_dim": 77, "match_positive_degree": True, "contained": True,
    }

    golden_dir = os.path.join(HERE, "golden")
    shutil.rmtree(golden_dir, ignore_errors=True)
    os.makedirs(golden_dir)
    write_goldens(expected, golden_dir)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
