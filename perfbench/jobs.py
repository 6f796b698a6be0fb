"""Workload inputs, job streams and answer checks.

A workload is a fixed multiset of jobs.  One *pass* runs every job once, in
an order drawn from the seed; the seed also draws the extra delta of each
algebra and the rebasing matrices, never which jobs run.  Each job returns
an answer that ``check`` compares with ``expected.json`` (derived offline by
``make_expected.py`` with the package-independent code in ``exact.py``) or
with committed golden CLI output.

The package is reached only through module attributes looked up at call
time (``S.solve_parametric``), so the tracer in ``tracing.py`` sees every
call once it has wrapped those attributes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import exact as X

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")

# delta values every pointwise algebra is solved at, plus one drawn per
# pass: from GF(p) itself, or from Q_POOL over Q
FIXED_DELTAS = ["-1", "0", "1/2", "1", "2", "1/3"]
Q_POOL = ["3", "-2", "2/3", "-1/2", "5/7", "4", "-3/5", "1/4"]
REBASED_DELTAS = ["1/2", "1"]
REBASE_DRAWS = 4  # pass k of `rebased` uses rebasing draw k mod 4

# Per-job deadlines (seconds, untraced).  Every correct job of this set ends
# in under a third of its deadline on a 2-core x86 VM; Witt Z/7 over Q hangs
# in the rational root search and is stopped by its deadline.
DEADLINE_S = 5.0
PARAM_DEADLINE_S = {"sl3/Q": 30.0, "wittZ5/Q": 30.0, "wittZ7/Q": 6.0}
KNOWN_DEFECTS = {
    "wittZ7/Q": "hangs in base_field_roots over Q (trial division of a 60-bit coefficient)",
    "cli --parametric --out": "TypeError: cli calls ParametricResult.to_json() without the field",
}
S4_ENVELOPE_DEADLINE_S = 40.0

POINTWISE = [
    "W11/GF5", "W11/GF7", "W11/GF11", "W12/GF5", "sl3/Q", "sl4/Q",
    "osp12/GF7", "env4(osp12/GF7)", "sl2xO1/GF5",
]
PARAMETRIC = [
    "sl2/Q", "sl2/GF7", "W11/GF5", "W11/GF7", "wittZ5/GF7", "wittZ7/GF11",
    "elduque4/Q", "osp12/Q", "sl3/Q", "wittZ5/Q", "wittZ7/Q",
]
REBASED_POINTWISE = [
    "W11/GF5", "W11/GF7", "W11/GF11", "sl3/GF7", "sl3/Q", "wittZ5/GF7", "wittZ7/Q",
]
# Rebased sl3 is left out of the parametric jobs: it takes 32 s over GF(7)
# and does not finish within 150 s over Q.
REBASED_PARAMETRIC = ["sl2/Q", "sl2/GF7", "W11/GF5", "wittZ5/GF7"]
# CLI algebras: (name, `make` arguments, basis indices of the commuting
# inner derivations passed to `grade`)
CLI_ALGEBRAS = [
    ("W11/GF5", ["zassenhaus", "--p", "5", "--n", "1"], [1]),
    ("W11/GF7", ["zassenhaus", "--p", "7", "--n", "1"], [1]),
    ("sl3/Q", ["sl", "--n", "3", "--field", "Q"], [6, 7]),
    ("osp12/GF7", ["osp12", "--field", "gf7"], [1]),
]
CLI_PARAMETRIC = "W11/GF5"
S4_ALGEBRA = "W11/GF11"
S4_ENVELOPE = ("osp12/GF7", 5)

WORKLOADS = ("pointwise", "parametric", "rebased", "s4_report")
# reference seconds per pass; a run makes seconds // NOMINAL_PASS_S passes
NOMINAL_PASS_S = {"pointwise": 3.0, "parametric": 19.0, "rebased": 4.5, "s4_report": 9.5}
# Times a job may run back to back within a pass (its latency is the
# median).  parametric and s4_report make few jobs per run, so their cheap
# jobs repeat; the other two make hundreds of jobs and run each once.
REPEATS = {"pointwise": 1, "parametric": 5, "rebased": 1, "s4_report": 5}


def build(name: str, pkg):
    """Construct a named algebra with the package's public constructors."""
    A, FL, SS = pkg.algebras, pkg.fields, pkg.superstd
    Q = FL.Rationals()
    if name == "osp12/GF7":
        return SS.load_fixture("osp12_gf7.json")
    if name == "env4(osp12/GF7)":
        return A.make_grassmann_envelope(SS.load_fixture("osp12_gf7.json"), 4)
    if name == "sl2xO1/GF5":
        return A.make_current(
            A.make_special_linear(2, FL.PrimeField(5)), A.make_divided_powers(5, 1)
        )
    family, field = name.split("/")
    F = Q if field == "Q" else FL.PrimeField(int(field[2:]))
    if family.startswith("W1"):
        return A.make_zassenhaus(F.p, int(family[2]))
    if family.startswith("sl"):
        return A.make_special_linear(int(family[2:]), F)
    if family.startswith("wittZ"):
        m = int(family[5:])
        return A.make_witt_type(F, range(m), modulus=m)
    if family == "elduque4":
        return A.make_elduque4(F)
    if family == "osp12":
        return A.make_osp12(F)
    raise ValueError(f"unknown algebra {name!r}")


def law_of(alg) -> str:
    return {"lie": "jacobi", "super": "super_jacobi", "assoc": "assoc"}[alg.flavor]


def key(alg_name, kind, delta=None, parity=None) -> str:
    return f"{alg_name}|{kind}|{'-' if delta is None else delta}|{'-' if parity is None else parity}"


def deltas_for(alg_name: str) -> list[str]:
    """Every delta a pointwise job on this algebra may use."""
    field = alg_name.rsplit("/", 1)[1].rstrip(")")
    if field == "Q":
        return FIXED_DELTAS + Q_POOL
    return FIXED_DELTAS + [str(a) for a in range(int(field[2:]))]


def draw_delta(alg_name: str, rng: random.Random) -> str:
    field = alg_name.rsplit("/", 1)[1].rstrip(")")
    if field == "Q":
        return rng.choice(Q_POOL)
    return str(rng.randrange(int(field[2:])))


# ---------------------------------------------------------------------------
# rebasing


def unimodular(n: int, rng: random.Random):
    """A dense integer matrix P = S1 M S2 of determinant +-1 and its integer
    inverse.  M = L U for the all-ones unit lower and upper triangular L and
    U, so M[i][j] = min(i, j) + 1; S1 and S2 are seeded signed permutations.
    Every draw has the same entries up to place and sign, which keeps the
    cost of the rebased systems close from seed to seed."""
    M = [[min(i, j) + 1 for j in range(n)] for i in range(n)]
    # M^-1 = U^-1 L^-1 is tridiagonal: 2 on the diagonal (1 last), -1 beside it
    Minv = [[2 if i == j < n - 1 else 1 if i == j else -1 if abs(i - j) == 1 else 0
             for j in range(n)] for i in range(n)]
    p1, p2 = rng.sample(range(n), n), rng.sample(range(n), n)
    s1, s2 = [rng.choice((-1, 1)) for _ in range(n)], [rng.choice((-1, 1)) for _ in range(n)]
    P = [[s1[i] * M[p1[i]][p2[j]] * s2[j] for j in range(n)] for i in range(n)]
    Pinv = [[s2[j] * Minv[p2[j]][p1[i]] * s1[i] for i in range(n)] for j in range(n)]
    return P, Pinv


def rebase(alg, rng: random.Random, pkg):
    """The algebra in the basis f_a = sum_i P[a][i] e_i for a seeded dense
    unimodular P, built through the public ``Algebra`` constructor."""
    F = alg.field
    n = alg.dim
    P, Pinv = unimodular(n, rng)
    P = [[F.coerce(x) for x in row] for row in P]
    Pinv = [[F.coerce(x) for x in row] for row in Pinv]
    products = {}
    for a in range(n):
        for b in range(a + 1, n):
            v = [F.zero()] * n
            for i in range(n):
                for j in range(n):
                    c = F.mul(P[a][i], P[b][j])
                    if F.is_zero(c):
                        continue
                    for k, w in alg.product(i, j).items():
                        v[k] = F.add(v[k], F.mul(c, w))
            terms = {}
            for col in range(n):
                s = F.zero()
                for k in range(n):
                    s = F.add(s, F.mul(v[k], Pinv[k][col]))
                if not F.is_zero(s):
                    terms[col] = s
            if terms:
                products[(a, b)] = terms
    return pkg.algebras.Algebra(F, n, [f"f{i}" for i in range(n)], products, flavor=alg.flavor)


# ---------------------------------------------------------------------------
# jobs


class Job:
    """One unit of work: ``run()`` gives the answer, ``check(answer)``
    returns None or a description of what is wrong."""

    def __init__(self, name, run, check, deadline=DEADLINE_S, known_defect=None):
        self.name = name
        self.run = run
        self.check = check
        self.deadline = deadline
        self.known_defect = known_defect  # documented failure mode, if any


def flat_basis(space) -> list:
    return [b[0].flat() + b[1].flat() if isinstance(b, tuple) else b.flat() for b in space.basis]


class Checker:
    """Answer checks shared by the workloads.  A rebased answer is verified
    in full once per rebasing draw; later passes compare its digest."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.seen: dict = {}

    def solve(self, alg_name, kind, delta=None, parity=None):
        exp = self.expected["solve"][key(alg_name, kind, delta, parity)]

        def check(space):
            F = X.field_of({"field": space.algebra.field.to_json()})
            got = X.digest(flat_basis(space), F)
            if space.dim != exp["dim"] or got != exp["digest"]:
                return f"dim {space.dim} digest {got}, expected dim {exp['dim']} digest {exp['digest']}"
            return None

        return check

    def rebased_solve(self, alg_name, draw, alg_json, kind, delta=None):
        """Rebased answers: the standard-basis dimension, and a basis that
        solves the rebased system (checked once per draw, then by digest)."""
        exp = self.expected["solve"][key(alg_name, kind, delta)]
        memo = (alg_name, draw, kind, delta)

        def check(space):
            F = X.field_of(alg_json)
            vecs = flat_basis(space)
            got = X.digest(vecs, F)
            if space.dim != exp["dim"]:
                return f"dim {space.dim}, standard basis gives {exp['dim']}"
            if memo in self.seen:
                return None if self.seen[memo] == got else "answer changed between passes"
            d = None if delta is None else F.of(Fraction(delta))
            rows = X.law_rows(alg_json, F, kind, d)
            if not all(X.satisfies(rows, v, F) for v in vecs):
                return "a basis map does not solve the rebased system"
            if X.rank([{c: v for c, v in enumerate(vec) if not F.is_zero(v)} for vec in vecs], F) != len(vecs):
                return "basis maps are linearly dependent"
            self.seen[memo] = got
            return None

        return check

    def parametric(self, alg_name):
        return equal_to(self.expected["parametric"][alg_name])


def equal_to(expected):
    """Check that an answer equals the expected value."""
    return lambda got: None if got == expected else f"{got}, expected {expected}"


def _cli(pkg, argv, tmp):
    """Run ``deltader.cli.main`` in-process; return (exit code, stdout with
    the temporary directory written as <tmp>)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pkg.cli.main(argv)
    return code, out.getvalue().replace(tmp, "<tmp>")


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def golden_name(alg_name: str) -> str:
    return alg_name.replace("/", "_")


class Workload:
    """Inputs of one workload, built in ``setup``, and its job multiset."""

    def __init__(self, name: str, seed: int, pkg, expected: dict, tmp: str):
        self.name = name
        self.pkg = pkg
        self.rng = random.Random(f"{name}:{seed}")
        self.check = Checker(expected)
        self.expected = expected
        self.tmp = tmp
        self.algs: dict = {}
        self.rebased: dict = {}  # (name, draw) -> (algebra, json form)

    # -- setup ------------------------------------------------------------

    def _load(self, names):
        A = self.pkg.algebras
        for name in names:
            if name in self.algs:
                continue
            alg = build(name, self.pkg)
            ok = A.validate(alg, law_of(alg)).ok
            if ok != self.expected["valid"][name]:
                raise RuntimeError(f"{name}: validate says {ok}, expected {self.expected['valid'][name]}")
            self.algs[name] = alg

    def setup(self):
        if self.name == "pointwise":
            self._load(POINTWISE)
        elif self.name == "parametric":
            self._load(PARAMETRIC)
        elif self.name == "rebased":
            names = REBASED_POINTWISE + [n for n in REBASED_PARAMETRIC if n not in REBASED_POINTWISE]
            self._load(names)
            A = self.pkg.algebras
            for draw in range(REBASE_DRAWS):
                for name in names:
                    alg = rebase(self.algs[name], self.rng, self.pkg)
                    if A.validate(alg, law_of(alg)).ok != self.expected["valid"][name]:
                        raise RuntimeError(f"rebased {name}: validation verdict differs")
                    self.rebased[(name, draw)] = (alg, A.algebra_to_json(alg))
        elif self.name == "s4_report":
            self._load([a for a, _, _ in CLI_ALGEBRAS] + [S4_ALGEBRA])
            A = self.pkg.algebras
            for name, _, derivs in CLI_ALGEBRAS:
                alg = self.algs[name]
                stem = os.path.join(self.tmp, golden_name(name))
                with open(stem + ".json", "w", encoding="utf-8") as fh:
                    json.dump(A.algebra_to_json(alg), fh)
                with open(stem + ".maps.json", "w", encoding="utf-8") as fh:
                    json.dump({"maps": [alg.ad(i).to_json() for i in derivs]}, fh)
        else:
            raise ValueError(f"unknown workload {self.name!r}")

    # -- jobs --------------------------------------------------------------

    def jobs(self, pass_index: int) -> list[Job]:
        """The job multiset of one pass, in seeded order."""
        make = getattr(self, "_jobs_" + self.name)
        jobs = make(pass_index)
        self.rng.shuffle(jobs)
        return jobs

    def _delta(self, alg, text):
        return self.pkg.fields.parse_scalar(alg.field, text)

    def _jobs_pointwise(self, _pass):
        S = self.pkg.solver
        C = self.check
        out = []
        for name in POINTWISE:
            alg = self.algs[name]
            for d in FIXED_DELTAS + [draw_delta(name, self.rng)]:
                out.append(Job(
                    f"der {name} d={d}",
                    lambda alg=alg, d=d: S.solve_delta_derivations(alg, self._delta(alg, d)),
                    C.solve(name, "der", d),
                ))
            out.append(Job(f"centroid {name}", lambda alg=alg: S.solve_centroid(alg), C.solve(name, "centroid")))
            out.append(Job(f"quasider {name}", lambda alg=alg: S.solve_quasiderivations(alg), C.solve(name, "quasider")))
            if alg.grading is not None and alg.flavor == "super":
                for d in ["1/2", "1", draw_delta(name, self.rng)]:
                    for q in (0, 1):
                        out.append(Job(
                            f"superder {name} d={d} p={q}",
                            lambda alg=alg, d=d, q=q: S.solve_superderivations(alg, self._delta(alg, d), q),
                            C.solve(name, "der", d, q),
                        ))
                out.append(Job(f"supercentroid {name}", lambda alg=alg: S.solve_supercentroid(alg), C.solve(name, "supercentroid")))
        return out

    def _parametric_job(self, label, alg, check, deadline=DEADLINE_S, known_defect=None):
        S = self.pkg.solver
        return Job(label, lambda: S.solve_parametric(alg).to_json(alg.field), check, deadline, known_defect)

    def _jobs_parametric(self, _pass):
        return [
            self._parametric_job(f"parametric {n}", self.algs[n], self.check.parametric(n),
                                 PARAM_DEADLINE_S.get(n, DEADLINE_S), KNOWN_DEFECTS.get(n))
            for n in PARAMETRIC
        ]

    def _jobs_rebased(self, pass_index):
        S = self.pkg.solver
        C = self.check
        draw = pass_index % REBASE_DRAWS
        out = []
        for name in REBASED_POINTWISE:
            alg, js = self.rebased[(name, draw)]
            for d in REBASED_DELTAS:
                out.append(Job(
                    f"rebased der {name} d={d}",
                    lambda alg=alg, d=d: S.solve_delta_derivations(alg, self._delta(alg, d)),
                    C.rebased_solve(name, draw, js, "der", d),
                ))
            out.append(Job(f"rebased centroid {name}", lambda alg=alg: S.solve_centroid(alg),
                           C.rebased_solve(name, draw, js, "centroid")))
        for name in REBASED_PARAMETRIC:
            alg, _ = self.rebased[(name, draw)]
            out.append(self._parametric_job(f"rebased parametric {name}", alg, C.parametric(name)))
        return out

    def _jobs_s4_report(self, _pass):
        tmp = self.tmp
        SS = self.pkg.superstd
        out = []

        def cli_job(label, argv, golden, out_file=None, known_defect=None):
            def run():
                code, text = _cli(self.pkg, argv, tmp)
                produced = _read(out_file) if out_file and code == 0 else None
                if out_file and os.path.exists(out_file):
                    os.remove(out_file)
                return code, text, produced

            def check(answer):
                code, text, produced = answer
                if code != 0:
                    return f"exit code {code}"
                if text != _golden(golden + ".stdout"):
                    return "stdout differs from golden"
                if out_file and produced != _golden(golden + ".out.json"):
                    return "output file differs from golden"
                return None

            job = Job(label, run, check, known_defect=known_defect)
            job.golden = golden  # read by make_expected.py when it records goldens
            return job

        for name, make_args, _ in CLI_ALGEBRAS:
            g = golden_name(name)
            src = os.path.join(tmp, g + ".json")
            made = os.path.join(tmp, g + ".made.json")
            half = os.path.join(tmp, g + ".half.json")
            out += [
                cli_job(f"cli make {name}", ["make", *make_args, "--out", made], f"{g}.make", made),
                cli_job(f"cli validate {name}", ["validate", src], f"{g}.validate"),
                cli_job(f"cli solve {name} --delta 1/2", ["solve", src, "--delta", "1/2", "--out", half], f"{g}.solve", half),
                cli_job(f"cli grade {name}", ["grade", src, os.path.join(tmp, g + ".maps.json"), "--delta", "1"], f"{g}.grade"),
                cli_job(f"cli report {name}", ["report", src], f"{g}.report"),
            ]
        g = golden_name(CLI_PARAMETRIC)
        param_out = os.path.join(tmp, g + ".parametric.json")
        out.append(cli_job(
            f"cli solve {CLI_PARAMETRIC} --parametric --out",
            ["solve", os.path.join(tmp, g + ".json"), "--parametric", "--out", param_out],
            f"{g}.parametric", param_out,
            known_defect=KNOWN_DEFECTS["cli --parametric --out"],
        ))
        def s4():
            ideal = SS.compute_s4(self.algs[S4_ALGEBRA])
            return {"dim": ideal.dim, "is_ideal": ideal.is_ideal}

        out.append(Job(f"s4 {S4_ALGEBRA}", s4, equal_to(self.expected["s4"][S4_ALGEBRA])))
        env_name, m = S4_ENVELOPE
        out.append(Job(
            f"s4_envelope_report {env_name} m={m}",
            lambda: SS.s4_envelope_report(self.algs[env_name], m),
            equal_to(self.expected["s4_envelope"][f"{env_name} m={m}"]),
            deadline=S4_ENVELOPE_DEADLINE_S,
        ))
        return out
