#!/usr/bin/env python3
"""Digests of the package's canonical answers on a fixed corpus.

    python3 tools/golden_digests.py   # rewrite tests/golden/digests.json

``pytest tests/test_golden_digests.py`` compares the answers with the file
and names each key that differs.

Run from the root of a source checkout.  Each record is one solve, and its
digest the first 16 hex digits of the SHA-256 of
``json.dumps(result.to_json(), sort_keys=True)``.  The corpus:

- the algebras of the ``pointwise`` workload (``perfbench/jobs.py``) at its
  fixed delta, with their centroids, their quasiderivations up to
  dimension 16 and, for superalgebras, the superderivations of both
  parities at the same delta and the supercentroid of each parity;
- the algebras of the ``rebased`` workload at the same delta and their
  centroids, each in the dense bases of ``rebased`` in
  ``tests/conftest.py`` at seeds 7 and 23;
- ``solve_parametric`` on the algebras of the ``parametric`` workload, and
  on the rebased parametric ones plus sl3 over GF(7) and Q, rebased at
  both seeds;
- ``compute_s4`` on the ``pointwise`` algebras, with the super law too on
  the superalgebras, and ``compute_s4`` and ``half_ring_report`` on the
  rebased algebras at both seeds, but for s4 of rebased W(1,1)/GF(11),
  which takes over 2 s a seed;
- ``charpoly`` of the matrix of every ad e_i of sl3 and sl4 over Q and of
  the rebased Q algebras at both seeds;
- ``grading_report`` of the root decomposition of sl4 over Q by its three
  Cartan ad maps at delta = 1.

A digest pins the package against itself, not against the truth: a change
that moves one must say which independent check backs the new answer.
Only the standard library is used.
"""

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATH = os.path.join(ROOT, "tests", "golden", "digests.json")
SEEDS = (7, 23)
QUASI_MAX_DIM = 16
# the records that take over a second each; tier-1 checks them apart
SLOW = {f"parametric|rebased{seed} sl3/Q" for seed in SEEDS}


def _imports():
    for sub in ("src", "perfbench", "tests"):
        path = os.path.join(ROOT, sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    import jobs
    from conftest import rebased

    import deltader.gradings
    import deltader.halfring
    import deltader.linalg
    import deltader.solver
    import deltader.superstd

    return jobs, rebased, deltader


def records():
    """{key: thunk}, each thunk returning the JSON form of one answer."""
    jobs, rebased, pkg = _imports()
    S = pkg.solver
    out = {}

    def space(key, solve, *args):
        out[key] = lambda: solve(*args).to_json()

    def spectrum(key, alg):
        out[key] = lambda: S.solve_parametric(alg).to_json(alg.field)

    def value(key, run, *args):
        out[key] = lambda: run(*args)

    def s4(alg, law):
        ideal = pkg.superstd.compute_s4(alg, law)
        return {"basis": [[alg.field.fmt(c) for c in v] for v in ideal.basis], "is_ideal": ideal.is_ideal}

    def charpolys(alg):
        F = alg.field
        return [[F.fmt(c) for c in pkg.linalg.charpoly(F, alg.ad(i).rows)] for i in range(alg.dim)]

    def cartan_grading(alg, cartan, delta):
        G = pkg.gradings
        return G.grading_report(G.root_decompose(alg, [alg.ad(i) for i in cartan], delta))

    for name in jobs.POINTWISE:
        alg = jobs.build(name, pkg)
        for d in jobs.FIXED_DELTAS:
            space(f"der|{name}|{d}", S.solve_delta_derivations, alg, d)
        space(f"centroid|{name}", S.solve_centroid, alg)
        if alg.dim <= QUASI_MAX_DIM:
            space(f"quasider|{name}", S.solve_quasiderivations, alg)
        if alg.flavor == "super" and alg.grading is not None:
            for q in (0, 1):
                for d in jobs.FIXED_DELTAS:
                    space(f"superder|{name}|{d}|{q}", S.solve_superderivations, alg, d, q)
                space(f"supercentroid|{name}|{q}", S.solve_supercentroid, alg, q)
            value(f"s4super|{name}", s4, alg, "super")
        value(f"s4|{name}", s4, alg, "ordinary")
    for seed in SEEDS:
        for name in jobs.REBASED_POINTWISE:
            alg = rebased(jobs.build(name, pkg), seed)
            for d in jobs.FIXED_DELTAS:
                space(f"der|rebased{seed} {name}|{d}", S.solve_delta_derivations, alg, d)
            space(f"centroid|rebased{seed} {name}", S.solve_centroid, alg)
            if name != "W11/GF11":
                value(f"s4|rebased{seed} {name}", s4, alg, "ordinary")
            value(f"half_ring|rebased{seed} {name}", pkg.halfring.half_ring_report, alg)
            if name.endswith("/Q"):
                value(f"charpoly|rebased{seed} {name}", charpolys, alg)
    for name in jobs.PARAMETRIC:
        spectrum(f"parametric|{name}", jobs.build(name, pkg))
    for seed in SEEDS:
        for name in jobs.REBASED_PARAMETRIC + ["sl3/GF7", "sl3/Q"]:
            spectrum(f"parametric|rebased{seed} {name}", rebased(jobs.build(name, pkg), seed))
    for name in ("sl3/Q", "sl4/Q"):
        value(f"charpoly|{name}", charpolys, jobs.build(name, pkg))
    # sl4's basis is the 12 E_ij, then the Cartan H_0, H_1, H_2
    value("grade|sl4/Q|cartan|1", cartan_grading, jobs.build("sl4/Q", pkg), (12, 13, 14), 1)
    return out


def digest(answer) -> str:
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()[:16]


def compute(keys=None) -> dict:
    """The digest of each record, or of those named in ``keys``."""
    todo = records()
    return {key: digest(run()) for key, run in todo.items() if keys is None or key in keys}


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def differing(got: dict, want: dict) -> list[str]:
    """The keys of either whose digests differ or that only one holds."""
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    got = compute()
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    with open(PATH, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(got, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(got)} digests to {PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
