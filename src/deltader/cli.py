"""Command-line front end.

Subcommands: make, solve, grade, report, validate.  All scalars are exact
strings ("-1", "3/7"); decimal literals are rejected.  Output JSON is
canonical: sorted keys, two-space indent, LF newlines.  Exit codes: 0 on
success, 2 on input/validation errors, 3 on mathematical precondition
failures (non-closure, non-splitting, nilpotency too deep, ...).
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebras import (
    AlgebraError,
    algebra_from_json,
    algebra_to_json,
    make_abelian,
    make_current,
    make_divided_powers,
    make_elduque4,
    make_osp12,
    make_special_linear,
    make_witt_type,
    make_zassenhaus,
    validate,
)
from .fields import (
    FieldError,
    InvalidField,
    PrimeField,
    Rationals,
    parse_scalar,
)
from .gradings import (
    BadDelta,
    NonSplitting,
    grading_report,
    root_decompose,
)
from .halfring import NotClosedRing, half_ring_report
from .linmap import LinearMap
from .solver import (
    NilpotencyTooDeep,
    solve_centroid,
    solve_delta_derivations,
    solve_parametric,
    solve_quasiderivations,
    solve_superderivations,
)
from .superstd import compute_s4, desk_check_theorems

EXIT_INPUT = 2
EXIT_MATH = 3

_MATH_ERRORS = (
    NotClosedRing,
    NonSplitting,
    NilpotencyTooDeep,
    BadDelta,
    FieldError,
)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(obj))


def parse_field(spec: str):
    spec = spec.strip()
    if spec in ("Q", "q", "QQ"):
        return Rationals()
    low = spec.lower()
    for prefix in ("gf", "f"):
        if low.startswith(prefix) and low[len(prefix):].isdigit():
            return PrimeField(int(low[len(prefix):]))
    raise InvalidField(f"unknown field spec {spec!r} (use Q or gf<p>)")


def load_algebra(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    for key in ("field", "dim", "basis"):
        if not isinstance(data, dict) or key not in data:
            raise AlgebraError(f"{path}: missing key {key!r}")
    for idx, entry in enumerate(data.get("products", [])):
        for key in ("i", "j", "terms"):
            if not isinstance(entry, dict) or key not in entry:
                raise AlgebraError(f"{path}: products[{idx}]: missing key {key!r}")
    try:
        alg = algebra_from_json(data)
    except AlgebraError as exc:
        raise AlgebraError(f"{path}: {exc}") from exc
    rep = validate(alg)
    if not rep.ok:
        raise AlgebraError(
            f"{path}: algebra violates {rep.law} at {rep.violations[0][0]}"
        )
    return alg


def load_maps(path: str, alg):
    """Read linear maps from a solution-space JSON ({"basis": [...]}) or a
    plain {"maps": [[row strings]]} file; each map is a dim x dim matrix."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    raw = data.get("basis", data.get("maps")) if isinstance(data, dict) else None
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a JSON object with a 'basis' or 'maps' list")
    F = alg.field
    n = alg.dim
    maps = []
    for idx, mat in enumerate(raw):
        if not isinstance(mat, list) or len(mat) != n or any(
            not isinstance(row, list) or len(row) != n for row in mat
        ):
            raise ValueError(f"{path}: map {idx} is not a {n} x {n} matrix")
        rows = [[parse_scalar(F, c) for c in row] for row in mat]
        maps.append(LinearMap(F, rows))
    return maps


_MAKE_REQUIRES = {"zassenhaus": ["p"], "divided-powers": ["p"], "abelian": ["dim"],
                  "witt": ["support"], "current": ["left", "right"]}


def cmd_make(args) -> int:
    for opt in _MAKE_REQUIRES.get(args.kind, ()):
        if getattr(args, opt) is None:
            raise ValueError(f"make {args.kind} requires --{opt}")
    if args.kind == "zassenhaus":
        alg = make_zassenhaus(args.p, args.n)
    elif args.kind == "divided-powers":
        alg = make_divided_powers(args.p, args.n)
    elif args.kind == "elduque4":
        alg = make_elduque4(parse_field(args.field))
    elif args.kind == "abelian":
        alg = make_abelian(parse_field(args.field), args.dim)
    elif args.kind == "sl":
        alg = make_special_linear(args.n, parse_field(args.field))
    elif args.kind == "osp12":
        alg = make_osp12(parse_field(args.field))
    elif args.kind == "witt":
        field = parse_field(args.field)
        support = [int(s) for s in args.support.split(",")]
        alg = make_witt_type(field, support, modulus=args.modulus)
    elif args.kind == "current":
        left = load_algebra(args.left)
        right = load_algebra(args.right)
        alg = make_current(left, right)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown construction {args.kind!r}")
    write_json(args.out, algebra_to_json(alg))
    print(f"wrote {args.out} (dim = {alg.dim})")
    return 0


def cmd_solve(args) -> int:
    alg = load_algebra(args.algebra)
    F = alg.field
    if args.parametric:
        result = solve_parametric(alg)
        print(f"generic dim = {result.generic_dim}")
        specials = ", ".join(
            f"{F.fmt(d)} (dim {dim})" for d, dim in result.specials
        )
        print(f"specials: {specials if specials else 'none'}")
        if args.out:
            write_json(args.out, result.to_json(F))
        return 0
    if args.kind == "centroid":
        space = solve_centroid(alg)
    elif args.kind == "quasider":
        space = solve_quasiderivations(alg)
    else:
        if args.delta is None:
            raise ValueError("--delta is required unless --parametric is given")
        delta = parse_scalar(F, args.delta)
        if args.kind == "der":
            space = solve_delta_derivations(alg, delta)
        else:  # superder
            if args.parity is None:
                raise ValueError("--parity is required for --kind superder")
            space = solve_superderivations(alg, delta, args.parity)
    print(f"dim = {space.dim}")
    if args.out:
        write_json(args.out, space.to_json())
    return 0


def cmd_grade(args) -> int:
    alg = load_algebra(args.algebra)
    delta = parse_scalar(alg.field, args.delta)
    maps = load_maps(args.derivations, alg)
    dec = root_decompose(alg, maps, delta)
    report = grading_report(dec)
    report["semigroup_verdict"] = report["verdict"]
    out = canonical_json(report)
    if args.out:
        write_json(args.out, report)
    sys.stdout.write(out)
    return 0


def cmd_report(args) -> int:
    alg = load_algebra(args.algebra)
    report: dict = {"dim": alg.dim, "flavor": alg.flavor}
    try:
        report["half_ring"] = half_ring_report(alg)
    except (NotClosedRing, ValueError) as exc:
        report["half_ring"] = {"error": str(exc)}
    s4 = compute_s4(alg)
    report["s4_dim"] = s4.dim
    report["s4_is_ideal"] = s4.is_ideal
    report["desk_check"] = desk_check_theorems(alg)
    out = canonical_json(report)
    if args.out:
        write_json(args.out, report)
    sys.stdout.write(out)
    return 0


def cmd_validate(args) -> int:
    alg = load_algebra(args.algebra)
    print(f"ok: dim = {alg.dim}, flavor = {alg.flavor}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltader",
        description="Exact delta-derivation computations on structure-constant algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_make = sub.add_parser("make", help="construct an algebra and write its JSON")
    p_make.add_argument(
        "kind",
        choices=[
            "zassenhaus",
            "divided-powers",
            "elduque4",
            "abelian",
            "sl",
            "osp12",
            "witt",
            "current",
        ],
    )
    p_make.add_argument("--p", type=int, help="characteristic")
    p_make.add_argument("--n", type=int, default=1, help="height / matrix size")
    p_make.add_argument("--dim", type=int, help="dimension (abelian)")
    p_make.add_argument("--field", default="Q", help="Q or gf<p>")
    p_make.add_argument("--support", help="comma-separated root set (witt)")
    p_make.add_argument(
        "--modulus", type=int, help="reduce witt root sums modulo this integer"
    )
    p_make.add_argument("--left", help="algebra file (current)")
    p_make.add_argument("--right", help="commutative algebra file (current)")
    p_make.add_argument("--out", required=True)
    p_make.set_defaults(func=cmd_make)

    p_solve = sub.add_parser("solve", help="solve a derivation-type linear system")
    p_solve.add_argument("algebra")
    p_solve.add_argument("--delta", help="exact scalar literal, e.g. 1/2")
    p_solve.add_argument(
        "--parametric", action="store_true", help="treat delta as a parameter"
    )
    p_solve.add_argument(
        "--kind",
        choices=["der", "centroid", "quasider", "superder"],
        default="der",
    )
    p_solve.add_argument("--parity", type=int, choices=[0, 1])
    p_solve.add_argument("--out")
    p_solve.set_defaults(func=cmd_solve)

    p_grade = sub.add_parser("grade", help="root-space decomposition report")
    p_grade.add_argument("algebra")
    p_grade.add_argument("derivations", help="solution-space or maps JSON")
    p_grade.add_argument("--delta", required=True)
    p_grade.add_argument("--out")
    p_grade.set_defaults(func=cmd_grade)

    p_report = sub.add_parser(
        "report", help="half-derivation ring, s4 ideal and theorem desk checks"
    )
    p_report.add_argument("algebra")
    p_report.add_argument("--out")
    p_report.set_defaults(func=cmd_report)

    p_val = sub.add_parser("validate", help="check an algebra file against its laws")
    p_val.add_argument("algebra")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _MATH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except (
        AlgebraError,
        InvalidField,
        ValueError,
        OSError,
        json.JSONDecodeError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
