"""Command-line front end.

Subcommands: make, solve, grade, report, validate.  Each construction of
``make`` and each ``--kind`` of ``solve`` is named once, in the table MAKE
or SOLVE; its entry lists the options it requires and accepts, and any
other option is refused.  ``make`` works out the dimension its options ask
for and refuses one above ``_MAKE_MAX_DIM`` before building anything.  All
scalars are exact strings ("-1", "3/7"); decimal literals are rejected.
Output JSON is canonical: sorted keys, two-space indent, LF newlines;
``solve`` makes its JSON only for ``--out``.
Exit codes: 0 on success, 2 on input/validation errors, 3 on mathematical
precondition failures (non-closure, non-splitting, nilpotency too deep,
...).  ``main`` returns every one of them, argparse's own included (2 for a
usage error, 0 for ``--help``), and raises no ``SystemExit``.  The parser
is built on the first call of ``main`` and serves every later call of the
process; each call parses into a fresh namespace, so no call sees the
options or defaults of another.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, NamedTuple

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
    ParametricResult,
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


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc


def load_algebra(path: str):
    data = read_json(path)
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
    data = read_json(path)
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


class Entry(NamedTuple):
    """One choice of a table-driven subcommand: the options it requires, the
    other options it accepts with their defaults, its runner and, for a
    ``make`` construction whose size its options set, the dimension they
    ask for, worked out before anything is built."""

    run: Callable
    requires: tuple = ()
    accepts: dict = {}
    size: Callable | None = None


def _select(table: dict, label: str, args) -> Entry:
    """The entry for ``args.kind``, once every option it does not take has
    been refused, every one it requires found, and its defaults filled in."""
    entry = table[args.kind]
    for opt in args.options:
        if getattr(args, opt) is not None and opt not in entry.requires and opt not in entry.accepts:
            raise ValueError(f"{label} does not take --{opt}")
    for opt in entry.requires:
        if getattr(args, opt) is None:
            raise ValueError(f"{label} requires --{opt}")
    for opt, default in entry.accepts.items():
        if getattr(args, opt) is None:
            setattr(args, opt, default)
    return entry


# ``make`` refuses an algebra above this dimension: the slowest at it,
# sl(22) of dimension 483, takes 6 s and 300 MB to build on a 2-core x86
# VM, and the time grows about as the square of the dimension.  The
# library constructors take any size.
_MAKE_MAX_DIM = 512


def _too_large(args, dim) -> ValueError:
    return ValueError(
        f"make {args.kind} would build an algebra of dimension {dim}, above the bound {_MAKE_MAX_DIM}"
    )


def _power_dim(args) -> int:
    """p^n, the dimension of a Zassenhaus or divided-power algebra (0 where
    p < 2 or n < 1, which the constructor refuses).  A height above 64 puts
    p^n above 2^64, so it is refused before p^n is formed."""
    if args.p < 2 or args.n < 1:
        return 0
    if args.n > 64:
        raise _too_large(args, f"{args.p}^{args.n}")
    return args.p**args.n


def _witt_support(args) -> set[int]:
    """The elements of ``--support``, reduced mod ``--modulus`` when it is
    given, once the modulus has been checked against the field."""
    field = parse_field(args.field)
    if args.modulus is not None:
        if args.modulus < 2:
            raise ValueError(f"--modulus must be at least 2, got {args.modulus}")
        if field.char != args.modulus:
            raise ValueError(
                f"Witt Z/{args.modulus} is Lie only in characteristic {args.modulus}, "
                f"not over {args.field}"
            )
    support = set()
    for s in args.support.split(","):
        try:
            support.add(int(s) % args.modulus if args.modulus else int(s))
        except ValueError:
            raise ValueError(f"--support entry {s!r} is not an integer") from None
    return support


def _current_dim(args) -> int:
    """dim L times dim A, with both factors loaded in place of their paths,
    so that the build reads each once."""
    args.left, args.right = load_algebra(args.left), load_algebra(args.right)
    return args.left.dim * args.right.dim


MAKE = {
    "zassenhaus": Entry(lambda a: make_zassenhaus(a.p, a.n), ("p",), {"n": 1}, size=_power_dim),
    "divided-powers": Entry(lambda a: make_divided_powers(a.p, a.n), ("p",), {"n": 1}, size=_power_dim),
    "elduque4": Entry(lambda a: make_elduque4(parse_field(a.field)), (), {"field": "Q"}),
    "abelian": Entry(
        lambda a: make_abelian(parse_field(a.field), a.dim), ("dim",), {"field": "Q"}, size=lambda a: a.dim
    ),
    "sl": Entry(
        lambda a: make_special_linear(a.n, parse_field(a.field)), ("n",), {"field": "Q"},
        size=lambda a: a.n * a.n - 1 if a.n >= 2 else 0,
    ),
    "osp12": Entry(lambda a: make_osp12(parse_field(a.field)), (), {"field": "Q"}),
    "witt": Entry(
        lambda a: make_witt_type(parse_field(a.field), _witt_support(a), modulus=a.modulus),
        ("support",), {"field": "Q", "modulus": None},
        size=lambda a: len(_witt_support(a)),
    ),
    "current": Entry(lambda a: make_current(a.left, a.right), ("left", "right"), size=_current_dim),
}


def cmd_make(args) -> int:
    entry = _select(MAKE, f"make {args.kind}", args)
    if entry.size and (dim := entry.size(args)) > _MAKE_MAX_DIM:
        raise _too_large(args, dim)
    alg = entry.run(args)
    write_json(args.out, algebra_to_json(alg))
    print(f"wrote {args.out} (dim = {alg.dim})")
    return 0


def _solve_der(alg, args):
    if not args.parametric:
        if args.delta is None:
            raise ValueError("--delta is required unless --parametric is given")
        return solve_delta_derivations(alg, args.delta)
    if args.delta is not None:
        raise ValueError("--delta cannot be combined with --parametric, which treats delta as a parameter")
    return solve_parametric(alg)


# each runner returns a SolutionSpace or, for --parametric, a ParametricResult
SOLVE = {
    "der": Entry(_solve_der, (), {"delta": None, "parametric": None}),
    "centroid": Entry(lambda alg, a: solve_centroid(alg)),
    "quasider": Entry(lambda alg, a: solve_quasiderivations(alg)),
    "superder": Entry(lambda alg, a: solve_superderivations(alg, a.delta, a.parity), ("delta", "parity")),
}


def cmd_solve(args) -> int:
    entry = _select(SOLVE, f"--kind {args.kind}", args)
    alg = load_algebra(args.algebra)
    F = alg.field
    result = entry.run(alg, args)
    parametric = isinstance(result, ParametricResult)
    # --out is written before stdout, so that a failed write prints nothing
    if args.out:
        write_json(args.out, result.to_json(F) if parametric else result.to_json())
    if parametric:
        specials = ", ".join(f"{F.fmt(d)} (dim {dim})" for d, dim in result.specials)
        print(f"generic dim = {result.generic_dim}")
        print(f"specials: {specials if specials else 'none'}")
    else:
        print(f"dim = {result.dim}")
    return 0


def _emit(report: dict, out: str | None) -> int:
    """Write a report to ``out`` when given, then to stdout."""
    if out:
        write_json(out, report)
    sys.stdout.write(canonical_json(report))
    return 0


def cmd_grade(args) -> int:
    alg = load_algebra(args.algebra)
    delta = parse_scalar(alg.field, args.delta)
    maps = load_maps(args.derivations, alg)
    report = grading_report(root_decompose(alg, maps, delta))
    report["semigroup_verdict"] = report["verdict"]
    return _emit(report, args.out)


def cmd_report(args) -> int:
    alg = load_algebra(args.algebra)
    F = alg.field
    report: dict = {"dim": alg.dim, "flavor": alg.flavor}
    # the half-derivations, solved once for both reports
    half = None
    try:
        half = solve_delta_derivations(alg, F.div(F.one(), F.from_int(2)))
        report["half_ring"] = half_ring_report(alg, half)
    except (NotClosedRing, ValueError) as exc:
        report["half_ring"] = {"error": str(exc)}
    s4 = compute_s4(alg)
    report["s4_dim"] = s4.dim
    report["s4_is_ideal"] = s4.is_ideal
    report["desk_check"] = desk_check_theorems(alg, half)
    return _emit(report, args.out)


def cmd_validate(args) -> int:
    alg = load_algebra(args.algebra)
    print(f"ok: dim = {alg.dim}, flavor = {alg.flavor}")
    return 0


def _options(parser) -> list[str]:
    """The options a table entry may require, accept or refuse: every one of
    the subcommand's options but --kind and --out, left None unless given."""
    return [a.dest for a in parser._actions if a.option_strings and a.dest not in ("help", "kind", "out")]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call; every call
    of ``main`` parses with it, so it is not to be modified."""
    parser = argparse.ArgumentParser(
        prog="deltader",
        description="Exact delta-derivation computations on structure-constant algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_make = sub.add_parser("make", help="construct an algebra and write its JSON")
    p_make.add_argument("kind", choices=list(MAKE))
    p_make.add_argument("--p", type=int, help="characteristic")
    p_make.add_argument("--n", type=int, help="height / matrix size")
    p_make.add_argument("--dim", type=int, help="dimension (abelian)")
    p_make.add_argument("--field", help="Q or gf<p>")
    p_make.add_argument("--support", help="comma-separated root set (witt)")
    p_make.add_argument(
        "--modulus", type=int, help="reduce witt root sums modulo this integer"
    )
    p_make.add_argument("--left", help="algebra file (current)")
    p_make.add_argument("--right", help="commutative algebra file (current)")
    p_make.add_argument("--out", required=True)
    p_make.set_defaults(func=cmd_make, options=_options(p_make))

    p_solve = sub.add_parser("solve", help="solve a derivation-type linear system")
    p_solve.add_argument("algebra")
    p_solve.add_argument("--delta", help="exact scalar literal, e.g. 1/2")
    # None unless given, like every option a table entry may refuse
    p_solve.add_argument(
        "--parametric", action="store_true", default=None, help="treat delta as a parameter"
    )
    p_solve.add_argument("--kind", choices=list(SOLVE), default="der")
    p_solve.add_argument("--parity", type=int, choices=[0, 1])
    p_solve.add_argument("--out")
    p_solve.set_defaults(func=cmd_solve, options=_options(p_solve))

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


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with ``--support V`` and ``--delta V`` joined into
    ``--support=V`` and ``--delta=V`` where V starts with a minus sign and
    a digit.  argparse reads a separate "-1,0,1" or "-1/3" as an option,
    since it is no plain negative number, and so finds the option without
    its value."""
    out = []
    for a in argv:
        if out and out[-1] in ("--support", "--delta") and a[:1] == "-" and a[1:2].isdigit():
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:  # a usage error (2) or --help (0)
        return exc.code
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
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
