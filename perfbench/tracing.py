"""Span and counter tracing of the package, installed from outside it.

``install`` replaces the public functions of each ``deltader`` module with
wrappers, in every module namespace that holds them (``deltader.linalg``
and ``deltader.solver`` both bind ``sparse_nullspace``), plus the
``SpanSolver`` methods and the field operations on their classes.  Spans
(name, start, end, parent, job) stay in memory; at exit ``layer_metrics``
turns them into the per-layer metrics and ``dump`` writes them out.  A
span's self time is its duration minus its direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
import types

# span name -> functions (module, attribute) wrapped under it
SPANS = {
    "build": [("algebras", n) for n in (
        "make_abelian", "make_witt_type", "make_zassenhaus", "make_divided_powers",
        "make_current", "make_semidirect", "make_deformed_zassenhaus",
        "make_derivation_algebra", "make_elduque4", "make_special_linear",
        "make_osp12", "make_grassmann_envelope", "algebra_from_json")],
    "validate": [("algebras", "validate")],
    "solve": [("solver", n) for n in (
        "solve_delta_derivations", "solve_module_valued", "solve_centroid",
        "solve_supercentroid", "solve_quasiderivations", "solve_superderivations",
        "solve_parametric")],
    "rref": [("linalg", "sparse_rref")],
    "nullspace": [("linalg", "sparse_nullspace"), ("linalg", "kernel_of_map"),
                  ("linalg", "dense_nullspace"), ("linalg", "rref_dense"),
                  ("linalg", "same_span")],
    "bareiss": [("linalg", "fraction_free_pivots")],
    "charpoly": [("linalg", "charpoly")],
    "roots": [("linalg", "base_field_roots")],
    "s4": [("superstd", "compute_s4")],
    "ring": [("halfring", n) for n in ("build_composition_ring", "locality_report", "find_zero_divisors")],
    "decompose": [("gradings", n) for n in ("root_decompose", "check_semigroup")],
    "json": [("cli", "write_json"), ("cli", "canonical_json"), ("algebras", "algebra_to_json")],
}
SPAN_QUERIES = ("contains", "coordinates")
FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div")
POLY_OPS = ("poly_mul", "poly_divmod")

# ROADMAP block census of the delta-derivation systems on standard bases:
# unknowns, blocks, largest block
CENSUS = {"W11/GF11": (121, 21, 11), "sl4/Q": (225, 55, 21), "W12/GF5": (625, 49, 25)}


def census(rows, ncols: int) -> tuple[int, int]:
    """(blocks, largest block) of the equation/unknown incidence graph,
    counted over unknowns; an unknown in no equation is a block of its own."""
    parent = list(range(ncols))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in rows:
        cols = [c for c, v in row.items() if v]
        if not cols:
            continue
        r = find(cols[0])
        for c in cols[1:]:
            s = find(c)
            if s != r:
                parent[s] = r
    sizes: dict = {}
    for c in range(ncols):
        r = find(c)
        sizes[r] = sizes.get(r, 0) + 1
    return len(sizes), max(sizes.values(), default=0)


def coeff_bits(x) -> int:
    if isinstance(x, int):
        return x.bit_length()
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, job]
        self.stack: list = []
        self.job = None
        self.field_ops = [0]
        self.poly_ops = [0]
        self.systems: list = []  # (rows, unknowns, nnz, blocks, largest, job, confirmation)
        self.rref = [0, 0]  # input rows, rank
        self.bareiss = {"cells": 0, "nonzero": 0, "max_deg": 0, "max_bits": 0}
        self.roots_max_bits = 0
        self.span_useful = 0
        self.param = {"candidates": 0, "confirmed": 0}
        self.s4 = {"calls": 0, "saturated": 0}

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, after=None, before=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            rec = [name, clock(), None, stack[-1] if stack else None, self.job]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks recording counts at layer boundaries ---------------------------

    def _system(self, rows, ncols, nnz):
        blocks, largest = census(rows, ncols)
        # a confirmation is a pointwise solve made inside solve_parametric
        open_spans = {self.spans[i][0] for i in self.stack}
        confirmation = {"solve_parametric", "solve_delta_derivations"} <= open_spans
        self.systems.append((len(rows), ncols, nnz, blocks, largest, self.job, confirmation))

    def _solver_nullspace(self, args):
        rows = list(args[0])
        self._system(rows, args[1], sum(len(r) for r in rows))
        return (rows,) + tuple(args[1:])

    def _solver_bareiss(self, args):
        base, rows, ncols = args
        pattern = [{c: 1 for c, e in enumerate(r) if e} for r in rows]
        nnz = sum(len(p) for p in pattern)
        self._system(pattern, ncols, nnz)
        self.bareiss["cells"] += len(rows) * ncols
        self.bareiss["nonzero"] += nnz
        return args

    def _bareiss_done(self, args, result):
        _, pivots = result
        for piv in pivots:
            self.bareiss["max_deg"] = max(self.bareiss["max_deg"], len(piv) - 1)
            self.bareiss["max_bits"] = max([self.bareiss["max_bits"]] + [coeff_bits(c) for c in piv])

    def _rref_in(self, args):
        rows = list(args[0])
        self.rref[0] += len(rows)
        return (rows,) + tuple(args[1:])

    def _rref_done(self, args, result):
        self.rref[1] += len(result)

    def _roots_in(self, args):
        self.roots_max_bits = max([self.roots_max_bits] + [coeff_bits(c) for c in args[1]])
        return args

    def _solve_done(self, args, result):
        # a pointwise confirmation made directly by solve_parametric
        if self.stack and self.spans[self.stack[-1]][0] == "solve_parametric":
            self.param["candidates"] += 1

    def _param_done(self, args, result):
        self.param["confirmed"] += len(result.specials)

    def _span_add_done(self, args, result):
        self.span_useful += bool(result)

    def _s4_done(self, args, result):
        self.s4["calls"] += 1
        self.s4["saturated"] += result.dim == args[0].dim

    # -- installation ----------------------------------------------------------

    def install(self, pkg):
        """Wrap the package's public functions in every namespace binding them."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "deltader" or n.startswith("deltader.")]
        originals = {}
        for targets in SPANS.values():
            for mod, attr in targets:
                originals[getattr(getattr(pkg, mod), attr)] = attr
        hooks = {
            "sparse_rref": (self._rref_in, self._rref_done),
            "fraction_free_pivots": (None, self._bareiss_done),
            "base_field_roots": (self._roots_in, None),
            "solve_delta_derivations": (None, self._solve_done),
            "solve_parametric": (None, self._param_done),
            "compute_s4": (None, self._s4_done),
        }
        solver_hooks = {"sparse_nullspace": self._solver_nullspace, "fraction_free_pivots": self._solver_bareiss}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not callable(obj) or originals.get(obj) != attr:
                    continue
                before, after = hooks.get(attr, (None, None))
                if module is pkg.solver and attr in solver_hooks:
                    # systems handed from the solver to linalg: shape and blocks
                    before = solver_hooks[attr]
                setattr(module, attr, self.wrap(attr, obj, after, before))
        span_cls = pkg.linalg.SpanSolver
        span_cls.add = self.wrap("SpanSolver.add", span_cls.add, self._span_add_done)
        for meth in SPAN_QUERIES:
            setattr(span_cls, meth, self.wrap("SpanSolver." + meth, getattr(span_cls, meth)))
        self._count_field_ops(pkg.fields)
        self._count_poly_ops(pkg.fields, modules)
        self._wrap_cli_json(pkg.cli)

    def _count_poly_ops(self, fields, modules):
        counter = self.poly_ops
        wrapped = {}
        for attr in POLY_OPS:
            fn = getattr(fields, attr)

            def counting(*args, _fn=fn):
                counter[0] += 1
                return _fn(*args)

            wrapped[fn] = counting
        for module in modules:
            for attr in POLY_OPS:
                fn = vars(module).get(attr)
                if fn in wrapped:
                    setattr(module, attr, wrapped[fn])

    def _count_field_ops(self, fields):
        counter = self.field_ops
        for cls in (fields.Field, fields.Rationals, fields.PrimeField, fields.QuotientRing):
            for op in FIELD_OPS:
                fn = cls.__dict__.get(op)
                if fn is None:
                    continue
                if op in ("neg", "inv"):
                    def counting(self_, a, _fn=fn):
                        counter[0] += 1
                        return _fn(self_, a)
                else:
                    def counting(self_, a, b, _fn=fn):
                        counter[0] += 1
                        return _fn(self_, a, b)
                setattr(cls, op, counting)

    def _wrap_cli_json(self, cli):
        proxy = types.SimpleNamespace(**{k: v for k, v in vars(json).items() if not k.startswith("_")})
        for name in ("load", "loads", "dump", "dumps"):
            setattr(proxy, name, self.wrap("json." + name, getattr(json, name)))
        cli.json = proxy

    def dump(self, path: str):
        """Write every span as one JSON line: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                fh.write(json.dumps(rec) + "\n")

    # -- metrics ---------------------------------------------------------------

    def _times(self):
        """Per span: duration and self time (duration minus direct children)."""
        n = len(self.spans)
        dur = [0.0] * n
        child = [0.0] * n
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            dur[i] = end - start
            if parent is not None:
                child[parent] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def layer_metrics(self) -> dict:
        dur, self_t = self._times()
        names = [s[0] for s in self.spans]
        parents = [s[3] for s in self.spans]

        def group(span):
            return {attr for _, attr in SPANS[span]}

        def total(span_names):
            # time in outermost spans of the set
            t = 0.0
            for i, name in enumerate(names):
                if name not in span_names:
                    continue
                p = parents[i]
                while p is not None and names[p] not in span_names:
                    p = parents[p]
                if p is None:
                    t += dur[i]
            return t

        def own(span_names):
            return sum((self_t[i] for i, name in enumerate(names) if name in span_names), 0.0)

        def count(span_names):
            return sum(1 for name in names if name in span_names)

        def ratio(a, b):
            return a / b if b else 0.0

        solve_names = group("solve")
        systems = self.systems
        b = self.bareiss
        span_adds = count({"SpanSolver.add"})
        return {
            "fields.ops": self.field_ops[0],
            "fields.poly_ops": self.poly_ops[0],
            "algebras.build_s": total(group("build")),
            "algebras.validate_s": total(group("validate")),
            "solver.self_s": own(solve_names),
            "solver.calls": len(systems),
            "solver.rows": sum(s[0] for s in systems),
            "solver.unknowns": sum(s[1] for s in systems),
            "solver.nnz": sum(s[2] for s in systems),
            "solver.blocks": ratio(sum(s[3] for s in systems), len(systems)),
            "solver.largest_block": max((s[4] for s in systems), default=0),
            "solver.param_candidates": self.param["candidates"],
            "solver.param_confirmed": self.param["confirmed"],
            "solver.param_confirm_ratio": ratio(self.param["confirmed"], self.param["candidates"]),
            "linalg.rref_s": total({"sparse_rref"}),
            "linalg.rref_calls": count({"sparse_rref"}),
            "linalg.rref_rank_ratio": ratio(self.rref[1], self.rref[0]),
            "linalg.bareiss_s": total({"fraction_free_pivots"}),
            "linalg.bareiss_cells": b["cells"],
            "linalg.bareiss_fill": ratio(b["nonzero"], b["cells"]),
            "linalg.pivot_max_deg": b["max_deg"],
            "linalg.pivot_max_bits": b["max_bits"],
            "linalg.roots_s": total({"base_field_roots"}),
            "linalg.roots_calls": count({"base_field_roots"}),
            "linalg.roots_max_bits": self.roots_max_bits,
            "linalg.span_add_s": total({"SpanSolver.add"}),
            "linalg.span_adds": span_adds,
            "linalg.span_add_useful_ratio": ratio(self.span_useful, span_adds),
            "linalg.span_query_s": total({"SpanSolver.contains", "SpanSolver.coordinates"}),
            "linalg.span_queries": count({"SpanSolver.contains", "SpanSolver.coordinates"}),
            "linalg.charpoly_s": total({"charpoly"}),
            "superstd.s4_self_s": own({"compute_s4"}),
            "superstd.s4_calls": self.s4["calls"],
            "superstd.s4_saturated": self.s4["saturated"],
            "halfring.ring_s": total(group("ring")),
            "gradings.decompose_s": total(group("decompose")),
            "cli.json_s": total(group("json") | {"json.load", "json.loads", "json.dump", "json.dumps"}),
        }
