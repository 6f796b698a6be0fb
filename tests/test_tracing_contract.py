"""The benchmark tracer (perfbench/tracing.py) wraps package attributes it
looks up by name; every one of them must exist, or the traced pass breaks.
Its hooks must also accept the calls the package makes, which a traced
pass of the parametric workload exercises end to end."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PATH = os.path.join(ROOT, "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module: str, attr: str) -> bool:
    return callable(getattr(importlib.import_module("deltader." + module), attr, None))


def test_tracer_targets_resolve():
    tracing = load_tracing()
    targets = [target for group in tracing.SPANS.values() for target in group]
    targets += [("fields", name) for name in tracing.POLY_OPS]
    targets += [("fields", cls) for cls in ("Field", "Rationals", "PrimeField", "QuotientRing")]
    span_solver = importlib.import_module("deltader.linalg").SpanSolver
    missing = [f"{m}.{a}" for m, a in targets if not resolves(m, a)]
    missing += [
        f"linalg.SpanSolver.{meth}"
        for meth in ("add",) + tuple(tracing.SPAN_QUERIES)
        if not callable(getattr(span_solver, meth, None))
    ]
    assert missing == []


def test_traced_parametric_pass_is_correct():
    argv = ["perfbench/run.py", "--workload", "parametric", "--seed", "1", "--seconds", "20", "--trace", "1"]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (summary["correct"], summary["failed"]) == (True, 0)
