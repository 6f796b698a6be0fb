"""The trajectory recorder in tools/: its slow cases and its fresh-process runner."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
spec = importlib.util.spec_from_file_location("bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def test_slow_cases_compile():
    for name, body in bench_record.SLOW_CASES.items():
        compile(bench_record.CHILD.format(src="src", body=body), name, "exec")


def test_run_case_reports_time_peak_and_answer():
    rec = bench_record.run_case("alg = A.make_zassenhaus(5, 1); answer = S.solve_delta_derivations(alg, '1/2').dim")
    assert rec["answer"] == 5
    assert rec["wall_s"] > 0 and rec["peak_rss_mb"] > 0
    assert bench_record.run_case("answer = 1 / 0") == {"error": "ZeroDivisionError: division by zero"}
