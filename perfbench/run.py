#!/usr/bin/env python3
"""Benchmark of the deltader package.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  Each workload is a closed loop with one caller, single-threaded,
in a fresh process: one mathematician who waits for every answer.

``--trace 0`` prints the end-to-end metrics: set-up time (median of several
fresh processes), then the job stream in one more process for about T
seconds, in whole passes over the workload's jobs.  ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics.  Every job's
answer is checked; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Only the standard library is used.
"""

import time

T0 = time.perf_counter()  # a child's set-up clock starts here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")

SETUP_SAMPLES = 4  # fresh set-up processes per run, besides the stream's own
# Times are reported in reference seconds: measured seconds scaled by the
# machine's speed at the time, read from a fixed reference loop whose median
# duration defines the unit (REFERENCE_S).  The shared 2-core VM this was
# built on drifts by +-20% over tens of seconds.  The scaling removes most
# of that drift from metrics made of many short jobs (a 150 s test
# alternating two solves with the loop cut the IQR / median of 15 s window
# medians from 0.14 to 0.02-0.05) but little of the noise of one long job.
REFERENCE_S = 1.8e-3
REFERENCE_EDGE = 15  # samples before and after a stream or set-up
PROBE_INTERVAL_S = 0.25  # CPU seconds between samples inside a job
PROBE_NEAREST = 7  # fewest samples behind one job's speed
REPEAT_BUDGET_S = 2.0  # no further repetition of a job once this is spent
TRACE_DEADLINE_SCALE = 4.0  # tracing slows jobs; deadlines stretch with it
CHILD_TIMEOUT_S = 170.0

UNITS = {
    "setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
}


class Deadline(BaseException):
    """Raised by SIGALRM when a job passes its deadline; a BaseException so
    that no handler inside the package can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


# ---------------------------------------------------------------------------
# child processes


def load_package(trace: bool):
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import deltader  # noqa: F401
    import deltader.cli

    pkg = types.SimpleNamespace(
        **{m: sys.modules["deltader." + m] for m in
           ("fields", "linalg", "algebras", "solver", "halfring", "gradings", "superstd", "cli")}
    )
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(pkg)
    return pkg, tracer


def child(args) -> dict:
    pkg, tracer = load_package(args.role == "stream-traced")
    import jobs as J

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        wl = J.Workload(args.workload, args.seed, pkg, expected, tmp)
        wl.setup()
        setup_s = time.perf_counter() - T0
        probe = SpeedProbe()
        for _ in range(REFERENCE_EDGE):
            probe.sample()
        setup_s *= probe.factor()
        if args.role == "setup":
            return {"setup_s": setup_s}
        return {"setup_s": setup_s, **stream(args, wl, tracer)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def reference_loop():
    """A fixed pure-Python kernel (dict, int and Fraction work, no package
    code) timed between and during jobs to track the machine's speed."""
    d: dict = {}
    acc = Fraction(0)
    for i in range(3000):
        d[i % 97] = d.get(i % 97, 0) + i * 31 % 7
        if i % 10 == 0:
            acc += Fraction(i % 13 + 1, i % 7 + 1)
    return acc


class SpeedProbe:
    """Samples of the reference loop's duration, taken between jobs and,
    every PROBE_INTERVAL_S of CPU time, inside them (from SIGVTALRM); the
    time spent sampling inside a job is subtracted from the job."""

    def __init__(self):
        self.samples: list = []  # (start, duration)
        self.inside = 0.0

    def sample(self) -> float:
        t = time.perf_counter()
        reference_loop()
        d = time.perf_counter() - t
        self.samples.append((t, d))
        return d

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.sample()
        self.inside += time.perf_counter() - t

    def __enter__(self):
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def factor(self, start=None, end=None) -> float:
        """Reference seconds per measured second over [start, end]: the
        median sample in that span, widened to the PROBE_NEAREST samples
        nearest to it when it holds fewer; all samples when no span."""
        s = self.samples
        if start is not None:
            inner = [d for t, d in s if start <= t <= end]
            if len(inner) < PROBE_NEAREST:
                near = sorted(s, key=lambda x: max(start - x[0], x[0] - end, 0.0))
                inner = [d for _, d in near[:PROBE_NEAREST]]
            return REFERENCE_S / statistics.median(inner)
        return REFERENCE_S / statistics.median(d for _, d in s)


def stream(args, wl, tracer) -> dict:
    """Run the job stream in whole passes and time every job in reference
    seconds.  Each run of a job starts from a freshly collected heap, so its
    time does not depend on the garbage earlier jobs left.  Where the
    workload asks for it, a job is run again, back to back, up to its
    repeat count or until REPEAT_BUDGET_S is spent; its latency is the
    median, and only the first answer is checked."""
    import jobs as J

    once = tracer is not None or args.role == "stream-once"
    npasses = 1 if once else max(1, int(args.seconds // J.NOMINAL_PASS_S[args.workload]))
    repeats = 1 if once else J.REPEATS[args.workload]
    scale = TRACE_DEADLINE_SCALE if args.role == "stream-traced" else 1.0
    signal.signal(signal.SIGALRM, _on_alarm)
    gc.collect()
    gc.freeze()
    probe = SpeedProbe()
    for _ in range(REFERENCE_EDGE):
        probe.sample()
    records = []
    for k in range(npasses):
        for job in wl.jobs(k):
            if tracer is not None:
                tracer.job = job.name
            runs, status, detail, answer = [], "ok", None, None
            while status == "ok" and len(runs) < repeats and sum(r for r, _ in runs) < REPEAT_BUDGET_S:
                gc.collect()
                probe.sample()
                before = probe.inside
                t = time.perf_counter()
                try:
                    with probe:
                        signal.setitimer(signal.ITIMER_REAL, job.deadline * scale)
                        try:
                            result = job.run()
                        finally:
                            signal.setitimer(signal.ITIMER_REAL, 0)
                except Deadline:
                    status, detail = "deadline", f"passed its {job.deadline * scale:g} s deadline"
                except Exception as exc:  # a failed job is recorded, the loop goes on
                    status, detail = "error", f"{type(exc).__name__}: {exc}"
                end = time.perf_counter()
                lat = end - t - (probe.inside - before)
                runs.append((lat, lat * probe.factor(t, end)))
                if status == "ok" and len(runs) == 1:
                    answer = result
            if status == "ok":
                problem = job.check(answer)
                if problem is not None:
                    status, detail = "wrong", problem
            lat = statistics.median(r for r, _ in runs)
            # a job stopped at its deadline costs the deadline itself
            ref = job.deadline * scale if status == "deadline" else statistics.median(s for _, s in runs)
            records.append([job.name, lat, status, detail, job.known_defect, k, ref])
    for _ in range(REFERENCE_EDGE):
        probe.sample()
    out = {
        "jobs": records,  # name, s, status, detail, known defect, pass, reference s
        "speed": probe.factor(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["census_notes"], out["census"] = census_report(tracer)
        out["spans"] = os.path.join(TMP_ROOT, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.dump(out["spans"])
    return out


def census_report(tracer) -> tuple[list, list]:
    """Block-census self-check: the ROADMAP table on standard bases, and a
    single block for every rebased system.  The pointwise confirmations that
    solve_parametric runs are left out: they sit at the special delta where
    coefficients cancel by construction (at delta = 0 the system splits by
    target coordinate in any basis).  Returns (notes, problems)."""
    import tracing

    notes, problems = [], []
    rebased = 0
    for rows, unknowns, nnz, blocks, largest, job, confirmation in tracer.systems:
        if job is None:
            continue
        if job.startswith("rebased ") and not confirmation:
            rebased += 1
            if (blocks, largest) != (1, unknowns):
                problems.append(f"{job}: {blocks} blocks, largest {largest} of {unknowns}")
        for alg, want in tracing.CENSUS.items():
            if job == f"der {alg} d=1/2":
                got = (unknowns, blocks, largest)
                line = f"{job}: unknowns/blocks/largest {got}, ROADMAP {want}"
                (notes if got == want else problems).append(line)
    if rebased:
        notes.append(f"{rebased} rebased systems checked for a single block")
    return notes, problems


# ---------------------------------------------------------------------------
# parent


def spawn(args, role: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {role} process for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 jobs beyond it,
    that percentile, and the sample count."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0, n
    return lat[n - 11], 100.0 * (n - 10) / n, n


def summarize(run: dict):
    """attempted, failed, correct, and the lines describing failures."""
    lines = []
    failed = 0
    correct = True
    for name, _, status, detail, known, _, _ in run["jobs"]:
        if status == "ok":
            continue
        failed += 1
        if status == "wrong" or known is None:
            correct = False
            lines.append(f"FAILED {name}: {status}: {detail}")
        else:
            lines.append(f"failed {name}: {status}: {detail} (known defect: {known})")
    return len(run["jobs"]), failed, correct, sorted(set(lines))


def pass_times(run: dict, column: int) -> list:
    totals: dict = {}
    for rec in run["jobs"]:
        totals[rec[5]] = totals.get(rec[5], 0.0) + rec[column]
    return [totals[k] for k in sorted(totals)]


def end_to_end(args) -> dict:
    setups = [spawn(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    run = spawn(args, "stream")
    setups.append(run["setup_s"])
    latencies = [j[6] for j in run["jobs"]]
    attempted, failed, correct, lines = summarize(run)
    tail_s, pct, n = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(pass_times(run, 6)),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
    }
    for line in lines:
        print(line)
    raw = [j[1] for j in run["jobs"]]
    print(f"# {args.workload}: {len(pass_times(run, 6))} passes, {n} jobs, job_tail_s at "
          f"p{pct:.1f} of {n}, {len(setups)} set-ups; speed factor {run['speed']:.4f} "
          f"(unscaled: wall_s {statistics.median(pass_times(run, 1)):.6g}, "
          f"job_p50_s {statistics.median(raw):.6g}, job_tail_s {tail(raw)[0]:.6g})")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "fill", "frac")):
        return "ratio"
    if name.endswith("bits"):
        return "bits"
    if name.endswith("deg"):
        return "degree"
    return "count"


def per_layer(args) -> dict:
    plain = spawn(args, "stream-once")
    traced = spawn(args, "stream-traced")
    attempted, failed, correct, lines = summarize(traced)
    _, _, plain_correct, _ = summarize(plain)
    outcomes = [(j[0], j[2]) for j in traced["jobs"]]
    consistent = outcomes == [(j[0], j[2]) for j in plain["jobs"]]
    # overhead over the jobs that ended normally in both runs (deadlines
    # are stretched under tracing, so stopped jobs do not compare)
    both = [(t[6], p[6]) for t, p in zip(traced["jobs"], plain["jobs"]) if t[2] == p[2] == "ok"]
    layers = {k: v * traced["speed"] if k.endswith("_s") else v for k, v in traced["layers"].items()}
    layers["trace.overhead_frac"] = sum(t for t, _ in both) / sum(p for _, p in both) - 1.0
    for line in lines:
        print(line)
    print(f"# spans of the traced pass: {os.path.relpath(traced['spans'], ROOT)}")
    for note in traced["census_notes"]:
        print(f"census {note}")
    for problem in traced["census"]:
        print(f"FAILED census {problem}")
    if not consistent:
        print("FAILED traced and untraced passes disagree on job outcomes")
    return {"correct": correct and plain_correct and consistent and not traced["census"],
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}}


def print_table(workload: str, metrics: dict):
    for name, m in metrics.items():
        print(f"{workload:10s} {name:30s} {m['value']:>16.6g} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", default="main", choices=(
        "main", "setup", "stream", "stream-once", "stream-traced"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "deltader", "__init__.py")):
        print(f"error: no deltader sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import jobs as J

    if args.workload not in J.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(J.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.role != "main":
        print(json.dumps(child(args)))
        return 0
    print(f"# nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"workload {args.workload}, seed {args.seed}")
    result = per_layer(args) if args.trace else end_to_end(args)
    print_table(args.workload, result["metrics"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
