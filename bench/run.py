"""tidlab benchmark: run one workload, check every output, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; tidlab is imported from its src/.  With
--trace 0 the run measures the end-to-end metrics for --seconds: warm
passes in this process, and set-up time and peak memory in fresh
interpreters started among them.  With --trace 1 it alternates untraced
and traced passes for --seconds and reports per-layer metrics from the
spans.  The last line of standard output is one JSON object; the run
record and the spans go to bench/out/.  Metric names and units come from
BENCHMARK.json.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selftest
import workloads
from checker import Outcomes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
FRESH_RUNS = 7  # fresh interpreters per untraced run; the first also runs a pass
FRESH_TIMEOUT_S = 120
BLAS_THREADS = {v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile of pass time with at least ten passes beyond it.

    Returns (value, percentile).  The k-th fastest of n passes has n - k
    passes beyond it, so k = n - 10.  A run of eleven passes or fewer has no
    higher candidate than its fastest pass (k = 1), which it reports; the
    percentile, 100 k / n, says how far into the tail the value reaches.
    """
    ordered = sorted(times)
    k = max(len(ordered) - 10, 1)
    return ordered[k - 1], 100.0 * k / len(ordered)


def fresh_interpreter(args, out: Outcomes, full_pass: bool) -> dict:
    cmd = [
        sys.executable, str(BENCH / "fresh.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--out-dir", str(OUT), "--src", str(SRC),
    ]
    if full_pass:
        cmd.append("--pass")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=FRESH_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out.merge(result["checked"], result["failures"], result["residuals"])
    return result


def untraced_run(args, wl, out: Outcomes, record: dict) -> dict[str, float]:
    """Warm passes for --seconds, with the fresh interpreters spread evenly among them.

    Spreading them lets set-up time sample the same stretch of machine load
    as the passes do.
    """
    first: dict = {}
    workloads.run_pass(wl.warmup, out, first)
    times, fresh = [], []
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < args.seconds or len(fresh) < FRESH_RUNS or not times:
        if len(fresh) < FRESH_RUNS and elapsed >= len(fresh) * args.seconds / FRESH_RUNS:
            fresh.append(fresh_interpreter(args, out, full_pass=not fresh))
        else:
            times.append(workloads.run_pass(wl.commands, out, first))
    tail_s, pct = tail(times)
    record.update(pass_times=times, tail_percentile=pct, fresh=fresh)
    print(f"{len(times)} warm passes; verdict_s.tail is p{pct:.1f} of {len(times)} passes")
    return {
        "verdict_s": statistics.median(times),
        "verdict_s.tail": tail_s,
        "setup_s": statistics.median(f["setup_s"] for f in fresh),
        "peak_rss_mb": fresh[0]["peak_rss_mb"],
        "ok_frac": 1.0 - out.fail_frac(),
        "residual_margin": out.residual_margin(),
    }


def traced_run(args, wl, out: Outcomes, record: dict, checks: list[str]) -> dict[str, float]:
    from spans import SpanRecorder

    recorder = SpanRecorder()
    first: dict = {}
    workloads.run_pass(wl.warmup, out, first)
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(workloads.run_pass(wl.commands, out, first))
        recorder.install()
        begin = len(recorder)
        try:
            elapsed = workloads.run_pass(wl.commands, out, first)
        finally:
            recorder.uninstall()
        traced.append((begin, len(recorder), elapsed))
    metrics = recorder.metrics(traced, checks)
    metrics["trace.overhead_frac"] = (
        statistics.median(t for _, _, t in traced) / statistics.median(plain) - 1.0
    )
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    recorder.save(spans_path)
    record.update(
        pass_times=plain, traced_pass_times=[t for _, _, t in traced],
        spans=len(recorder), spans_file=str(spans_path.relative_to(ROOT)),
    )
    print(f"{len(plain)} untraced and {len(traced)} traced passes, {len(recorder)} spans")
    return metrics


def environment() -> dict:
    import numpy

    def git_commit():
        git = ROOT / ".git"
        head = git / "HEAD"
        if not head.is_file():
            return None
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        packed = git / "packed-refs"
        lines = packed.read_text().splitlines() if packed.is_file() else []
        return next((ln.split()[0] for ln in lines if ln.endswith(" " + name)), None)

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "tidlab" / "__init__.py").is_file():
        print(f"error: no tidlab sources under {SRC}", file=sys.stderr)
        return 2
    problems = selftest.run()
    if problems:
        print("error: the output checker does not fail closed: " + "; ".join(problems), file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # one thread: pin BLAS before numpy is imported here or in a fresh interpreter
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import tidlab

    if Path(tidlab.__file__).resolve().parent != (SRC / "tidlab").resolve():
        print(f"error: tidlab imported from {tidlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = workloads.build(args.workload, args.seed, OUT)
    out = Outcomes()
    record = {"args": vars(args), "environment": environment()}
    if args.trace:
        # cli.check.<check>.s in BENCHMARK.json names the checks to time
        checks = [m["name"][len("cli.check."):-len(".s")] for m in wanted if m["name"].startswith("cli.check.")]
        values = traced_run(args, wl, out, record, checks)
    else:
        values = untraced_run(args, wl, out, record)
    if set(values) != {m["name"] for m in wanted}:
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(metrics=metrics, checked=out.checked, failures=out.failures[:100])
    path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for failure in out.failures[:20]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.checked,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
