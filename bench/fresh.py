"""One fresh interpreter of a benchmark run: set-up time and peak memory.

Times from just before `import tidlab` until the workload's one-seed warm-up
call returns.  With --pass it then runs one checked pass, so the peak
resident memory covers a whole pass.  Prints one JSON line.  bench/run.py
starts this script with PYTHONPATH set to the checkout's src/.
"""

import argparse
import json
import resource
import time
from pathlib import Path

import workloads
from checker import Outcomes


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--pass", dest="full_pass", action="store_true")
    args = parser.parse_args()
    wl = workloads.build(args.workload, args.seed, Path(args.out_dir))
    out = Outcomes()

    start = time.perf_counter()
    import tidlab

    workloads.run_pass(wl.warmup, out, {})
    setup_s = time.perf_counter() - start
    if Path(tidlab.__file__).resolve().parent != Path(args.src, "tidlab").resolve():
        raise SystemExit(f"tidlab imported from {tidlab.__file__}, not from {args.src}")
    if args.full_pass:
        workloads.run_pass(wl.commands, out, {})
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": peak_mib,
        "checked": out.checked,
        "failures": out.failures,
        "residuals": out.residuals,
    }))


if __name__ == "__main__":
    main()
