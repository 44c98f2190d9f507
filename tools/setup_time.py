"""Exact set-up times of the benchmark workloads, for two checkouts side by side.

fracbench/run.py's ``setup_s`` waits for its child through
``subprocess.run(..., timeout=...)``, which polls with sleeps of up to 50 ms,
so its reading falls on a lattice.  This script runs the same child code
(interpreter start, imports, the workload's lazy set-up) and waits without a
timeout, in a blocking ``waitpid``, so the child wall time is exact to the
clock.  Checkouts alternate, run by run, so a drifting machine speed hits
both alike.

Usage, from anywhere:

    python3 tools/setup_time.py --runs 15 CHECKOUT [CHECKOUT ...]

prints one JSON object: per checkout and workload the sorted wall times,
their median and quartiles, and the median CPU time (user + system) of the
child, in seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("twin-recon", "spectral-audit", "forward-oracle")


def child_code(root: Path, name: str) -> str:
    paths = [str(root / "src"), str(root / "fracbench")]
    return (f"import sys; sys.path[:0] = {paths!r}; "
            f"import workloads; workloads.WORKLOADS[{name!r}](0).setup()")


def one_run(root: Path, name: str) -> tuple[float, float]:
    """(wall, cpu) seconds of one set-up child; cpu is its user + system time."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", child_code(root, name)], env=env)
    _, status, usage = os.wait4(proc.pid, 0)  # blocking: no poll lattice
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"set-up of {name} in {root} exited {proc.returncode}")
    return elapsed, usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkouts", nargs="+", type=Path)
    p.add_argument("--runs", type=int, default=15)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    args = p.parse_args(argv)
    roots = [c.resolve() for c in args.checkouts]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    times = {str(r): {n: [] for n in names} for r in roots}
    cpu = {str(r): {n: [] for n in names} for r in roots}
    for root in roots:  # one untimed run each compiles the bytecode caches
        for name in names:
            one_run(root, name)
    for _ in range(args.runs):
        for name in names:
            for root in roots:
                wall, used = one_run(root, name)
                times[str(root)][name].append(wall)
                cpu[str(root)][name].append(used)
    out = {}
    for root, per in times.items():
        out[root] = {}
        for name, ts in per.items():
            q1, med, q3 = statistics.quantiles(ts, n=4)
            out[root][name] = {"median_s": med, "q1_s": q1, "q3_s": q3,
                               "cpu_median_s": statistics.median(cpu[root][name]),
                               "times_s": sorted(ts)}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
