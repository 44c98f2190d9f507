"""fracspec benchmark: times user-level tasks on three seeded workloads.

Usage, from the repository root:

    python3 fracbench/run.py --workload twin-recon --seed 1 --seconds 20 --trace 0
    python3 fracbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` runs tasks back to back (one client, closed loop) for
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of tasks twice, untraced and then under ``tracer.Tracer``, and prints
the per-layer metrics.  ``--workload all`` runs each workload in its own
process and prints one summary line per workload.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
BENCHMARK.json lists the metrics; NOTES.md explains them.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("twin-recon", "spectral-audit", "forward-oracle")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def provenance(seed: int, workload: str) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": commit,
    }


class Phase:
    """Tasks run back to back; counts, per-task wall times, phase wall time."""

    def __init__(self, workload, seconds=None, count=None):
        self.durations, self.attempted, self.failed = [], 0, 0
        start = time.perf_counter()
        index = 0
        while True:
            if count is not None:
                if index >= count:
                    break
            elif index and index % workload.cycle == 0 \
                    and time.perf_counter() - start >= seconds:
                break  # whole cycles only, so every run has the same task mix
            self.attempted += 1
            t = time.perf_counter()
            try:
                result = workload.run_task(index)
                bad = [f"{c.name}: {c.detail}" for c in result.failed_checks]
                for note in result.notes:
                    print(f"note: {workload.name} seed {workload.seed} task {index}: {note}")
            except Exception as exc:  # a failed task is counted, the run goes on
                traceback.print_exc(file=sys.stdout)
                bad = [f"raised {type(exc).__name__}: {exc}"]
            self.durations.append(time.perf_counter() - t)
            if bad:
                self.failed += 1
                for line in bad:
                    print(f"check-failed: {workload.name} seed {workload.seed} "
                          f"task {index}: {line}")
            index += 1
        self.wall_s = time.perf_counter() - start

    @property
    def tasks_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall_s


def measure_setup(name: str, seed: int) -> float:
    """Median wall time, over fresh processes, from process start to the end
    of set-up: interpreter start, imports and the workload's lazy set-up."""
    code = (f"import sys; sys.path[:0] = {[str(ROOT / 'src'), str(HERE)]!r}; "
            f"import workloads; workloads.WORKLOADS[{name!r}]({seed}).setup()")
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy is imported
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads  # imports numpy, scipy and fracspec

    print("provenance: " + json.dumps(provenance(args.seed, args.workload)))
    references = json.loads((HERE / "references.json").read_text())
    wl = workloads.WORKLOADS[args.workload](args.seed, references)
    setup_failures = [f"{c.name}: {c.detail}" for c in wl.setup() if not c.passed]
    for line in setup_failures:
        print(f"check-failed: {args.workload} seed {args.seed} setup: {line}")

    if args.trace:
        untraced = Phase(wl, count=wl.trace_tasks)
        import tracer

        with tracer.Tracer() as setup_trace:
            wl.setup()
        with tracer.Tracer() as task_trace:
            traced = Phase(wl, count=wl.trace_tasks)
        phases = (untraced, traced)
        layer = task_trace.per_layer_metrics()
        layer["setup.sl_core.eigen_system.calls"] = \
            setup_trace.span_stats()["sl_core.eigen_system.calls"]
        layer["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
        metrics = {k: _metric(v, tracer.unit(k)) for k, v in sorted(layer.items())}
        print(f"summary: {args.workload} traced {traced.attempted} tasks in "
              f"{traced.wall_s:.3f} s, untraced {untraced.wall_s:.3f} s, "
              f"overhead_ratio={layer['trace.overhead_ratio']:.4f}")
    else:
        setup_s = measure_setup(args.workload, args.seed)
        timed = Phase(wl, seconds=args.seconds)
        phases = (timed,)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "tasks_per_s": _metric(timed.tasks_per_s, "1/s"),
            "task_s_p50": _metric(statistics.median(timed.durations), "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
        }
        print(f"summary: {args.workload} "
              + " ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in metrics.items())
              + f" failed_ratio={timed.failed / timed.attempted:.6g} "
              f"({timed.failed}/{timed.attempted}) over {timed.wall_s:.3f} s")

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(json.dumps({"correct": failed == 0 and not setup_failures,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so its peak RSS is its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(ln for ln in lines if not ln.startswith("{")))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fracspec" / "__init__.py").is_file():
        sys.stderr.write(f"fracspec sources not found under {ROOT / 'src'}; "
                         "run from a full checkout of the repository\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
