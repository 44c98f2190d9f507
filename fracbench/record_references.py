"""Record the reference outputs that the benchmark's correctness checks compare against.

Run from the repository root, only when a change is meant to move these
outputs (and say so in the change):

    python3 fracbench/record_references.py --seeds 0-15 --tasks 2

Writes ``fracbench/references.json``: the forward-oracle set-up eigenvalues,
and per seed and task index the spectral-audit eigenvalues and the twin-recon
``rel_L2_q``.  A task that fails any of its own checks is not recorded.
"""

import argparse
import json
import os
import sys

from run import BLAS_THREAD_VARS, HERE, ROOT

RECORDED = {"spectral-audit": "lambdas", "twin-recon": "rel_L2_q"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-15")
    p.add_argument("--tasks", type=int, default=2, help="task indices 0..tasks-1 per seed")
    args = p.parse_args(argv)
    lo, hi = (int(s) for s in args.seeds.split("-"))

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    oracle = workloads.ForwardOracle(0)
    oracle.setup()
    refs = {"forward-oracle": {"setup_lambdas": oracle.es.lambdas.tolist()}}
    for name, key in RECORDED.items():
        refs[name] = {}
        for seed in range(lo, hi + 1):
            wl = workloads.WORKLOADS[name](seed)
            wl.setup()
            for index in range(args.tasks):
                result = wl.run_task(index)
                if result.failed_checks:
                    print(f"not recorded: {name} seed {seed} task {index}: "
                          f"{[c.name for c in result.failed_checks]}")
                    continue
                refs[name].setdefault(str(seed), {})[str(index)] = result.outputs[key]
                print(f"recorded {name} seed {seed} task {index}", flush=True)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
