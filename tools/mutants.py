"""Operator-swap mutation census of one module against a named test selection.

Each mutant swaps one operator of the module: ``<``/``<=``, ``>``/``>=``,
``+``/``-`` and ``*``/``/`` (comparisons and binary operations).  A seeded
draw (Python ``random``) picks up to ``--budget`` of the module's sites.  The
repository is copied once to a temporary directory; each mutant is written
into that copy, which then runs the test selection with ``pytest -x``, so the
working tree is never touched.  A mutant is ``killed`` when pytest fails,
``timeout`` when it runs past ten times the unmutated selection's time (a
mutated loop bound may never end), and ``survived`` when every test passes.
A mutant that raises before the tests run (an import error) counts as killed,
and so does one that runs out of memory: each pytest run is capped at
``MEMORY_CAP`` bytes of address space (``RLIMIT_AS``, Linux), so a mutant that
grows a list without end meets ``MemoryError`` instead of filling the machine
until the timeout, and is stopped once it reaches the cap.

Usage, from the repository root:

    python3 tools/mutants.py src/fracspec/uniqueness.py \\
        --tests tests/test_uniqueness.py tests/test_acceptance.py --seed 1 --budget 25

prints one line per mutant and, last, one JSON object with the command's
settings, the site count and the survivors.  It is a census tool, not a test:
the tier-1 suite does not run it.
"""

import argparse
import ast
import json
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
IGNORE = shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".pytest_cache",
                                ".hypothesis", "BENCH_*.json")
MEMORY_CAP = 2 * 1024 ** 3  # RLIMIT_AS of each pytest run; every census baseline fits


def _cap_memory():
    """Run in the pytest child before it starts: cap its address space."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def sites(tree):
    """(node, index) of every swappable operator, in a fixed walk order; index
    is the position in a Compare's ops, None for a BinOp."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            out.append((node, None))
        elif isinstance(node, ast.Compare):
            out.extend((node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS)
    return out


def mutate(source, k):
    """The source with site k swapped, and a description of the swap."""
    tree = ast.parse(source)
    node, i = sites(tree)[k]
    old = node.op if i is None else node.ops[i]
    new = SWAPS[type(old)]()
    if i is None:
        node.op = new
    else:
        node.ops[i] = new
    text = ast.get_source_segment(source, node) or ""
    return ast.unparse(tree), {"line": node.lineno, "swap": f"{SYMBOL[type(old)]} -> "
                               f"{SYMBOL[type(new)]}", "expr": " ".join(text.split())[:100]}


def run_tests(copy, tests, timeout):
    """('passed' | 'killed' | 'timeout', seconds) of one pytest run in copy.

    A run whose address space comes within 1 MiB of MEMORY_CAP is stopped and
    counted as killed: an allocation has been or is about to be refused, and
    CPython can then spin in pytest's own error report instead of exiting."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q",
                             "-p", "no:cacheprovider", *tests], cwd=copy,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            preexec_fn=_cap_memory)
    while proc.poll() is None:
        seconds = time.perf_counter() - start
        if timeout is not None and seconds > timeout:
            outcome = "timeout"
        elif _address_space(proc.pid) > MEMORY_CAP - 2 ** 20:
            outcome = "killed"
        else:
            time.sleep(0.05)
            continue
        proc.kill()
        proc.wait()
        return outcome, seconds
    return ("passed" if proc.returncode == 0 else "killed"), time.perf_counter() - start


def _address_space(pid):
    """Bytes of address space of a running process (Linux /proc), 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            line = next((ln for ln in fh if ln.startswith("VmSize:")), "VmSize: 0 kB")
    except OSError:
        return 0
    return 1024 * int(line.split()[1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("module", type=Path, help="module path, relative to the repository root")
    p.add_argument("--tests", nargs="+", required=True,
                   help="pytest selection, relative to the repository root")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--budget", type=int, default=25)
    args = p.parse_args(argv)
    source = (ROOT / args.module).read_text()
    n_sites = len(sites(ast.parse(source)))
    chosen = sorted(random.Random(args.seed).sample(range(n_sites), min(args.budget, n_sites)))

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        target = copy / args.module
        status, base_s = run_tests(copy, args.tests, None)
        if status != "passed":
            raise SystemExit("the unmutated tree fails the test selection "
                             f"(within MEMORY_CAP = {MEMORY_CAP} bytes)")
        results = []
        for k in chosen:
            mutated, info = mutate(source, k)
            target.write_text(mutated)
            info["site"] = k
            outcome, seconds = run_tests(copy, args.tests, 10.0 * base_s + 5.0)
            info["outcome"] = "survived" if outcome == "passed" else outcome
            print(f"site {k:4d}  line {info['line']:4d}  {info['swap']:8s}  "
                  f"{info['outcome']:8s} {seconds:6.1f}s  {info['expr']}", flush=True)
            results.append(info)

    survivors = [r for r in results if r["outcome"] == "survived"]
    print(json.dumps({"module": str(args.module), "tests": args.tests, "seed": args.seed,
                      "budget": args.budget, "sites": n_sites, "mutants": len(results),
                      "killed": sum(r["outcome"] == "killed" for r in results),
                      "timeout": sum(r["outcome"] == "timeout" for r in results),
                      "survivors": survivors}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
