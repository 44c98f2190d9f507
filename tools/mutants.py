"""Operator-swap mutation census of one module against a named test selection.

Each mutant swaps one operator of the module: ``<``/``<=``, ``>``/``>=``,
``+``/``-`` and ``*``/``/`` (comparisons and binary operations).  A seeded
draw (Python ``random``) picks up to ``--budget`` of the module's sites.  The
repository is copied once to a temporary directory; each mutant is written
into that copy, which then runs the test selection with ``pytest -x``, so the
working tree is never touched.  A mutant is ``killed`` when pytest fails,
``timeout`` when it runs past ten times the unmutated selection's time (a
mutated loop bound may never end), and ``survived`` when every test passes.
A mutant that raises before the tests run (an import error) counts as killed.

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
    """('passed' | 'killed' | 'timeout', seconds) of one pytest run in copy."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                               "-p", "no:cacheprovider", *tests], cwd=copy,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("passed" if proc.returncode == 0 else "killed"), time.perf_counter() - start


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
            raise SystemExit("the unmutated tree fails the test selection")
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
