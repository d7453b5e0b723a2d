"""A seeded mutation survey of the package: which single-site mutants of
`src/fkm_willmore` do the tests kill?

    python tools/mutation_survey.py                    # 60 sampled sites
    python tools/mutation_survey.py --modules willmore,report --all
    python tools/mutation_survey.py --since HEAD~1 --all   # touched lines

A site is one operator or constant of a module, found with the standard
library's `ast`.  Five kinds of mutation are made, one site at a time:

    compare   a comparison swapped: < and <=, > and >=, == and !=
    addsub    + and - swapped (also in +=, -=)
    muldiv    * and / swapped (also in *=, /=)
    float     a nonzero float constant doubled
    negate    a unary minus dropped

SAMPLE sites are drawn with `random.Random(0)` from the sites of the
chosen modules (all of them with --all).  Each mutant is the module's
`ast.unparse`, with the one site changed, written into a copy of the
working tree in a new temporary directory, removed at the end.  The
tests there run with `pytest -x`; a mutant is killed when they fail (or
take longer than TIMEOUT seconds), and survives when they pass.  The
unmutated `ast.unparse` of every chosen module must pass first, so a
survivor is never an artifact of the unparsing.  The repository itself
is only read.  The survey is not part of the test suite: a full run
takes minutes to hours.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "fkm_willmore"
MODULES = ("willmore", "geometry", "focal", "report", "polynomial",
           "clifford", "records")
SAMPLE = 60
TIMEOUT = 600.0

SWAPS = {
    "compare": {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
                ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq},
    "addsub": {ast.Add: ast.Sub, ast.Sub: ast.Add},
    "muldiv": {ast.Mult: ast.Div, ast.Div: ast.Mult},
}


def _sites_of(tree: ast.Module) -> list:
    """(node index in ast.walk order, kind, operator index) of every site."""
    sites = []
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            sites += [(index, "compare", k) for k, op in enumerate(node.ops)
                      if type(op) in SWAPS["compare"]]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            sites += [(index, kind, 0) for kind in ("addsub", "muldiv")
                      if type(node.op) in SWAPS[kind]]
        elif (isinstance(node, ast.Constant) and type(node.value) is float
              and node.value != 0.0):
            sites.append((index, "float", 0))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            sites.append((index, "negate", 0))
    return sites


class _Drop(ast.NodeTransformer):
    """Replaces one UnaryOp node by its operand."""

    def __init__(self, target):
        self.target = target

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        return node.operand if node is self.target else node


def mutate(source: str, site: tuple) -> tuple:
    """(mutated module source, line, original text, mutated text) for one
    site of `source`."""
    tree = ast.parse(source)
    index, kind, k = site
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    before = ast.unparse(node)
    if kind == "compare":
        node.ops[k] = SWAPS[kind][type(node.ops[k])]()
    elif kind in SWAPS:
        node.op = SWAPS[kind][type(node.op)]()
    elif kind == "float":
        node.value *= 2.0
    else:
        tree = _Drop(node).visit(tree)
    after = ast.unparse(node.operand if kind == "negate" else node)
    return ast.unparse(tree), node.lineno, before, after


def touched_lines(since: str, module: str) -> set:
    """Lines of the module's current file that `git diff since` adds or
    changes."""
    diff = subprocess.run(
        ["git", "diff", "--unified=0", since, "--",
         str(PACKAGE / f"{module}.py")],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    lines = set()
    for start, count in re.findall(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@", diff,
                                   flags=re.M):
        first = int(start)
        lines.update(range(first, first + int(count or 1)))
    return lines


def run_tests(work: Path) -> tuple:
    """(passed, seconds) of the test suite in the work copy."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider"], cwd=work, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT)
        passed = done.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--modules", default=",".join(MODULES),
                        help="comma-separated modules of fkm_willmore")
    parser.add_argument("--all", action="store_true",
                        help=f"run every site instead of {SAMPLE} drawn")
    parser.add_argument("--since", metavar="REV",
                        help="only sites on lines that `git diff REV` "
                             "adds or changes")
    args = parser.parse_args(argv)

    sources, mutants = {}, []
    for module in args.modules.split(","):
        sources[module] = (ROOT / PACKAGE / f"{module}.py").read_text()
        lines = touched_lines(args.since, module) if args.since else None
        for site in _sites_of(ast.parse(sources[module])):
            line, before, after = mutate(sources[module], site)[1:]
            if lines is None or line in lines:
                mutants.append((module, site, line, before, after))
    total = len(mutants)
    if not args.all and SAMPLE < total:
        mutants = random.Random(0).sample(mutants, SAMPLE)
    mutants.sort(key=lambda mutant: (mutant[0], mutant[2], mutant[1]))
    print(f"{len(mutants)} of {total} sites in {args.modules}", flush=True)

    work = Path(tempfile.mkdtemp(prefix="mutation-survey-"))
    try:
        return _survey(work / "repo", sources, mutants)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _survey(copy: Path, sources: dict, mutants: list) -> int:
    """Runs the baseline and every mutant in `copy` and prints the
    results; 1 if the baseline fails."""
    # the whole working tree but git's data: the tests read the README,
    # the docs and the benchmark's gate as well as the package
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", "*.egg-info", ".hypothesis"))
    for module, source in sources.items():
        (copy / PACKAGE / f"{module}.py").write_text(
            ast.unparse(ast.parse(source)) + "\n")
    passed, seconds = run_tests(copy)
    print(f"baseline (unparsed modules): "
          f"{'pass' if passed else 'FAIL'} in {seconds:.1f} s", flush=True)
    if not passed:
        return 1

    survivors = []
    for module, site, line, before, after in mutants:
        path = copy / PACKAGE / f"{module}.py"
        path.write_text(mutate(sources[module], site)[0] + "\n")
        passed, seconds = run_tests(copy)
        path.write_text(ast.unparse(ast.parse(sources[module])) + "\n")
        text = f"{module}:{line} {site[1]}: {before}  ->  {after}"
        if passed:
            survivors.append(text)
        print(f"{'survived' if passed else 'killed':8s} {text}  "
              f"({seconds:.1f} s)", flush=True)
    print(f"killed {len(mutants) - len(survivors)} of {len(mutants)}; "
          f"survivors:")
    for text in survivors:
        print(f"  {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
