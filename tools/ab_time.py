"""Interleaved A/B timing of two versions of the package in one process.

    python tools/ab_time.py                         # HEAD against the tree
    python tools/ab_time.py --base HEAD~1 --runs 400 -- --points 100 \
        --normals 0

Each side is a copy of a `src/fkm_willmore` tree, imported under a package
name of its own: `--base` is a git revision (read with `git archive`) or a
directory holding `fkm_willmore`, `--change` the same, by default the
working tree's `src`.  Both sides parse the `fkm-verify` arguments after
`--` with their own `parse_cli`, and their reports must be byte-identical
before any timing.  Then the sides alternate, the side that goes first
alternating too, each call one `run_suite` and `to_json`.  The script
prints the median and the quartiles of each side, its median count of
minor page faults per call (`ru_minflt` of `getrusage`, read around each
call), the change of the medians, and on how many of the pairs the change
side was faster.

Why: a fresh process per run, as `perfbench/run.py` makes them, spread the
benchmark's medians by 3-5% between two sides of a change that moved no
code, while warm repetitions in one process spread 2-4% (quartile distance
over median).  Alternating the two trees in one process puts both under
the same drift of the host's speed, so a change of a few percent shows.
The script is outside the test suite and adds nothing to the product.
Run it with single-threaded BLAS (OPENBLAS_NUM_THREADS=1), as the
benchmark does.

The fault counts are there because glibc's heap trimming, not the
arithmetic, decides them: a change that allocates differently can move
the faults, and with them the time, by several percent (docs/derivations.md
section 11).  Compare them before crediting a timing change to its code.
"""

from __future__ import annotations

import argparse
import importlib
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "fkm_willmore"


def _copy(source: str, dest: Path) -> None:
    """The package of `source` (a directory holding it, or a git revision)
    copied to `dest`."""
    path = Path(source)
    if path.is_dir():
        shutil.copytree(path / PACKAGE, dest)
        return
    blob = subprocess.run(["git", "archive", source, f"src/{PACKAGE}"],
                          cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(blob)) as tar:
        for member in tar.getmembers():
            if member.isfile():
                target = dest / Path(member.name).relative_to(
                    f"src/{PACKAGE}")
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(tar.extractfile(member).read())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="git revision or directory (default HEAD)")
    parser.add_argument("--change", default=str(ROOT / "src"),
                        help="git revision or directory (default the "
                             "working tree's src)")
    parser.add_argument("--runs", type=int, default=200,
                        help="timed calls per side (default 200)")
    parser.add_argument("--warm", type=int, default=5,
                        help="untimed calls per side first (default 5)")
    parser.add_argument("verify_args", nargs="*",
                        help="fkm-verify arguments, after --")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for name, source in (("base", args.base), ("change", args.change)):
            _copy(source, Path(tmp) / f"ab_{name}")
        sys.path.insert(0, tmp)
        for name in ("base", "change"):
            report = importlib.import_module(f"ab_{name}.report")
            cli = importlib.import_module(f"ab_{name}.cli")
            cfg = cli.parse_cli(args.verify_args)
            sides[name] = (report, cfg)

    def call(name: str) -> str:
        report, cfg = sides[name]
        return report.run_suite(cfg).to_json()

    if call("base") != call("change"):
        print("the two sides write different reports", file=sys.stderr)
        return 1
    for _ in range(args.warm):
        call("base")
        call("change")
    times = {"base": [], "change": []}
    faults = {"base": [], "change": []}
    for i in range(args.runs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for name in order:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            call(name)
            times[name].append(time.perf_counter() - start)
            faults[name].append(
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

    print(f"fkm-verify {' '.join(args.verify_args) or '(defaults)'}: "
          f"{args.runs} alternating calls per side")
    for name in ("base", "change"):
        q1, q2, q3 = statistics.quantiles(times[name], n=4)
        print(f"  {name:6s} median {q2 * 1e3:8.3f} ms  quartiles "
              f"[{q1 * 1e3:.3f}, {q3 * 1e3:.3f}] ms  spread "
              f"{(q3 - q1) / q2:.1%}  minor faults per call "
              f"{statistics.median(faults[name]):g}")
    base, change = (statistics.median(times[k]) for k in ("base", "change"))
    faster = sum(c < b for b, c in zip(times["base"], times["change"]))
    print(f"  change of the median {change / base - 1.0:+.1%}; change side "
          f"faster in {faster} of {args.runs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
