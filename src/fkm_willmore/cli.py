"""Command line front end.

    fkm-verify [--grid 1:3,2:2] [--points N] [--normals N] [--seed S]
               [--tol NAME=VALUE ...] [--out FILE] [--format json|text]
               [--dump-matrices DIR]

parse_cli only splits the command line: it passes each token of the
options that change results, as typed, to VerificationConfig, which
reads all of them and which the report records.  --out, --format and
--dump-matrices say only where and how the report is written; main
reads them.  Argument problems, an output path that cannot be written
among them, exit with code 2 (argparse convention) before the suite
runs; verification failures with 1; internal errors with 3.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .clifford import (AdmissibilityError, build_clifford_system,
                       dump_matrices)
from .report import (DEFAULT_SEED, DEFAULT_TOLERANCES, TOOL_NAME,
                     VerificationConfig, exit_code, render_text, run_suite)

__all__ = ["main", "parse_cli"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Numerically certify the Willmore property of the focal "
                    "manifolds of isoparametric hypersurfaces built from "
                    "symmetric Clifford systems.")
    parser.add_argument("--grid", metavar="M:K,M:K,...",
                        help="configurations to verify as comma-separated "
                             "m:k pairs (default: the built-in grid)")
    parser.add_argument("--points", dest="n_points", metavar="N",
                        help="focal points per configuration (default 20)")
    parser.add_argument("--normals", dest="n_normals", metavar="N",
                        help="random unit normals per point, beyond the "
                             "m+1 coordinate normals (default 50)")
    parser.add_argument("--seed", metavar="S",
                        help=f"master seed, >= 0 (default {DEFAULT_SEED})")
    parser.add_argument("--tol", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="override a tolerance; names: "
                             + ", ".join(sorted(DEFAULT_TOLERANCES)))
    parser.add_argument("--out", metavar="FILE",
                        help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="report format (default json)")
    parser.add_argument("--dump-matrices", metavar="DIR",
                        help="also write each system's matrices to DIR")
    return parser


def _parse(argv) -> tuple:
    """The parsed arguments and the VerificationConfig they give."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    # only the syntax is split here: VerificationConfig reads every token,
    # the grid's as tuples of strings, and checks the tolerance names
    tolerances = {}
    for item in args.tol:
        name, sep, value = item.partition("=")
        if not sep:
            parser.error(f"invalid --tol {item!r}: expected NAME=VALUE")
        tolerances[name] = value
    kwargs = {"tolerances": tolerances}
    for name in ("n_points", "n_normals", "seed"):
        if getattr(args, name) is not None:
            kwargs[name] = getattr(args, name)
    if args.grid is not None:
        kwargs["configurations"] = tuple(tuple(token.split(":"))
                                         for token in args.grid.split(","))
    try:
        return args, VerificationConfig(**kwargs)
    except ValueError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")  # parser.error always exits


def parse_cli(argv=None) -> VerificationConfig:
    """The VerificationConfig of a command line; exits 2 on a bad one."""
    return _parse(argv)[1]


def _write_matrix_dumps(cfg: VerificationConfig, directory: str) -> None:
    """Dump each admissible grid system to <dir>/clifford_m{m}_k{k}.txt."""
    os.makedirs(directory, exist_ok=True)
    for m, k in cfg.configurations:
        try:
            system = build_clifford_system(m, k)
        except (AdmissibilityError, NotImplementedError):
            continue
        path = os.path.join(directory, f"clifford_m{m}_k{k}.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(dump_matrices(system))


def main(argv=None) -> int:
    args, cfg = _parse(argv)
    # the outputs are made before the suite runs, so that a path that
    # cannot be written fails at once, not after the whole run
    path, out = args.dump_matrices, None
    try:
        if path:
            _write_matrix_dumps(cfg, path)
        path = args.out
        if path:
            out = open(path, "w", encoding="utf-8")
    except OSError as exc:    # a path that cannot be written: bad usage
        print(f"{TOOL_NAME}: error: cannot write {path}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    with out or contextlib.nullcontext(sys.stdout) as fh:
        report = run_suite(cfg)
        fh.write(report.to_json() if args.format == "json"
                 else render_text(report))
    code = exit_code(report)
    status = {0: "pass", 1: "fail", 3: "internal-error"}[code]
    print(f"{TOOL_NAME}: {status} ({len(report.entries)} configurations, "
          f"{report.wall_time_s:.2f}s)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
