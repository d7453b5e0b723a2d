"""Command line front end.

    fkm-verify [--grid 1:3,2:2] [--points N] [--normals N] [--seed S]
               [--tol NAME=VALUE ...] [--out FILE] [--format json|text]
               [--dump-matrices DIR]

The seed is --seed, else 42.  Argument problems exit with code 2
(argparse convention); verification failures with 1; internal errors
with 3.
"""

from __future__ import annotations

import argparse
import sys

from .report import (DEFAULT_SEED, DEFAULT_TOLERANCES, TOOL_NAME,
                     VerificationConfig, exit_code, render_text, run_suite,
                     write_matrix_dumps)

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
    parser.add_argument("--points", type=int, metavar="N",
                        help="focal points per configuration (default 20)")
    parser.add_argument("--normals", type=int, metavar="N",
                        help="random unit normals per point, beyond the "
                             "m+1 coordinate normals (default 50)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="S",
                        help=f"master seed (default {DEFAULT_SEED})")
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


def parse_cli(argv=None) -> VerificationConfig:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # only the syntax is split here: VerificationConfig checks the grid
    # entries (tuples of strings) and the tolerance names and values
    tolerances = {}
    for item in args.tol:
        name, sep, value = item.partition("=")
        if not sep:
            parser.error(f"invalid --tol {item!r}: expected NAME=VALUE")
        tolerances[name] = value
    kwargs = {
        "seed": args.seed,
        "tolerances": tolerances,
        "out": args.out,
        "format": args.format,
        "dump_matrices": args.dump_matrices,
    }
    if args.grid is not None:
        kwargs["configurations"] = tuple(tuple(token.split(":"))
                                         for token in args.grid.split(","))
    if args.points is not None:
        kwargs["n_points"] = args.points
    if args.normals is not None:
        kwargs["n_normals"] = args.normals
    try:
        return VerificationConfig(**kwargs)
    except ValueError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")  # parser.error always exits


def main(argv=None) -> int:
    cfg = parse_cli(argv)
    report = run_suite(cfg)
    if cfg.dump_matrices:
        write_matrix_dumps(cfg, cfg.dump_matrices)
    payload = report.to_json() if cfg.format == "json" else render_text(report)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    code = exit_code(report)
    status = {0: "pass", 1: "fail", 3: "internal-error"}[code]
    print(f"{TOOL_NAME}: {status} ({len(report.entries)} configurations, "
          f"{report.wall_time_s:.2f}s)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
