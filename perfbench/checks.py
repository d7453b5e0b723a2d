"""Correctness gate for one `fkm-verify` JSON report.

The gate does not take the report's own verdict on trust alone: besides
`overall_pass` it checks that every requested configuration is present,
admissible and complete, and it re-applies the pass rule of
`report.evaluate_system` to every checked residual.  The same pass gives
the tolerance headroom log10(tol / residual) of each residual.
"""

from __future__ import annotations

import json
import math

__all__ = ["BLOCKS", "checked_fields", "inspect_report"]

BLOCKS = ("clifford", "cartan_munzner", "points", "geometry", "lemma",
          "willmore", "einstein")


def checked_fields(tol: dict, sphere_tol: float, value_tol: float) -> dict:
    """block -> {field: tolerance}, mirroring report.evaluate_system.

    The Clifford relations are held to zero (exact integer entries) and the
    Einstein block compares a spread against a threshold, so neither has a
    residual with headroom.
    """
    geom, cert, will = tol["geom"], tol["cert"], tol["willmore"]
    return {
        "cartan_munzner": {"max_gradient_residual": tol["pde"],
                           "max_laplacian_residual": tol["pde"]},
        "points": {"max_constraint_residual": cert,
                   "max_sphere_residual": sphere_tol,
                   "max_value_gap": value_tol},
        "geometry": {"S_max_gap": geom, "S_spread": geom,
                     "rho2_vs_S_max_gap": geom, "H_max": cert,
                     "ricci_crosscheck_max": geom,
                     "ricci_trace_max_gap": geom},
        "lemma": {"max_spectrum_deviation": geom},
        "willmore": {"residual_max": will, "balance_max": will,
                     **{f: geom for f in (
                         "bridge_max", "chain_max",
                         "projection_pairwise_max",
                         "projection_aggregate_max", "t0_pair_leak_max",
                         "reflection_max", "case_identity_max")}},
    }


def inspect_report(text: str, grid: tuple, n_points: int, n_normals: int,
                   sphere_tol: float, value_tol: float) -> dict:
    """Failed configurations, problems and the minimum headroom of a report.

    A configuration counts as failed when it is missing, inadmissible, an
    internal error, not passing, incomplete, or has a checked residual
    above its tolerance.
    """
    problems = []
    try:
        report = json.loads(text)
    except ValueError as exc:
        return {"failed": len(grid), "problems": [f"unreadable: {exc}"],
                "headroom_min_dec": None, "headroom_at": None}
    tolerances = report.get("config", {}).get("tolerances")
    if not isinstance(tolerances, dict):
        return {"failed": len(grid), "problems": ["no tolerances in report"],
                "headroom_min_dec": None, "headroom_at": None}
    if report.get("overall_pass") is not True:
        problems.append("overall_pass is not true")
    fields = checked_fields(tolerances, sphere_tol, value_tol)
    entries = {(e.get("m"), e.get("k")): e
               for e in report.get("configurations", [])}
    if [(e.get("m"), e.get("k")) for e in report.get("configurations", [])] \
            != [tuple(p) for p in grid]:
        problems.append("configurations differ from the requested grid")
    failed = 0
    best = (math.inf, None)
    for m, k in grid:
        label = f"{m}:{k}"
        e = entries.get((m, k))
        bad = []
        if e is None:
            bad.append("missing")
        elif not e.get("admissible") or e.get("internal"):
            bad.append(e.get("reason") or e.get("error") or "not evaluated")
        else:
            blocks = e.get("blocks", {})
            bad += [f"block {b} missing or failed" for b in BLOCKS
                    if not blocks.get(b, {}).get("pass")]
            if blocks.get("points", {}).get("count") != n_points:
                bad.append("wrong point count")
            if (blocks.get("lemma", {}).get("n_normals_per_point")
                    != m + 1 + n_normals):
                bad.append("wrong normal count")
            for block, tols in fields.items():
                for name, tol in tols.items():
                    residual = blocks.get(block, {}).get(name)
                    if residual is None:
                        bad.append(f"{block}.{name} missing")
                    elif residual > tol:
                        bad.append(f"{block}.{name}={residual:.3e} > {tol:g}")
                    elif residual > 0.0:
                        head = math.log10(tol / residual)
                        if head < best[0]:
                            best = (head, [label, block, name])
            if not e.get("pass"):
                bad.append("entry does not pass")
        if bad:
            failed += 1
            problems.append(f"{label}: " + "; ".join(bad[:3]))
    return {"failed": failed, "problems": problems,
            "headroom_min_dec": None if best[1] is None else best[0],
            "headroom_at": best[1]}
