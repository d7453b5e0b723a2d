"""Suite runner: sweep configurations, aggregate, serialize.

The canonical artifact is the JSON report: running the suite twice with the
same configuration and seed must produce byte-identical output.  Everything
stochastic derives from one master seed through named sub-seeds, and wall
time is kept off the serialized form (it lives on the in-memory report and
on stderr).  The report records every field of its VerificationConfig, and
reads its verdicts off its entries.

Exit-code contract, used by the CLI:
    0  every configuration passed
    1  at least one check failed (including inadmissible configurations)
    2  argument errors (argparse's own convention), and an output path
       that cannot be written
    3  an unexpected exception escaped a configuration's checks
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import time
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .clifford import (AdmissibilityError, CliffordSystem,
                       build_clifford_system, delta,
                       verify_clifford_relations)
from .focal import (SPHERE_TOL, VALUE_TOL, FocalPoints, _subseed,
                    sample_focal_points)
from .geometry import build_frame, shape_operators
from .polynomial import FkmPolynomial, verify_cartan_munzner
from .records import fold
from .willmore import CHECK_NAMES, certify_point, einstein_probe

__all__ = [
    "CHECKED_FIELDS",
    "DEFAULT_GRID",
    "DEFAULT_SEED",
    "DEFAULT_TOLERANCES",
    "N_PDE_SAMPLES",
    "SCHEMA_VERSION",
    "TOOL_NAME",
    "TOOL_VERSION",
    "VerificationConfig",
    "VerificationReport",
    "configuration_points",
    "evaluate_system",
    "exit_code",
    "render_text",
    "run_suite",
]

TOOL_NAME = "fkm-verify"
TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 12

# Every admissible (m, k) with ambient dimension at most 16.  (3, 1) and
# (4, 1) have m2 = 0 and carry no focal manifold of the verified kind.
DEFAULT_GRID = ((1, 3), (1, 4), (2, 2), (3, 2), (4, 2), (5, 1), (6, 1))
DEFAULT_SEED = 42
DEFAULT_TOLERANCES = {
    "pde": 1e-8,        # sphere PDE residuals
    "cert": 1e-10,      # every point's max |g_a(x)|, and |H^a|
    "geom": 1e-8,       # curvature identities, spectra, balances
    "willmore": 1e-7,   # reduced criterion and Ricci balance
}
# uniform sphere points at which each configuration's PDE residuals are taken
N_PDE_SAMPLES = 1000
# gated, a Ricci spread above this at every point is non-Einstein evidence
RICCI_SPREAD_THRESHOLD = 0.1

# Every system's relations are held to this.  Those of a freshly built one
# (integer entries) hold exactly, and a false one among integer entries
# leaves a residual of at least 1, so 1e-12 judges it as 0 would; a rotated
# or conjugated system meets it past rounding.
_RELATIONS_TOL = 1e-12
# A row of the focal points whose Gram deviation max |J J^T / 4 - I| is at
# most this (< 1 / (m + 2)) has every eigenvalue of J J^T / 4 within
# (m + 2) 1e-6 of 1 (Gershgorin), so J has full rank m + 2.
_GRAM_TOL = 1e-6

# Every checked field of the report, by block, and its tolerance: a key of
# the tolerances (a --tol name) or a fixed threshold.  Other fields are
# information.
CHECKED_FIELDS = {
    "clifford": {"max_deviation": _RELATIONS_TOL},
    "cartan_munzner": dict.fromkeys(
        ("max_gradient_residual", "max_laplacian_residual"), "pde"),
    "points": {"max_constraint_residual": "cert",
               "max_sphere_residual": SPHERE_TOL,
               "max_value_gap": VALUE_TOL},
    "geometry": {"S_max_gap": "geom", "S_spread": "geom",
                 "rho2_vs_S_max_gap": "geom", "H_max": "cert",
                 "ricci_crosscheck_max": "geom",
                 "ricci_trace_max_gap": "geom"},
    "lemma": dict.fromkeys(CHECK_NAMES[:1], "geom"),
    "willmore": dict.fromkeys(CHECK_NAMES[1:], "geom")
    | dict.fromkeys(("residual_max", "balance_max"), "willmore"),
}


def _integer(value, name: str) -> int:
    """value as an int when it is an int, a numpy integer or a decimal
    string; otherwise a ValueError naming `name`."""
    if isinstance(value, (int, np.integer, str)) and type(value) is not bool:
        with contextlib.suppress(ValueError):    # int("2.5") raises
            return int(value)
    raise ValueError(f"invalid {name}: expected an integer, got {value!r}")


@dataclass(frozen=True)
class VerificationConfig:
    """Resolved suite configuration.

    The integer fields, the (m, k) pairs of `configurations` included, may
    hold numpy integers or decimal strings, and the partial override of the
    default `tolerances` may hold strings; all are converted and validated
    here, and an error names the bad field or entry.  Every field is one
    the report serializes: the `config` block holds them all but the
    seed, which is top-level, plus the constant n_pde_samples.  How the
    report is written (file, format, matrix dumps) is the CLI's business.
    """

    configurations: tuple = DEFAULT_GRID
    n_points: int = 20
    n_normals: int = 50
    seed: int = DEFAULT_SEED
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.configurations, Iterable):
            raise ValueError(f"invalid configurations {self.configurations!r}"
                             ": expected a sequence of (m, k) entries")
        if not isinstance(self.tolerances, Mapping):
            raise ValueError(f"invalid tolerances {self.tolerances!r}: "
                             "expected a mapping of names to numbers")
        configs = []
        for entry in self.configurations:
            try:
                m, k = (_integer(v, "grid entry") for v in entry)
                if m < 1 or k < 1:
                    raise ValueError
            except (TypeError, ValueError):
                raise ValueError(f"invalid grid entry {entry!r}: expected "
                                 "integers m:k, both >= 1") from None
            configs.append((m, k))
        if not configs:
            raise ValueError("configuration grid is empty")
        object.__setattr__(self, "configurations", tuple(configs))
        for name in ("n_points", "n_normals", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        merged = dict(DEFAULT_TOLERANCES)
        for name, value in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance {name!r}; choose from "
                                 + ", ".join(sorted(DEFAULT_TOLERANCES)))
            try:
                merged[name] = float(value)
                if type(value) is bool or not 0.0 < merged[name] < math.inf:
                    raise ValueError
            except (TypeError, ValueError):
                raise ValueError(f"invalid tolerance {name}={value!r}: "
                                 "expected a positive finite number") from None
        object.__setattr__(self, "tolerances", merged)
        for name, low in (("n_points", 1), ("n_normals", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")


@dataclass
class VerificationReport:
    """In-memory result of a suite run.

    The verdicts are read off the entries, never stored beside them.
    wall_time_s is runtime bookkeeping only; it never enters to_dict, so
    identical config + seed give byte-identical serializations.
    """

    config: VerificationConfig
    entries: list
    wall_time_s: float = 0.0

    @property
    def overall_pass(self) -> bool:
        return all(e["pass"] for e in self.entries)

    @property
    def internal_error(self) -> bool:
        return any(e.get("internal") for e in self.entries)

    def to_dict(self) -> dict:
        cfg = self.config
        return _jsonable({
            "schema_version": SCHEMA_VERSION,
            "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
            "seed": cfg.seed,
            "config": {
                "configurations": [list(pair) for pair in cfg.configurations],
                "n_points": cfg.n_points,
                "n_normals": cfg.n_normals,
                "n_pde_samples": N_PDE_SAMPLES,
                "tolerances": {k: cfg.tolerances[k]
                               for k in sorted(cfg.tolerances)},
            },
            "configurations": self.entries,
            "overall_pass": self.overall_pass,
        })

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"


def _jsonable(obj):
    """The report with every non-finite float written as None (null): JSON
    has no NaN or infinity.  A report holds only dicts, lists, strings,
    ints, bools, floats and None, and json.dumps rejects any other type."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


# ---------------------------------------------------------------------------
# per-configuration evaluation
# ---------------------------------------------------------------------------

def _block(name: str, tol: dict, fields: dict, conditions: dict = {},
           where=None) -> dict:
    """The report block `name`, the one judge of the report: `fields` in
    key order, those of its CHECKED_FIELDS row folded, then its verdict.

    A checked field holds its value at every point (one value in clifford
    and cartan_munzner), each of which passes when value <= tol, so a NaN
    never passes; `conditions` maps a field to its values at every point
    and the value they must take.  Failing, with `where`, the block names
    in an `error` before `pass` the first failing field, in CHECKED_FIELDS
    order and conditions last, at its first failing point i, after
    where(i, field)."""
    limits = {key: tol[held] if isinstance(held, str) else held
              for key, held in CHECKED_FIELDS.get(name, {}).items()}
    block = {**fields, **{key: fold(fields[key]) for key in limits}}
    passed = (all(block[key] <= t for key, t in limits.items())
              and all(v == want for values, want in conditions.values()
                      for v in values))
    if passed or where is None:
        return {**block, "pass": passed}
    misses = [(i, key, f"{key} {v:.1e} (tol {t:g})")
              for key, t in limits.items()
              for i, v in enumerate(fields[key]) if not v <= t]
    misses += [(i, key, f"{key} {v} (expected {want})")
               for key, (values, want) in conditions.items()
               for i, v in enumerate(values) if v != want]
    i, key, text = misses[0]
    return {**block, "error": where(i, key) + text, "pass": False}


def _median(values) -> float:
    """np.median of `values`, whose first call would import numpy.ma."""
    ordered = np.sort(values)    # NaN last
    half = len(ordered) // 2
    median = (ordered[half] if len(ordered) % 2
              else (ordered[half - 1] + ordered[half]) / 2)
    return math.nan if np.isnan(ordered[-1]) else float(median)


def _points_block(points: FocalPoints, tol: dict, rank_expected: int) -> dict:
    """The points block: every row held to its checks and to the rank of
    its Jacobian, read off its Gram deviation: rank_expected = m + 2 where
    the deviation is at most _GRAM_TOL, 0 elsewhere."""
    ranks = np.where(points.gram_deviation <= _GRAM_TOL, rank_expected,
                     0).tolist()
    return _block("points", tol, {
        "count": len(points.x),
        "max_constraint_residual": points.residual_constraints,
        "max_sphere_residual": points.residual_sphere,
        "max_value_gap": points.value_gap,
        "jacobian_ranks": sorted(set(ranks)), "rank_expected": rank_expected,
        "coordinates_sha256": hashlib.sha256(np.ascontiguousarray(
            points.x, dtype="<f8").tobytes()).hexdigest()},
        {"jacobian_rank": (ranks, rank_expected)},
        lambda i, _: f"point {i} failed certification: ")


def configuration_points(system: CliffordSystem, cfg: VerificationConfig,
                         config_index: int) -> FocalPoints:
    """The points that evaluate_system samples for entry `config_index`
    of `cfg`, whose block holds only their digest."""
    # the sampler spawns its own sequence from an integer entropy
    ss = _subseed(cfg.seed, config_index, 1)
    return sample_focal_points(
        system, cfg.n_points, seed=int(ss.generate_state(2, np.uint64)[0]))


def evaluate_system(system: CliffordSystem, cfg: VerificationConfig,
                    config_index: int) -> dict:
    """Run every check block for one admissible system.

    The stages measure and _block judges.  A failing check fails its
    block; a failing points block also leaves out geometry, lemma,
    willmore and einstein, which read the points.  No stage raises on
    measured data, so an exception here is a fault of the program:
    run_suite records it as an internal error (exit code 3).
    """
    m, l = system.m, system.l
    n = system.ambient_dim - m - 2
    entry = {
        "m": m,
        "k": l // delta(m),
        "l": l,
        "ambient_dim": system.ambient_dim,
        "focal_dim": n,
        "admissible": True,
    }
    blocks = {}

    tol = cfg.tolerances
    blocks["clifford"] = _block("clifford", tol, {
        "max_deviation": verify_clifford_relations(system)})

    grad, lap = verify_cartan_munzner(FkmPolynomial(system), N_PDE_SAMPLES,
                                      _subseed(cfg.seed, config_index, 0))
    blocks["cartan_munzner"] = _block("cartan_munzner", tol, {
        "n_samples": N_PDE_SAMPLES, "max_gradient_residual": grad,
        "max_laplacian_residual": lap})

    points = configuration_points(system, cfg, config_index)
    blocks["points"] = _points_block(points, tol, m + 2)

    if blocks["points"]["pass"]:
        frames = build_frame(system, points.x)
        shapes = shape_operators(frames)
        # sup over unit tangents X of |Ric_closed(X) - Ric_tensor(X)|
        cross = np.linalg.eigvalsh(frames.closed_ricci - shapes.ricci)
        s_expected = 2.0 * (l - m - 1) * (m + 1)
        s_vals = shapes.sff_norm_sq
        ricci_traces = shapes.ricci.trace(axis1=1, axis2=2)
        blocks["geometry"] = _block("geometry", tol, {
            "S_expected": s_expected,
            "S_max_gap": np.abs(s_vals - s_expected),
            # folds to the spread
            "S_spread": s_vals - np.minimum.reduce(s_vals),
            "rho2_vs_S_max_gap": np.abs(shapes.trace_free_norm_sq - s_vals),
            "H_max": np.maximum.reduce(np.abs(shapes.mean_curvature), axis=1),
            "ricci_crosscheck_max": np.maximum.reduce(np.abs(cross), axis=1),
            "ricci_trace_max_gap":
                np.abs(ricci_traces - (n * (n - 1) - s_vals))},
            where=lambda i, _: f"point {i}: ")

        count = len(points.x)
        coeffs = np.empty((count, m + 1 + cfg.n_normals, m + 1))
        coeffs[:, :m + 1] = np.eye(m + 1)
        if cfg.n_normals:
            # one draw for the configuration, point p's normals in row p
            rng = default_rng(_subseed(cfg.seed, config_index, 3))
            c = rng.standard_normal((count, cfg.n_normals, m + 1))
            # sqrt(c @ c) row by row, the rounding of np.linalg.norm(c)
            norms = np.sqrt(np.matmul(c[..., None, :], c[..., None]))
            coeffs[:, m + 1:] = c / norms[..., 0]
        residuals, worst, wrong, read = certify_point(system, frames, shapes,
                                                      coeffs)
        # one row per point, one column per name of CHECK_NAMES
        columns = dict(zip(CHECK_NAMES, residuals.T))
        expected, read = [m, system.m2, system.m2], read.tolist()
        normal = {"max_spectrum_deviation": worst, "multiplicities": wrong}
        blocks["lemma"] = _block("lemma", tol, {
            "n_normals_per_point": m + 1 + cfg.n_normals,
            "max_spectrum_deviation": columns.pop("max_spectrum_deviation"),
            "multiplicities": next((r for r in read if r != expected),
                                   expected)},
            {"multiplicities": (read, expected)},
            lambda i, key: f"point {i}, normal {normal[key][i]}: ")
        residual = columns.pop("residual_max")
        blocks["willmore"] = _block("willmore", tol, {
            "residual_max": residual, "residual_median": _median(residual),
            **columns}, where=lambda i, _: f"point {i}: ")

        probe = einstein_probe(frames)
        gated = 4 * l > m * m + 3 * m + 4
        exceeds = (probe.spread > RICCI_SPREAD_THRESHOLD).tolist()
        blocks["einstein"] = _block("einstein", tol, {
            "ricci_min": float(np.minimum.reduce(probe.ricci_min)),
            "ricci_max": float(np.maximum.reduce(probe.ricci_max)),
            "spread": float(np.maximum.reduce(probe.spread)),
            "dimension_condition": gated,
            "spread_exceeds_threshold": all(exceeds) if gated else None,
            "status": "evidence" if gated else "inconclusive"},
            {"spread_exceeds_threshold": (exceeds, True)} if gated else {},
            lambda i, _: f"point {i}: ")

    entry["blocks"] = blocks
    entry["pass"] = all(b["pass"] for b in blocks.values())
    return entry


def run_suite(cfg: VerificationConfig) -> VerificationReport:
    """Evaluate every configuration in the grid."""
    start = time.perf_counter()
    entries = []
    for ci, (m, k) in enumerate(cfg.configurations):
        base = {"m": m, "k": k}
        try:
            system = build_clifford_system(m, k)
        except AdmissibilityError as exc:
            entries.append({**base, "admissible": False,
                            "reason": f"inadmissible: m2={exc.m2}",
                            "pass": False})
            continue
        except NotImplementedError as exc:
            entries.append({**base, "admissible": False,
                            "reason": str(exc), "pass": False})
            continue
        try:
            entries.append(evaluate_system(system, cfg, ci))
        except Exception as exc:  # escaping checks is an internal error
            entries.append({**base, "admissible": True, "internal": True,
                            "error": repr(exc), "pass": False})
    return VerificationReport(config=cfg, entries=entries,
                              wall_time_s=time.perf_counter() - start)


def exit_code(report: VerificationReport) -> int:
    if report.internal_error:
        return 3
    return 0 if report.overall_pass else 1


def render_text(report: VerificationReport) -> str:
    """Line-per-configuration summary, each failing block's error on a
    line of its own below it; as deterministic as the JSON."""
    cfg = report.config
    lines = [f"{TOOL_NAME} {TOOL_VERSION} (schema {SCHEMA_VERSION})",
             f"seed={cfg.seed} points={cfg.n_points} normals={cfg.n_normals}"
             f" pde_samples={N_PDE_SAMPLES}",
             "tolerances: " + " ".join(f"{k}={cfg.tolerances[k]:g}"
                                       for k in sorted(cfg.tolerances))]
    for e in report.entries:
        tag = "PASS" if e["pass"] else "FAIL"
        head = f"[{tag}] m={e['m']} k={e['k']}"
        if not e.get("admissible", True):
            lines.append(f"{head}: {e['reason']}")
            continue
        if e.get("internal"):
            lines.append(f"{head}: internal error: {e['error']}")
            continue
        b = e["blocks"]
        parts = [f"l={e['l']}", f"dim={e['focal_dim']}"]
        cm = b.get("cartan_munzner")
        if cm:
            parts.append("pde={:.3e}".format(
                fold([cm["max_gradient_residual"],
                      cm["max_laplacian_residual"]])))
        geo = b.get("geometry")
        if geo:
            parts.append("S_gap={:.3e}".format(geo["S_max_gap"]))
        wl = b.get("willmore")
        if wl:
            parts.append("willmore={:.3e}".format(wl["residual_max"]))
            parts.append("balance={:.3e}".format(wl["balance_max"]))
        ein = b.get("einstein")
        if ein:
            parts.append("einstein=" + ein["status"])
        failed = sorted(name for name, blk in b.items()
                        if not blk.get("pass", False))
        if failed:
            parts.append("failed=" + ",".join(failed))
        lines.append(head + ": " + " ".join(parts))
        lines += [f"  {name}: {b[name]['error']}" for name in failed
                  if "error" in b[name]]
    lines.append("overall: " + ("PASS" if report.overall_pass else "FAIL"))
    return "\n".join(lines) + "\n"

