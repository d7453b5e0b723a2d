"""Suite runner: sweep configurations, aggregate, serialize.

The canonical artifact is the JSON report: running the suite twice with the
same configuration and seed must produce byte-identical output.  Everything
stochastic derives from one master seed through named sub-seeds, and wall
time is kept off the serialized form (it lives on the in-memory report and
on stderr).

Exit-code contract, used by the CLI:
    0  every configuration passed
    1  at least one check failed (including inadmissible configurations)
    2  argument errors (argparse's own convention)
    3  an unexpected exception escaped a configuration's checks
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .clifford import (CliffordSystem, build_clifford_system, delta,
                       dump_matrices, verify_clifford_relations)
from .errors import (AdmissibilityError, CertificationError, FrameError,
                     MultiplicityError, SpectrumError)
from .focal import SPHERE_TOL, VALUE_TOL, _subseed, sample_focal_points
from .geometry import build_frame, shape_operators
from .polynomial import FkmPolynomial, verify_cartan_munzner
from .records import Check, fold
from .willmore import CHECK_NAMES, certify_point, einstein_probe

__all__ = [
    "DEFAULT_GRID",
    "DEFAULT_SEED",
    "DEFAULT_TOLERANCES",
    "N_PDE_SAMPLES",
    "SCHEMA_VERSION",
    "TOOL_NAME",
    "TOOL_VERSION",
    "VerificationConfig",
    "VerificationReport",
    "evaluate_system",
    "exit_code",
    "render_text",
    "run_suite",
    "write_matrix_dumps",
]

TOOL_NAME = "fkm-verify"
TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 3

# Every admissible (m, k) with ambient dimension at most 16.  (3, 1) and
# (4, 1) have m2 = 0 and carry no focal manifold of the verified kind.
DEFAULT_GRID = ((1, 3), (1, 4), (2, 2), (3, 2), (4, 2), (5, 1), (6, 1))
DEFAULT_SEED = 42
DEFAULT_TOLERANCES = {
    "pde": 1e-8,        # sphere PDE residuals
    "cert": 1e-10,      # focal constraint residuals, |H^a|
    "geom": 1e-8,       # curvature identities, spectra, balances
    "willmore": 1e-7,   # reduced criterion and Ricci balance
}
# uniform sphere points at which each configuration's PDE residuals are taken
N_PDE_SAMPLES = 1000

# the certify_point columns held to the willmore tolerance; the others are
# held to geom
_WILLMORE_CHECKS = ("residual_max", "balance_max")


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
    here, and an error names the bad field or entry.  Presentation options
    (out/format/dump path) are carried for the CLI but not serialized.
    """

    configurations: tuple = DEFAULT_GRID
    n_points: int = 20
    n_normals: int = 50
    seed: int = DEFAULT_SEED
    tolerances: dict = field(default_factory=dict)
    out: str | None = None
    format: str = "json"
    dump_matrices: str | None = None

    def __post_init__(self):
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
                if not merged[name] > 0.0:
                    raise ValueError
            except (TypeError, ValueError):
                raise ValueError(f"invalid tolerance {name}={value!r}: "
                                 "expected a positive number") from None
        object.__setattr__(self, "tolerances", merged)
        if self.format not in ("json", "text"):
            raise ValueError(f"format must be json or text, got {self.format!r}")
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if self.n_normals < 0:
            raise ValueError("n_normals must be >= 0")


@dataclass
class VerificationReport:
    """In-memory result of a suite run.

    wall_time_s is runtime bookkeeping only; it never enters to_dict, so
    identical config + seed give byte-identical serializations.
    """

    config: VerificationConfig
    entries: list
    overall_pass: bool
    internal_error: bool = False
    wall_time_s: float = 0.0

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
    """Recursive plain-type sanitizer; rejects anything it cannot map.

    JSON has no NaN or infinity, so a non-finite float becomes None (null).
    A finite float64 array holds nothing to map and converts in one
    tolist().
    """
    if (isinstance(obj, np.ndarray) and obj.dtype == np.float64
            and np.isfinite(obj).all()):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} in report")


# ---------------------------------------------------------------------------
# per-configuration evaluation
# ---------------------------------------------------------------------------

def _block(*fields, ok: bool = True) -> dict:
    """A report block from its fields in key order, then its verdict.

    Each field is a dict of information, copied as is, or a Check, written
    as its residual under its name.  The block passes when every check
    passes and `ok` holds; only points (the Jacobian ranks) and einstein
    (the evidence gate) have such a condition besides their checks.
    """
    block = {}
    for f in fields:
        block.update({f.name: f.residual} if isinstance(f, Check) else f)
    block["pass"] = ok and all(f.passed for f in fields
                               if isinstance(f, Check))
    return block


def evaluate_system(system: CliffordSystem, cfg: VerificationConfig,
                    config_index: int) -> dict:
    """Run every check block for one admissible system.

    Expected failure modes (certification, frame, spectrum) mark
    their block failed and skip dependents; anything else propagates to
    run_suite, which records an internal error (exit code 3).
    """
    tol = cfg.tolerances
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

    blocks["clifford"] = _block(verify_clifford_relations(system))

    blocks["cartan_munzner"] = _block(
        {"n_samples": N_PDE_SAMPLES},
        *verify_cartan_munzner(FkmPolynomial(system),
                               n_samples=N_PDE_SAMPLES,
                               seed=_subseed(cfg.seed, config_index, 0),
                               tol=tol["pde"]))

    points = None
    try:
        # the sampler spawns its own sequence from an integer entropy
        ss = _subseed(cfg.seed, config_index, 1)
        points = sample_focal_points(
            system, cfg.n_points, seed=int(ss.generate_state(2, np.uint64)[0]))
    except CertificationError as exc:
        blocks["points"] = {"count": 0, "error": str(exc), "pass": False}

    if points is not None:
        rank_expected = m + 2
        ranks = sorted(set(points.jacobian_rank.tolist()))
        blocks["points"] = _block(
            {"count": len(points.x)},
            Check("max_constraint_residual",
                  fold(points.residual_constraints), tol["cert"]),
            Check("max_sphere_residual", fold(points.residual_sphere),
                  SPHERE_TOL),
            Check("max_value_gap", fold(points.value_gap), VALUE_TOL),
            {"jacobian_ranks": ranks,
             "rank_expected": rank_expected,
             "coordinates": points.x},
            ok=ranks == [rank_expected])

    frames = None
    if points is not None:
        try:
            frames = build_frame(system, points.x)
            shapes = shape_operators(frames)
            # sup over unit tangents X of |Ric_closed(X) - Ric_tensor(X)|
            cross = np.linalg.eigvalsh(frames.closed_ricci - shapes.ricci)
            s_expected = 2.0 * (l - m - 1) * (m + 1)
            s_vals = shapes.sff_norm_sq
            ricci_traces = np.trace(shapes.ricci, axis1=1, axis2=2)
            blocks["geometry"] = _block(
                {"S_expected": s_expected},
                Check("S_max_gap", fold(np.abs(s_vals - s_expected)),
                      tol["geom"]),
                Check("S_spread", float(np.ptp(s_vals)), tol["geom"]),
                Check("rho2_vs_S_max_gap",
                      fold(np.abs(shapes.trace_free_norm_sq - s_vals)),
                      tol["geom"]),
                Check("H_max", fold(np.abs(shapes.mean_curvature)),
                      tol["cert"]),
                Check("ricci_crosscheck_max", fold(np.abs(cross)),
                      tol["geom"]),
                Check("ricci_trace_max_gap",
                      fold(np.abs(ricci_traces - (n * (n - 1) - s_vals))),
                      tol["geom"]))
        except FrameError as exc:
            blocks["geometry"] = {"error": str(exc), "pass": False}

    if frames is not None:
        count = len(points.x)
        try:
            coeffs = np.empty((count, m + 1 + cfg.n_normals, m + 1))
            coeffs[:, :m + 1] = np.eye(m + 1)
            if cfg.n_normals:
                # one draw for the configuration, point p's normals in row p
                rng = default_rng(_subseed(cfg.seed, config_index, 3))
                c = rng.standard_normal((count, cfg.n_normals, m + 1))
                # sqrt(c @ c) row by row, the rounding of np.linalg.norm(c)
                norms = np.sqrt(np.matmul(c[..., None, :], c[..., None]))
                coeffs[:, m + 1:] = c / norms[..., 0]
            residuals = certify_point(system, frames, shapes, coeffs)
        except (SpectrumError, MultiplicityError) as exc:
            blocks["lemma"] = {"error": str(exc), "pass": False}
        else:
            # one row per point, one column per name of CHECK_NAMES
            columns = dict(zip(CHECK_NAMES, residuals.T))
            spectrum, reduced, *chain = (
                Check(name, fold(col), tol["willmore"]
                      if name in _WILLMORE_CHECKS else tol["geom"])
                for name, col in columns.items())
            blocks["lemma"] = _block(
                {"n_normals_per_point": m + 1 + cfg.n_normals}, spectrum,
                {"multiplicities": [m, system.m2, system.m2]})
            blocks["willmore"] = _block(
                reduced,
                {"residual_median": float(np.median(columns["residual_max"]))},
                *chain)

        # the probe reads only the frames, so a failed chain leaves it
        probe = einstein_probe(system, frames)
        blocks["einstein"] = _block(
            {"ricci_min": float(np.min(probe.ricci_min)),
             "ricci_max": float(np.max(probe.ricci_max)),
             "spread": float(np.max(probe.spread)),
             "dimension_condition": probe.dimension_condition,
             "spread_exceeds_threshold": probe.spread_exceeds_threshold,
             "status": probe.status},
            ok=probe.status != "evidence" or probe.spread_exceeds_threshold)

    entry["blocks"] = blocks
    entry["pass"] = bool(blocks) and all(b.get("pass", False)
                                         for b in blocks.values())
    return entry


def run_suite(cfg: VerificationConfig) -> VerificationReport:
    """Evaluate every configuration in the grid."""
    start = time.perf_counter()
    entries = []
    internal = False
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
            internal = True
            entries.append({**base, "admissible": True, "internal": True,
                            "error": repr(exc), "pass": False})
    overall = all(e["pass"] for e in entries)
    return VerificationReport(config=cfg, entries=entries,
                              overall_pass=overall, internal_error=internal,
                              wall_time_s=time.perf_counter() - start)


def exit_code(report: VerificationReport) -> int:
    if report.internal_error:
        return 3
    return 0 if report.overall_pass else 1


def render_text(report: VerificationReport) -> str:
    """Line-per-configuration summary; as deterministic as the JSON."""
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
        geo = b.get("geometry", {})
        if "S_max_gap" in geo:
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
    lines.append("overall: " + ("PASS" if report.overall_pass else "FAIL"))
    return "\n".join(lines) + "\n"


def write_matrix_dumps(cfg: VerificationConfig, directory: str) -> list:
    """Dump each admissible grid system to <dir>/clifford_m{m}_k{k}.txt."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for m, k in cfg.configurations:
        try:
            system = build_clifford_system(m, k)
        except (AdmissibilityError, NotImplementedError):
            continue
        path = os.path.join(directory, f"clifford_m{m}_k{k}.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(dump_matrices(system))
        written.append(path)
    return written
