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

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .clifford import (CliffordSystem, build_clifford_system, delta,
                       dump_matrices, verify_clifford_relations)
from .errors import (AdmissibilityError, CertificationError, ConvergenceError,
                     FrameError, MultiplicityError, SamplingError,
                     SingularityError, SpectrumError)
from .focal import (SPHERE_TOL, VALUE_TOL, deterministic_seed,
                    sample_focal_points, tangent_jacobian_rank)
from .geometry import build_frame, ricci_quadratic, shape_operators, take
from .polynomial import FkmPolynomial, sphere_samples, verify_cartan_munzner
from .records import Check, fold
from .willmore import certify_point, einstein_probe

__all__ = [
    "DEFAULT_GRID",
    "DEFAULT_SEED",
    "DEFAULT_TOLERANCES",
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
SCHEMA_VERSION = 1

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

_SEED_MASK = (1 << 64) - 1
_N_CROSSCHECK_DIRS = 100
# Points whose Ricci cross-check is evaluated as one stack.  Their 100
# directions per point take about 60 KB at (m, k) = (6, 1), so a block
# stays near 1 MB.
_POINT_BLOCK = 16


def _point_blocks(count: int) -> list:
    """Slices of at most _POINT_BLOCK consecutive points out of `count`."""
    return [slice(lo, lo + _POINT_BLOCK)
            for lo in range(0, count, _POINT_BLOCK)]


def _subseed(master: int, *key: int) -> np.random.SeedSequence:
    """The sub-stream of the master seed named by `key`, ready for
    default_rng."""
    return np.random.SeedSequence(int(master) & _SEED_MASK,
                                  spawn_key=tuple(int(v) for v in key))


@dataclass(frozen=True)
class VerificationConfig:
    """Resolved suite configuration.

    `tolerances` may be passed as a partial override; it is merged with the
    defaults and validated.  Presentation options (out/format/dump path) are
    carried here for the CLI but excluded from canonical serialization.
    """

    configurations: tuple = DEFAULT_GRID
    n_points: int = 20
    n_normals: int = 50
    n_pde_samples: int = 1000
    seed: int = DEFAULT_SEED
    tolerances: dict = field(default_factory=dict)
    out: str | None = None
    format: str = "json"
    dump_matrices: str | None = None

    def __post_init__(self):
        configs = tuple((int(m), int(k)) for m, k in self.configurations)
        if not configs:
            raise ValueError("configuration grid is empty")
        for m, k in configs:
            if m < 1 or k < 1:
                raise ValueError(f"grid entry m={m}, k={k}: both must be >= 1")
        object.__setattr__(self, "configurations", configs)
        merged = dict(DEFAULT_TOLERANCES)
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ValueError(f"unknown tolerance name(s): {sorted(unknown)}")
        for name, value in self.tolerances.items():
            value = float(value)
            if not value > 0.0:
                raise ValueError(f"tolerance {name} must be positive")
            merged[name] = value
        object.__setattr__(self, "tolerances", merged)
        if self.format not in ("json", "text"):
            raise ValueError(f"format must be json or text, got {self.format!r}")
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if self.n_normals < 0:
            raise ValueError("n_normals must be >= 0")
        if self.n_pde_samples < 1:
            raise ValueError("n_pde_samples must be >= 1")
        object.__setattr__(self, "seed", int(self.seed))


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
                "n_pde_samples": cfg.n_pde_samples,
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

    Expected failure modes (sampling, certification, frame, spectrum) mark
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

    poly = FkmPolynomial(system)
    blocks["cartan_munzner"] = _block(
        {"n_samples": cfg.n_pde_samples},
        *verify_cartan_munzner(poly, n_samples=cfg.n_pde_samples,
                               seed=_subseed(cfg.seed, config_index, 0),
                               tol=tol["pde"]))

    points = None
    try:
        produced = [deterministic_seed(system)]
        if cfg.n_points > 1:
            # the sampler spawns its own sequences from an integer entropy
            ss = _subseed(cfg.seed, config_index, 1)
            produced.extend(sample_focal_points(
                system, cfg.n_points - 1,
                seed=int(ss.generate_state(2, np.uint64)[0])))
        points = produced
    except (SamplingError, CertificationError, ConvergenceError,
            SingularityError) as exc:
        blocks["points"] = {"count": 0, "error": str(exc), "pass": False}

    if points is not None:
        coordinates = np.array([p.x for p in points])
        rank_expected = m + 2
        ranks = sorted(set(tangent_jacobian_rank(system, points).tolist()))
        blocks["points"] = _block(
            {"count": len(points)},
            Check("max_constraint_residual",
                  fold([p.residual_constraints for p in points]),
                  tol["cert"]),
            Check("max_sphere_residual",
                  fold([p.residual_sphere for p in points]), SPHERE_TOL),
            Check("max_value_gap",
                  fold(np.abs(poly.value(coordinates) - 1.0)),
                  VALUE_TOL),
            {"jacobian_ranks": ranks,
             "rank_expected": rank_expected,
             "coordinates": coordinates},
            ok=ranks == [rank_expected])

    frames = None
    if points is not None:
        try:
            frames = build_frame(system, points)
            shapes = shape_operators(system, frames)
            cross = []
            # one stream for the configuration, drawn block after block in
            # point order: point p takes directions 100 p .. 100 p + 99
            rng = default_rng(_subseed(cfg.seed, config_index, 2))
            for rows in _point_blocks(len(points)):
                block = take(frames, rows)
                count = len(block.tangent)
                z = sphere_samples(rng, count * _N_CROSSCHECK_DIRS,
                                   n).reshape(count, _N_CROSSCHECK_DIRS, n)
                quad = ricci_quadratic(system, block,
                                       block.tangent @ z.transpose(0, 2, 1))
                tensor = np.sum((z @ shapes.ricci[rows]) * z, axis=2)
                cross.append(fold(np.abs(quad - tensor)))
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
                Check("ricci_crosscheck_max", fold(cross), tol["geom"]),
                Check("ricci_trace_max_gap",
                      fold(np.abs(ricci_traces - (n * (n - 1) - s_vals))),
                      tol["geom"]))
        except FrameError as exc:
            blocks["geometry"] = {"error": str(exc), "pass": False}

    if frames is not None:
        count = len(points)
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
            rows = certify_point(system, frames, shapes, coeffs,
                                 geom_tol=tol["geom"],
                                 willmore_tol=tol["willmore"])
        except (SpectrumError, MultiplicityError) as exc:
            blocks["lemma"] = {"error": str(exc), "pass": False}
        else:
            # one column per check name, one row per point
            columns = {col[0].name: col for col in zip(*rows)}
            worst = {name: Check(name, fold([c.residual for c in col]),
                                 col[0].tol)
                     for name, col in columns.items()}
            blocks["lemma"] = _block(
                {"n_normals_per_point": m + 1 + cfg.n_normals},
                worst.pop("max_spectrum_deviation"),
                {"multiplicities": [m, system.m2, system.m2]})
            reduced = [c.residual for c in columns["residual_max"]]
            blocks["willmore"] = _block(
                worst.pop("residual_max"),
                {"residual_median": float(np.median(reduced))},
                *worst.values())

            probe = einstein_probe(system, frames, shapes)
            blocks["einstein"] = _block(
                {"ricci_min": float(np.min(probe.ricci_min)),
                 "ricci_max": float(np.max(probe.ricci_max)),
                 "spread": float(np.max(probe.spread)),
                 "dimension_condition": probe.dimension_condition,
                 "dim_inequality": probe.dim_inequality,
                 "spread_exceeds_threshold": probe.spread_exceeds_threshold,
                 "status": probe.status},
                ok=probe.status != "evidence"
                or (probe.spread_exceeds_threshold and probe.dim_inequality))

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
             f" pde_samples={cfg.n_pde_samples}",
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
