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

import hashlib
import json
import math
import time
from collections.abc import Iterable, Mapping, Set
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np
from numpy.random import SeedSequence, default_rng

from .clifford import (AdmissibilityError, CliffordSystem,
                       build_clifford_system, delta,
                       verify_clifford_relations)
from .focal import (SPHERE_TOL, VALUE_TOL, point_residuals,
                    sample_focal_points)
from .geometry import ShapeData, build_frame, shape_operators
from .polynomial import FkmPolynomial, sphere_samples, verify_cartan_munzner
from .records import fold
from .willmore import certify_point, einstein_probe

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
    "lemma": {"max_spectrum_deviation": "geom"},
    "willmore": {"residual_max": "willmore", "balance_max": "willmore"}
    | dict.fromkeys(("bridge_max", "chain_max", "projection_pairwise_max",
                     "projection_aggregate_max", "t0_pair_leak_max",
                     "reflection_max", "case_identity_max"), "geom"),
}


# Iterables that are no grid and no grid entry: a string or bytes iterates
# by character, a mapping by key, and a set in an order that moves with
# PYTHONHASHSEED, which would move the configurations' sub-seeds.
_NOT_A_SEQUENCE = (str, bytes, bytearray, Mapping, Set)


def _integer(value, name: str, low: int) -> int:
    """value as an int when it is an int, a numpy integer or an ASCII string
    -?[0-9]+, and at least `low`; otherwise a ValueError naming `name`."""
    if (isinstance(value, (int, np.integer)) and type(value) is not bool
            or isinstance(value, str) and value.isascii()
            and value.removeprefix("-").isdigit()):
        if int(value) < low:
            raise ValueError(f"{name} must be >= {low}")
        return int(value)
    raise ValueError(f"invalid {name}: expected an integer, got {value!r}")


@dataclass(frozen=True)
class VerificationConfig:
    """Resolved suite configuration, and the one reader of its inputs.

    The integer fields, the (m, k) pairs of `configurations` included, may
    hold numpy integers or ASCII strings -?[0-9]+.  Every tolerance, the
    defaults and the partial override `tolerances` alike, may be a string
    of ASCII digits, '.', 'e', 'E' and signs; each must be positive and
    finite, and they are held read-only, in name order, so that no
    assignment after construction gets past this check.  An error names
    the bad field or entry.  Every field is one the report serializes: the
    `config` block holds them all but the seed, which is top-level, plus
    the constant n_pde_samples.  How the report is written (file, format,
    matrix dumps) is the CLI's business.
    """

    configurations: tuple = DEFAULT_GRID
    n_points: int = 20
    n_normals: int = 50
    seed: int = DEFAULT_SEED
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if (not isinstance(self.configurations, Iterable)
                or isinstance(self.configurations, _NOT_A_SEQUENCE)):
            raise ValueError(f"invalid configurations {self.configurations!r}"
                             ": expected a sequence of (m, k) entries")
        if not isinstance(self.tolerances, Mapping):
            raise ValueError(f"invalid tolerances {self.tolerances!r}: "
                             "expected a mapping of names to numbers")
        configs = []
        for entry in self.configurations:
            try:
                if isinstance(entry, _NOT_A_SEQUENCE):
                    raise ValueError
                m, k = (_integer(v, "grid entry", 1) for v in entry)
            except (TypeError, ValueError):
                raise ValueError(f"invalid grid entry {entry!r}: expected "
                                 "integers m:k, both >= 1") from None
            configs.append((m, k))
        if not configs:
            raise ValueError("configuration grid is empty")
        object.__setattr__(self, "configurations", tuple(configs))
        for name, low in (("n_points", 1), ("n_normals", 0), ("seed", 0)):
            object.__setattr__(self, name,
                               _integer(getattr(self, name), name, low))
        tol = {}
        for name, value in {**DEFAULT_TOLERANCES, **self.tolerances}.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance {name!r}; choose from "
                                 + ", ".join(sorted(DEFAULT_TOLERANCES)))
            try:
                if isinstance(value, str) and value.strip("0123456789.eE+-"):
                    raise ValueError
                tol[name] = float(value)
                if type(value) is bool or not 0.0 < tol[name] < math.inf:
                    raise ValueError
            except (TypeError, ValueError):
                raise ValueError(f"invalid tolerance {name}={value!r}: "
                                 "expected a positive finite number") from None
        object.__setattr__(self, "tolerances",
                           MappingProxyType(dict(sorted(tol.items()))))


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
                "tolerances": dict(cfg.tolerances),
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


def _m_plus(system: CliffordSystem) -> dict:
    """M+'s expected values, which its blocks hold: the rank m + 2 of the
    Jacobian of its equations, S = 2 (l - m - 1)(m + 1), the multiplicities
    (m, m2, m2) of the eigenvalues 0, +1, -1 of each A_xi, and whether the
    Einstein probe's dimension condition 4l > m^2 + 3m + 4 holds."""
    m, l = system.m, system.l
    return {"rank": m + 2, "S": 2.0 * (l - m - 1) * (m + 1),
            "multiplicities": [m, system.m2, system.m2],
            "gated": 4 * l > m * m + 3 * m + 4}


def _points_fields(x: np.ndarray, residuals: dict, gram: np.ndarray,
                   rank_expected: int) -> tuple:
    """The points block's fields, conditions and naming, which _block
    judges, for the rows of x: point_residuals' dict, and each row's
    Jacobian rank, read off its Gram deviation: rank_expected where it is
    at most _GRAM_TOL, else 0."""
    ranks = np.where(gram <= _GRAM_TOL, rank_expected, 0).tolist()
    return ({
        "count": len(x), **residuals,
        "jacobian_ranks": sorted(set(ranks)), "rank_expected": rank_expected,
        "coordinates_sha256": hashlib.sha256(np.ascontiguousarray(
            x, dtype="<f8").tobytes()).hexdigest()},
        {"jacobian_rank": (ranks, rank_expected)},
        lambda i, _: f"point {i} failed certification: ")


def _geometry_fields(shapes: ShapeData, cross: np.ndarray,
                     s_expected: float) -> tuple:
    """The geometry block's fields at each point, conditions and naming,
    from shape_operators' record and the (P, n) eigenvalues of the Ricci
    cross-check's difference: S against s_expected and its spread,
    rho^2 = S - n |H|^2 against S, |H|, the cross-check's spectral norm
    and tr Ric against n (n - 1) - S."""
    s, h, n = shapes.sff_norm_sq, shapes.mean_curvature, shapes.ricci.shape[2]
    rho2 = s - n * np.matmul(h[:, None, :], h[:, :, None])[:, 0, 0]
    return ({"S_expected": s_expected, "S_max_gap": np.abs(s - s_expected),
             # folds to the spread
             "S_spread": s - np.minimum.reduce(s),
             "rho2_vs_S_max_gap": np.abs(rho2 - s),
             "H_max": np.maximum.reduce(np.abs(h), axis=1),
             "ricci_crosscheck_max": np.maximum.reduce(np.abs(cross), axis=1),
             "ricci_trace_max_gap": np.abs(
                 shapes.ricci.trace(axis1=1, axis2=2) - (n * (n - 1) - s))},
            {}, lambda i, _: f"point {i}: ")


def _lemma_fields(deviation: np.ndarray, read: np.ndarray,
                  expected: list) -> tuple:
    """The lemma block's fields at each point, conditions and naming, from
    certify_point's (P, N) spectrum deviations and (P, N, 3) multiplicities:
    each point's worst deviation, and the multiplicities of its first
    normal that does not read `expected` (normal 0 if none), which a
    failure names."""
    first = np.logical_and.reduce(read == expected, axis=2).argmin(axis=1)
    counts = read[np.arange(len(read)), first].tolist()

    def normal(i, key):
        # the first wrong normal for the counts, else the worst one
        k = first[i] if key == "multiplicities" else deviation[i].argmax()
        return f"point {i}, normal {k}: "

    return ({"n_normals_per_point": deviation.shape[1],
             "max_spectrum_deviation": fold(deviation, axis=1),
             "multiplicities": next((r for r in counts if r != expected),
                                    expected)},
            {"multiplicities": (counts, expected)}, normal)


def _willmore_fields(residuals: dict) -> tuple:
    """The willmore block's fields at each point, conditions and naming:
    certify_point's residuals, and the median of the reduced criterion's."""
    residual = residuals["residual_max"]
    return ({"residual_max": residual, "residual_median": _median(residual),
             **residuals}, {}, lambda i, _: f"point {i}: ")


def _einstein_fields(lowest: np.ndarray, highest: np.ndarray,
                     gated: bool) -> tuple:
    """The einstein block's fields, conditions and naming, from
    einstein_probe's least and greatest Ricci values at each point: where
    the dimension condition `gated` holds, every point's spread must
    exceed RICCI_SPREAD_THRESHOLD."""
    spread = highest - lowest
    exceeds = (spread > RICCI_SPREAD_THRESHOLD).tolist()
    return ({"ricci_min": float(np.minimum.reduce(lowest)),
             "ricci_max": float(np.maximum.reduce(highest)),
             "spread": float(np.maximum.reduce(spread)),
             "dimension_condition": gated,
             "spread_exceeds_threshold": all(exceeds) if gated else None,
             "status": "evidence" if gated else "inconclusive"},
            {"spread_exceeds_threshold": (exceeds, True)} if gated else {},
            lambda i, _: f"point {i}: ")


def _subseed(master: int, *key: int) -> SeedSequence:
    """The sub-stream (configuration, stage) of the master seed: stage 0
    is the PDE samples, 1 the sampler and 3 the random normals."""
    return SeedSequence(int(master), spawn_key=tuple(int(v) for v in key))


def configuration_points(system: CliffordSystem, cfg: VerificationConfig,
                         config_index: int) -> np.ndarray:
    """The read-only (n_points, 2l) array of the points that
    evaluate_system samples for entry `config_index` of `cfg`, whose block
    holds only their digest."""
    # the sampler spawns its own sequence from an integer entropy
    ss = _subseed(cfg.seed, config_index, 1)
    return sample_focal_points(
        system, cfg.n_points, seed=int(ss.generate_state(2, np.uint64)[0]))


def evaluate_system(system: CliffordSystem, cfg: VerificationConfig,
                    config_index: int) -> dict:
    """Run every check block for one admissible system.

    The stages measure, one _<block>_fields function per block forms its
    fields from their outputs and M+'s expected values (_m_plus), and
    _block judges.  A failing check fails its block; a failing points
    block also leaves out geometry, lemma, willmore and einstein, which
    read the points.  No stage raises on measured data, so an exception
    here is a fault of the program: run_suite records it as an internal
    error (exit code 3).
    """
    m, l = system.m, system.l
    want = _m_plus(system)
    entry = {
        "m": m,
        "k": l // delta(m),
        "l": l,
        "ambient_dim": system.ambient_dim,
        "focal_dim": system.ambient_dim - m - 2,
        "admissible": True,
    }
    blocks = {}

    tol = cfg.tolerances
    blocks["clifford"] = _block("clifford", tol, {
        "max_deviation": verify_clifford_relations(system)})

    blocks["cartan_munzner"] = _block("cartan_munzner", tol, {
        "n_samples": N_PDE_SAMPLES, **verify_cartan_munzner(
            FkmPolynomial(system), N_PDE_SAMPLES,
            _subseed(cfg.seed, config_index, 0))})

    x = configuration_points(system, cfg, config_index)
    blocks["points"] = _block("points", tol, *_points_fields(
        x, *point_residuals(system, x), want["rank"]))

    if blocks["points"]["pass"]:
        frames = build_frame(system, x)
        shapes = shape_operators(frames)
        # sup over unit X of |Ric_closed(X) - Ric_tensor(X)|, in float64
        cross = np.linalg.eigvalsh(frames.closed_ricci - shapes.ricci)
        blocks["geometry"] = _block("geometry", tol, *_geometry_fields(
            shapes, cross, want["S"]))

        count = len(x)
        coeffs = np.empty((count, m + 1 + cfg.n_normals, m + 1))
        coeffs[:, :m + 1] = np.eye(m + 1)
        if cfg.n_normals:
            # one draw for the configuration, point p's normals in row p
            coeffs[:, m + 1:] = sphere_samples(
                default_rng(_subseed(cfg.seed, config_index, 3)),
                count * cfg.n_normals, m + 1).reshape(count, -1, m + 1)
        residuals, deviation, read = certify_point(system, frames, shapes,
                                                   coeffs)
        blocks["lemma"] = _block("lemma", tol, *_lemma_fields(
            deviation, read, want["multiplicities"]))
        blocks["willmore"] = _block("willmore", tol,
                                    *_willmore_fields(residuals))
        blocks["einstein"] = _block("einstein", tol, *_einstein_fields(
            *einstein_probe(frames), want["gated"]))

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
             "tolerances: " + " ".join(f"{k}={v:g}"
                                       for k, v in cfg.tolerances.items())]
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
        cm = b["cartan_munzner"]
        parts = [f"l={e['l']}", f"dim={e['focal_dim']}", "pde={:.3e}".format(
            fold([cm["max_gradient_residual"], cm["max_laplacian_residual"]]))]
        # the four blocks that read the points: all of them, or none
        if "geometry" in b:
            parts += ["S_gap={:.3e}".format(b["geometry"]["S_max_gap"]),
                      "willmore={:.3e}".format(b["willmore"]["residual_max"]),
                      "balance={:.3e}".format(b["willmore"]["balance_max"]),
                      "einstein=" + b["einstein"]["status"]]
        failed = sorted(name for name, blk in b.items()
                        if not blk.get("pass", False))
        if failed:
            parts.append("failed=" + ",".join(failed))
        lines.append(head + ": " + " ".join(parts))
        lines += [f"  {name}: {b[name]['error']}" for name in failed
                  if "error" in b[name]]
    lines.append("overall: " + ("PASS" if report.overall_pass else "FAIL"))
    return "\n".join(lines) + "\n"

