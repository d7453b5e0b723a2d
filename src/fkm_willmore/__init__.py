"""Numerical certification of the Willmore property for FKM focal manifolds.

Pipeline: symmetric Clifford systems (clifford) -> degree-4 isoparametric
polynomials (polynomial) -> certified points of the focal manifold M+
(focal) -> extrinsic curvature data (geometry) -> Willmore identities and
the Ricci-spread probe (willmore) -> reproducible suite reports (report,
cli).  Every verdict is a records.Check: a residual held against its
tolerance.
"""

from .clifford import (CliffordSystem, build_clifford_system,
                       build_skew_generators, delta, dump_matrices,
                       verify_clifford_relations)
from .errors import (AdmissibilityError, CertificationError, FrameError,
                     MultiplicityError, SpectrumError)
from .focal import (CONSTRAINT_TOL, SPHERE_TOL, VALUE_TOL, FocalPoints,
                    sample_focal_points)
from .geometry import AdaptedFrame, ShapeData, build_frame, shape_operators
from .polynomial import FkmPolynomial, verify_cartan_munzner
from .records import Check, fold
from .report import (DEFAULT_GRID, DEFAULT_SEED, DEFAULT_TOLERANCES,
                     TOOL_VERSION, VerificationConfig, VerificationReport,
                     evaluate_system, exit_code, render_text, run_suite,
                     write_matrix_dumps)
from .willmore import EinsteinProbe, certify_point, einstein_probe

__version__ = TOOL_VERSION

__all__ = [
    "AdaptedFrame", "AdmissibilityError", "CONSTRAINT_TOL",
    "CertificationError", "Check", "CliffordSystem", "DEFAULT_GRID",
    "DEFAULT_SEED", "DEFAULT_TOLERANCES", "EinsteinProbe", "FkmPolynomial",
    "FocalPoints", "FrameError", "MultiplicityError", "SPHERE_TOL",
    "ShapeData", "SpectrumError", "VALUE_TOL", "VerificationConfig",
    "VerificationReport", "build_clifford_system", "build_frame",
    "build_skew_generators", "certify_point", "delta", "dump_matrices",
    "einstein_probe", "evaluate_system", "exit_code", "fold", "render_text",
    "run_suite", "sample_focal_points", "shape_operators",
    "verify_cartan_munzner", "verify_clifford_relations", "write_matrix_dumps",
]
