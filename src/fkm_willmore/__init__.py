"""Numerical certification of the Willmore property for FKM focal manifolds.

Pipeline: symmetric Clifford systems (clifford) -> degree-4 isoparametric
polynomials (polynomial) -> certified points of the focal manifold M+
(focal) -> extrinsic curvature data (geometry) -> Willmore identities and
the Ricci-spread probe (willmore) -> reproducible suite reports (report,
cli).  The stages measure and the report judges: report._block decides
every block, holding each point's residuals to the tolerances that
report.CHECKED_FIELDS names (residual <= tol) and to the block's
conditions (the Jacobian ranks, the multiplicities, the Einstein gate).
"""

from .clifford import (AdmissibilityError, CliffordSystem,
                       build_clifford_system, build_skew_generators, delta,
                       dump_matrices, verify_clifford_relations)
from .focal import (SPHERE_TOL, VALUE_TOL, point_residuals,
                    sample_focal_points)
from .geometry import AdaptedFrame, ShapeData, build_frame, shape_operators
from .polynomial import FkmPolynomial, verify_cartan_munzner
from .records import fold
from .report import (DEFAULT_GRID, DEFAULT_SEED, DEFAULT_TOLERANCES,
                     TOOL_VERSION, VerificationConfig, VerificationReport,
                     configuration_points, evaluate_system, exit_code,
                     render_text, run_suite)
from .willmore import certify_point, einstein_probe

__version__ = TOOL_VERSION

__all__ = [
    "AdaptedFrame", "AdmissibilityError", "CliffordSystem",
    "DEFAULT_GRID", "DEFAULT_SEED", "DEFAULT_TOLERANCES", "FkmPolynomial",
    "SPHERE_TOL", "ShapeData", "VALUE_TOL", "VerificationConfig",
    "VerificationReport", "build_clifford_system", "build_frame",
    "build_skew_generators", "certify_point", "configuration_points",
    "delta", "dump_matrices", "einstein_probe", "evaluate_system",
    "exit_code", "fold", "point_residuals", "render_text", "run_suite",
    "sample_focal_points", "shape_operators", "verify_cartan_munzner",
    "verify_clifford_relations",
]
