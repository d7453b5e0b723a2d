"""Numerical certification of the Willmore property for FKM focal manifolds.

Pipeline: symmetric Clifford systems (clifford) -> degree-4 isoparametric
polynomials (polynomial) -> certified points of the focal manifold M+
(focal) -> extrinsic curvature data (geometry) -> Willmore identities and
the Ricci-spread probe (willmore) -> reproducible suite reports (report,
cli).  Every verdict is a records.Check: a residual held against its
tolerance.
"""

from .clifford import (CliffordSystem, SkewGeneratorSet, build_clifford_system,
                       build_skew_generators, delta, dump_matrices,
                       parse_matrices, rotate_system,
                       verify_clifford_relations)
from .errors import (AdmissibilityError, CertificationError, FrameError,
                     MultiplicityError, SamplingError, SpectrumError)
from .focal import (CONSTRAINT_TOL, SPHERE_TOL, VALUE_TOL, FocalPoint,
                    certify, deterministic_seed, sample_focal_points,
                    tangent_jacobian_rank)
from .geometry import (AdaptedFrame, ShapeData, build_frame,
                       sectional_curvature, sectional_curvature_from_shape,
                       shape_operators)
from .polynomial import (FkmPolynomial, SphericalDerivatives,
                         verify_cartan_munzner)
from .records import Check, fold
from .report import (DEFAULT_GRID, DEFAULT_SEED, DEFAULT_TOLERANCES,
                     TOOL_VERSION, VerificationConfig, VerificationReport,
                     evaluate_system, exit_code, render_text, run_suite,
                     write_matrix_dumps)
from .willmore import (EinsteinProbe, certify_point, einstein_probe,
                       willmore_residual)

__version__ = TOOL_VERSION

__all__ = [
    "AdaptedFrame", "AdmissibilityError", "CONSTRAINT_TOL",
    "CertificationError", "Check", "CliffordSystem", "DEFAULT_GRID",
    "DEFAULT_SEED", "DEFAULT_TOLERANCES", "EinsteinProbe", "FkmPolynomial",
    "FocalPoint", "FrameError", "MultiplicityError",
    "SPHERE_TOL", "SamplingError", "ShapeData", "SkewGeneratorSet",
    "SpectrumError", "SphericalDerivatives", "VALUE_TOL", "VerificationConfig",
    "VerificationReport", "build_clifford_system", "build_frame",
    "build_skew_generators", "certify", "certify_point", "delta",
    "deterministic_seed", "dump_matrices", "einstein_probe", "evaluate_system",
    "exit_code", "fold", "parse_matrices", "render_text", "rotate_system",
    "run_suite",
    "sample_focal_points", "sectional_curvature",
    "sectional_curvature_from_shape", "shape_operators",
    "tangent_jacobian_rank", "verify_cartan_munzner",
    "verify_clifford_relations", "willmore_residual", "write_matrix_dumps",
]
