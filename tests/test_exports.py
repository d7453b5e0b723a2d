"""Public names: the package exports exactly the command-line path, every
exported name resolves, and the names the benchmark harness
(perfbench/run.py, perfbench/setup_probe.py, perfbench/spans.py) looks up
exist."""

import importlib

import pytest

import fkm_willmore

MODULES = ("cli", "clifford", "errors", "focal", "geometry", "polynomial",
           "records", "report", "willmore")


# Everything the command line reaches, and the records and errors it hands
# back; a name only tests call belongs in tests/oracles.py instead.
PACKAGE_NAMES = [
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


def test_package_exports_are_the_cli_path():
    assert sorted(fkm_willmore.__all__) == PACKAGE_NAMES


def test_package_exports_resolve():
    missing = [n for n in fkm_willmore.__all__ if not hasattr(fkm_willmore, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"fkm_willmore.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_names_the_benchmark_uses():
    from fkm_willmore import cli, focal, report
    assert callable(cli.main) and callable(cli.parse_cli)
    assert focal.SPHERE_TOL == 1e-12 and focal.VALUE_TOL == 1e-9
    assert fkm_willmore.__version__ == report.TOOL_VERSION
    assert callable(fkm_willmore.build_clifford_system)
    # the span tracer wraps these at the module that looks them up
    for module, names in {
            "cli": ("run_suite",),
            "report": ("evaluate_system", "build_clifford_system",
                       "verify_clifford_relations", "verify_cartan_munzner",
                       "sample_focal_points", "build_frame",
                       "shape_operators", "certify_point", "einstein_probe"),
            "willmore": ("einstein_probe",)}.items():
        holder = importlib.import_module(f"fkm_willmore.{module}")
        for name in names:
            assert callable(holder.__dict__.get(name)), f"{module}.{name}"
    # and these methods in the __dict__ of their class, which it resolves
    # with no guard
    for cls, name in ((fkm_willmore.FkmPolynomial, "sphere_derivatives"),
                      (fkm_willmore.VerificationReport, "to_json")):
        assert callable(cls.__dict__.get(name)), f"{cls.__name__}.{name}"
