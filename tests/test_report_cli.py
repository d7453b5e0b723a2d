"""Report assembly, serialization determinism, CLI argument surface."""

import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from fkm_willmore import (VerificationConfig, VerificationReport,
                          build_clifford_system, exit_code, render_text,
                          run_suite)
from fkm_willmore.cli import main, parse_cli
from fkm_willmore.geometry import take
from fkm_willmore.report import DEFAULT_GRID, SCHEMA_VERSION, evaluate_system
from fkm_willmore.willmore import CHECK_NAMES

from conftest import conjugated_system
from oracles import parse_dump, rotate_system

TINY = dict(n_points=3, n_normals=4)

EXPECTED_BLOCKS = ("clifford", "cartan_munzner", "points", "geometry",
                   "lemma", "willmore", "einstein")


def tiny_config(**over):
    merged = {"configurations": ((1, 3),), **TINY, **over}
    return VerificationConfig(**merged)


def test_config_validation():
    # the config is the one layer that checks grid entries and tolerances;
    # each error names the bad entry
    with pytest.raises(ValueError):
        VerificationConfig(configurations=())
    with pytest.raises(ValueError, match=r"invalid grid entry \(0, 1\)"):
        VerificationConfig(configurations=((0, 1),))
    with pytest.raises(ValueError, match=r"invalid grid entry \('1-3',\)"):
        VerificationConfig(configurations=(("1-3",),))
    with pytest.raises(ValueError, match=r"invalid grid entry \('1', 'x'\)"):
        VerificationConfig(configurations=(("1", "x"),))
    with pytest.raises(ValueError, match="unknown tolerance 'nope'"):
        VerificationConfig(tolerances={"nope": 1e-8})
    with pytest.raises(ValueError, match="invalid tolerance pde=-1.0: expected a positive"):
        VerificationConfig(tolerances={"pde": -1.0})
    with pytest.raises(ValueError, match="invalid tolerance pde='abc'"):
        VerificationConfig(tolerances={"pde": "abc"})
    assert VerificationConfig(configurations=(("2", "2"),),
                              tolerances={"pde": "1e-6"}).tolerances["pde"] \
        == 1e-6
    with pytest.raises(ValueError):
        VerificationConfig(format="yaml")
    with pytest.raises(ValueError):
        VerificationConfig(n_points=0)
    cfg = VerificationConfig(tolerances={"geom": 1e-6})
    assert cfg.tolerances["geom"] == 1e-6
    assert cfg.tolerances["pde"] == 1e-8
    # ints, numpy integers and decimal strings become plain ints
    cfg = VerificationConfig(configurations=((np.int32(2), "2"),),
                             n_points="5", n_normals=np.int64(0),
                             seed=np.uint64(7))
    assert cfg.configurations == ((2, 2),)
    assert (cfg.n_points, cfg.n_normals, cfg.seed) == (5, 0, 7)
    assert all(type(v) is int for v in (*cfg.configurations[0], cfg.n_points,
                                        cfg.n_normals, cfg.seed))


@pytest.mark.parametrize("over,match", [
    ({"configurations": ((1.5, 3),)}, r"invalid grid entry \(1\.5, 3\)"),
    ({"seed": 4.7}, r"invalid seed: expected an integer, got 4\.7"),
    ({"n_points": 2.5}, r"invalid n_points: expected an integer, got 2\.5"),
    ({"n_normals": 1.5}, r"invalid n_normals: expected an integer, got 1\.5"),
])
def test_config_rejects_non_integers(over, match):
    # a non-integer is refused, not truncated, and the error names it
    with pytest.raises(ValueError, match=match):
        VerificationConfig(**over)


def test_entry_structure_and_pass():
    cfg = tiny_config()
    report = run_suite(cfg)
    assert report.overall_pass and not report.internal_error
    assert exit_code(report) == 0
    assert report.wall_time_s > 0.0
    (entry,) = report.entries
    assert entry["m"] == 1 and entry["k"] == 3 and entry["l"] == 3
    assert entry["ambient_dim"] == 6 and entry["focal_dim"] == 3
    assert entry["admissible"] and entry["pass"]
    for name in EXPECTED_BLOCKS:
        assert name in entry["blocks"], name
        assert entry["blocks"][name]["pass"], name
    assert entry["blocks"]["clifford"]["max_deviation"] == 0.0
    assert entry["blocks"]["points"]["count"] == 3
    assert entry["blocks"]["points"]["jacobian_ranks"] == [3]
    assert entry["blocks"]["lemma"]["multiplicities"] == [1, 1, 1]
    assert entry["blocks"]["einstein"]["status"] == "evidence"


def test_inadmissible_entry_reported_not_fatal():
    cfg = tiny_config(configurations=((1, 3), (3, 1)))
    report = run_suite(cfg)
    good, bad = report.entries
    assert good["pass"]
    assert bad == {"m": 3, "k": 1, "admissible": False,
                   "reason": "inadmissible: m2=0", "pass": False}
    assert not report.overall_pass and not report.internal_error
    assert exit_code(report) == 1


def test_unimplemented_entry_reported():
    cfg = tiny_config(configurations=((10, 1),))
    report = run_suite(cfg)
    (entry,) = report.entries
    assert entry["admissible"] is False and not entry["pass"]
    assert "m <= 9" in entry["reason"] or "periodicity" in entry["reason"]


def test_json_byte_identical_across_runs():
    cfg = tiny_config(configurations=((1, 3), (2, 2)))
    first = run_suite(cfg).to_json()
    second = run_suite(cfg).to_json()
    assert first == second
    parsed = json.loads(first)
    assert parsed["schema_version"] == 3
    assert parsed["overall_pass"] is True
    assert parsed["seed"] == 42
    assert parsed["config"]["configurations"] == [[1, 3], [2, 2]]


def test_seed_changes_sampled_coordinates():
    base = run_suite(tiny_config()).to_dict()
    moved = run_suite(tiny_config(seed=43)).to_dict()
    a = np.array(base["configurations"][0]["blocks"]["points"]["coordinates"])
    b = np.array(moved["configurations"][0]["blocks"]["points"]["coordinates"])
    assert np.array_equal(a[0], b[0]), "deterministic point ignores the seed"
    assert not np.array_equal(a[1:], b[1:])


def test_internal_error_becomes_exit_3(monkeypatch):
    def boom(system, cfg, config_index):
        raise RuntimeError("synthetic failure")
    monkeypatch.setattr("fkm_willmore.report.evaluate_system", boom)
    report = run_suite(tiny_config())
    assert report.internal_error
    (entry,) = report.entries
    assert list(entry) == ["m", "k", "admissible", "internal", "error",
                           "pass"]
    assert entry["admissible"] and entry["internal"] and not entry["pass"]
    assert "synthetic failure" in entry["error"]
    assert exit_code(report) == 3


def test_exit_code_mapping():
    cfg = tiny_config()
    mk = lambda ok, internal: VerificationReport(
        config=cfg, entries=[], overall_pass=ok, internal_error=internal)
    assert exit_code(mk(True, False)) == 0
    assert exit_code(mk(False, False)) == 1
    assert exit_code(mk(True, True)) == 3
    assert exit_code(mk(False, True)) == 3


def test_render_text_shape():
    report = run_suite(tiny_config(configurations=((1, 3), (3, 1))))
    text = render_text(report)
    lines = text.splitlines()
    assert lines[0].startswith("fkm-verify")
    assert any(ln.startswith("[PASS] m=1 k=3:") for ln in lines)
    assert "[FAIL] m=3 k=1: inadmissible: m2=0" in lines
    assert lines[-1] == "overall: FAIL"
    assert render_text(run_suite(tiny_config(configurations=((1, 3), (3, 1))))) == text


def test_evaluate_system_detects_corruption():
    from conftest import corrupt_system
    cfg = tiny_config(configurations=((2, 2),))
    entry = evaluate_system(corrupt_system(2, 2), cfg, 0)
    assert not entry["pass"]
    assert not entry["blocks"]["clifford"]["pass"]
    assert not entry["blocks"]["cartan_munzner"]["pass"]
    # a failed sampling stage must not be shadowed by the partial point list
    points = entry["blocks"]["points"]
    if points["pass"]:
        assert points["count"] == cfg.n_points
    else:
        assert "geometry" not in entry["blocks"]


# the schema-2 key order of an evaluated entry and of each of its blocks
SCHEMA_KEYS = {
    "entry": ["m", "k", "l", "ambient_dim", "focal_dim", "admissible",
              "blocks", "pass"],
    "clifford": ["max_deviation", "pass"],
    "cartan_munzner": ["n_samples", "max_gradient_residual",
                       "max_laplacian_residual", "pass"],
    "points": ["count", "max_constraint_residual", "max_sphere_residual",
               "max_value_gap", "jacobian_ranks", "rank_expected",
               "coordinates", "pass"],
    "geometry": ["S_expected", "S_max_gap", "S_spread", "rho2_vs_S_max_gap",
                 "H_max", "ricci_crosscheck_max", "ricci_trace_max_gap",
                 "pass"],
    "lemma": ["n_normals_per_point", "max_spectrum_deviation",
              "multiplicities", "pass"],
    "willmore": ["residual_max", "residual_median", "balance_max",
                 "bridge_max", "chain_max", "projection_pairwise_max",
                 "projection_aggregate_max", "t0_pair_leak_max",
                 "reflection_max", "case_identity_max", "pass"],
    "einstein": ["ricci_min", "ricci_max", "spread", "dimension_condition",
                 "spread_exceeds_threshold", "status", "pass"],
}


def test_schema_key_order():
    cfg = tiny_config(configurations=((2, 2),))
    entry = evaluate_system(build_clifford_system(2, 2), cfg, 0)
    assert list(entry) == SCHEMA_KEYS["entry"]
    assert list(entry["blocks"]) == list(EXPECTED_BLOCKS)
    for name, block in entry["blocks"].items():
        assert list(block) == SCHEMA_KEYS[name], name
    from conftest import corrupt_system
    entry = evaluate_system(corrupt_system(2, 2), cfg, 0)
    assert list(entry["blocks"]) == ["clifford", "cartan_munzner", "points"]
    assert list(entry["blocks"]["points"]) == ["count", "error", "pass"]


def test_schema_document_states_the_schema_version(suite_report):
    # a schema bump ships with its document: the opening "version **N**"
    # and the schema_version row "always `N`" both name SCHEMA_VERSION,
    # and every key of the default seed-42 report is named: the top-level
    # keys in their table, the entry keys in the entry shape, and each
    # block's fields in the block's own section
    text = (Path(__file__).resolve().parent.parent / "docs"
            / "report_schema.md").read_text(encoding="utf-8")
    assert re.findall(r"version \*\*(\d+)\*\*", text) == [str(SCHEMA_VERSION)]
    row = re.search(r"^\| `schema_version` .*$", text, flags=re.M).group(0)
    assert re.findall(r"always `(\d+)`", row) == [str(SCHEMA_VERSION)]
    report = suite_report.to_dict()
    for key in report:
        assert re.search(rf"^\| `{key}` ", text, flags=re.M), key
    shapes = text.split("## Configuration entries")[1].split("## Blocks")[0]
    _, *parts = re.split(r"^### `(\w+)`$", text, flags=re.M)
    sections = dict(zip(parts[::2], parts[1::2]))
    for entry in report["configurations"]:
        for key in entry:
            assert f'"{key}"' in shapes, key
        for name, block in entry["blocks"].items():
            for key in block:
                assert f"`{key}`" in sections[name], (name, key)


def test_residual_at_its_tolerance_passes():
    # the pass rule is residual <= tol in every block: with the pde and
    # willmore tolerances set to the worst residuals they bound, nothing
    # may fail
    cfg = tiny_config(configurations=((2, 2),))
    system = build_clifford_system(2, 2)
    blocks = evaluate_system(system, cfg, 0)["blocks"]
    cm, wl = blocks["cartan_munzner"], blocks["willmore"]
    tight = {"pde": max(cm["max_gradient_residual"],
                        cm["max_laplacian_residual"]),
             "willmore": max(wl["residual_max"], wl["balance_max"])}
    entry = evaluate_system(system, tiny_config(configurations=((2, 2),),
                                                tolerances=tight), 0)
    assert entry["pass"], [n for n, b in entry["blocks"].items()
                           if not b["pass"]]


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_parse_cli_defaults():
    cfg = parse_cli([])
    assert cfg.seed == 42
    assert cfg.n_points == 20 and cfg.n_normals == 50
    assert cfg.configurations == ((1, 3), (1, 4), (2, 2), (3, 2), (4, 2),
                                  (5, 1), (6, 1))
    assert cfg.format == "json" and cfg.out is None


def test_parse_cli_overrides():
    cfg = parse_cli(["--grid", "2:2,1:3", "--points", "5", "--normals", "7",
                     "--seed", "11", "--tol", "geom=1e-6",
                     "--tol", "willmore=1e-5", "--format", "text",
                     "--out", "r.txt", "--dump-matrices", "dumps"])
    assert cfg.configurations == ((2, 2), (1, 3))
    assert cfg.n_points == 5 and cfg.n_normals == 7 and cfg.seed == 11
    assert cfg.tolerances["geom"] == 1e-6
    assert cfg.tolerances["willmore"] == 1e-5
    assert cfg.tolerances["pde"] == 1e-8
    assert cfg.format == "text" and cfg.out == "r.txt"
    assert cfg.dump_matrices == "dumps"


@pytest.mark.parametrize("argv", [
    ["--grid", "0:1"],
    ["--grid", "1:x"],
    ["--grid", "1-3"],
    ["--grid", ""],
    ["--points", "x"],
    ["--points", "0"],
    ["--tol", "nope=1e-8"],
    ["--tol", "pde=abc"],
    ["--tol", "pde=-1"],
    ["--tol", "pde"],
    ["--format", "yaml"],
    ["--bogus"],
])
def test_cli_argument_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        parse_cli(argv)
    assert info.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_main_writes_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--grid", "1:3", "--points", "2", "--normals", "2",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fkm-verify: pass" in captured.err
    payload = json.loads(out.read_text())
    assert payload["overall_pass"] is True
    assert payload["config"]["n_points"] == 2
    assert "wall" not in json.dumps(payload), "timing must stay out of JSON"


def test_main_stdout_text_and_failure_exit(tmp_path, capsys):
    code = main(["--grid", "1:3,3:1", "--points", "2", "--normals", "2",
                 "--format", "text"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "overall: FAIL"
    assert "inadmissible: m2=0" in captured.out
    assert "fkm-verify: fail" in captured.err


def test_main_dump_matrices_roundtrip(tmp_path, capsys):
    dumps = tmp_path / "dumps"
    out = tmp_path / "r.json"
    code = main(["--grid", "2:2,3:1", "--points", "2", "--normals", "2",
                 "--out", str(out), "--dump-matrices", str(dumps)])
    assert code == 1  # 3:1 is inadmissible, but dumps still cover 2:2
    files = sorted(os.listdir(dumps))
    assert files == ["clifford_m2_k2.txt"]
    back = parse_dump((dumps / files[0]).read_text())
    system = build_clifford_system(2, 2)
    for a, b in zip(back.matrices, system.matrices):
        assert np.array_equal(a, b)


def test_main_binary_reproducible(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["--grid", "1:3", "--points", "2", "--normals", "3", "--seed", "5"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_ricci_crosscheck_matches_sequential_draws():
    # ricci_crosscheck_max is the supremum over unit tangents X of
    # |Ric_closed(X) - Ric_tensor(X)|: it is the largest eigenvalue modulus
    # of the difference matrix at the worst point, and no direction of a
    # sequential draw of 100 directions a point exceeds it
    from fkm_willmore import build_frame, shape_operators
    cfg = tiny_config(configurations=((3, 2),), n_points=20, n_normals=0)
    system = build_clifford_system(3, 2)
    entry = evaluate_system(system, cfg, 0)
    reported = entry["blocks"]["geometry"]["ricci_crosscheck_max"]
    rng = default_rng(2)
    sampled, sups = [], []
    for x in entry["blocks"]["points"]["coordinates"]:
        frame = build_frame(system, np.array(x))
        diff = frame.closed_ricci[0] - shape_operators(frame).ricci[0]
        sups.append(np.max(np.abs(np.linalg.eigvalsh(diff))))
        for _ in range(100):
            z = rng.standard_normal(frame.tangent.shape[2])
            z /= float(np.linalg.norm(z))
            sampled.append(abs(float(z @ diff @ z)))
    assert reported == max(sups) > 0.0
    assert max(sampled) <= reported


@pytest.mark.parametrize("n_normals", [0, 3])
def test_per_point_streams_are_named_subseeds(monkeypatch, n_normals):
    # the per-point random normals of a configuration come from one
    # generator, default_rng of the SeedSequence named (configuration, 3),
    # built once; with no random normals no generator is built
    from numpy.random import SeedSequence, default_rng

    from fkm_willmore import report
    grid = ((1, 3), (2, 2))
    made = []

    def recording(seed):
        rng = default_rng(seed)
        made.append((seed.spawn_key, rng.bit_generator.state))
        return rng

    monkeypatch.setattr(report, "default_rng", recording)
    cfg = tiny_config(configurations=grid, n_points=20, n_normals=n_normals)
    for ci, (m, k) in enumerate(grid):
        evaluate_system(build_clifford_system(m, k), cfg, ci)
    stages = (3,) if n_normals else ()
    assert [key for key, _ in made] == [(ci, stage)
                                        for ci in range(len(grid))
                                        for stage in stages]
    for key, state in made:
        named = default_rng(SeedSequence(report.DEFAULT_SEED, spawn_key=key))
        assert state == named.bit_generator.state, key


def test_each_stage_forms_p_a_x_once(tmp_path, monkeypatch, capsys):
    # fkm-verify --grid 2:2,1:3 --points 5 --normals 0 forms P_a x twice a
    # configuration: once in the one certification pass over the seed and
    # the sampled rows, and once for the frames, whose normals and pair
    # products the chain reads.  F is evaluated only by the PDE check, once
    # a configuration; the points block reads its value gap from the
    # certification.
    from fkm_willmore import CliffordSystem, FkmPolynomial, report
    applied, evaluated = [], []
    inside = [False]
    apply = CliffordSystem.apply
    derivatives = FkmPolynomial.sphere_derivatives

    def counted(self, x):
        applied.append(np.shape(x))
        return apply(self, x)

    def watched(self, x):
        evaluated.append(inside[0])
        return derivatives(self, x)

    verify = report.verify_cartan_munzner

    def flagged(*args, **kwargs):
        inside[0] = True
        try:
            return verify(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(CliffordSystem, "apply", counted)
    monkeypatch.setattr(FkmPolynomial, "sphere_derivatives", watched)
    monkeypatch.setattr(report, "verify_cartan_munzner", flagged)
    out = tmp_path / "r.json"
    assert main(["--grid", "2:2,1:3", "--points", "5", "--normals", "0",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert applied == [(5, 8), (5, 8), (5, 6), (5, 6)]
    # one block of PDE samples per configuration, inside the PDE check
    assert evaluated == [True, True]


def _point_inputs(monkeypatch, n_points):
    """Coordinates and random normals (P, 3, m+1) of one evaluation at
    (2, 2), 3 random normals a point."""
    from fkm_willmore import report
    certify = report.certify_point
    seen = {}

    def recording_certify(system, frames, shapes, coeffs):
        seen["normals"] = np.array(coeffs[:, system.m + 1:])
        return certify(system, frames, shapes, coeffs)

    monkeypatch.setattr(report, "certify_point", recording_certify)
    cfg = tiny_config(configurations=((2, 2),), n_points=n_points,
                      n_normals=3)
    entry = evaluate_system(build_clifford_system(2, 2), cfg, 0)
    assert entry["pass"]
    return (np.array(entry["blocks"]["points"]["coordinates"]),
            seen["normals"])


def test_point_inputs_do_not_depend_on_the_point_count(monkeypatch):
    # point p's start and normals are row p of a row-major draw of its
    # stage, so the first five points of a 20-point run get the inputs of a
    # 5-point run, and the normals are those of the named stream
    from numpy.random import SeedSequence, default_rng

    from fkm_willmore.report import DEFAULT_SEED
    five = _point_inputs(monkeypatch, 5)
    twenty = _point_inputs(monkeypatch, 20)
    for a, b in zip(five, twenty):
        assert np.array_equal(a, b[:5])
    # (2, 2): m + 1 = 3
    c = default_rng(SeedSequence(DEFAULT_SEED, spawn_key=(0, 3))) \
        .standard_normal((20, 3, 3))
    assert np.array_equal(twenty[1], [[row / np.linalg.norm(row)
                                       for row in rows] for rows in c])


def _reject_constant(token):
    raise ValueError(f"report contains the non-JSON token {token}")


def test_nan_residuals_serialize_as_null():
    # JSON has no NaN: a NaN residual is written as null, and its block
    # fails; a NaN or infinite entry of the system gives NaN residuals, and
    # the points block names the entries as the cause
    from conftest import NON_FINITE, nan_pair_system
    cfg = tiny_config(configurations=((2, 2),))
    for value in NON_FINITE:
        entry = evaluate_system(nan_pair_system(2, 2, value), cfg, 0)
        report = VerificationReport(config=cfg, entries=[entry],
                                    overall_pass=False)
        parsed = json.loads(report.to_json(), parse_constant=_reject_constant)
        blocks = parsed["configurations"][0]["blocks"]
        assert blocks["clifford"]["max_deviation"] is None
        assert blocks["cartan_munzner"]["max_gradient_residual"] is None
        assert blocks["cartan_munzner"]["max_laplacian_residual"] is None
        assert not blocks["clifford"]["pass"]
        assert not blocks["cartan_munzner"]["pass"]
        # finite values are untouched
        assert blocks["cartan_munzner"]["n_samples"] == 1000
        assert blocks["points"] == {
            "count": 0, "pass": False,
            "error": "no points: the Clifford system has non-finite entries"}
        assert list(blocks) == ["clifford", "cartan_munzner", "points"]


def test_jsonable_arrays_match_the_element_walk():
    # a finite float64 array converts in one tolist(); any other array is
    # walked element by element, which maps NaN and infinity to null
    from fkm_willmore.report import _jsonable
    finite = np.array([[1.5, -0.0], [1e-300, 3.0]])
    got = _jsonable(finite)
    assert got == [[1.5, -0.0], [1e-300, 3.0]]
    assert all(type(v) is float for row in got for v in row)
    assert _jsonable(np.array([1.0, np.nan, -np.inf])) == [1.0, None, None]
    assert _jsonable(np.array([2, 3])) == [2, 3]
    assert _jsonable([finite[0], np.float64(np.nan)]) == [[1.5, -0.0], None]


@pytest.mark.parametrize("m,k,points,normals,bound_mb", [
    # measured 2.5 MB
    (6, 1, 100, 0, 4.0),
    # measured 1.5 MB; the chain runs one point (57 normals) per block
    (6, 1, 20, 50, 2.5),
    # measured 3.68 MB, set by the PDE samples' P_a x (2.56 MB); the chain
    # runs one point with 15 of its 60 normals per block (0.87 MB)
    (9, 1, 20, 50, 4.0),
], ids=["100-0-4.0", "20-50-2.5", "9-1-20-50-4.0"])
def test_evaluate_system_memory_is_bounded(m, k, points, normals, bound_mb):
    # the stacked layers run in blocks of bounded size, so the traced peak
    # of one configuration stays near that of a block
    import tracemalloc
    system = build_clifford_system(m, k)
    cfg = VerificationConfig(configurations=((m, k),), n_points=points,
                             n_normals=normals)
    evaluate_system(system, cfg, 0)
    tracemalloc.start()
    try:
        entry = evaluate_system(system, cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert entry["pass"]
    assert peak / 1e6 < bound_mb, f"peak {peak / 1e6:.2f} MB"


def test_render_text_shows_a_nan_residual():
    # Python's max(1e-14, nan) is 1e-14; the summary must fold like the
    # checks do
    entry = {"m": 2, "k": 2, "l": 4, "focal_dim": 3, "admissible": True,
             "pass": False,
             "blocks": {"cartan_munzner": {"max_gradient_residual": 1e-14,
                                           "max_laplacian_residual": np.nan,
                                           "pass": False}}}
    report = VerificationReport(config=tiny_config(), entries=[entry],
                                overall_pass=False)
    line = render_text(report).splitlines()[3]
    assert line == "[FAIL] m=2 k=2: l=4 dim=3 pde=nan failed=cartan_munzner"


def test_geometry_error_names_the_point(monkeypatch):
    # the frames of a configuration are one stack, so a bad point is named
    # by its index among all points, not within a block
    from fkm_willmore import report
    sample = report.sample_focal_points

    def last_scaled(system, n, seed):
        points = sample(system, n, seed=seed)
        x = np.array(points.x)
        x[-1] *= 1.1
        return replace(points, x=x)

    monkeypatch.setattr(report, "sample_focal_points", last_scaled)
    cfg = tiny_config(n_points=20)
    entry = evaluate_system(build_clifford_system(1, 3), cfg, 0)
    assert entry["blocks"]["geometry"]["error"].startswith(
        "point 19: adapted frame failed completeness")


def _flip_one_point(record):
    ops = np.array(record.operators)
    ops[7] *= -1.0
    return replace(record, operators=ops)


def _swap_points(shapes):
    order = np.arange(len(shapes.operators))
    order[[3, 4]] = [4, 3]
    return take(shapes, order)


def _scale_one_point(record):
    ops = np.array(record.operators)
    ops[3] *= 1.0 + 1e-7
    return replace(record, operators=ops)


def _on_result(fault):
    """A patch that applies `fault` to what the original returns."""
    return lambda original: (
        lambda *args, **kwargs: fault(original(*args, **kwargs)))


def _shift_closed_ricci(frames):
    # Ric_closed(X) + 2 for every unit X
    n = frames.tangent.shape[2]
    return replace(frames, closed_ricci=frames.closed_ricci + 2.0 * np.eye(n))


def _probe_without_pairs(original):
    # with no pair products the closed form is Ric(X) = 2 (l - m - 2) for
    # every unit X, so every spread is 0
    def probe(system, frames):
        n = frames.tangent.shape[2]
        constant = 2.0 * (system.l - system.m - 2) * np.eye(n)
        return original(system, replace(frames, closed_ricci=np.broadcast_to(
            constant, frames.closed_ricci.shape)))
    return probe


# the residual fields of the blocks that a downstream fault can reach, and
# the tolerance each is held to; the other fields of these blocks are
# information, and the blocks before them do not see the faults
_DOWNSTREAM_RESIDUALS = {
    "geometry": {"S_max_gap": "geom", "S_spread": "geom",
                 "rho2_vs_S_max_gap": "geom", "H_max": "cert",
                 "ricci_crosscheck_max": "geom",
                 "ricci_trace_max_gap": "geom"},
    "lemma": {"max_spectrum_deviation": "geom"},
    "willmore": {name: "willmore" if name in ("residual_max", "balance_max")
                 else "geom" for name in CHECK_NAMES[1:]},
}


def _tripped(entry, tolerances):
    """block.field of every downstream residual above its tolerance."""
    return [f"{name}.{key}" for name, held in _DOWNSTREAM_RESIDUALS.items()
            for key, tol in held.items()
            if key in entry["blocks"].get(name, {})
            and not entry["blocks"][name][key] <= tolerances[tol]]


@pytest.mark.parametrize("target,patch,failed,fields", [
    ("build_frame", _on_result(_flip_one_point), ["willmore"],
     ["willmore.reflection_max"]),
    ("shape_operators", _on_result(_swap_points), ["geometry", "willmore"],
     ["geometry.ricci_crosscheck_max", "willmore.balance_max",
      "willmore.bridge_max", "willmore.projection_pairwise_max",
      "willmore.projection_aggregate_max", "willmore.t0_pair_leak_max",
      "willmore.reflection_max", "willmore.case_identity_max"]),
    ("shape_operators", _on_result(_scale_one_point), ["lemma"],
     ["lemma.max_spectrum_deviation"]),
    ("build_frame", _on_result(_scale_one_point), ["geometry", "lemma"],
     ["geometry.S_max_gap", "geometry.S_spread",
      "geometry.ricci_crosscheck_max", "lemma.max_spectrum_deviation"]),
    ("build_frame", _on_result(_shift_closed_ricci), ["geometry"],
     ["geometry.ricci_crosscheck_max"]),
    ("einstein_probe", _probe_without_pairs, ["einstein"], []),
], ids=["flip-sign", "swap-points", "scale-one-point", "scale-frame-operators",
        "shift-crosscheck", "zero-pairs-einstein"])
def test_downstream_fault_fails_only_its_blocks(monkeypatch, target, patch,
                                                failed, fields):
    # each fault is injected at the name report.py looks up, and every block
    # not in `failed` passes.  A sign flipped where the operators are formed
    # keeps every spectrum and every quantity even in A; a swap misplaces
    # the Ricci tensors and the projectors, while the Einstein probe reads
    # only the frames' closed-form Ricci matrices and still passes; scaling
    # one point's operators by 1 + 1e-7 gives |A^3 - A| ~ 2e-7 (above the
    # lemma's 1e-8, inside the 1e-6 cluster radius, so the chain still
    # runs), and the purified projectors keep the scale out of every
    # Willmore identity; scaled where they are formed, the operators also
    # move S and the Ricci tensor derived from them; a closed form shifted
    # by 2 moves only the cross-check (the balance reads it through
    # tr(Pi_{+1}) - tr(Pi_{-1}) = 0); and a probe that sees no pair
    # products finds the spread 0 where (3, 2) must give evidence of a
    # non-Einstein metric.  `fields` names every residual that the fault
    # puts above its tolerance: a flipped sign shows only in the reflection
    # (1.98), whose P_a T is formed apart from the operators (the einstein
    # gate has no residual field)
    from fkm_willmore import report
    monkeypatch.setattr(report, target, patch(getattr(report, target)))
    cfg = VerificationConfig(configurations=((3, 2),), n_points=20,
                             n_normals=5)
    entry = evaluate_system(build_clifford_system(3, 2), cfg, 0)
    assert sorted(name for name, block in entry["blocks"].items()
                  if not block["pass"]) == failed
    assert _tripped(entry, cfg.tolerances) == fields
    if target == "einstein_probe":
        einstein = entry["blocks"]["einstein"]
        assert einstein["status"] == "evidence"
        assert einstein["spread"] == 0.0
        assert einstein["spread_exceeds_threshold"] is False


def _scale_all(shapes):
    return replace(shapes, operators=1.5 * np.asarray(shapes.operators))


def _identity_at_one_point(shapes):
    # every eigenvalue at +1 for each coordinate normal of point 4
    ops = np.array(shapes.operators)
    ops[4] = np.eye(ops.shape[2])
    return replace(shapes, operators=ops)


@pytest.mark.parametrize("fault,error", [
    (_scale_all, "point 0, normal 0: max |A_xi^3 - A_xi|"),
    (_identity_at_one_point, "point 4, normal 0: principal multiplicities"),
], ids=["spectrum-error", "multiplicity-error"])
def test_chain_error_keeps_the_einstein_block(monkeypatch, fault, error):
    # when the chain raises, lemma carries the error and willmore, which
    # depends on it, is absent; the Einstein probe reads only the frames'
    # closed-form Ricci matrices, so its block is the fault-free one, in
    # its place after lemma.  Only the coordinate normals are drawn
    from fkm_willmore import report
    cfg = VerificationConfig(configurations=((3, 2),), n_points=20,
                             n_normals=0)
    clean = evaluate_system(build_clifford_system(3, 2), cfg, 0)["blocks"]
    monkeypatch.setattr(report, "shape_operators",
                        _on_result(fault)(report.shape_operators))
    blocks = evaluate_system(build_clifford_system(3, 2), cfg, 0)["blocks"]
    assert list(blocks) == [name for name in EXPECTED_BLOCKS
                            if name != "willmore"]
    assert blocks["lemma"]["error"].startswith(error)
    assert not blocks["lemma"]["pass"]
    assert blocks["einstein"] == clean["einstein"]
    assert blocks["einstein"]["pass"]


@settings(max_examples=10, deadline=None, derandomize=True)
@given(index=st.integers(0, len(DEFAULT_GRID) - 1),
       seed=st.integers(0, 2**32 - 1), rotate=st.booleans())
def test_conjugated_and_rotated_systems_pass_every_block(suite_report, index,
                                                         seed, rotate):
    # Q P_a Q^T for a random orthogonal Q, optionally rotated within the span
    # of the P_a, is a Clifford system with float entries and no split
    # block form; every block passes, relations at 1e-12, with the integer
    # system's invariants
    m, k = DEFAULT_GRID[index]
    system = conjugated_system(m, k, seed)
    if rotate:
        c = default_rng(seed).standard_normal(m + 1)
        system = rotate_system(system, c / np.linalg.norm(c))
    cfg = VerificationConfig(configurations=((m, k),), n_points=20,
                             n_normals=10)
    blocks = evaluate_system(system, cfg, 0)["blocks"]
    assert [name for name, block in blocks.items()
            if not block["pass"]] == []
    assert 0.0 < blocks["clifford"]["max_deviation"] <= 1e-12
    want = suite_report.entries[index]["blocks"]
    for name, key in [("points", "rank_expected"),
                      ("points", "jacobian_ranks"),
                      ("geometry", "S_expected"),
                      ("lemma", "multiplicities"),
                      ("einstein", "status")]:
        assert blocks[name][key] == want[name][key], (name, key)
