"""Report assembly, serialization determinism, CLI argument surface."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from fkm_willmore import (VerificationConfig, VerificationReport,
                          build_clifford_system, exit_code, parse_matrices,
                          render_text, rotate_system, run_suite)
from fkm_willmore.cli import main, parse_cli
from fkm_willmore.geometry import take
from fkm_willmore.polynomial import sphere_samples
from fkm_willmore.report import DEFAULT_GRID, evaluate_system

from conftest import conjugated_system

TINY = dict(n_points=3, n_normals=4, n_pde_samples=50)

EXPECTED_BLOCKS = ("clifford", "cartan_munzner", "points", "geometry",
                   "lemma", "willmore", "einstein")


def tiny_config(**over):
    merged = {"configurations": ((1, 3),), **TINY, **over}
    return VerificationConfig(**merged)


def test_config_validation():
    with pytest.raises(ValueError):
        VerificationConfig(configurations=())
    with pytest.raises(ValueError):
        VerificationConfig(configurations=((0, 1),))
    with pytest.raises(ValueError):
        VerificationConfig(tolerances={"nope": 1e-8})
    with pytest.raises(ValueError):
        VerificationConfig(tolerances={"pde": -1.0})
    with pytest.raises(ValueError):
        VerificationConfig(format="yaml")
    with pytest.raises(ValueError):
        VerificationConfig(n_points=0)
    cfg = VerificationConfig(tolerances={"geom": 1e-6})
    assert cfg.tolerances["geom"] == 1e-6
    assert cfg.tolerances["pde"] == 1e-8


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
    assert parsed["schema_version"] == 1
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
    assert entry["internal"] and not entry["pass"]
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


# the schema-1 key order of an evaluated entry and of each of its blocks
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
                 "dim_inequality", "spread_exceeds_threshold", "status",
                 "pass"],
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

def test_parse_cli_defaults(monkeypatch):
    monkeypatch.delenv("FKM_SEED", raising=False)
    cfg = parse_cli([])
    assert cfg.seed == 42
    assert cfg.n_points == 20 and cfg.n_normals == 50
    assert cfg.configurations == ((1, 3), (1, 4), (2, 2), (3, 2), (4, 2),
                                  (5, 1), (6, 1))
    assert cfg.format == "json" and cfg.out is None


def test_parse_cli_overrides(monkeypatch):
    monkeypatch.delenv("FKM_SEED", raising=False)
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


def test_seed_environment_fallback(monkeypatch):
    monkeypatch.setenv("FKM_SEED", "123")
    assert parse_cli([]).seed == 123
    assert parse_cli(["--seed", "9"]).seed == 9, "flag beats environment"
    monkeypatch.setenv("FKM_SEED", "twelve")
    with pytest.raises(SystemExit) as info:
        parse_cli([])
    assert info.value.code == 2


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
def test_cli_argument_errors_exit_2(argv, capsys, monkeypatch):
    monkeypatch.delenv("FKM_SEED", raising=False)
    with pytest.raises(SystemExit) as info:
        parse_cli(argv)
    assert info.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_main_writes_json_report(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FKM_SEED", raising=False)
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


def test_main_stdout_text_and_failure_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FKM_SEED", raising=False)
    code = main(["--grid", "1:3,3:1", "--points", "2", "--normals", "2",
                 "--format", "text"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "overall: FAIL"
    assert "inadmissible: m2=0" in captured.out
    assert "fkm-verify: fail" in captured.err


def test_main_dump_matrices_roundtrip(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FKM_SEED", raising=False)
    dumps = tmp_path / "dumps"
    out = tmp_path / "r.json"
    code = main(["--grid", "2:2,3:1", "--points", "2", "--normals", "2",
                 "--out", str(out), "--dump-matrices", str(dumps)])
    assert code == 1  # 3:1 is inadmissible, but dumps still cover 2:2
    files = sorted(os.listdir(dumps))
    assert files == ["clifford_m2_k2.txt"]
    back = parse_matrices((dumps / files[0]).read_text())
    system = build_clifford_system(2, 2)
    for a, b in zip(back.matrices, system.matrices):
        assert np.array_equal(a, b)


def test_main_binary_reproducible(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FKM_SEED", raising=False)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["--grid", "1:3", "--points", "2", "--normals", "3", "--seed", "5"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_ricci_crosscheck_matches_sequential_draws():
    # the configuration's stage-2 stream, drawn block after block, gives the
    # directions of a per-direction draw loop over the points in order, so
    # the reported cross-check maximum agrees to rounding.  The residuals
    # are rounding noise (~3e-13 here), so the bound sits below the 2.8e-14
    # by which the maximum moves when each point draws from its own stream.
    from numpy.random import default_rng

    from fkm_willmore import (FocalPoint, build_frame, ricci_quadratic,
                              shape_operators)
    from fkm_willmore.report import _N_CROSSCHECK_DIRS, _subseed
    cfg = tiny_config(configurations=((3, 2),), n_points=20, n_normals=0)
    system = build_clifford_system(3, 2)
    entry = evaluate_system(system, cfg, 0)
    points = entry["blocks"]["points"]["coordinates"]
    worst = 0.0
    rng = default_rng(_subseed(cfg.seed, 0, 2))
    for x in points:
        frame = build_frame(system, [FocalPoint(x=np.array(x),
                                                residual_constraints=0.0,
                                                residual_sphere=0.0)])
        ricci = shape_operators(system, frame).ricci[0]
        for _ in range(_N_CROSSCHECK_DIRS):
            z = rng.standard_normal(frame.tangent.shape[2])
            z /= float(np.linalg.norm(z))
            quad = ricci_quadratic(system, frame,
                                   (frame.tangent @ z)[:, :, None])[0, 0]
            worst = max(worst, abs(quad - float(z @ ricci @ z)))
    assert abs(entry["blocks"]["geometry"]["ricci_crosscheck_max"]
               - worst) <= 1e-14


@pytest.mark.parametrize("n_normals", [0, 3])
def test_per_point_streams_are_named_subseeds(monkeypatch, n_normals):
    # the per-point draws of a configuration come from one generator per
    # stage, default_rng of the SeedSequence named (configuration, stage):
    # stage 2 for the cross-check directions and stage 3 for the normals,
    # each built once; with no random normals no stage-3 generator is built
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
    stages = (2, 3) if n_normals else (2,)
    assert [key for key, _ in made] == [(ci, stage)
                                        for ci in range(len(grid))
                                        for stage in stages]
    for key, state in made:
        named = default_rng(SeedSequence(report.DEFAULT_SEED, spawn_key=key))
        assert state == named.bit_generator.state, key


def _point_inputs(monkeypatch, n_points):
    """Coordinates, cross-check directions (P, 100, n) and random normals
    (P, 3, m+1) of one evaluation at (2, 2), 3 random normals a point."""
    from fkm_willmore import report
    samples, certify = report.sphere_samples, report.certify_point
    seen = {"z": []}

    def recording_samples(rng, count, dim):
        seen["z"].append(samples(rng, count, dim))
        return seen["z"][-1]

    def recording_certify(system, frames, shapes, coeffs, **kwargs):
        seen["normals"] = np.array(coeffs[:, system.m + 1:])
        return certify(system, frames, shapes, coeffs, **kwargs)

    monkeypatch.setattr(report, "sphere_samples", recording_samples)
    monkeypatch.setattr(report, "certify_point", recording_certify)
    cfg = tiny_config(configurations=((2, 2),), n_points=n_points,
                      n_normals=3)
    entry = evaluate_system(build_clifford_system(2, 2), cfg, 0)
    assert entry["pass"]
    return (np.array(entry["blocks"]["points"]["coordinates"]),
            np.concatenate(seen["z"]).reshape(n_points, 100, -1),
            seen["normals"])


def test_point_inputs_do_not_depend_on_the_point_count(monkeypatch):
    # point p's start, directions and normals are row p of a row-major draw
    # of its stage, so the first five points of a 20-point run (whose
    # cross-check runs as blocks of 16 and 4 points) get the inputs of a
    # 5-point run, and the draws are those of the named streams
    from numpy.random import SeedSequence, default_rng

    from fkm_willmore.report import DEFAULT_SEED
    five = _point_inputs(monkeypatch, 5)
    twenty = _point_inputs(monkeypatch, 20)
    for a, b in zip(five, twenty):
        assert np.array_equal(a, b[:5])
    # (2, 2): focal dimension 4, m + 1 = 3
    z = sphere_samples(default_rng(SeedSequence(DEFAULT_SEED,
                                                spawn_key=(0, 2))), 2000, 4)
    assert np.array_equal(twenty[1], z.reshape(20, 100, 4))
    c = default_rng(SeedSequence(DEFAULT_SEED, spawn_key=(0, 3))) \
        .standard_normal((20, 3, 3))
    assert np.array_equal(twenty[2], [[row / np.linalg.norm(row)
                                       for row in rows] for rows in c])


def _reject_constant(token):
    raise ValueError(f"report contains the non-JSON token {token}")


def test_nan_residuals_serialize_as_null():
    # JSON has no NaN: a NaN residual is written as null, and its block
    # fails
    from conftest import nan_pair_system
    cfg = tiny_config(configurations=((2, 2),))
    entry = evaluate_system(nan_pair_system(2, 2), cfg, 0)
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
    assert blocks["cartan_munzner"]["n_samples"] == cfg.n_pde_samples


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


@pytest.mark.parametrize("points,normals,bound_mb", [
    # measured 3.0 MB; one block of all 100 points would add ~14 MB
    (100, 0, 4.0),
    # measured 1.6 MB; the chain runs one point (57 normals) per block
    (20, 50, 2.5),
])
def test_evaluate_system_memory_is_bounded(points, normals, bound_mb):
    # the stacked layers run in blocks of bounded size, so the traced peak
    # of one configuration stays near that of a block
    import tracemalloc
    system = build_clifford_system(6, 1)
    cfg = VerificationConfig(configurations=((6, 1),), n_points=points,
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
        return points[:-1] + [replace(points[-1], x=1.1 * points[-1].x)]

    monkeypatch.setattr(report, "sample_focal_points", last_scaled)
    cfg = tiny_config(n_points=20)
    entry = evaluate_system(build_clifford_system(1, 3), cfg, 0)
    assert entry["blocks"]["geometry"]["error"].startswith(
        "point 19: adapted frame failed completeness")


def _flip_one_point(shapes):
    ops = np.array(shapes.operators)
    ops[7] *= -1.0
    return replace(shapes, operators=ops)


def _swap_points(shapes):
    order = np.arange(len(shapes.operators))
    order[[3, 4]] = [4, 3]
    return take(shapes, order)


def _scale_one_point(shapes):
    ops = np.array(shapes.operators)
    ops[3] *= 1.0 + 1e-7
    return replace(shapes, operators=ops)


def _on_result(fault):
    """A patch that applies `fault` to what the original returns."""
    return lambda original: (
        lambda *args, **kwargs: fault(original(*args, **kwargs)))


def _probe_without_pairs(original):
    # with no pair products the closed form is Ric(X) = 2 (l - m - 2) for
    # every unit X, so every spread is 0
    def probe(system, frames, shapes):
        return original(system,
                        replace(frames, pairs=np.zeros_like(frames.pairs)),
                        shapes)
    return probe


@pytest.mark.parametrize("target,patch,failed", [
    ("shape_operators", _on_result(_flip_one_point), ["willmore"]),
    ("shape_operators", _on_result(_swap_points), ["geometry", "willmore"]),
    ("shape_operators", _on_result(_scale_one_point), ["lemma"]),
    ("ricci_quadratic", _on_result(lambda values: values + 2.0),
     ["geometry"]),
    ("einstein_probe", _probe_without_pairs, ["einstein"]),
], ids=["flip-sign", "swap-points", "scale-one-point", "shift-crosscheck",
        "zero-pairs-einstein"])
def test_downstream_fault_fails_only_its_blocks(monkeypatch, target, patch,
                                                failed):
    # each fault is injected at the name report.py looks up; a flipped sign
    # keeps every spectrum, a swap misplaces the Ricci tensors and the
    # eigenbases, scaling one point's operators by 1 + 1e-7 moves its
    # spectra by 1e-7 (above the lemma's 1e-8, inside the 1e-6 cluster
    # radius, so the chain still runs), a shifted closed form moves only the
    # cross-check, and a probe that sees no pair products finds the spread 0
    # where (3, 2) must give evidence of a non-Einstein metric
    from fkm_willmore import report
    monkeypatch.setattr(report, target, patch(getattr(report, target)))
    cfg = VerificationConfig(configurations=((3, 2),), n_points=20,
                             n_normals=5)
    entry = evaluate_system(build_clifford_system(3, 2), cfg, 0)
    assert sorted(name for name, block in entry["blocks"].items()
                  if not block["pass"]) == failed
    if target == "einstein_probe":
        einstein = entry["blocks"]["einstein"]
        assert einstein["status"] == "evidence"
        assert einstein["spread"] == 0.0
        assert einstein["spread_exceeds_threshold"] is False


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
