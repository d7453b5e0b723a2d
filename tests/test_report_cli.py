"""Report assembly, serialization determinism, CLI argument surface."""

import hashlib
import json
import math
import os
import re
import runpy
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

import fkm_willmore
from fkm_willmore import (SPHERE_TOL, VALUE_TOL, CliffordSystem,
                          VerificationConfig, VerificationReport,
                          build_clifford_system, build_frame,
                          configuration_points, exit_code, render_text,
                          run_suite, sample_focal_points)
from fkm_willmore.cli import main, parse_cli
from fkm_willmore.report import (CHECKED_FIELDS, DEFAULT_GRID,
                                 DEFAULT_TOLERANCES, SCHEMA_VERSION,
                                 evaluate_system)

from conftest import conjugated_system, judged_points
from oracles import parse_dump, rotate_system, take

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
    # a zero bound holds nothing but an exact zero
    for value in (0.0, "0"):
        with pytest.raises(ValueError, match=re.escape(
                f"invalid tolerance pde={value!r}: expected a positive")):
            VerificationConfig(tolerances={"pde": value})
    # a bound JSON cannot write (inf becomes null) is no bound
    with pytest.raises(ValueError, match="invalid tolerance pde=inf: "
                                         "expected a positive finite"):
        VerificationConfig(tolerances={"pde": math.inf})
    # a bool is no number here, as for the integer fields
    for flag in (True, False):
        with pytest.raises(ValueError, match=f"invalid tolerance pde={flag}: "
                                             "expected a positive finite"):
            VerificationConfig(tolerances={"pde": flag})
    # a grid that is no sequence, or tolerances that are no mapping, is
    # named as such rather than failing inside the loops
    for value in (None, 5):
        with pytest.raises(ValueError, match=f"invalid configurations "
                                             f"{value}: expected a sequence"):
            VerificationConfig(configurations=value)
    for value in (None, [("pde", 1e-6)]):
        with pytest.raises(ValueError, match=r"invalid tolerances .*: "
                                             "expected a mapping"):
            VerificationConfig(tolerances=value)
    # a string, bytes, mapping or set iterates, but not as the caller wrote
    # it: "13" would read as (1, 3), b"13" as (49, 51), a mapping as its
    # keys, and a set in an order that moves with PYTHONHASHSEED, and with
    # it the configurations' sub-seeds
    for value in ("13", b"13", {(1, 3): 0},
                  {("1", "3"), ("2", "2"), ("3", "2")}, frozenset({(1, 3)})):
        with pytest.raises(ValueError, match=r"invalid configurations .*: "
                                             "expected a sequence"):
            VerificationConfig(configurations=value)
    for entry in ("13", b"13", bytearray(b"13"), {1: 0, 3: 0}, {"1", "3"}):
        with pytest.raises(ValueError, match="invalid grid entry "
                                             + re.escape(repr(entry))):
            VerificationConfig(configurations=[entry])
    assert VerificationConfig(
        configurations=[[1, 3], ("2", "2"), iter((3, 2))]).configurations \
        == ((1, 3), (2, 2), (3, 2))
    assert VerificationConfig(configurations=(("2", "2"),),
                              tolerances={"pde": "1e-6"}).tolerances["pde"] \
        == 1e-6
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
    # a string is read by one strict rule: ASCII digits after an optional
    # '-' for an integer, a plain decimal number for a tolerance.  int()
    # and float() alone would read each of these, as ((2, 2),), 3, and 10,
    # 1e-8 and 1
    with pytest.raises(ValueError,
                       match=r"invalid grid entry \(' 2 ', '\+2'\)"):
        VerificationConfig(configurations=[(" 2 ", "+2")])
    with pytest.raises(ValueError, match="invalid n_points: expected an "
                                         "integer, got '\u0663'"):
        VerificationConfig(n_points="\u0663")
    for value in ("1_0", " 1e-8", "\u0661"):
        with pytest.raises(ValueError, match=re.escape(
                f"invalid tolerance geom={value!r}: expected a positive")):
            VerificationConfig(tolerances={"geom": value})
    # a leading '-' reaches the bound's own message
    with pytest.raises(ValueError, match="invalid grid entry"):
        VerificationConfig(configurations=[("-1", "3")])
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        VerificationConfig(seed="-1")
    # the tolerances are held in name order, the order the report writes
    cfg = VerificationConfig(tolerances={"willmore": "1e-6", "cert": 1e-9})
    assert list(cfg.tolerances) == sorted(DEFAULT_TOLERANCES)


def test_default_tolerances_are_read_like_overrides(monkeypatch):
    # every tolerance the config holds passes the one rule, the defaults
    # included: a bad default fails construction, where it once failed
    # every geometry field (-1.0) or the whole run as an internal error
    # ("abc": '<=' not supported between float and str)
    for value in (-1.0, "abc"):
        monkeypatch.setitem(DEFAULT_TOLERANCES, "geom", value)
        with pytest.raises(ValueError, match=re.escape(
                f"invalid tolerance geom={value!r}: expected a positive "
                "finite number")):
            VerificationConfig()


def test_held_tolerances_are_read_only():
    # the tolerances a config holds were all checked at construction, so
    # none can be set or added after it; a new config from dataclasses'
    # replace is checked again, and the report writes them as a plain dict
    cfg = tiny_config(tolerances={"geom": 1e-6})
    for name in ("geom", "extra"):
        with pytest.raises(TypeError):
            cfg.tolerances[name] = -1.0
    assert cfg.tolerances == {"cert": 1e-10, "geom": 1e-6, "pde": 1e-8,
                              "willmore": 1e-7}
    with pytest.raises(ValueError, match=re.escape(
            "invalid tolerance geom=-1.0: expected a positive finite "
            "number")):
        replace(cfg, tolerances={"geom": -1.0})
    assert replace(cfg, n_points=3).tolerances == cfg.tolerances
    written = run_suite(cfg).to_dict()["config"]["tolerances"]
    assert type(written) is dict and written == cfg.tolerances


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
    # the m + 1 coordinate normals and the random ones
    assert entry["blocks"]["lemma"]["n_normals_per_point"] == 2 + 4
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
    assert parsed["schema_version"] == SCHEMA_VERSION
    assert parsed["overall_pass"] is True
    assert parsed["seed"] == 42
    assert parsed["config"]["configurations"] == [[1, 3], [2, 2]]


def _sha256(x):
    """The points block's digest of x: SHA-256 of its C-order little-endian
    float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()
                          ).hexdigest()


def test_seed_changes_sampled_coordinates():
    # the report holds the points' digest; the points are rebuilt through
    # configuration_points, the one route evaluate_system samples them by
    system = build_clifford_system(1, 3)
    digests, points = [], []
    for seed in (42, 43):
        cfg = tiny_config(seed=seed)
        entry = run_suite(cfg).to_dict()["configurations"][0]
        digests.append(entry["blocks"]["points"]["coordinates_sha256"])
        points.append(configuration_points(system, cfg, 0))
    assert digests[0] != digests[1]
    a, b = points
    assert np.array_equal(a[0], b[0]), "deterministic point ignores the seed"
    assert not np.array_equal(a[1:], b[1:])


def test_seeds_beyond_64_bits_are_distinct():
    # the master seed is any non-negative integer, passed whole to
    # SeedSequence: 2**64 + 1 is not 1, and a negative seed is refused
    digests = [run_suite(tiny_config(seed=seed)).to_dict()["configurations"]
               [0]["blocks"]["points"]["coordinates_sha256"]
               for seed in (1, 2 ** 64 + 1)]
    assert digests[0] != digests[1]
    with pytest.raises(ValueError, match="seed must be >= 0"):
        tiny_config(seed=-1)


def test_digest_is_that_of_the_rebuilt_points(suite_report):
    # each default-grid entry's digest is that of the points rebuilt from
    # the config, and one ulp in one coordinate changes it
    cfg = suite_report.config
    for ci, entry in enumerate(suite_report.to_dict()["configurations"]):
        system = build_clifford_system(entry["m"], entry["k"])
        x = configuration_points(system, cfg, ci)
        block = entry["blocks"]["points"]
        assert block["coordinates_sha256"] == _sha256(x), (entry["m"],
                                                           entry["k"])
        assert judged_points(system, x)[1] == block
        moved = np.array(x)
        moved[-1, -1] = np.nextafter(moved[-1, -1], np.inf)
        assert judged_points(system, moved)[1]["coordinates_sha256"] \
            != block["coordinates_sha256"]


def test_failing_points_block_keeps_the_digest():
    # point 1 pushed off the sphere: the block names the failing point and
    # still carries the digest of every row
    system = build_clifford_system(2, 2)
    x = np.array(sample_focal_points(system, 3, 0))
    x[1] *= 1.1
    _, block = judged_points(system, x)
    assert not block["pass"]
    assert block["error"].startswith("point 1 failed certification")
    assert block["coordinates_sha256"] == _sha256(x)
    assert list(block)[-3:] == ["coordinates_sha256", "error", "pass"]


def _lists(node):
    """Every JSON list in a parsed report."""
    if isinstance(node, dict):
        return [inner for v in node.values() for inner in _lists(v)]
    if isinstance(node, list):
        return [node] + [inner for v in node for inner in _lists(v)]
    return []


def test_report_carries_no_per_point_list(suite_report):
    # verdicts, not samples: no list of the seed-42 fkm-verify report or
    # of the --points 100 --normals 0 one is longer than the grid, so a
    # per-point array cannot enter the canonical JSON unnoticed
    for report in (suite_report,
                   run_suite(VerificationConfig(n_points=100, n_normals=0))):
        parsed = json.loads(report.to_json())
        lengths = [len(v) for v in _lists(parsed)]
        assert max(lengths) == len(report.config.configurations) == 7


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
    assert render_text(report).splitlines()[3] == (
        "[FAIL] m=1 k=3: internal error: RuntimeError('synthetic failure')")


def test_exit_code_mapping():
    # the verdicts are read off the entries: all passing gives 0, a failing
    # one 1, and an internal error 3 whatever the others read
    cfg = tiny_config()
    passing = {"m": 1, "k": 3, "pass": True}
    failing = {"m": 3, "k": 1, "admissible": False,
               "reason": "inadmissible: m2=0", "pass": False}
    internal = {"m": 2, "k": 2, "admissible": True, "internal": True,
                "error": "RuntimeError()", "pass": False}
    for entries, code in (([passing], 0), ([passing, failing], 1),
                          ([passing, internal], 3),
                          ([failing, internal], 3)):
        report = VerificationReport(config=cfg, entries=entries)
        assert exit_code(report) == code, entries
        assert report.overall_pass == (code == 0)
        assert report.internal_error == (code == 3)
    for name in ("overall_pass", "internal_error"):
        with pytest.raises(AttributeError):
            setattr(report, name, True)


def test_config_fields_are_what_the_report_records():
    # a field of VerificationConfig changes results, so the report must
    # record it: the config block holds every field but the seed, which is
    # top-level, plus the constant n_pde_samples
    from dataclasses import fields
    parsed = json.loads(run_suite(tiny_config()).to_json())
    recorded = set(parsed["config"]) - {"n_pde_samples"} | {"seed"}
    assert {f.name for f in fields(VerificationConfig)} == recorded
    assert [f.name for f in fields(VerificationReport)] == [
        "config", "entries", "wall_time_s"]


def test_render_text_shape():
    report = run_suite(tiny_config(configurations=((1, 3), (3, 1))))
    text = render_text(report)
    lines = text.splitlines()
    assert lines[0].startswith("fkm-verify")
    assert any(ln.startswith("[PASS] m=1 k=3:") for ln in lines)
    assert "[FAIL] m=3 k=1: inadmissible: m2=0" in lines
    assert lines[-1] == "overall: FAIL"
    assert render_text(run_suite(tiny_config(configurations=((1, 3), (3, 1))))) == text


def test_render_text_prints_each_failing_blocks_error():
    # under the line of a failing configuration, one indented line per
    # failing block that names a point: the corrupt system fails clifford
    # and cartan_munzner, which hold one value each, and points, whose
    # error names the point; a passing configuration prints no such line
    from conftest import corrupt_system
    cfg = tiny_config(configurations=((2, 2), (1, 3)))
    entries = [evaluate_system(corrupt_system(2, 2), cfg, 0),
               evaluate_system(build_clifford_system(1, 3), cfg, 1)]
    lines = render_text(VerificationReport(config=cfg,
                                           entries=entries)).splitlines()
    assert lines[3].startswith("[FAIL] m=2 k=2: ")
    assert lines[3].endswith(" failed=cartan_munzner,clifford,points")
    assert lines[4] == ("  points: point 1 failed certification: "
                        "max_constraint_residual 1.7e-04 (tol 1e-10)")
    assert lines[5].startswith("[PASS] m=1 k=3: ")
    assert lines[6:] == ["overall: FAIL"]


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
               "coordinates_sha256", "pass"],
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


def test_schema_key_order(monkeypatch):
    cfg = tiny_config(configurations=((2, 2),))
    entry = evaluate_system(build_clifford_system(2, 2), cfg, 0)
    assert list(entry) == SCHEMA_KEYS["entry"]
    assert list(entry["blocks"]) == list(EXPECTED_BLOCKS)
    for name, block in entry["blocks"].items():
        assert list(block) == SCHEMA_KEYS[name], name
    from conftest import corrupt_system
    # a failing points block keeps its fields and names its first failing
    # point in an `error` before `pass`
    entry = evaluate_system(corrupt_system(2, 2), cfg, 0)
    assert list(entry["blocks"]) == ["clifford", "cartan_munzner", "points"]
    assert list(entry["blocks"]["points"]) == (SCHEMA_KEYS["points"][:-1]
                                               + ["error", "pass"])
    # the error names the first failing field, max_constraint_residual, at
    # its first failing point: the nudged entry of P_0 leaves e_0 a part in
    # both of its eigenspaces, so the seed's u = e_0 and w = -e_0 cancel,
    # and x = 0 has every g_a = 0 (and |x|^2 - 1 = -1)
    assert entry["blocks"]["points"]["error"] == (
        "point 1 failed certification: max_constraint_residual 1.7e-04 "
        "(tol 1e-10)")
    assert entry["blocks"]["points"]["max_sphere_residual"] == 1.0
    # so do failing geometry, willmore and einstein blocks
    from fkm_willmore import report
    for target, patch in (("shape_operators", _on_result(_swap_points)),
                          ("einstein_probe", _probe_without_pairs)):
        monkeypatch.setattr(report, target, patch(getattr(report, target)))
    blocks = evaluate_system(build_clifford_system(2, 2),
                             tiny_config(configurations=((2, 2),),
                                         n_points=5), 0)["blocks"]
    assert list(blocks) == list(EXPECTED_BLOCKS)
    for name in ("geometry", "willmore", "einstein"):
        assert list(blocks[name]) == SCHEMA_KEYS[name][:-1] + ["error",
                                                               "pass"], name


def test_schema_document_states_the_schema_version(suite_report):
    # a schema bump ships with its document: the opening "version **N**"
    # and the schema_version row "always `N`" both name SCHEMA_VERSION,
    # and every key of the default seed-42 report is named: the top-level
    # keys in their table, the entry keys in the entry shape, and each
    # block's fields in the block's own section, whose `pass` bullet names
    # the tolerance key of each checked field
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
    for name, row in CHECKED_FIELDS.items():
        bullet = sections[name].split("* `pass` —")[1]
        for held in row.values():
            if held in DEFAULT_TOLERANCES:
                assert f"`{held}`" in bullet, (name, held)


def test_benchmark_gate_mirrors_the_checked_fields():
    # perfbench/checks.py re-applies the pass rule from its own copy of
    # CHECKED_FIELDS (all but clifford, whose tolerance is the system's);
    # one distinct value per tolerance shows a field moved between two
    # tolerances that agree at the defaults (pde and geom are both 1e-8)
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    checked_fields = runpy.run_path(str(path))["checked_fields"]
    tol = {"pde": 1.0, "cert": 2.0, "geom": 3.0, "willmore": 4.0}
    fixed = {SPHERE_TOL: 5.0, VALUE_TOL: 6.0}
    table = {name: {key: tol[held] if isinstance(held, str) else fixed[held]
                    for key, held in row.items()}
             for name, row in CHECKED_FIELDS.items() if name != "clifford"}
    assert checked_fields(tol, fixed[SPHERE_TOL], fixed[VALUE_TOL]) == table


def test_residual_at_its_tolerance_passes():
    # the pass rule is residual <= tol in every block: with a tolerance set
    # to the worst residual it bounds, nothing may fail, and one ulp below
    # it exactly the blocks that hold that residual fail
    system = build_clifford_system(2, 2)
    blocks = evaluate_system(system, tiny_config(configurations=((2, 2),)),
                             0)["blocks"]

    def failed(tolerances):
        entry = evaluate_system(system, tiny_config(
            configurations=((2, 2),), tolerances=tolerances), 0)
        return sorted(n for n, b in entry["blocks"].items() if not b["pass"])

    for key in DEFAULT_TOLERANCES:
        bounded = {name: [blocks[name][field]
                          for field, held in row.items() if held == key]
                   for name, row in CHECKED_FIELDS.items()}
        worst = max(value for values in bounded.values() for value in values)
        assert worst > 0.0, key
        assert failed({key: worst}) == [], key
        assert failed({key: float(np.nextafter(worst, 0.0))}) == sorted(
            name for name, values in bounded.items() if worst in values), key


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_parse_cli_defaults():
    cfg = parse_cli([])
    assert cfg.seed == 42
    assert cfg.n_points == 20 and cfg.n_normals == 50
    assert cfg.configurations == ((1, 3), (1, 4), (2, 2), (3, 2), (4, 2),
                                  (5, 1), (6, 1))


def test_main_defaults_write_json_to_stdout(tmp_path, capsys, monkeypatch):
    # no --out, --format or --dump-matrices: the JSON report goes to stdout
    # and nothing is written to disk
    monkeypatch.chdir(tmp_path)
    assert main(["--grid", "1:3", "--points", "2", "--normals", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall_pass"] is True
    assert os.listdir(tmp_path) == []


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
    # leading zeros and an upper-case exponent are plain decimals
    cfg = parse_cli(["--points", "05", "--tol", "geom=1E-6"])
    assert cfg.n_points == 5 and cfg.tolerances["geom"] == 1e-6


CONFIG_ERRORS = {
    ("--seed", "-1"): "seed must be >= 0",
    ("--grid", "1_3:1"): "invalid grid entry ('1_3', '1')",
    ("--points", "1_0"): "invalid n_points: expected an integer, got '1_0'",
    ("--points", " 5"): "invalid n_points: expected an integer, got ' 5'",
    ("--normals", "\u0663"):
        "invalid n_normals: expected an integer, got '\u0663'",
    ("--seed", "+7"): "invalid seed: expected an integer, got '+7'",
    ("--tol", "geom=1_0"): "invalid tolerance geom='1_0'",
    ("--tol", "geom= 1e-8"): "invalid tolerance geom=' 1e-8'",
    ("--tol", "geom=\u0661"): "invalid tolerance geom='\u0661'",
}


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
    ["--tol", "pde=inf"],
    ["--tol", "pde=1e400"],
    ["--seed", "-1"],
    # tokens that int() or float() alone would read
    ["--grid", "1_3:1"],
    ["--points", "1_0"],
    ["--points", " 5"],
    ["--normals", "\u0663"],
    ["--seed", "+7"],
    ["--tol", "geom=1_0"],
    ["--tol", "geom= 1e-8"],
    ["--tol", "geom=\u0661"],
])
def test_cli_argument_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        parse_cli(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err
    # a token reaches VerificationConfig as typed, and its error names it
    assert f"fkm-verify: error: {CONFIG_ERRORS.get(tuple(argv), '')}" in err


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
    # --out, --format and --dump-matrices reach main, not the config: the
    # text report is written to the file and the dumps are made
    dumps = tmp_path / "dumps"
    out = tmp_path / "r.txt"
    code = main(["--grid", "2:2,3:1", "--points", "2", "--normals", "2",
                 "--format", "text", "--out", str(out),
                 "--dump-matrices", str(dumps)])
    assert code == 1  # 3:1 is inadmissible, but dumps still cover 2:2
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert text.startswith("fkm-verify ") and text.endswith("overall: FAIL\n")
    files = sorted(os.listdir(dumps))
    assert files == ["clifford_m2_k2.txt"]
    back = parse_dump((dumps / files[0]).read_text())
    system = build_clifford_system(2, 2)
    for a, b in zip(back.matrices, system.matrices):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("option,target", [
    ("--out", "missing/r.json"), ("--dump-matrices", "file")])
def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, option,
                                   target):
    # a path that cannot be written is an argument error, found before the
    # suite runs: exit 2 and one line that names the path, not a traceback
    from fkm_willmore import cli

    def no_suite(cfg):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    (tmp_path / "file").write_text("")
    path = str(tmp_path / target)
    assert main(["--grid", "1:3", option, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"fkm-verify: error: cannot write {path}: ")
    assert captured.err.count("\n") == 1


def test_median_is_numpys():
    # residual_median: the middle value of a sorted copy, or the mean of
    # the two middle ones, as np.median gives it; NaN if any value is NaN
    from fkm_willmore.report import _median
    rng = default_rng(5)
    for size in range(1, 8):
        values = rng.random(size)
        assert _median(values) == np.median(values), size
        values[rng.integers(size)] = np.nan
        assert math.isnan(_median(values)), size


def test_a_run_leaves_numpy_ma_unimported():
    # np.median's first call in a process imports numpy.ma (about 17 ms and
    # 0.9 MB traced), which a fresh fkm-verify run does not need
    src = Path(fkm_willmore.__file__).parents[1]
    code = ("import sys\n"
            "from fkm_willmore import VerificationConfig, run_suite\n"
            "assert run_suite(VerificationConfig()).overall_pass\n"
            "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_main_binary_reproducible(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["--grid", "1:3", "--points", "2", "--normals", "3", "--seed", "5"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


# Runs fkm-verify and prints the name of the kernel OpenBLAS picked, read
# from numpy's bundled scipy-openblas; nothing when numpy has none.
_KERNEL_CHILD = """
import ctypes, glob, os, sys
import numpy
from fkm_willmore.cli import main
libs = glob.glob(os.path.join(os.path.dirname(numpy.__path__[0]),
                              "numpy.libs", "libscipy_openblas64_*"))
if libs:
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    print(corename().decode())
sys.exit(main(sys.argv[1:]))
"""


def _blanked(obj):
    """A parsed report with every float and every coordinates_sha256 set to
    None: what travels between BLAS kernels."""
    if isinstance(obj, dict):
        return {k: None if k == "coordinates_sha256" else _blanked(v)
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [_blanked(v) for v in obj]
    return None if isinstance(obj, float) else obj


def test_verdicts_travel_across_blas_kernels(tmp_path):
    # each kernel sums in its own order, so residuals and the points'
    # last digits move; every verdict, count and structural field must
    # not.  OPENBLAS_CORETYPE acts only on the child it is set in.
    src = Path(fkm_willmore.__file__).parents[1]
    children = []
    for coretype in (None, "Haswell", "Sandybridge"):
        env = {**os.environ, "PYTHONPATH": str(src),
               "OPENBLAS_NUM_THREADS": "1"}
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / f"{coretype}.json"
        children.append((out, subprocess.Popen(
            [sys.executable, "-c", _KERNEL_CHILD, "--grid", "2:2,3:2,6:1",
             "--points", "4", "--normals", "3", "--out", str(out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)))
    kernels, reports = set(), []
    for out, child in children:
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, stderr
        kernels.add(stdout.strip())
        reports.append(_blanked(json.loads(out.read_text())))
    kernels.discard("")
    if len(kernels) < 2:
        pytest.skip(f"fewer than two BLAS kernels reported: {kernels}")
    assert all(report == reports[0] for report in reports[1:])


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
    for x in configuration_points(system, cfg, 0):
        frame = build_frame(system, x)
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
    """Coordinates, rebuilt through configuration_points, and random
    normals (P, 3, m+1) of one evaluation at (2, 2), 3 random normals a
    point."""
    from fkm_willmore import report
    certify = report.certify_point
    seen = {}

    def recording_certify(system, frames, shapes, coeffs):
        seen["normals"] = np.array(coeffs[:, system.m + 1:])
        return certify(system, frames, shapes, coeffs)

    monkeypatch.setattr(report, "certify_point", recording_certify)
    cfg = tiny_config(configurations=((2, 2),), n_points=n_points,
                      n_normals=3)
    system = build_clifford_system(2, 2)
    assert evaluate_system(system, cfg, 0)["pass"]
    return configuration_points(system, cfg, 0), seen["normals"]


def test_point_inputs_do_not_depend_on_the_point_count(monkeypatch):
    # point p's start and normals are row p of a row-major draw of its
    # stage, so the first five points of a 20-point run get the inputs of a
    # 5-point run, and the normals are the unit rows that sphere_samples
    # draws from the named stream, the PDE samples' route
    from numpy.random import SeedSequence

    from fkm_willmore.polynomial import sphere_samples
    from fkm_willmore.report import DEFAULT_SEED
    five = _point_inputs(monkeypatch, 5)
    twenty = _point_inputs(monkeypatch, 20)
    for a, b in zip(five, twenty):
        assert np.array_equal(a, b[:5])
    # (2, 2): m + 1 = 3
    rows = sphere_samples(
        default_rng(SeedSequence(DEFAULT_SEED, spawn_key=(0, 3))), 60, 3)
    assert np.array_equal(twenty[1], rows.reshape(20, 3, 3))
    norms = np.linalg.norm(twenty[1], axis=2)
    assert np.abs(norms - 1.0).max() <= 4 * np.finfo(float).eps


def _reject_constant(token):
    raise ValueError(f"report contains the non-JSON token {token}")


def test_nan_residuals_serialize_as_null(monkeypatch):
    # JSON has no NaN: a NaN or infinite residual is written as null, and
    # its block fails.  A built system reads no such residual, so the PDE
    # stage the report calls is made to return one of each
    from fkm_willmore import report as report_module
    monkeypatch.setattr(report_module, "verify_cartan_munzner",
                        lambda poly, n, seed: {
                            "max_gradient_residual": math.nan,
                            "max_laplacian_residual": math.inf})
    cfg = tiny_config()
    report = VerificationReport(config=cfg,
                                entries=[evaluate_system(
                                    build_clifford_system(1, 3), cfg, 0)])
    parsed = json.loads(report.to_json(), parse_constant=_reject_constant)
    blocks = parsed["configurations"][0]["blocks"]
    cm = blocks["cartan_munzner"]
    assert cm["max_gradient_residual"] is None
    assert cm["max_laplacian_residual"] is None
    assert not cm["pass"]
    assert blocks["points"]["pass"] and not parsed["overall_pass"]


def test_an_overflowing_system_reads_null_and_fails(monkeypatch):
    # the one route to a NaN in a report: a finite system whose products
    # overflow.  The (2, 2) matrices times 1e160 construct, their
    # relations and PDE residuals read NaN, and the sampler's rows fall off
    # the sphere.  Each of those blocks fails, the NaNs are written null,
    # and the run is a failed check (1), not an internal error (3)
    from fkm_willmore import report as report_module
    base = build_clifford_system(2, 2)
    big = CliffordSystem(m=2, l=base.l, matrices=1e160 * base.matrices)
    monkeypatch.setattr(report_module, "build_clifford_system",
                        lambda m, k: big)
    cfg = tiny_config(configurations=((2, 2),))
    with np.errstate(over="ignore", invalid="ignore"):
        entry = evaluate_system(big, cfg, 0)
        report = run_suite(cfg)
    blocks = entry["blocks"]
    assert math.isnan(blocks["clifford"]["max_deviation"])
    assert math.isnan(blocks["cartan_munzner"]["max_gradient_residual"])
    assert math.isnan(blocks["cartan_munzner"]["max_laplacian_residual"])
    assert [name for name, block in blocks.items() if not block["pass"]] == [
        "clifford", "cartan_munzner", "points"]
    assert blocks["points"]["error"] == (
        "point 0 failed certification: max_sphere_residual 1.0e+00 "
        "(tol 1e-12)")
    parsed = json.loads(report.to_json(), parse_constant=_reject_constant)
    written = parsed["configurations"][0]["blocks"]
    assert written["clifford"]["max_deviation"] is None
    assert written["cartan_munzner"]["max_gradient_residual"] is None
    assert written["cartan_munzner"]["max_laplacian_residual"] is None
    assert written["points"] == blocks["points"]
    assert not parsed["overall_pass"] and not report.internal_error
    assert exit_code(report) == 1


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(1)],
                         ids=["bool_", "int64"])
def test_to_json_rejects_a_numpy_scalar(value):
    # a report holds only plain types, and the writer maps none other
    entry = {"m": 1, "k": 3, "pass": False, "extra": value}
    report = VerificationReport(config=tiny_config(), entries=[entry])
    with pytest.raises(TypeError, match="not JSON serializable"):
        report.to_json()


def _seedless_system(sign: float) -> CliffordSystem:
    """The (2, 2) system with P_0 = sign I, which is no Clifford system:
    one eigenspace of P_0 is empty, so the seed has no u or no w."""
    base = build_clifford_system(2, 2)
    mats = np.array(base.matrices)
    mats[0] = sign * np.eye(base.ambient_dim)
    return CliffordSystem(m=2, l=base.l, matrices=mats)


def test_a_system_without_a_seed_fails_its_points_block():
    # a row that cannot be built stays finite and off M+, the seed
    # included: with P_0 = +-I the seed is e_0 / sqrt(2), whose g_0 is
    # +-1/2, and every sampled row keeps its raw value.  Every sampled
    # system gives finite rows, and nothing warns
    cfg = tiny_config(configurations=((2, 2),))
    seedless = [_seedless_system(1.0), _seedless_system(-1.0)]
    systems = seedless + [conjugated_system(3, 2)] + [
        build_clifford_system(m, k) for m, k in DEFAULT_GRID]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for system in systems:
            assert np.isfinite(sample_focal_points(system, 3, seed=0)).all()
        entries = [evaluate_system(system, cfg, 0) for system in seedless]
    for system, entry in zip(seedless, entries):
        assert np.array_equal(sample_focal_points(system, 1, seed=0),
                              [np.eye(system.ambient_dim)[0] / np.sqrt(2.0)])
        blocks = entry["blocks"]
        assert list(blocks) == ["clifford", "cartan_munzner", "points"]
        assert math.isfinite(blocks["points"]["max_constraint_residual"])
        assert blocks["points"]["error"] == (
            "point 0 failed certification: max_constraint_residual 5.0e-01 "
            "(tol 1e-10)")
        assert not entry["pass"]


@pytest.mark.parametrize("m,k,points,normals,bound_mb", [
    # measured 2.34 MB; the chain runs 11 points (7 normals each) per block
    (6, 1, 100, 0, 4.0),
    # measured 1.42 MB; the chain runs 10 points (57 normals each) per block
    (6, 1, 20, 50, 2.5),
    # measured 3.49 MB, set by the PDE samples' P_a x (2.56 MB); the chain
    # runs one point with all 60 of its normals per block (0.85 MB)
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
    report = VerificationReport(config=tiny_config(), entries=[entry])
    line = render_text(report).splitlines()[3]
    assert line == "[FAIL] m=2 k=2: l=4 dim=3 pde=nan failed=cartan_munzner"


def test_geometry_error_names_the_point(monkeypatch):
    # the frames of a configuration are one stack, so a bad point is named
    # by its index among all points, not within a block.  The points block
    # is handed the residuals of the sampled points, so only the frames
    # see the last point scaled
    from fkm_willmore import report
    sample, measure = report.sample_focal_points, report.point_residuals
    sampled = []

    def last_scaled(system, n, seed):
        sampled.append(sample(system, n, seed=seed))
        x = np.array(sampled[-1])
        x[-1] *= 1.1
        return x

    monkeypatch.setattr(report, "sample_focal_points", last_scaled)
    monkeypatch.setattr(report, "point_residuals",
                        lambda system, x: measure(system, sampled[-1]))
    cfg = tiny_config(n_points=20)
    entry = evaluate_system(build_clifford_system(1, 3), cfg, 0)
    assert entry["blocks"]["geometry"]["error"] == (
        "point 19: ricci_crosscheck_max 4.2e-01 (tol 1e-08)")


def test_points_block_gates_the_frames(monkeypatch):
    # point 3 of (3, 2) pushed 5e-8 along P_1 x, then measured: g_1 reads
    # 1e-7.  With cert 1e-6 the points block passes it, all seven blocks
    # run, and the frame's fault shows in the blocks that read it, each
    # naming point 3; no stage of its own rejects the frame.  At the
    # default cert the points block fails on it, and no later block runs
    from fkm_willmore import report
    sample = report.sample_focal_points

    def pushed(system, n, seed):
        x = np.array(sample(system, n, seed=seed))
        x[3] += 5e-8 * system.apply(x[3])[1]
        return x

    monkeypatch.setattr(report, "sample_focal_points", pushed)
    system = build_clifford_system(3, 2)
    cfg = tiny_config(configurations=((3, 2),), n_points=5,
                      tolerances={"cert": 1e-6})
    blocks = evaluate_system(system, cfg, 0)["blocks"]
    assert tuple(blocks) == EXPECTED_BLOCKS
    assert blocks["points"]["pass"]
    assert blocks["points"]["max_constraint_residual"] > 1e-8
    errors = {name: block.get("error") for name, block in blocks.items()
              if not block["pass"]}
    assert errors == {
        "geometry": "point 3: ricci_crosscheck_max 3.0e-07 (tol 1e-08)",
        "lemma": "point 3, normal 1: max_spectrum_deviation 4.9e-08 "
                 "(tol 1e-08)",
        "willmore": "point 3: residual_max 5.4e-06 (tol 1e-07)"}

    blocks = evaluate_system(system, replace(cfg, tolerances={}), 0)["blocks"]
    assert list(blocks) == ["clifford", "cartan_munzner", "points"]
    assert blocks["points"]["error"] == (
        "point 3 failed certification: max_constraint_residual 1.0e-07 "
        "(tol 1e-10)")


def _flip_one_point(record):
    ops = np.array(record.operators)
    ops[7] *= -1.0
    return replace(record, operators=ops)


def _swap_points(shapes):
    order = np.arange(len(shapes.operators))
    order[[3, 4]] = [4, 3]
    return take(shapes, order)


def _scale_one_point(eps):
    """A fault of a record of shape operators: point 3's are scaled by
    1 + eps."""
    def fault(record):
        ops = np.array(record.operators)
        ops[3] *= 1.0 + eps
        return replace(record, operators=ops)
    return fault


def _push_pair(column, eps=1e-6):
    """A fault of build_frame's result: the (0, 1) pair of point 7 gains
    eps in one column of its coordinates [x | P_0 x .. P_m x | T], and the
    (1, 0) pair loses it."""
    def fault(frames):
        coords = np.array(frames.pair_coords)
        coords[7, 0, 1, column] += eps
        coords[7, 1, 0, column] -= eps
        return replace(frames, pair_coords=coords)
    return fault


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
    def probe(frames):
        _, m1, n, _ = frames.operators.shape
        l = frames.x.shape[1] // 2
        constant = 2.0 * (l - m1 - 1) * np.eye(n)
        return original(replace(frames, closed_ricci=np.broadcast_to(
            constant, frames.closed_ricci.shape)))
    return probe


def _scale_all(shapes):
    return replace(shapes, operators=1.5 * np.asarray(shapes.operators))


def _identity_at_one_point(shapes):
    # every eigenvalue at +1 for each coordinate normal of point 4
    ops = np.array(shapes.operators)
    ops[4] = np.eye(ops.shape[2])
    return replace(shapes, operators=ops)


# the blocks that a downstream fault can reach; the blocks before them do
# not see the faults
_DOWNSTREAM = ("geometry", "lemma", "willmore")


def _tripped(entry, tolerances):
    """block.field of every downstream residual above its tolerance, and
    lemma.multiplicities when the lemma read wrong ones."""
    blocks = entry["blocks"]
    expected = [entry["m"]] + [entry["l"] - entry["m"] - 1] * 2
    wrong = blocks.get("lemma", {}).get("multiplicities", expected) != expected
    return [f"{name}.{key}" for name in _DOWNSTREAM
            for key, held in CHECKED_FIELDS[name].items()
            if key in blocks.get(name, {})
            and not blocks[name][key] <= tolerances[held]
            ] + ["lemma.multiplicities"] * wrong


@pytest.mark.parametrize("config,target,patch,failed,fields,errors", [
    ((3, 2), "build_frame", _on_result(_flip_one_point), ["willmore"],
     ["willmore.reflection_max"],
     ["point 7: reflection_max 2.0e+00 (tol 1e-08)"]),
    ((3, 2), "shape_operators", _on_result(_swap_points),
     ["geometry", "willmore"],
     ["geometry.ricci_crosscheck_max", "willmore.balance_max",
      "willmore.bridge_max", "willmore.projection_pairwise_max",
      "willmore.projection_aggregate_max", "willmore.t0_pair_leak_max",
      "willmore.reflection_max"],
     ["point 3: ricci_crosscheck_max 1.8e+00 (tol 1e-08)",
      "point 3: balance_max 9.1e-01 (tol 1e-07)"]),
    ((3, 2), "shape_operators", _on_result(_scale_one_point(1e-7)),
     ["lemma", "willmore"],
     ["lemma.max_spectrum_deviation", "willmore.reflection_max"],
     ["point 3, normal 0: max_spectrum_deviation 1.9e-07 (tol 1e-08)",
      "point 3: reflection_max 9.7e-08 (tol 1e-08)"]),
    ((3, 2), "shape_operators", _on_result(_scale_one_point(7e-9)), ["lemma"],
     ["lemma.max_spectrum_deviation"],
     ["point 3, normal 0: max_spectrum_deviation 1.4e-08 (tol 1e-08)"]),
    ((3, 2), "build_frame", _on_result(_scale_one_point(1e-7)),
     ["geometry", "lemma", "willmore"],
     ["geometry.S_max_gap", "geometry.S_spread",
      "geometry.ricci_crosscheck_max", "lemma.max_spectrum_deviation",
      "willmore.reflection_max"],
     ["point 3: S_max_gap 6.4e-06 (tol 1e-08)",
      "point 3, normal 0: max_spectrum_deviation 1.9e-07 (tol 1e-08)",
      "point 3: reflection_max 9.7e-08 (tol 1e-08)"]),
    ((3, 2), "build_frame", _on_result(_scale_one_point(-1e-7)),
     ["geometry", "lemma", "willmore"],
     ["geometry.S_max_gap", "geometry.S_spread",
      "geometry.ricci_crosscheck_max", "lemma.max_spectrum_deviation",
      "willmore.reflection_max"],
     ["point 3: S_max_gap 6.4e-06 (tol 1e-08)",
      "point 3, normal 0: max_spectrum_deviation 1.9e-07 (tol 1e-08)",
      "point 3: reflection_max 9.7e-08 (tol 1e-08)"]),
    ((2, 2), "shape_operators", _on_result(_scale_one_point(5.5e-9)),
     ["willmore"], ["willmore.case_identity_max"],
     ["point 3: case_identity_max 1.1e-08 (tol 1e-08)"]),
    ((3, 2), "build_frame", _on_result(_shift_closed_ricci), ["geometry"],
     ["geometry.ricci_crosscheck_max"],
     ["point 0: ricci_crosscheck_max 2.0e+00 (tol 1e-08)"]),
    ((3, 2), "einstein_probe", _probe_without_pairs, ["einstein"], [],
     ["point 0: spread_exceeds_threshold False (expected True)"]),
    ((3, 2), "build_frame", _on_result(_push_pair(5)), ["willmore"],
     ["willmore.chain_max", "willmore.projection_pairwise_max",
      "willmore.projection_aggregate_max", "willmore.t0_pair_leak_max"],
     ["point 7: chain_max 1.6e-06 (tol 1e-08)"]),
    ((3, 2), "build_frame", _on_result(_push_pair(1)), ["willmore"],
     ["willmore.case_identity_max"],
     ["point 7: case_identity_max 1.0e-06 (tol 1e-08)"]),
    ((6, 1), "build_frame", _on_result(_push_pair(8, 5e-8)), ["willmore"],
     ["willmore.chain_max", "willmore.projection_pairwise_max",
      "willmore.projection_aggregate_max", "willmore.t0_pair_leak_max"],
     ["point 7: chain_max 1.5e-08 (tol 1e-08)"]),
    ((3, 2), "shape_operators", _on_result(_identity_at_one_point),
     ["lemma", "willmore"],
     ["lemma.max_spectrum_deviation", "willmore.residual_max",
      "willmore.balance_max", "willmore.chain_max",
      "willmore.projection_pairwise_max", "willmore.projection_aggregate_max",
      "willmore.t0_pair_leak_max", "willmore.reflection_max",
      "lemma.multiplicities"],
     ["point 4, normal 6: max_spectrum_deviation 3.8e-01 (tol 1e-08)",
      "point 4: residual_max 7.8e+01 (tol 1e-07)"]),
], ids=["flip-sign", "swap-points", "scale-one-point", "scale-one-point-floor",
        "scale-frame-operators", "scale-frame-operators-low",
        "scale-one-point-2-2", "shift-crosscheck", "zero-pairs-einstein",
        "push-pair-tangent", "push-pair-normal", "push-pair-tangent-6-1",
        "multiplicity-error"])
def test_downstream_fault_fails_only_its_blocks(monkeypatch, config, target,
                                                patch, failed, fields, errors):
    # each fault is injected at the name report.py looks up, and every block
    # not in `failed` passes.  A sign flipped where the operators are formed
    # keeps every spectrum and every quantity even in A; a swap misplaces
    # the Ricci tensors and the operators against the pairs, while the
    # Einstein probe reads
    # only the frames' closed-form Ricci matrices and still passes; scaling
    # one point's operators by 1 + eps gives |A^3 - A| ~ 2 eps (inside the
    # 1e-6 cluster radius, so the chain still runs) and the sign gap
    # A_a + T^T P_a T ~ eps, while the pair tensors, linear in A, scale
    # only their rounding (at m = 3 there is no |U| cubic, which reads the
    # scale): at eps = 1e-7 both pass the
    # 1e-8 of geom (1.9e-7 and 9.7e-8), at eps = 7e-9 only the lemma does
    # (1.36e-8, the gap 6.8e-9), as it does for eps between 5.2e-9 and
    # 1.03e-8; scaled where they are formed, the operators also move S and
    # the Ricci tensor derived from them, and scaled down they leave point 3
    # the lowest S, so that S - min S reads the excess at every other point
    # while the error still names point 3's S_max_gap, the first failing
    # field.  At (2, 2), where the |U| cubic reads the scale, the case
    # identity reads 2 eps, so at eps = 5.5e-9 it trips alone (1.1e-8,
    # the spectrum 9.6e-9 and the sign gap 4.1e-9); a closed form shifted
    # by 2 moves only the cross-check (the balance reads it through
    # tr(Pi_{+1}) - tr(Pi_{-1}) = 0); and a probe that sees no pair
    # products finds the spread 0 where (3, 2) must give evidence of a
    # non-Einstein metric.  A pair vector pushed along the first tangent
    # column (index m + 2 = 5) moves the pairwise and leak tensors, and the
    # aggregate against a balance that the closed form, built before the
    # push, keeps; pushed along P_0 x (column 1) it leaves the tangent
    # space and only the tangency sees it.  At (6, 1) the push is sized so
    # that the pairwise tensor trips (1.52e-8): the per-normal chain it
    # replaced read 7.6e-9 there at 50 random normals, and passed.  The
    # identity in place of point 4's operators has A_xi^3 = A_xi at the
    # coordinate normals, where the lemma reads the multiplicities
    # (0, 11, 0), and (c . 1)^3 - (c . 1) at the random ones; it is the
    # one row whose lemma reads wrong multiplicities, and the criterion
    # there is tr(Ric) = 78.
    # `fields` names every residual that the fault puts above its
    # tolerance, and the lemma's multiplicity condition when it fails: a
    # flipped sign shows only in the sign gap (1.97), whose T^T P_a T is
    # formed apart from the operators, and a pushed pair never in it (the
    # einstein gate has no residual field).  `errors` is each failing
    # block's error, which names the faulted point (every point, for the
    # faults of the closed form, names point 0)
    from fkm_willmore import report
    monkeypatch.setattr(report, target, patch(getattr(report, target)))
    cfg = VerificationConfig(configurations=(config,), n_points=20,
                             n_normals=5)
    entry = evaluate_system(build_clifford_system(*config), cfg, 0)
    assert sorted(name for name, block in entry["blocks"].items()
                  if not block["pass"]) == failed
    assert _tripped(entry, cfg.tolerances) == fields
    assert [entry["blocks"][name]["error"] for name in failed] == errors
    if target == "einstein_probe":
        einstein = entry["blocks"]["einstein"]
        assert einstein["status"] == "evidence"
        assert einstein["spread"] == 0.0
        assert einstein["spread_exceeds_threshold"] is False


def test_case_identity_reads_twice_the_scale(monkeypatch):
    # point 3's operators at (2, 2) scaled by 1 + eps move the case
    # identity by 2 eps, and at eps = 1e-9 every block passes
    from fkm_willmore import report
    monkeypatch.setattr(report, "shape_operators", _on_result(
        _scale_one_point(1e-9))(report.shape_operators))
    cfg = VerificationConfig(configurations=((2, 2),), n_points=20,
                             n_normals=5)
    entry = evaluate_system(build_clifford_system(2, 2), cfg, 0)
    assert f"{entry['blocks']['willmore']['case_identity_max']:.3e}" == \
        "2.000e-09"
    assert entry["pass"]


@pytest.mark.parametrize("fault,error,counts,willmore_error", [
    (_scale_all, "point 0, normal 0: max_spectrum_deviation 1.9e+00 "
     "(tol 1e-08)", [0, 0, 0], "point 0: reflection_max 5.0e-01 (tol 1e-08)"),
    (_identity_at_one_point, "point 4, normal 0: multiplicities [0, 11, 0] "
     "(expected [3, 4, 4])", [0, 11, 0],
     "point 4: residual_max 7.8e+01 (tol 1e-07)"),
], ids=["spectrum-error", "multiplicity-error"])
def test_chain_error_keeps_the_einstein_block(monkeypatch, fault, error,
                                              counts, willmore_error):
    # a failing lemma keeps its fields and names its first failing point,
    # the normal and the field or the multiplicities read there in an
    # `error` before `pass`; willmore reads no field of the lemma and is
    # present, failing with its own first failing point and field, and the
    # Einstein probe reads only the frames' closed-form Ricci matrices, so
    # its block is the fault-free one.  Only the coordinate normals are
    # drawn.  Scaled by 1.5, every deviation leaves the cluster radius, so
    # no multiplicities are read
    from fkm_willmore import report
    cfg = VerificationConfig(configurations=((3, 2),), n_points=20,
                             n_normals=0)
    clean = evaluate_system(build_clifford_system(3, 2), cfg, 0)["blocks"]
    monkeypatch.setattr(report, "shape_operators",
                        _on_result(fault)(report.shape_operators))
    blocks = evaluate_system(build_clifford_system(3, 2), cfg, 0)["blocks"]
    assert list(blocks) == list(EXPECTED_BLOCKS)
    assert list(blocks["lemma"]) == (SCHEMA_KEYS["lemma"][:-1]
                                     + ["error", "pass"])
    assert blocks["lemma"]["error"] == error
    assert blocks["lemma"]["multiplicities"] == counts
    assert not blocks["lemma"]["pass"]
    assert list(blocks["willmore"]) == (SCHEMA_KEYS["willmore"][:-1]
                                        + ["error", "pass"])
    assert blocks["willmore"]["error"] == willmore_error
    assert blocks["einstein"] == clean["einstein"]
    assert blocks["einstein"]["pass"]


def _scale_to_deviation(point, target):
    """A fault of a record of shape operators: point `point`'s are scaled
    by s = 1 + e, sized so that its lemma reads `target` at the
    coordinate normals, (s^3 - s) max_a |A_a|."""
    def fault(record):
        ops = np.array(record.operators)
        ops[point] *= 1.0 + target / (2.0 * np.max(np.abs(ops[point])))
        return replace(record, operators=ops)
    return fault


def test_cluster_radius_guards_the_lemma_block(monkeypatch):
    # point 3's deviation 0.1% below the cluster radius fails the lemma
    # at the default geom, naming the point and its worst normal, and
    # passes at geom 1e-6; 0.1% above it the multiplicities are not read,
    # so the lemma fails on them whatever geom is.  willmore is reported
    # in every case
    from fkm_willmore import report, willmore
    system = build_clifford_system(3, 2)
    original = report.shape_operators
    grid = dict(configurations=((3, 2),), n_points=5, n_normals=0)
    clean = original(build_frame(system, configuration_points(
        system, tiny_config(**grid), 0)))
    normal = int(np.argmax(np.max(np.abs(clean.operators[3]), axis=(1, 2))))
    for factor, geom, error in [
            (0.999, None, f"point 3, normal {normal}: max_spectrum_deviation "
             "1.0e-06 (tol 1e-08)"),
            (0.999, 1e-6, None),
            (1.001, None, f"point 3, normal {normal}: max_spectrum_deviation "
             "1.0e-06 (tol 1e-08)"),
            (1.001, 1e-4, f"point 3, normal {normal}: multiplicities "
             "[0, 0, 0] (expected [3, 4, 4])")]:
        target = factor * willmore.CLUSTER_RADIUS
        monkeypatch.setattr(report, "shape_operators", _on_result(
            _scale_to_deviation(3, target))(original))
        cfg = tiny_config(**grid, tolerances={} if geom is None
                          else {"geom": geom})
        blocks = evaluate_system(system, cfg, 0)["blocks"]
        lemma = blocks["lemma"]
        assert abs(lemma["max_spectrum_deviation"] / target - 1.0) <= 1e-4
        assert lemma.get("error") == error
        assert lemma["pass"] == (error is None)
        assert lemma["multiplicities"] == (
            [3, 4, 4] if factor < 1.0 else [0, 0, 0])
        assert list(blocks) == list(EXPECTED_BLOCKS)


def _spread_at(point, value):
    """A fault of the probe's result: point `point`'s extremes are 0.0 and
    `value`, so its spread is `value` exactly."""
    def fault(probe):
        lowest, highest = (np.array(extreme) for extreme in probe)
        lowest[point], highest[point] = 0.0, value
        return lowest, highest
    return fault


@pytest.mark.parametrize("value,error", [
    (0.1001, None),
    (0.1, "point 2: spread_exceeds_threshold False (expected True)"),
])
def test_spread_threshold_decides_the_einstein_block(monkeypatch, value,
                                                     error):
    # where the dimension condition holds, every point's spread must be
    # above 0.1: a spread of 0.1 itself fails and names its point, one
    # just above it passes
    from fkm_willmore import report
    monkeypatch.setattr(report, "einstein_probe", _on_result(
        _spread_at(2, value))(report.einstein_probe))
    cfg = tiny_config(configurations=((3, 2),), n_points=5, n_normals=0)
    einstein = evaluate_system(build_clifford_system(3, 2), cfg, 0)[
        "blocks"]["einstein"]
    assert einstein["status"] == "evidence"
    assert einstein.get("error") == error
    assert einstein["pass"] == einstein["spread_exceeds_threshold"] == (
        error is None)


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
