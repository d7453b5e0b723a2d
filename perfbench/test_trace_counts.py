"""Tests of the benchmark's own machinery: exact counts, span tree, gate.

    python3 -m pytest -q perfbench

The repository's test suite (tests/) does not collect these; they exercise
the tracing wrappers and the report gate on a small grid.
"""

import json
from pathlib import Path

import checks
import run
import spans

PKG = run.load_package()
SMALL = ["--grid", "2:2,5:1", "--points", "3", "--normals", "2",
         "--seed", "7"]


def closed_forms(cfg) -> dict:
    """Exact call counts implied by a configuration of fkm-verify."""
    cross = PKG.report._N_CROSSCHECK_DIRS      # random directions per point
    einstein = PKG.report._N_EINSTEIN_DIRS + 2  # plus two Ricci eigenvectors
    counts = dict.fromkeys((
        "clifford.rotate_system.calls",
        "geometry.ricci_quadratic.crosscheck.calls",
        "geometry.ricci_quadratic.balance.calls",
        "geometry.ricci_quadratic.einstein.calls"), 0)
    for m, k in cfg.configurations:
        m2 = k * PKG.delta(m) - m - 1
        normals = cfg.n_points * (m + 1 + cfg.n_normals)
        counts["clifford.rotate_system.calls"] += normals
        # one call per basis vector of the +1 and -1 eigenspaces
        counts["geometry.ricci_quadratic.balance.calls"] += normals * 2 * m2
        counts["geometry.ricci_quadratic.crosscheck.calls"] += \
            cross * cfg.n_points
        counts["geometry.ricci_quadratic.einstein.calls"] += \
            einstein * cfg.n_points
    counts["polynomial.sphere_derivatives.calls"] = \
        cfg.n_pde_samples * len(cfg.configurations)
    return counts


def test_closed_forms_of_the_default_grid():
    counts = closed_forms(PKG.cli.parse_cli([]))
    assert counts["clifford.rotate_system.calls"] == 7580
    assert sum(v for k, v in counts.items()
               if k.startswith("geometry.ricci_quadratic.")) == 58640


def test_traced_counts_repeat_and_match_closed_forms(tmp_path):
    wl = run.Workload(PKG, SMALL, tmp_path)
    counts = []
    for _ in range(2):
        wall, recorded, missing = run.traced_run(PKG, wl)
        assert missing == []
        nesting = spans.check_nesting(recorded, wall)
        assert nesting["problems"] == []
        assert 0.0 <= nesting["untraced_remainder_s"] < 0.01 * wall
        counts.append(run.exact_counts(spans.summarize(recorded)))
    assert wl.ok, wl.problems
    assert counts[0] == counts[1]
    for key, value in closed_forms(wl.cfg).items():
        assert counts[0][key] == value, key
    cfg = wl.cfg
    successes = (counts[0]["focal.project_to_focal.calls"]
                 - counts[0]["focal.project_to_focal.failed"])
    assert successes == (cfg.n_points - 1) * len(cfg.configurations)
    assert counts[0]["focal.project_to_focal.value_sum"] >= successes
    assert counts[0]["cli.main.calls"] == 1


def test_tracer_restores_every_patched_name(tmp_path):
    targets = [(spans._resolve(owner), attr) for owner, attr, *_ in
               spans.TARGETS]
    before = [holder.__dict__[attr] for holder, attr in targets]
    run.traced_run(PKG, run.Workload(PKG, SMALL, tmp_path))
    assert [holder.__dict__[attr] for holder, attr in targets] == before


def test_gate_reapplies_the_pass_rule(tmp_path):
    wl = run.Workload(PKG, SMALL, tmp_path)
    wl.run(PKG.cli.main)
    assert wl.ok, wl.problems
    report = json.loads(wl.reference)
    geom = report["config"]["tolerances"]["geom"]
    report["configurations"][1]["blocks"]["willmore"]["bridge_max"] = 2 * geom
    args = (wl.cfg.configurations, wl.cfg.n_points, wl.cfg.n_normals,
            PKG.focal.SPHERE_TOL, PKG.focal.VALUE_TOL)
    info = checks.inspect_report(json.dumps(report), *args)
    assert info["failed"] == 1
    del report["configurations"][0]
    assert checks.inspect_report(json.dumps(report), *args)["failed"] == 2


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS)[:len(names)]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
