"""Acceptance gate: the eleven stated criteria at their stated tolerances.

Each test checks one criterion against the shared default-parameter suite
run (plus direct oracles where asked for) and records exactly one pass/fail
line, printed in the terminal summary.
"""

import numpy as np

from fkm_willmore import (VerificationConfig, build_clifford_system,
                          build_frame, run_suite, sample_focal_points,
                          shape_operators)
from fkm_willmore.report import evaluate_system

from conftest import GRID, corrupt_system

EVIDENCE_SET = {(1, 3), (1, 4), (2, 2), (3, 2)}  # where 4l > m^2 + 3m + 4


def _admissible(report):
    entries = [e for e in report.entries if e.get("admissible")]
    assert len(entries) == len(GRID)
    return entries


def test_criterion_1_clifford_relations(suite_report, acceptance):
    entries = _admissible(suite_report)
    worst = max(e["blocks"]["clifford"]["max_deviation"] for e in entries)
    ok = all(e["blocks"]["clifford"]["pass"] for e in entries) and worst == 0.0
    acceptance(1, "Clifford relations exact on the full grid", ok,
               f"max integer residual {worst:g}")


def test_criterion_2_pde_residuals(suite_report, acceptance):
    entries = _admissible(suite_report)
    worst = 0.0
    ok = True
    for e in entries:
        blk = e["blocks"]["cartan_munzner"]
        ok = ok and blk["n_samples"] == 1000 and blk["pass"]
        worst = max(worst, blk["max_gradient_residual"],
                    blk["max_laplacian_residual"])
    ok = ok and worst < 1e-8
    acceptance(2, "gradient/Laplacian PDEs at 1000 points per system", ok,
               f"max residual {worst:.3e} < 1e-8")


def test_criterion_3_focal_certification(suite_report, acceptance):
    entries = _admissible(suite_report)
    ok = True
    worst_c = worst_v = 0.0
    for e in entries:
        blk = e["blocks"]["points"]
        ok = (ok and blk["pass"] and blk["count"] == 20
              and blk["jacobian_ranks"] == [blk["rank_expected"]]
              and blk["rank_expected"] == e["m"] + 2)
        worst_c = max(worst_c, blk["max_constraint_residual"])
        worst_v = max(worst_v, blk["max_value_gap"])
    ok = ok and worst_c < 1e-10 and worst_v <= 1e-9
    acceptance(3, "20 certified points per system, rank m+2", ok,
               f"constraints {worst_c:.3e} < 1e-10, value gap {worst_v:.3e}")


def test_criterion_4_sff_norm_closed_form(suite_report, acceptance):
    entries = _admissible(suite_report)
    spot = {(1, 3): 4.0, (2, 2): 6.0, (3, 2): 32.0}
    ok = True
    worst = 0.0
    for e in entries:
        blk = e["blocks"]["geometry"]
        m, k = e["m"], e["k"]
        expect = 2.0 * (e["l"] - m - 1) * (m + 1)
        ok = ok and blk["S_expected"] == expect
        if (m, k) in spot:
            ok = ok and blk["S_expected"] == spot[(m, k)]
        worst = max(worst, blk["S_max_gap"])
    ok = ok and worst < 1e-8
    acceptance(4, "squared norm of second fundamental form = 2(l-m-1)(m+1)",
               ok, f"max gap {worst:.3e} < 1e-8")


def test_criterion_5_minimality(suite_report, acceptance):
    entries = _admissible(suite_report)
    h = max(e["blocks"]["geometry"]["H_max"] for e in entries)
    rho = max(e["blocks"]["geometry"]["rho2_vs_S_max_gap"] for e in entries)
    spread = max(e["blocks"]["geometry"]["S_spread"] for e in entries)
    ok = h < 1e-10 and rho < 1e-8 and spread < 1e-8
    acceptance(5, "mean curvature zero, trace-free norm constant", ok,
               f"H {h:.3e} < 1e-10, rho2 gap {rho:.3e}, spread {spread:.3e}")


def test_criterion_6_shape_spectrum(suite_report, acceptance):
    entries = _admissible(suite_report)
    ok = True
    worst = 0.0
    for e in entries:
        blk = e["blocks"]["lemma"]
        ok = (ok and blk["pass"] and blk["n_normals_per_point"] >= 50
              and blk["multiplicities"] == [e["m"], e["l"] - e["m"] - 1,
                                            e["l"] - e["m"] - 1])
        worst = max(worst, blk["max_spectrum_deviation"])
    ok = ok and worst < 1e-8
    acceptance(6, "normal spectra {0,+1,-1} with multiplicities (m,m2,m2)",
               ok, f"max deviation {worst:.3e} < 1e-8")


def test_criterion_7_willmore_identities(suite_report, acceptance):
    entries = _admissible(suite_report)
    red = max(e["blocks"]["willmore"]["residual_max"] for e in entries)
    bridge = max(e["blocks"]["willmore"]["bridge_max"] for e in entries)
    pair = max(e["blocks"]["willmore"]["projection_pairwise_max"]
               for e in entries)
    agg = max(e["blocks"]["willmore"]["projection_aggregate_max"]
              for e in entries)
    case = max(e["blocks"]["willmore"]["case_identity_max"] for e in entries)
    ok = (red < 1e-7 and bridge < 1e-8 and pair < 1e-8 and agg < 1e-8
          and case < 1e-8
          and all(e["blocks"]["willmore"]["pass"] for e in entries))
    acceptance(7, "Willmore contraction, bridge, projection balances", ok,
               f"reduced {red:.3e} < 1e-7, bridge {bridge:.3e}, "
               f"pairwise {pair:.3e}, aggregate {agg:.3e}, cases {case:.3e}")


def test_criterion_8_ricci_crosscheck(suite_report, acceptance):
    entries = _admissible(suite_report)
    cross = max(e["blocks"]["geometry"]["ricci_crosscheck_max"]
                for e in entries)
    trace = max(e["blocks"]["geometry"]["ricci_trace_max_gap"]
                for e in entries)
    ok = cross < 1e-8 and trace < 1e-8
    acceptance(8, "Ricci quadratic form vs tensor, trace identity", ok,
               f"crosscheck {cross:.3e} < 1e-8, trace gap {trace:.3e}")


def test_criterion_9_einstein_probe(suite_report, acceptance):
    entries = _admissible(suite_report)
    ok = True
    for e in entries:
        blk = e["blocks"]["einstein"]
        if (e["m"], e["k"]) in EVIDENCE_SET:
            ok = (ok and blk["status"] == "evidence" and blk["spread"] > 0.1
                  and blk["dimension_condition"])
        else:
            ok = ok and blk["status"] == "inconclusive"
    # direct oracle for the smallest case: eigenvalues of the Ricci tensor
    system = build_clifford_system(1, 3)
    frame = build_frame(system, sample_focal_points(system, 1, seed=0).x)
    eigs = np.linalg.eigvalsh(shape_operators(frame).ricci[0])
    spread = float(eigs[-1] - eigs[0])
    ok = ok and abs(spread - 2.0) <= 1e-8
    small = next(e for e in entries if (e["m"], e["k"]) == (1, 3))
    ok = ok and abs(small["blocks"]["einstein"]["spread"] - 2.0) <= 1e-8
    acceptance(9, "Ricci spread evidence where the dimension gate holds", ok,
               f"(1,3) oracle spread {spread:.10f} == 2")


def test_criterion_10_fault_sensitivity(acceptance):
    cfg = VerificationConfig(configurations=((2, 2),), n_points=3,
                             n_normals=4)
    entry = evaluate_system(corrupt_system(2, 2), cfg, 0)
    failed = [name for name, blk in entry["blocks"].items()
              if not blk.get("pass", False)]
    ok = not entry["pass"] and len(failed) > 0
    acceptance(10, "1e-3 corruption of one matrix entry is detected", ok,
               f"failing blocks: {', '.join(failed) or 'none'}")


def test_criterion_11_byte_identical_reports(acceptance):
    # the second shape is --points 100 --normals 0: many points per
    # configuration, evaluated in stacks
    configs = (
        VerificationConfig(configurations=((1, 3), (2, 2)), n_points=4,
                           n_normals=6, seed=7),
        VerificationConfig(configurations=((1, 3), (2, 2)), n_points=100,
                           n_normals=0))
    pairs = [(run_suite(cfg).to_json(), run_suite(cfg).to_json())
             for cfg in configs]
    ok = all(first == second and len(first) > 0 for first, second in pairs)
    acceptance(11, "identical config and seed give byte-identical JSON", ok,
               f"{' + '.join(str(len(first)) for first, _ in pairs)} bytes "
               "compared")
