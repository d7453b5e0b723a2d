"""fkm-verify benchmark: time to a verified report, plus a traced breakdown.

    python3 perfbench/run.py --workload default-grid --seed 1 --seconds 50 \
        --trace 0

Each workload is an `fkm-verify` argument list; the benchmark's --seed is
passed on as fkm-verify's --seed.  Every run calls
`fkm_willmore.cli.main(argv + ["--out", path])` in this process, with
single-threaded BLAS, after one small untimed warm-up run (see warm_up).
Every run's report is checked (checks.py) and must be byte-identical to the
first timed run's.

--trace 0 measures the end-to-end metrics: the median wall time of the
timed runs, the set-up time of fresh processes (setup_probe.py, several in
a row, median), and the peak RSS of this process after its first timed run,
that is of a fresh process that has run the workload once.

--trace 1 alternates untraced and traced runs.  The traced runs wrap the
package's public functions from outside (spans.py) and give the per-layer
metrics; the ratio of the two median wall times is the tracing overhead.

Standard output: a table of every metric with its unit, one JSON line with
the details (environment, report SHA-256, where the smallest tolerance
headroom is, exact call counts, every span), and as the last line the
result: {"correct", "attempted", "failed", "metrics"}.  `attempted` counts
configurations evaluated and `failed` those that failed or went missing.
Exits non-zero without a result when the package source is not there.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
from checks import inspect_report

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

# Why each workload: see BENCHMARK.json.  default-grid is the run users
# make and is dominated by the per-normal Willmore chain; points-sweep is
# dominated by per-point work (Einstein probe, Ricci cross-check) and
# writes a large report.  large-systems scales the pair loops with m; it is
# not in BENCHMARK.json because one of its runs (11-21 s) fits too few
# times into a run of the benchmark to give a steady median.
WORKLOADS = {
    "default-grid": [],
    "points-sweep": ["--points", "100", "--normals", "0"],
    "large-systems": ["--grid", "7:2,8:2,9:1"],
}

SETUP_REPEATS = 9

END_TO_END = {
    "verify_s": "s",
    "normal_checks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "clifford.rotate_system.calls": "count",
    "clifford.rotate_system.s": "s",
    "clifford.verify_clifford_relations.s": "s",
    "clifford.build_clifford_system.s": "s",
    "polynomial.verify_cartan_munzner.s": "s",
    "polynomial.sphere_derivatives.calls": "count",
    "focal.sample_focal_points.s": "s",
    "focal.project_to_focal.calls": "count",
    "focal.project_to_focal.failed": "count",
    "focal.points_per_attempt": "ratio",
    "focal.gn_iterations": "count",
    "geometry.build_frame.s": "s",
    "geometry.shape_operators.s": "s",
    "geometry.ricci_quadratic.crosscheck.calls": "count",
    "geometry.ricci_quadratic.crosscheck.s": "s",
    "geometry.ricci_quadratic.balance.calls": "count",
    "geometry.ricci_quadratic.balance.s": "s",
    "geometry.ricci_quadratic.einstein.calls": "count",
    "geometry.ricci_quadratic.einstein.s": "s",
    "willmore.certify_point.self_s": "s",
    "willmore.principal_decomposition.s": "s",
    "willmore.reflection_check.s": "s",
    "willmore.projection_balance.s": "s",
    "willmore.case_identities.s": "s",
    "willmore.ricci_balance.self_s": "s",
    "willmore.einstein_probe.self_s": "s",
    "report.evaluate_system.self_s": "s",
    "report.to_json.s": "s",
    "report.json_bytes": "bytes",
    "tol_headroom_min_dec": "dec",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def load_package():
    """Import fkm_willmore from this checkout's src/, or exit non-zero.

    Sets OPENBLAS_NUM_THREADS=1 first, for this process and its children;
    nothing imported before this point imports numpy.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = ROOT / "src"
    if not (src / "fkm_willmore" / "cli.py").is_file():
        sys.exit(f"run.py: no fkm_willmore source under {src}")
    sys.path.insert(0, str(src))
    import fkm_willmore.cli
    import fkm_willmore.focal
    if Path(fkm_willmore.__file__).resolve().parent != src / "fkm_willmore":
        sys.exit(f"run.py: imported fkm_willmore from {fkm_willmore.__file__}")
    return fkm_willmore


class Workload:
    """One workload's argument list, its runs and their correctness record."""

    def __init__(self, pkg, argv: list, workdir: Path):
        self.pkg = pkg
        self.argv = list(argv)
        self.cfg = pkg.cli.parse_cli(self.argv)
        self.out = workdir / "report.json"
        self.reference = None
        self.headroom = None
        self.runs = self.attempted = self.failed = 0
        self.problems: list = []

    @property
    def normal_checks(self) -> int:
        """Sum over configurations of points x (m + 1 + normals)."""
        return sum(self.cfg.n_points * (m + 1 + self.cfg.n_normals)
                   for m, _ in self.cfg.configurations)

    def run(self, main) -> float:
        """One gated call of `main`; returns its wall time in seconds."""
        self.out.unlink(missing_ok=True)
        gc.collect()
        start = perf_counter()
        try:
            code = main(self.argv + ["--out", str(self.out)])
        except (Exception, SystemExit) as exc:
            code = f"raised {exc!r}"
        wall = perf_counter() - start
        self._check(code)
        return wall

    def _check(self, code) -> None:
        grid = self.cfg.configurations
        self.runs += 1
        self.attempted += len(grid)
        if code != 0:
            self.problems.append(f"run {self.runs}: exit {code}")
        data = self.out.read_bytes() if self.out.is_file() else b""
        info = inspect_report(data.decode("utf-8", "replace"), grid,
                              self.cfg.n_points, self.cfg.n_normals,
                              self.pkg.focal.SPHERE_TOL,
                              self.pkg.focal.VALUE_TOL)
        self.failed += info["failed"]
        self.problems += [f"run {self.runs}: {p}" for p in info["problems"]]
        if self.reference is None:
            self.reference = data
            self.headroom = info
        elif data != self.reference:
            self.problems.append(f"run {self.runs}: report bytes differ "
                                 "from the first run")

    @property
    def ok(self) -> bool:
        return not self.problems and self.failed == 0


def repeat_until(seconds: float, step) -> list:
    """Call step() (which returns seconds) at least once, and again while
    another call of median length still ends within `seconds`."""
    deadline = perf_counter() + seconds
    walls = [step()]
    while perf_counter() + statistics.median(walls) <= deadline:
        walls.append(step())
    return walls


def setup_times(grid: tuple) -> list:
    """Set-up seconds of SETUP_REPEATS fresh processes, one after another."""
    arg = ",".join(f"{m}:{k}" for m, k in grid)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                               arg], cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def warm_up(pkg, wl: Workload) -> None:
    """One gated, untimed run of the workload's grid with two points and no
    random normals: every code path at the workload's matrix sizes, at a
    small share of a full run's cost."""
    warm = Workload(pkg, wl.argv + ["--points", "2", "--normals", "0"],
                    wl.out.parent)
    warm.run(pkg.cli.main)
    wl.attempted += warm.attempted
    wl.failed += warm.failed
    wl.problems += [f"warm-up {p}" for p in warm.problems]


def end_to_end(pkg, wl: Workload, seconds: float, detail: dict) -> dict:
    setup = setup_times(wl.cfg.configurations)
    warm_up(pkg, wl)
    rss_mb = []

    def timed() -> float:
        wall = wl.run(pkg.cli.main)
        if not rss_mb:          # a fresh process that ran the workload once
            rss_mb.append(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return wall

    walls = repeat_until(seconds, timed)
    verify_s = statistics.median(walls)
    detail.update(walls_s=walls, setup_samples_s=setup)
    return {
        "verify_s": verify_s,
        "normal_checks_per_s": wl.normal_checks / verify_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb[0],
    }


def traced_run(pkg, wl: Workload):
    """One gated run with every span target wrapped.

    Returns the wall time, the recorded spans and the targets not found.
    """
    tracer = spans.Tracer()
    missing = tracer.install()
    try:
        wall = wl.run(tracer.wrap(pkg.cli.main, "cli.main"))
    finally:
        tracer.uninstall()
    return wall, tracer.spans, missing


def exact_counts(summary: dict) -> dict:
    """The entries of a span summary that must repeat exactly."""
    return {k: v for k, v in summary.items()
            if k.endswith((".calls", ".failed", ".value_sum"))}


def per_layer(pkg, wl: Workload, seconds: float, detail: dict) -> dict:
    warm_up(pkg, wl)
    untraced, traced, summaries, nesting = [], [], [], []

    def pair() -> float:
        untraced.append(wl.run(pkg.cli.main))
        wall, recorded, detail["unpatched"] = traced_run(pkg, wl)
        traced.append(wall)
        summaries.append(spans.summarize(recorded))
        nesting.append(spans.check_nesting(recorded, wall))
        return untraced[-1] + wall

    repeat_until(seconds, pair)
    counts = [exact_counts(s) for s in summaries]
    if any(c != counts[0] for c in counts):
        wl.problems.append("call counts differ between traced runs")
    for n in nesting:
        wl.problems += n["problems"]
    summary = {**spans.median_summary(summaries), **counts[0]}
    traced_s = statistics.median(traced)
    detail.update(walls_s=untraced, traced_walls_s=traced,
                  counts=counts[0], nesting=nesting,
                  spans={k: summary[k] for k in sorted(summary)})

    def get(key):
        return summary.get(key, 0)

    calls = get("focal.project_to_focal.calls")
    metrics = {name: get(name) for name in PER_LAYER}
    metrics.update({
        "focal.points_per_attempt":
            (calls - get("focal.project_to_focal.failed")) / calls
            if calls else 0.0,
        "focal.gn_iterations": get("focal.project_to_focal.value_sum"),
        "report.json_bytes": len(wl.reference or b""),
        "tol_headroom_min_dec": wl.headroom["headroom_min_dec"],
        "trace.overhead_ratio": traced_s / statistics.median(untraced),
    })
    detail["shares_of_traced_wall"] = {
        k[:-len(".self_s")]: v / traced_s for k, v in sorted(summary.items())
        if k.endswith(".self_s") and k.count(".") == 2}
    detail["per_config_s"] = {
        f"{m}-{k}": get(f"report.evaluate_system.{m}-{k}.s")
        for m, k in wl.cfg.configurations}
    return metrics


def environment(pkg) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = ROOT / "src" / "fkm_willmore"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "fkm_willmore": pkg.__version__,
    }


def git_sha() -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = load_package()
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = Workload(pkg, WORKLOADS[args.workload]
                      + ["--seed", str(args.seed)], workdir)
        detail = {"workload": args.workload, "seed": args.seed,
                  "argv": wl.argv, "trace": args.trace,
                  "environment": environment(pkg)}
        if args.trace:
            metrics, units = (per_layer(pkg, wl, args.seconds, detail),
                              PER_LAYER)
        else:
            metrics, units = (end_to_end(pkg, wl, args.seconds, detail),
                              END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    reference = wl.reference or b""
    detail.update(
        runs=wl.runs,
        report_sha256=hashlib.sha256(reference).hexdigest(),
        report_bytes=len(reference),
        config_fail_ratio=wl.failed / wl.attempted,
        tol_headroom_min_dec=wl.headroom["headroom_min_dec"],
        tol_headroom_at=wl.headroom["headroom_at"],
        problems=wl.problems[:20])
    correct = wl.ok and all(v is not None for v in metrics.values())
    metrics = {k: 0.0 if v is None else v for k, v in metrics.items()}
    table = [(name, value, units[name]) for name, value in metrics.items()]
    table += [(f"report.evaluate_system.{tag}.s", value, "s")
              for tag, value in detail.get("per_config_s", {}).items()]
    table.append(("config_fail_ratio", detail["config_fail_ratio"], "ratio"))
    if "tol_headroom_min_dec" not in metrics:
        table.append(("tol_headroom_min_dec",
                      detail["tol_headroom_min_dec"] or 0.0, "dec"))
    for name, value, unit in table:
        print(f"{name:<44} {value:>16.6g} {unit}")
    print(f"tol_headroom_at {detail['tol_headroom_at']}  "
          f"report_sha256 {detail['report_sha256']}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
