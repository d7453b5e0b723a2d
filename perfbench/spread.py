"""Run the benchmark once per seed and summarize each metric's spread.

    python3 perfbench/spread.py --workload default-grid --seeds 1-10 \
        [--trace 0] [--seconds 50] [--out summary.json]

Runs run.py one process after another (never in parallel) and prints, per
metric, the ten values, their median, quartiles and the quartile distance
as a share of the median, together with each seed's report SHA-256.  The
same summary is written to --out when given.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
        check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    runs = [run_once(args.workload, seed, args.seconds, args.trace)
            for seed in seed_list(args.seeds)]
    names = list(runs[0][1]["metrics"])
    summary = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "environment": runs[0][0]["environment"],
        "seeds": [d["seed"] for d, _ in runs],
        "correct": [r["correct"] for _, r in runs],
        "config_fail_ratio": sum(r["failed"] for _, r in runs)
        / sum(r["attempted"] for _, r in runs),
        "report_sha256": [d["report_sha256"] for d, _ in runs],
        "walls_s": [d["walls_s"] for d, _ in runs],
        "metrics": {n: summarize([r["metrics"][n]["value"] for _, r in runs])
                    for n in names},
    }
    for name, s in summary["metrics"].items():
        print(f"{name:<44} median {s['median']:12.6g}  "
              f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  "
              f"spread {s['spread']:.4f}")
    print("correct", summary["correct"], "config_fail_ratio",
          summary["config_fail_ratio"])
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
