"""Spread and drift of the end-to-end metrics: the runs BENCHMARK.json's bounds rest on.

    python3 perfbench/spread.py run --seeds 1-10 --out perfbench/validation/set1.json
    python3 perfbench/spread.py compare perfbench/validation/set1.json perfbench/validation/set2.json

``run`` runs every workload of BENCHMARK.json once per seed, tracing off, one
run at a time, and writes every metric's values with their median and spread.
The spread is (Q3 - Q1) / median, the quartiles as statistics.quantiles(n=4)
gives them. ``compare`` prints, per workload and metric, both sets' spreads
and the drift of the second median from the first (positive is worse). It
exits 1 when a spread other than setup_s's, or a drift, exceeds the metric's
bound in BENCHMARK.json, and marks spreads above a third of the bound as
noisy. Per metric it also prints the bound these runs support: 1.5 x the
largest spread or drift, rounded up to a multiple of 0.05, at least 0.05.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, machine  # noqa: E402


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_set(seeds: list, out: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        for seed in seeds:
            argv = ["--workload", workload, "--seed", str(seed), "--trace", "0"]
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), *argv, "--seconds", str(spec["run_seconds"])],
                cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
            )
            line = json.loads(proc.stdout.splitlines()[-1])
            if not line["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        result[workload] = {
            name: {"median": statistics.median(v), "spread": spread(v), "values": v}
            for name, v in values.items()
        }
    out.parent.mkdir(parents=True, exist_ok=True)
    record = {"machine": machine(), "seeds": seeds, "workloads": result}
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def compare(first: Path, second: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = [json.loads(p.read_text(encoding="utf-8"))["workloads"] for p in (first, second)]
    failed = 0
    print(f"{'metric':<12} {'workload':<12} {'spread1':>8} {'spread2':>8} {'drift':>8}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        worst = 0.0
        for workload in sets[0]:
            a, b = (s[workload][name] for s in sets)
            drift = sign * (b["median"] - a["median"]) / a["median"]
            spreads = (a["spread"], b["spread"]) if name != "setup_s" else ()
            notes = ["spread above bound/3" for v in spreads if v > bound / 3][:1]
            notes += ["OVER BOUND" for v in (*spreads, drift) if v > bound][:1]
            failed += "OVER BOUND" in notes
            print(f"{name:<12} {workload:<12} {a['spread']:8.4f} {b['spread']:8.4f} {drift:+8.4f}  {' '.join(notes)}")
            worst = max(worst, *spreads, abs(drift))
        supported = max(0.05, math.ceil(20 * 1.5 * worst - 1e-9) / 20)
        print(f"{name}: bound {bound}; these runs support {supported:.2f}\n")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    run = sub.add_parser("run")
    run.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    run.add_argument("--out", type=Path, required=True)
    cmp = sub.add_parser("compare")
    cmp.add_argument("first", type=Path)
    cmp.add_argument("second", type=Path)
    args = parser.parse_args()
    if args.action == "run":
        lo, hi = (int(v) for v in args.seeds.split("-"))
        run_set(list(range(lo, hi + 1)), args.out)
        return 0
    return compare(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
