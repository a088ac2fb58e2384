"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--trace]

1. A minimal-length run (--seconds 1, so one pass) of each workload prints
   every named end-to-end metric and reports correct outputs.
2. A run of exact_batch with one phi sign flipped in its output, and a run
   of figures with one curves root moved, each report error_rate > 0 and
   correct = false: a fast wrong answer counts as failed.
3. With --trace, the traced run reports every per-layer metric of
   BENCHMARK.json.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import CORRUPTIBLE, NAMED, ROOT, WORKLOADS  # noqa: E402


def bench(*args: str) -> tuple:
    """Run the benchmark; return (stdout lines, last-line JSON)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true", help="also check the traced run")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    for name in WORKLOADS:
        lines, result = bench("--workload", name, "--seconds", "1", "--trace", "0")
        printed = {ln.split()[0] for ln in lines[:-1] if ln.startswith("   ")}
        missing = [key for key, _ in NAMED if key not in printed]
        missing += [m["name"] for m in spec["end_to_end"] if m["name"] not in result["metrics"]]
        if missing:
            problems.append(f"{name}: metrics not reported: {missing}")
        if not result["correct"] or result["failed"]:
            problems.append(f"{name}: outputs failed their checks at minimal length")
        print(f"{name}: {len(printed)} metrics printed, correct={result['correct']}")

    for name in CORRUPTIBLE:
        lines, result = bench("--workload", name, "--seconds", "1", "--corrupt")
        rate = next(float(ln.split()[1]) for ln in lines if ln.split()[:1] == ["error_rate"])
        if result["correct"] or result["failed"] < 1 or not rate > 0:
            problems.append(f"a corrupted output in {name} was not counted as a failure")
        print(f"corrupted {name}: error_rate={rate:.3g}, correct={result['correct']}")

    if args.trace:
        _, result = bench("--workload", "all", "--trace", "1")
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in result["metrics"]]
        if missing or not result["correct"]:
            problems.append(f"traced run: missing {missing}, correct={result['correct']}")
        print(f"traced run: {len(result['metrics'])} per-layer metrics, correct={result['correct']}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
