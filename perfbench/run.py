"""Benchmark for lpm_shapley: run one workload (or all), check it, print its metrics.

    python3 perfbench/run.py --workload population --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Every measurement runs in a fresh interpreter (``worker.py``), one process at
a time, so the load is a closed loop of one caller: each call waits for the
previous one. With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics instead,
from traced passes of all four workloads and an m-ladder of shapley_exact
calls, one fresh process per m. Every per-layer metric is reported by every
traced run, so ``--trace 1`` traces all of them whatever ``--workload``
names, and says so. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A full record of the run,
with the machine it ran on, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("population", "exact_wide", "exact_batch", "figures")
CORRUPTIBLE = ("exact_batch", "figures")  # workloads whose output --corrupt breaks
SETUP_SPAWNS = 5  # setup_s is the median of these plus the measured run's own set-up
LADDER = (12, 16, 20, 22, 24, 25)
BUDGET_S = 170.0  # a run must end within 180 s

# The ten end-to-end figures named for this benchmark, printed for every
# workload; n/a where a workload does not exercise that path.
NAMED = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("error_rate", "ratio"),
    ("samples_per_s", "samples/s"),
    ("samples_per_s_2t", "samples/s"),
    ("subset_evals_per_s", "evals/s"),
    ("rows_per_s", "rows/s"),
    ("explain_p50_us", "us"),
    ("explain_p99_us", "us"),
)
# What work_per_s counts and which calls call_p50_us takes the median of.
WORK_UNIT = {
    "population": "samples/s at --threads 1",
    "exact_wide": "subset evaluations/s",
    "exact_batch": "batch rows/s",
    "figures": "grid and curve points/s",
}
CALL = {
    "population": "study command at --threads 2",
    "exact_wide": "shapley_exact call at m=24",
    "exact_batch": "single-sample shapley_exact call",
    "figures": "grid command",
}


class BenchError(Exception):
    """The benchmark could not measure (missing sources, a crashed worker, time out)."""


class Spawner:
    """Starts worker processes one at a time, within the run's time budget."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        self.env.pop("LPM_SHAPLEY_THREADS", None)  # thread counts come from the workloads
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "2"  # no workload uses more than 2 threads
        self.import_s = []

    def __call__(self, *args: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker timed out: {' '.join(args)}") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker failed: {' '.join(args)}\n{proc.stderr[-3000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        self.import_s.append(result["import_s"])
        return result


def machine() -> dict:
    """What the numbers were measured on; results from different machines never compare."""
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "l3_cache": None,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": git_commit(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None
            )
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as fh:
            info["l3_cache"] = fh.read().strip()
    except OSError:
        pass
    return info


def git_commit():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(spawn: Spawner, name: str, seed: int, seconds: float, corrupt: bool) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    setups = [spawn("--mode", "setup", *common)["setup_s"] for _ in range(SETUP_SPAWNS)]
    flags = ["--corrupt"] if corrupt else []
    res = spawn("--mode", "run", *common, "--seconds", str(seconds), *flags)
    setups.append(res["setup_s"])
    named = dict(res["metrics"])
    named.update(
        setup_s=statistics.median(setups),
        peak_rss_mb=res["peak_rss_mb"],
        error_rate=res["failed"] / res["attempted"],
    )
    return {
        "workload": name,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "passes": res["passes"],
        "pass_wall_s": res["pass_wall_s"],
        "setup_samples_s": setups,
        "named": named,
    }


def run_traced(spawn: Spawner, seed: int) -> dict:
    layer, attempted, failed, failures = {}, 0, 0, []
    OUT.mkdir(exist_ok=True)
    for name in WORKLOADS:
        common = ["--mode", "run", "--workload", name, "--seed", str(seed), "--passes", "1"]
        spans = OUT / f"spans-{name}-seed{seed}.json.gz"
        traced = spawn(*common, "--trace", "--spans", str(spans))
        plain = spawn(*common)
        layer.update(traced["layer"])
        layer[f"trace.overhead_s.{name}"] = traced["metrics"]["wall_s"] - plain["metrics"]["wall_s"]
        layer[f"trace.peak_rss_mb.{name}"] = traced["peak_rss_mb"]
        for res in (traced, plain):
            attempted += res["attempted"]
            failed += res["failed"]
            failures += res["failures"]
    for m in LADDER:
        res = spawn("--mode", "ladder", "--m", str(m), "--seed", str(seed))
        attempted += 1
        if not res["ok"]:
            failed += 1
            failures.append(f"ladder m={m}: efficiency residual above 1e-10")
        for key in ("exact_s", "exact_rss_mb", "table_mb_computed"):
            layer[f"engine.{key}.m{m}"] = res[key]
    layer["import.s"] = statistics.median(spawn.import_s)
    return {"attempted": attempted, "failed": failed, "failures": failures, "named": layer}


def report(spec: dict, name: str, result: dict, trace: bool) -> dict:
    """Print the human-readable block; return the metrics object for the JSON line."""
    named = result["named"]
    print(f"== {name} (trace {int(trace)}): {result['attempted']} operations, {result['failed']} failed")
    for note in result["failures"]:
        print(f"   check failed: {note}")
    if not trace:
        for key, unit in NAMED:
            value = named.get(key)
            text = "n/a (not exercised by this workload)" if value is None else f"{value:.6g} {unit}"
            print(f"   {key:<20} {text}")
        print(f"   work_per_s counts {WORK_UNIT[name]}; call_p50_us is per {CALL[name]}")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in listed:
        if entry["name"] not in named:
            raise BenchError(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": named[entry["name"]], "unit": entry["unit"]}
        if trace:
            print(f"   {entry['name']:<40} {named[entry['name']]:.6g} {entry['unit']}")
        elif entry["name"] in ("work_per_s", "call_p50_us"):
            print(f"   {entry['name']:<20} {named[entry['name']]:.6g} {entry['unit']}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 keeps the shipped study seeds")
    parser.add_argument("--seconds", type=float, help="measured time per run (default: BENCHMARK.json)")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: per-layer metrics from traced passes of every workload, whatever --workload names",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help="self-test: break one output (a phi sign in exact_batch, a curves root in figures)",
    )
    args = parser.parse_args()
    if args.corrupt and (args.trace or args.workload not in CORRUPTIBLE):
        parser.error(f"--corrupt needs --trace 0 and --workload in {CORRUPTIBLE}")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for needed in ("src/lpm_shapley/__init__.py", "configs/paper/MANIFEST.md"):
            if not (ROOT / needed).is_file():
                raise BenchError(f"{needed} is missing: run from a source checkout")
        seconds = float(args.seconds if args.seconds is not None else spec["run_seconds"])
        spawn = Spawner()
        if args.trace:
            if args.workload != "all":
                print(f"--trace 1 traces every workload and the m-ladder, not only {args.workload}")
            traced = run_traced(spawn, args.seed)
            results = {"traced": traced}
            metrics = report(spec, "every workload and the m-ladder", traced, True)
        else:
            names = WORKLOADS if args.workload == "all" else (args.workload,)
            results, metrics = {}, {}
            for name in names:
                result = run_workload(spawn, name, args.seed, seconds, args.corrupt)
                results[name] = result
                prefix = "" if len(names) == 1 else f"{name}."
                for key, value in report(spec, name, result, False).items():
                    metrics[prefix + key] = value
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    record = {
        "machine": machine(),
        "args": {"workload": args.workload, "seed": args.seed, "seconds": seconds, "trace": args.trace},
        "results": results,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"traced-seed{args.seed}" if args.trace else f"{args.workload}-seed{args.seed}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
