"""One benchmark process: set up one workload, run it, check it, report JSON.

``run.py`` starts this script in a fresh interpreter for every measurement,
so import, set-up and peak RSS belong to one workload alone. The last line
of stdout is one JSON object; everything the library prints is captured.

Modes:
  setup   stop once the inputs are ready and report set-up time
  run     run passes until their summed time reaches --seconds (or --passes)
  ladder  one probability-outcome shapley_exact call at m = --m
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _drop_outputs(run: dict) -> None:
    for record in run.get("calls", []) + run.get("batches", []):
        record.pop("out", None)
        record.pop("expl", None)


def _ladder(m: int, seed: int) -> dict:
    import numpy as np
    from lpm_shapley import Link, OutcomeKind, OutcomeSpec, shapley_exact
    from workloads import random_model, random_sample

    rng = np.random.default_rng([seed, m])
    model = random_model(rng, m)
    x = tuple(random_sample(rng, model))
    start = time.perf_counter()
    expl = shapley_exact(model, OutcomeSpec(OutcomeKind.PROBABILITY, Link.LOGIT), x)
    elapsed = time.perf_counter() - start
    return {
        "exact_s": elapsed,
        "exact_rss_mb": _peak_rss_mb(),
        "table_mb_computed": (1 << m) * 8 / 2**20,  # n * 2^m doubles, n = 1
        "ok": abs(expl.residual()) <= 1e-10,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "ladder"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--passes", type=int, help="run exactly this many passes")
    parser.add_argument("--t0", type=float, help="time.monotonic() just before the spawn")
    parser.add_argument("--trace", action="store_true", help="record spans and per-layer metrics")
    parser.add_argument("--spans", help="write the recorded spans to this gzipped JSON file")
    parser.add_argument("--corrupt", action="store_true", help="break one output (self-test)")
    parser.add_argument("--m", type=int, help="feature count for --mode ladder")
    args = parser.parse_args()

    start = time.perf_counter()
    import lpm_shapley  # noqa: F401
    import lpm_shapley.cli  # noqa: F401

    import_s = time.perf_counter() - start
    if args.mode == "ladder":
        print(json.dumps({"import_s": import_s, **_ladder(args.m, args.seed)}))
        return 0

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(extra_modules=(workloads,))
    if args.corrupt:
        workload.corrupt = True
    passes, attempted, failed, notes = [], 0, 0, []
    while True:
        run = workload.run_pass()
        a, f, n = workload.check(run)
        attempted, failed, notes = attempted + a, failed + f, notes + n
        if tracer is None:
            _drop_outputs(run)  # keep peak RSS independent of the pass count
        passes.append(run)
        if args.passes is not None:
            if len(passes) >= args.passes:
                break
        elif sum(p["wall_s"] for p in passes) >= args.seconds:
            break
    metrics = {"wall_s": statistics.median(p["wall_s"] for p in passes)}
    metrics.update(workload.summarize(passes))
    result = {
        "import_s": import_s,
        "setup_s": setup_s,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "attempted": attempted,
        "failed": failed,
        "failures": notes[:10],
        "metrics": metrics,
    }
    if tracer is not None:
        result["layer"] = workload.layer_metrics(tracer, passes[0])
        if args.spans:
            tracer.write(args.spans)
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
