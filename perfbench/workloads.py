"""The four benchmark workloads: inputs, one pass of fixed work, output checks.

Each workload is built once per process from the workload seed (``setup``),
then runs passes of identical work (``run_pass``). ``check`` verifies every
pass's outputs outside the timed region and returns (attempted, failed,
messages), one operation being one CLI command or one library call.
``summarize`` turns the passes into named end-to-end figures and
``layer_metrics`` turns a traced pass into per-layer figures.

Why these four: they are the paper's three computations, whose costs differ
by orders of magnitude, plus the per-call side of exact enumeration. See
README.md in this directory for the reasons and the layer -> end-to-end map.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import re
import statistics
import time
from pathlib import Path

import numpy as np

from lpm_shapley import (
    GaussianLPM,
    Line,
    Link,
    OutcomeKind,
    OutcomeSpec,
    StudyConfig,
    cli,
    engine,
    eta_importance_closed_form,
    normalize,
    shapley_exact,
    shapley_exact_batch,
    shapley_two_feature,
    std_normal_cdf,
    two_feature_phis,
    verify_equal_importance,
)

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "configs" / "paper" / "MANIFEST.md"
KINDS = (OutcomeKind.LOG_ODDS, OutcomeKind.PROBABILITY, OutcomeKind.DECISION)

# Workload seed n moves every study seed by n * SEED_STRIDE; n = 0 keeps the
# shipped seeds, so the default run reproduces the MANIFEST outputs.
SEED_STRIDE = 1_000_000

# Reference disagreement cells of the acceptance gate (tests/test_acceptance.py):
# "plain" within +/-0.5 points, "shaded" at most 0.4, "blank" must stay blank.
PAIRS = ("log_odds_vs_probability", "probability_vs_decision", "log_odds_vs_decision")
SIGN_REFERENCE = {
    "disagree_e0_s002_001": (("shaded", 0.00), ("plain", 21.63), ("plain", 21.63)),
    "disagree_e0_s2_1": (("plain", 6.45), ("plain", 17.51), ("plain", 21.63)),
    "disagree_e0_s200_100": (("plain", 21.34), ("shaded", 0.30), ("plain", 21.63)),
    "disagree_e1_s002_001": (("shaded", 0.23), ("blank", None), ("blank", None)),
    "disagree_e1_s2_1": (("plain", 10.71), ("plain", 16.81), ("plain", 23.94)),
    "disagree_e1_s200_100": (("plain", 21.33), ("shaded", 0.30), ("plain", 21.63)),
}
TOP_REFERENCE = {
    "disagree_e0_s002_001": (("plain", 0.00), ("plain", 6.94), ("plain", 6.95)),
    "disagree_e0_s2_1": (("plain", 3.53), ("plain", 3.42), ("plain", 6.95)),
    "disagree_e0_s200_100": (("plain", 6.95), ("plain", 0.00), ("plain", 6.95)),
    "disagree_e1_s002_001": (("plain", 0.11), ("blank", None), ("blank", None)),
    "disagree_e1_s2_1": (("plain", 5.53), ("plain", 5.24), ("plain", 10.77)),
    "disagree_e1_s200_100": (("plain", 6.94), ("plain", 0.00), ("plain", 6.94)),
}


def run_cli(argv: list) -> tuple:
    """cli.main in-process with stdout captured: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - start


def csv_rows(text: str) -> list:
    """Rows of a CLI CSV output, without the metadata footer."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def random_model(rng: np.random.Generator, m: int) -> GaussianLPM:
    """A seeded model whose cost does not depend on the seed.

    The attributions, and the ndtr arguments whose range sets the cost, depend
    only on the centred intercept and the scaled deviations |beta_i| sigma_i;
    those are fixed (0.5, and 0.5 to 2), while coefficients and means are drawn.
    """
    beta = rng.choice((-1.0, 1.0), m) * rng.uniform(0.5, 1.5, m)
    mu = rng.normal(0.0, 1.0, m)
    sigma = np.linspace(0.5, 2.0, m) / np.abs(beta)
    return GaussianLPM(0.5 - float(beta @ mu), tuple(beta), tuple(mu), tuple(sigma))


def random_sample(rng: np.random.Generator, model: GaussianLPM, n=None) -> np.ndarray:
    size = None if n is None else (n, model.m)
    return rng.normal(model.mean_array(), model.stddev_array(), size=size)


def _median_ms(spans) -> float:
    return statistics.median((s[5] - s[4]) / 1e6 for s in spans)


def _cell_ok(kind: str, expected, got: str) -> bool:
    if kind == "blank":
        return got == ""
    if got == "":
        return False
    value = float(got)
    return value <= 0.4 if kind == "shaded" else abs(value - expected) <= 0.5


class Population:
    """The 18 shipped studies through cli.main, each at --threads 1 and 2."""


    def __init__(self, seed: int) -> None:
        text = MANIFEST.read_text(encoding="utf-8")
        found = re.findall(r"`lpm-shapley (disagree-study|importance-study) --config (\S+?)`", text)
        if len(found) != 18:
            raise RuntimeError(f"MANIFEST lists {len(found)} studies, expected 18")
        self.studies = []
        for cmd, rel in found:
            config = StudyConfig.from_json((ROOT / rel).read_text(encoding="utf-8"))
            study_seed = config.rng.seed + SEED_STRIDE * seed
            self.studies.append((Path(rel).stem, cmd, str(ROOT / rel), study_seed, config))

    def run_pass(self) -> dict:
        calls = []
        start = time.perf_counter()
        for stem, cmd, path, study_seed, config in self.studies:
            for threads in (1, 2):
                argv = [cmd, "--config", path, "--seed", str(study_seed), "--threads", str(threads)]
                code, out, dt = run_cli(argv)
                calls.append({
                    "stem": stem, "cmd": cmd, "threads": threads, "samples": config.n_samples,
                    "s": dt, "code": code, "out": out,
                })
        return {"wall_s": time.perf_counter() - start, "calls": calls}

    def check(self, run: dict) -> tuple:
        failed, notes = 0, []
        by_stem = {}
        for call in run["calls"]:
            by_stem.setdefault(call["stem"], {})[call["threads"]] = call
        configs = {stem: config for stem, _, _, _, config in self.studies}
        for stem, pair in by_stem.items():
            one, two = pair[1], pair[2]
            ok1 = one["code"] == 0 and self._content_ok(stem, one["out"], configs[stem])
            ok2 = two["code"] == 0 and two["out"] == one["out"]
            for ok, call in ((ok1, one), (ok2, two)):
                if not ok:
                    failed += 1
                    notes.append(f"{stem} --threads {call['threads']}: output check failed")
        return len(run["calls"]), failed, notes

    @staticmethod
    def _content_ok(stem: str, out: str, config: StudyConfig) -> bool:
        rows = csv_rows(out)
        if stem.startswith("disagree_"):
            by_pair = {row["pair"]: row for row in rows}
            return all(
                _cell_ok(kind, expected, by_pair[pair][column])
                for column, reference in (("sign_pct", SIGN_REFERENCE), ("top_pct", TOP_REFERENCE))
                for pair, (kind, expected) in zip(PAIRS, reference[stem])
            )
        # criterion 11: sampled log-odds importance vs the folded-normal form
        row = next(r for r in rows if r["outcome"] == "log_odds")
        exact = eta_importance_closed_form(config)
        return all(abs(float(row[k]) - e) / e <= 0.005 for k, e in zip(("I1", "I2"), exact))

    @staticmethod
    def summarize(passes: list) -> dict:
        def rate(run, threads):
            calls = [c for c in run["calls"] if c["threads"] == threads]
            return sum(c["samples"] for c in calls) / sum(c["s"] for c in calls)

        per_s = statistics.median(rate(p, 1) for p in passes)
        return {
            "work_per_s": per_s,
            "samples_per_s": per_s,
            "samples_per_s_2t": statistics.median(rate(p, 2) for p in passes),
            "call_p50_us": 1e6 * statistics.median(
                c["s"] for p in passes for c in p["calls"] if c["threads"] == 2
            ),
        }

    def layer_metrics(self, tracer, run: dict) -> dict:
        one = tracer.select("simulation.run_disagreement_study", threads=1)
        one_imp = tracer.select("simulation.run_importance_study", threads=1)
        two = tracer.select("simulation.run_disagreement_study", threads=2)
        two += tracer.select("simulation.run_importance_study", threads=2)
        draws = tracer.select("oracle.standard_normal", size=2 * 65536)
        kernels = [s for s in tracer.select("engine.two_feature_phis") if s[6].get("rows") == 65536]
        own = tracer.self_times()
        studies = one + one_imp + two
        study_ns = sum(s[5] - s[4] for s in studies)
        # On pool threads draw and kernel spans overlap; shares use the
        # 1-thread studies, where the spans tile the study interval.
        serial = {s[0] for s in one + one_imp}
        serial_ns = sum(s[5] - s[4] for s in one + one_imp)
        draw_ns = sum(s[5] - s[4] for s in draws if s[1] in serial)
        kernel_ns = sum(s[5] - s[4] for s in kernels if s[1] in serial)
        tally_ns = sum(own[s[0]] for s in one + one_imp)
        wall_ns = run["wall_s"] * 1e9
        out = {
            "oracle.draw_ms": _median_ms(draws),
            "simulation.study_ms.disagree": _median_ms(one),
            "simulation.study_ms.importance": _median_ms(one_imp),
            "simulation.tally_reduce_ms": statistics.median(own[s[0]] / 1e6 for s in one + one_imp),
            "simulation.speedup_2t": serial_ns / sum(s[5] - s[4] for s in two),
            "simulation.study_share_of_wall": study_ns / wall_ns,
            "simulation.draw_share_1t": draw_ns / serial_ns,
            "simulation.kernel_share_1t": kernel_ns / serial_ns,
            "simulation.tally_share_1t": tally_ns / serial_ns,
            "cli.main_ms.disagree_study": _median_ms(tracer.select("cli.main", cmd="disagree-study", threads=1)),
            "cli.output_bytes.disagree_study": statistics.median(
                len(c["out"].encode()) for c in run["calls"] if c["cmd"] == "disagree-study"
            ),
        }
        for kind in KINDS:
            out[f"engine.two_feature_ms.{kind.value}"] = _median_ms(
                [s for s in kernels if s[6].get("kind") == kind.value]
            )
        return out


class ExactWide:
    """shapley_exact on one seeded model and sample per m in {20, 22, 24}."""

    sizes = (20, 22, 24)

    def __init__(self, seed: int) -> None:
        self.cases = []
        for m in self.sizes:
            rng = np.random.default_rng([seed, m])
            model = random_model(rng, m)
            self.cases.append((m, model, tuple(random_sample(rng, model))))

    def run_pass(self) -> dict:
        calls = []
        start = time.perf_counter()
        for m, model, x in self.cases:
            for kind in KINDS:
                t0 = time.perf_counter()
                expl = shapley_exact(model, OutcomeSpec(kind, Link.LOGIT), x)
                calls.append({"m": m, "kind": kind, "s": time.perf_counter() - t0, "expl": expl})
        return {"wall_s": time.perf_counter() - start, "calls": calls}

    def check(self, run: dict) -> tuple:
        failed, notes = 0, []
        models = {m: (model, np.asarray(x)) for m, model, x in self.cases}
        for call in run["calls"]:
            model, x = models[call["m"]]
            expl = call["expl"]
            ok = abs(expl.residual()) <= 1e-10
            if call["kind"] is OutcomeKind.LOG_ODDS:
                delta = model.coef_array() * (x - model.mean_array())
                # The table sums up to |phi0| + sum|delta| per entry; its
                # rounding grows with that magnitude, so the 1e-12 is relative.
                scale = max(1.0, abs(expl.baseline) + float(np.abs(delta).sum()))
                ok = ok and float(np.max(np.abs(np.asarray(expl.phis) - delta))) <= 1e-12 * scale
            if not ok:
                failed += 1
                notes.append(f"m={call['m']} {call['kind'].value}: output check failed")
        return len(run["calls"]), failed, notes

    def summarize(self, passes: list) -> dict:
        per_s = statistics.median(
            sum(2 ** c["m"] for c in p["calls"]) / sum(c["s"] for c in p["calls"]) for p in passes
        )
        return {
            "work_per_s": per_s,
            "subset_evals_per_s": per_s,
            "call_p50_us": 1e6 * statistics.median(
                c["s"] for p in passes for c in p["calls"] if c["m"] == 24
            ),
        }

    def layer_metrics(self, tracer, run: dict) -> dict:
        return {}


class ExactBatch:
    """shapley_exact_batch on 2^14 rows at m=10, then single-sample calls at m=2, 4, 8."""

    batch_rows = 1 << 14
    explain_sizes = (2, 4, 8)
    explain_calls = 500  # per size and pass: one pass alone leaves 15 calls beyond p99

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 10])
        self.model = random_model(rng, 10)
        self.xs = random_sample(rng, self.model, self.batch_rows)
        self.check_rows = np.concatenate([[0], rng.choice(self.batch_rows, 31, replace=False)])
        self.small = []
        for m in self.explain_sizes:
            rng = np.random.default_rng([seed, m])
            model = random_model(rng, m)
            self.small.append((m, model, [tuple(x) for x in random_sample(rng, model, 16)]))
        self.spec = OutcomeSpec(OutcomeKind.PROBABILITY, Link.LOGIT)
        self.corrupt = False

    def run_pass(self) -> dict:
        batches, calls = [], []
        start = time.perf_counter()
        for kind in KINDS:
            t0 = time.perf_counter()
            out = shapley_exact_batch(self.model, OutcomeSpec(kind, Link.LOGIT), self.xs)
            batches.append({"kind": kind, "s": time.perf_counter() - t0, "out": out})
        for m, model, samples in self.small:
            for i in range(self.explain_calls):
                x = samples[i % len(samples)]
                t0 = time.perf_counter()
                expl = shapley_exact(model, self.spec, x)
                calls.append({"m": m, "s": time.perf_counter() - t0, "i": i % len(samples), "expl": expl})
        if self.corrupt:
            batches[1]["out"][0, 1] = -batches[1]["out"][0, 1]  # one flipped phi sign
        return {"wall_s": time.perf_counter() - start, "batches": batches, "calls": calls}

    def check(self, run: dict) -> tuple:
        failed, notes = 0, []
        beta = self.model.coef_array()
        etas = self.model.intercept + self.xs @ beta
        for batch in run["batches"]:
            spec = OutcomeSpec(batch["kind"], Link.LOGIT)
            out = batch["out"]
            if spec.kind is OutcomeKind.LOG_ODDS:
                preds = etas
            elif spec.kind is OutcomeKind.PROBABILITY:
                preds = std_normal_cdf(etas / math.sqrt(spec.lam))
            else:
                preds = (etas >= spec.eta_star).astype(float)
            ok = float(np.max(np.abs(out.sum(axis=1) - preds))) <= 1e-10
            for row in self.check_rows:
                single = shapley_exact(self.model, spec, self.xs[row])
                want = np.array((single.baseline,) + single.phis)
                ok = ok and float(np.max(np.abs(out[row] - want))) <= 1e-12
            if not ok:
                failed += 1
                notes.append(f"batch {spec.kind.value}: output check failed")
        references = {}
        for m, model, samples in self.small:
            if m == 2:
                for i, x in enumerate(samples):
                    normed, x_tilde = normalize(model, x)
                    references[i] = shapley_two_feature(normed, self.spec, x_tilde)
        for call in run["calls"]:
            expl = call["expl"]
            ok = abs(expl.residual()) <= 1e-10
            if call["m"] == 2:
                ref = references[call["i"]]
                ok = ok and max(abs(a - b) for a, b in zip(expl.phis, ref.phis)) <= 1e-12
            if not ok:
                failed += 1
                notes.append(f"explain m={call['m']}: output check failed")
        return len(run["batches"]) + len(run["calls"]), failed, notes

    def summarize(self, passes: list) -> dict:
        per_s = statistics.median(
            len(p["batches"]) * self.batch_rows / sum(b["s"] for b in p["batches"]) for p in passes
        )
        lat = [1e6 * c["s"] for p in passes for c in p["calls"]]
        return {
            "work_per_s": per_s,
            "rows_per_s": per_s,
            "call_p50_us": statistics.median(lat),
            "explain_p50_us": statistics.median(lat),
            "explain_p99_us": float(np.percentile(lat, 99)),
            "explain_calls": len(lat),
        }

    def layer_metrics(self, tracer, run: dict) -> dict:
        out = {"model.predict_us": 1e3 * _median_ms(tracer.select("model.predict", m=4))}
        for kind in KINDS:
            spans = tracer.select("engine.shapley_exact_batch", kind=kind.value)
            out[f"engine.batch_rows_per_s.{kind.value}"] = (
                self.batch_rows * len(spans) / (sum(s[5] - s[4] for s in spans) / 1e9)
            )
        for m in self.explain_sizes:
            spans = [s for s in tracer.select("engine.shapley_exact", m=m) if s[1] == 0]
            out[f"engine.explain_us.m{m}"] = 1e3 * _median_ms(spans)
        return out


class Figures:
    """The MANIFEST figure commands and the README oracle check through cli.main."""

    curve_steps = 241
    grid_steps = 121

    def __init__(self, seed: int) -> None:
        text = MANIFEST.read_text(encoding="utf-8")
        stems = re.findall(r"^\| `(model_\w+)\.json` \|", text, flags=re.M)
        sweep = re.search(r"lpm-shapley baseline-sweep --config (\S+)", text)
        if len(stems) != 6 or sweep is None:
            raise RuntimeError("MANIFEST does not list the six figure models and the sweep")
        self.models = {}
        self.commands = []
        for stem in stems:
            path = ROOT / "configs" / "paper" / f"{stem}.json"
            model = GaussianLPM.from_json(path.read_text(encoding="utf-8"))
            # +/- three times the larger scaled deviation, as in the MANIFEST examples
            r = repr(3.0 * max(model.stddevs))
            self.models[stem] = model
            self.commands += [
                (stem, ["curves", "--model", str(path), f"--x2-min=-{r}", f"--x2-max={r}",
                        "--steps", str(self.curve_steps)]),
                (stem, ["grid", "--model", str(path), f"--x1-min=-{r}", f"--x1-max={r}",
                        f"--x2-min=-{r}", f"--x2-max={r}", "--steps", str(self.grid_steps)]),
                (stem, ["baseline", "--model", str(path)]),
            ]
        self.commands.append((None, ["baseline-sweep", "--config", str(ROOT / sweep.group(1))]))
        oracle_model = ROOT / "configs" / "paper" / "model_b0_1_s2_1.json"
        self.commands.append(
            (None, ["oracle-check", "--model", str(oracle_model), "--x", "0.4,-0.3", "--seed", "3"])
        )
        self.corrupt = False

    def run_pass(self) -> dict:
        calls = []
        start = time.perf_counter()
        for stem, argv in self.commands:
            code, out, dt = run_cli(argv)
            calls.append({"stem": stem, "cmd": argv[0], "s": dt, "code": code, "out": out})
        if self.corrupt:  # move the first zero-curve root by 0.5
            call = next(c for c in calls if c["cmd"] == "curves")
            header, first, rest = call["out"].split("\n", 2)
            x2, root, outcome, kind = first.split(",")
            call["out"] = "\n".join((header, f"{x2},{float(root) + 0.5!r},{outcome},{kind}", rest))
        return {"wall_s": time.perf_counter() - start, "calls": calls}

    def check(self, run: dict) -> tuple:
        failed, notes = 0, []
        for call in run["calls"]:
            # header, at least one row, footer
            ok = call["code"] == 0 and call["out"].count("\n") >= 3
            if ok and call["cmd"] == "curves":
                ok = self._curves_ok(self.models[call["stem"]], call["out"])
            elif ok and call["cmd"] == "grid":
                ok = self._grid_ok(self.models[call["stem"]], call["out"])
            if not ok:
                failed += 1
                notes.append(f"{call['cmd']} {call['stem'] or ''}: output check failed")
        return len(run["calls"]), failed, notes

    @staticmethod
    def _curves_ok(model: GaussianLPM, out: str) -> bool:
        """Check the rows that `curves` printed, for every outcome.

        zero_curve: phi1 changes sign across each root, and keeps one sign
        over zero_level_curve's whole bracket where no root is given.
        *_line: the rows lie on one line, and verify_equal_importance on
        that line is at most 1e-8.
        """
        s1, s2 = model.stddevs
        cap = 10.0 * max(s1, s2) + 10.0
        series = {}
        for row in csv_rows(out):
            series.setdefault((row["outcome"], row["kind"]), []).append(row)
        for kind in KINDS:
            spec = OutcomeSpec(kind, Link.LOGIT)

            def phi1(x1, x2):
                return two_feature_phis(model.intercept, s1, s2, x1, x2, spec)[1]

            zero = series.get((kind.value, "zero_curve"), [])
            if len(zero) != Figures.curve_steps:
                return False
            x2 = np.array([float(r["x2"]) for r in zero])
            found = np.array([r["root_x1"] != "" for r in zero])
            roots = np.array([float(r["root_x1"]) for r in zero if r["root_x1"] != ""])
            d = 1e-9 * np.maximum(1.0, np.abs(roots))  # bisection stops at 1e-10
            if not np.all(phi1(roots - d, x2[found]) * phi1(roots + d, x2[found]) <= 0.0):
                return False
            rest = x2[~found]
            if not np.all(phi1(np.full_like(rest, -cap), rest) * phi1(np.full_like(rest, cap), rest) > 0.0):
                return False
            for line_kind in ("same_sign", "opposite_sign"):
                rows = series.get((kind.value, f"{line_kind}_line"), [])
                if [float(r["x2"]) for r in rows] != list(x2):
                    return False
                x1 = np.array([float(r["root_x1"]) for r in rows])
                slope = (x2[-1] - x2[0]) / (x1[-1] - x1[0])
                line = Line(line_kind, slope, x2[0] - slope * x1[0])
                off = np.abs(x1 - (x2 - line.intercept) / slope)
                if not np.all(off <= 1e-9 * np.maximum(1.0, np.abs(x1))):
                    return False
                if not verify_equal_importance(model, spec, line) <= 1e-8:
                    return False
        return True

    @staticmethod
    def _grid_ok(model: GaussianLPM, out: str) -> bool:
        columns = {kind.value: ([], [], []) for kind in KINDS}
        reader = csv.reader(ln for ln in out.splitlines() if not ln.startswith("#"))
        if next(reader) != ["x1", "x2", "outcome", "phi1"]:
            return False
        for x1, x2, outcome, phi1 in reader:
            for column, text in zip(columns[outcome], (x1, x2, phi1)):
                column.append(float(text))
        s1, s2 = model.stddevs
        for kind in KINDS:
            x1, x2, phi1 = (np.array(c) for c in columns[kind.value])
            _, want, _ = two_feature_phis(model.intercept, s1, s2, x1, x2, OutcomeSpec(kind, Link.LOGIT))
            if phi1.size != Figures.grid_steps ** 2 or not np.array_equal(phi1, want):
                return False
        return True

    def summarize(self, passes: list) -> dict:
        def points_per_s(run):
            calls = [c for c in run["calls"] if c["cmd"] in ("grid", "curves")]
            per_model = 3 * (self.grid_steps ** 2 + self.curve_steps)
            return per_model * len(calls) / 2 / sum(c["s"] for c in calls)

        per_s = statistics.median(points_per_s(p) for p in passes)
        return {
            "work_per_s": per_s,
            "points_per_s": per_s,
            "call_p50_us": 1e6 * statistics.median(
                c["s"] for p in passes for c in p["calls"] if c["cmd"] == "grid"
            ),
        }

    def layer_metrics(self, tracer, run: dict) -> dict:
        # scalar calls made by the CLI commands, not by the output checks
        parent = tracer.parent_names()
        scalar = [
            s for s in tracer.select("engine.two_feature_phis")
            if "rows" not in s[6] and parent[s[0]] in ("cli.main", "disagreement.zero_level_curve")
        ]
        mc = tracer.select("oracle.mc_shapley")
        roots = found = 0
        for call in run["calls"]:
            if call["cmd"] == "curves":
                zero = [r for r in csv_rows(call["out"]) if r["kind"] == "zero_curve"]
                roots += len(zero)
                found += sum(r["root_x1"] != "" for r in zero)
        out = {
            "model.from_json_us": 1e3 * _median_ms(tracer.select("model.GaussianLPM.from_json")),
            "oracle.mc_shapley_ms": _median_ms(mc),
            "oracle.value_evals": len(tracer.select("oracle.mc_value_function")) / len(mc),
            "disagreement.verify_lines_ms": _median_ms(tracer.select("disagreement.verify_equal_importance")),
            "disagreement.roots_found_ratio": found / roots,
            "cli.emit_share.grid": self._emit_share(tracer),
        }
        for kind in ("probability", "decision"):
            out[f"engine.two_feature_scalar_us.{kind}"] = 1e3 * _median_ms(
                [s for s in scalar if s[6].get("kind") == kind]
            )
        for kind in KINDS:
            out[f"disagreement.curve_ms.{kind.value}"] = _median_ms(
                tracer.select("disagreement.zero_level_curve", kind=kind.value)
            )
        for cmd in ("grid", "curves", "baseline", "baseline-sweep", "oracle-check"):
            key = cmd.replace("-", "_")
            out[f"cli.main_ms.{key}"] = _median_ms(tracer.select("cli.main", cmd=cmd))
            out[f"cli.output_bytes.{key}"] = statistics.median(
                len(c["out"].encode()) for c in run["calls"] if c["cmd"] == cmd
            )
        return out

    def _emit_share(self, tracer) -> float:
        """Derived: 1 - (the grid's library calls alone) / (the grid command), untraced."""
        tracer.uninstall()
        stem, argv = next((s, a) for s, a in self.commands if a[0] == "grid")
        model = self.models[stem]
        s1, s2 = model.stddevs
        r = 3.0 * max(model.stddevs)
        step = 2.0 * r / (self.grid_steps - 1)
        axis = [-r + k * step for k in range(self.grid_steps)]
        shares = []
        for _ in range(3):
            _, _, main_s = run_cli(argv)
            start = time.perf_counter()
            for kind in KINDS:
                spec = OutcomeSpec(kind, Link.LOGIT)
                for x1 in axis:
                    for x2 in axis:
                        engine.two_feature_phis(model.intercept, s1, s2, x1, x2, spec)
            shares.append(1.0 - (time.perf_counter() - start) / main_s)
        return statistics.median(shares)


WORKLOADS = {
    "population": Population,
    "exact_wide": ExactWide,
    "exact_batch": ExactBatch,
    "figures": Figures,
}
