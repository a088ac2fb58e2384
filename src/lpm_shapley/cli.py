"""Command-line interface.

Subcommands
-----------
explain            Shapley explanation of one sample under one or more outcomes.
baseline           The three baselines of a normalized two-feature model.
curves             Zero-attribution curves and equal-importance lines (CSV/JSON).
grid               Feature-1 attribution over an (x1, x2) lattice for heat maps.
disagree-study     Monte Carlo sign / top-feature disagreement percentages.
importance-study   Monte Carlo global importance sums and feature ratios.
baseline-sweep     Baselines of all outcomes across a grid of total variance.
oracle-check       Closed-form attributions vs. a sampling oracle, pass/fail.

Exit codes: 0 success, 1 verification failure (oracle-check mismatch),
2 input error (bad flags, unparseable files, dimension mismatches),
3 I/O error (unwritable output path).

CSV output ends with a metadata footer line ``# seed=…, # samples=…`` (the
literal word ``none`` for deterministic commands); JSON output carries the
same fields in a ``meta`` object instead, so the document stays parseable.
Seeded commands are bit-reproducible: the same seed gives byte-identical
output for any ``--threads`` value. When no seed is supplied (by flag or
config file) a fresh one is drawn and echoed on stderr as ``seed=…``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import os
import sys

import numpy as np

from .model import (
    GaussianLPM,
    Link,
    LpmShapleyError,
    OutcomeKind,
    OutcomeSpec,
    _field,
    _parse_json_object,
    normalize,
)
from .engine import shapley_exact, two_feature_phis
from .disagreement import baseline_report, equal_importance_lines, zero_level_curve
from .oracle import RngSpec, mc_shapley
from .simulation import (
    StudyConfig,
    baseline_sweep,
    run_disagreement_study,
    run_importance_study,
)

__all__ = ["main"]

_OUTCOME_CHOICES = ("log_odds", "probability", "decision")
_ORACLE_CHECK_MAX_FEATURES = 10


# ---------------------------------------------------------------------------
# formatting and emission


def _fmt(value) -> str:
    """One canonical text form per value, so outputs are byte-stable."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _footer(meta: dict) -> str:
    seed = meta.get("seed")
    samples = meta.get("samples")
    seed_txt = "none" if seed is None else str(seed)
    samples_txt = "none" if samples is None else str(samples)
    return f"# seed={seed_txt}, # samples={samples_txt}"


def _render_csv(fieldnames, rows, meta: dict) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fieldnames), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row.get(k)) for k in fieldnames})
    buf.write(_footer(meta) + "\n")
    return buf.getvalue()


def _render_json(payload: dict, meta: dict) -> str:
    doc = dict(payload)
    doc["meta"] = {"seed": meta.get("seed"), "samples": meta.get("samples")}
    return json.dumps(doc, indent=2) + "\n"


def _emit(args, fieldnames, rows, json_payload: dict, meta: dict) -> None:
    if args.format == "json":
        text = _render_json(json_payload, meta)
    else:
        text = _render_csv(fieldnames, rows, meta)
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# input plumbing


class InputError(Exception):
    """Bad user input (unreadable/invalid files, malformed values)."""


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input file {path!r}: {exc}") from exc


def _load_model(path: str) -> GaussianLPM:
    return GaussianLPM.from_json(_read_text(path))


def _parse_x(text: str):
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(float(p) for p in parts if p != "")
    except ValueError as exc:
        raise InputError(f"--x must be comma-separated numbers, got {text!r}") from exc


def _outcomes_from_args(args) -> list:
    names = args.outcome if args.outcome else list(_OUTCOME_CHOICES)
    link = Link(args.link)
    specs = []
    for name in names:
        specs.append(OutcomeSpec(OutcomeKind(name), link, eta_star=args.eta_star))
    return specs


def _fresh_seed() -> int:
    return int.from_bytes(os.urandom(8), "big") % (2**63)


def _echo_seed(seed: int) -> None:
    print(f"seed={seed}", file=sys.stderr)


def _default_threads() -> int:
    env = os.environ.get("LPM_SHAPLEY_THREADS")
    if env is None:
        return 1
    try:
        n = int(env)
    except ValueError as exc:
        raise InputError(
            f"LPM_SHAPLEY_THREADS must be an integer, got {env!r}"
        ) from exc
    if n < 1:
        raise InputError("LPM_SHAPLEY_THREADS must be at least 1")
    return n


def _normalized_pair(model: GaussianLPM) -> GaussianLPM:
    if model.m != 2:
        raise InputError("this subcommand needs a 2-feature model")
    normed, _ = normalize(model, model.means)
    return normed


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_explain(args) -> int:
    model = _load_model(args.model)
    x = _parse_x(args.x)
    outcomes = _outcomes_from_args(args)
    explanations = [shapley_exact(model, spec, x) for spec in outcomes]
    fieldnames = (
        ["outcome", "baseline"]
        + [f"phi_{i + 1}" for i in range(model.m)]
        + ["prediction", "residual"]
    )
    rows = []
    for expl in explanations:
        row = {
            "outcome": expl.outcome.kind.value,
            "baseline": expl.baseline,
            "prediction": expl.prediction,
            "residual": expl.residual(),
        }
        for i, phi in enumerate(expl.phis):
            row[f"phi_{i + 1}"] = phi
        rows.append(row)
    payload = {
        "x": list(x),
        "explanations": [expl.to_dict() for expl in explanations],
        "residuals": [expl.residual() for expl in explanations],
    }
    _emit(args, fieldnames, rows, payload, {"seed": None, "samples": None})
    return 0


def _cmd_baseline(args) -> int:
    model = _normalized_pair(_load_model(args.model))
    report = baseline_report(model, Link(args.link), eta_star=args.eta_star)
    data = report.to_dict()
    rows = [{"quantity": key, "value": value} for key, value in data.items()]
    _emit(
        args,
        ["quantity", "value"],
        rows,
        {"baseline_report": data},
        {"seed": None, "samples": None},
    )
    return 0


def _grid_values(lo: float, hi: float, steps: int):
    if steps < 2:
        raise InputError("--steps must be at least 2")
    if not (lo < hi):
        raise InputError("grid range must satisfy min < max")
    step = (hi - lo) / (steps - 1)
    return [lo + k * step for k in range(steps)]


def _cmd_curves(args) -> int:
    model = _normalized_pair(_load_model(args.model))
    outcomes = _outcomes_from_args(args)
    feature = args.feature - 1
    if feature not in (0, 1):
        raise InputError("--feature must be 1 or 2")
    grid = _grid_values(args.x2_min, args.x2_max, args.steps)
    bracket = None
    if args.bracket_lo is not None or args.bracket_hi is not None:
        if args.bracket_lo is None or args.bracket_hi is None:
            raise InputError("--bracket-lo and --bracket-hi must be given together")
        bracket = (args.bracket_lo, args.bracket_hi)
    rows = []
    curve_payload = []
    for spec in outcomes:
        curve = zero_level_curve(model, spec, feature, grid, bracket=bracket, tol=args.tol)
        lines = equal_importance_lines(model, spec).lines
        for x2, root in zip(curve.grid, curve.roots):
            rows.append(
                {"x2": x2, "root_x1": root, "outcome": spec.kind.value, "kind": "zero_curve"}
            )
        for line in lines:
            for x2 in grid:
                rows.append(
                    {
                        "x2": x2,
                        "root_x1": (x2 - line.intercept) / line.slope,
                        "outcome": spec.kind.value,
                        "kind": f"{line.kind}_line",
                    }
                )
        curve_payload.append(
            {
                "outcome": spec.kind.value,
                "feature": args.feature,
                "grid": list(curve.grid),
                "roots": list(curve.roots),
                "lines": [
                    {"kind": ln.kind, "slope": ln.slope, "intercept": ln.intercept}
                    for ln in lines
                ],
            }
        )
    _emit(
        args,
        ["x2", "root_x1", "outcome", "kind"],
        rows,
        {"curves": curve_payload},
        {"seed": None, "samples": None},
    )
    return 0


def _cmd_grid(args) -> int:
    model = _normalized_pair(_load_model(args.model))
    outcomes = _outcomes_from_args(args)
    x1s = _grid_values(args.x1_min, args.x1_max, args.steps)
    x2s = _grid_values(args.x2_min, args.x2_max, args.steps)
    x1_col = np.repeat(x1s, len(x2s))
    x2_col = np.tile(x2s, len(x1s))
    s1, s2 = model.stddevs
    rows = []
    for spec in outcomes:
        _, p1, _ = two_feature_phis(model.intercept, s1, s2, x1_col, x2_col, spec)
        rows += [
            {"x1": x1, "x2": x2, "outcome": spec.kind.value, "phi1": phi1}
            for (x1, x2), phi1 in zip(itertools.product(x1s, x2s), p1.tolist())
        ]
    _emit(
        args,
        ["x1", "x2", "outcome", "phi1"],
        rows,
        {"grid": rows},
        {"seed": None, "samples": None},
    )
    return 0


def _read_config(args) -> dict:
    """The --config JSON object with the given override flags applied."""
    data = _parse_json_object(_read_text(args.config))
    overrides = {"link": "link", "eta_star": "eta_star", "samples": "n_samples", "seed": "seed"}
    for flag, key in overrides.items():
        if getattr(args, flag, None) is not None:
            data[key] = getattr(args, flag)
    return data


def _cmd_study(args) -> int:
    data = _read_config(args)
    if "seed" not in data:
        data["seed"] = _fresh_seed()
    config = StudyConfig.from_dict(data)
    seed = config.rng.seed
    _echo_seed(seed)
    table = args.run_study(config, n_threads=args.threads)
    rows = table.csv_rows()
    _emit(
        args,
        list(rows[0]),
        rows,
        table.to_dict(),
        {"seed": seed, "samples": config.n_samples},
    )
    return 0


def _cmd_baseline_sweep(args) -> int:
    read = functools.partial(_field, _read_config(args), source="sweep config")
    rows = baseline_sweep(
        read("expected_eta", float),
        read("variances", tuple),
        link=read("link", Link, "logit"),
        eta_star=read("eta_star", float, 0.0),
    )
    _emit(
        args,
        ["variance", "phi0_eta", "phi0_eta_transformed", "phi0_prob", "phi0_decision"],
        rows,
        {"sweep": rows},
        {"seed": None, "samples": None},
    )
    return 0


def _cmd_oracle_check(args) -> int:
    model = _load_model(args.model)
    if model.m > _ORACLE_CHECK_MAX_FEATURES:
        raise InputError(
            f"oracle-check enumerates permutation walks and is capped at "
            f"{_ORACLE_CHECK_MAX_FEATURES} features; model has {model.m}"
        )
    x = _parse_x(args.x)
    names = args.outcome if args.outcome else list(_OUTCOME_CHOICES)
    link = Link(args.link)
    seed = _fresh_seed() if args.seed is None else args.seed
    _echo_seed(seed)
    rows = []
    all_pass = True
    for name in names:
        spec = OutcomeSpec(OutcomeKind(name), link, eta_star=args.eta_star)
        # one stream per outcome, so estimates are independent draws
        rng = RngSpec(seed=seed, stream=_OUTCOME_CHOICES.index(name))
        exact = shapley_exact(model, spec, x)
        estimates = mc_shapley(model, spec, x, args.n, args.samples, rng)
        for i, est in enumerate(estimates):
            tol = max(4.0 * est.std_error, 1e-9)
            err = abs(exact.phis[i] - est.value)
            ok = err <= tol
            all_pass = all_pass and ok
            rows.append(
                {
                    "outcome": spec.kind.value,
                    "feature": i + 1,
                    "closed_form": exact.phis[i],
                    "oracle_value": est.value,
                    "oracle_se": est.std_error,
                    "abs_error": err,
                    "tolerance": tol,
                    "status": "pass" if ok else "fail",
                }
            )
    _emit(
        args,
        [
            "outcome",
            "feature",
            "closed_form",
            "oracle_value",
            "oracle_se",
            "abs_error",
            "tolerance",
            "status",
        ],
        rows,
        {"checks": rows},
        {"seed": seed, "samples": args.n},
    )
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# parser


def _add_common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p.add_argument("--out", help="write output to this file instead of stdout")


def _add_outcome_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--outcome",
        action="append",
        choices=_OUTCOME_CHOICES,
        help="outcome to explain; repeatable; default: all three",
    )
    p.add_argument("--link", choices=("logit", "probit"), default="logit", help="link function")
    p.add_argument("--eta-star", type=float, default=0.0, help="decision threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpm-shapley",
        description=(
            "Closed-form Shapley explanations for linear probability models "
            "with independent Gaussian features, under log-odds, probability, "
            "and binary-decision outcomes."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("explain", help="explain one sample")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--x", required=True, help="sample as comma-separated numbers")
    _add_outcome_flags(p)
    _add_common_output(p)
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("baseline", help="baselines of a 2-feature model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--link", choices=("logit", "probit"), default="logit")
    p.add_argument("--eta-star", type=float, default=0.0)
    _add_common_output(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser(
        "curves",
        help="zero-attribution curves and equal-importance lines",
        description=(
            "Writes, per outcome, the zero-attribution curve of the chosen "
            "feature over a grid of the other feature, plus the analytic "
            "equal-importance lines. Column x2 holds the grid (the other "
            "feature's coordinate) and root_x1 the explained feature's "
            "coordinate; with --feature 2 the roles of the two features swap "
            "while column names stay fixed. Coordinates are in normalized "
            "units (means 0, unit coefficients)."
        ),
    )
    p.add_argument("--model", required=True, help="model JSON file (2 features)")
    p.add_argument("--feature", type=int, default=1, help="feature to explain (1 or 2)")
    p.add_argument("--x2-min", type=float, default=-6.0, help="grid start for the other feature")
    p.add_argument("--x2-max", type=float, default=6.0, help="grid end for the other feature")
    p.add_argument("--steps", type=int, default=121, help="number of grid points")
    p.add_argument("--bracket-lo", type=float, help="initial root bracket, low end")
    p.add_argument("--bracket-hi", type=float, help="initial root bracket, high end")
    p.add_argument("--tol", type=float, default=1e-10, help="bisection tolerance")
    _add_outcome_flags(p)
    _add_common_output(p)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("grid", help="feature-1 attribution over an (x1, x2) lattice")
    p.add_argument("--model", required=True, help="model JSON file (2 features)")
    p.add_argument("--x1-min", type=float, default=-6.0)
    p.add_argument("--x1-max", type=float, default=6.0)
    p.add_argument("--x2-min", type=float, default=-6.0)
    p.add_argument("--x2-max", type=float, default=6.0)
    p.add_argument("--steps", type=int, default=61, help="grid points per axis")
    _add_outcome_flags(p)
    _add_common_output(p)
    p.set_defaults(func=_cmd_grid)

    for name, run_study, help_text in (
        ("disagree-study", run_disagreement_study, "sign/top-feature disagreement table"),
        ("importance-study", run_importance_study, "global importance table"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="study config JSON file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--samples", type=int, help="override the config sample count")
        p.add_argument("--link", choices=("logit", "probit"), help="override the config link")
        p.add_argument("--eta-star", type=float, help="override the config threshold")
        p.add_argument("--threads", type=int, default=None, help="worker threads (results identical for any value)")
        _add_common_output(p)
        p.set_defaults(func=_cmd_study, run_study=run_study)

    p = sub.add_parser("baseline-sweep", help="baselines across a variance grid")
    p.add_argument("--config", required=True, help="sweep config JSON file")
    p.add_argument("--link", choices=("logit", "probit"), help="override the config link")
    p.add_argument("--eta-star", type=float, help="override the config threshold")
    _add_common_output(p)
    p.set_defaults(func=_cmd_baseline_sweep)

    p = sub.add_parser("oracle-check", help="closed form vs. sampling oracle")
    p.add_argument("--model", required=True, help="model JSON file (at most 10 features)")
    p.add_argument("--x", required=True, help="sample as comma-separated numbers")
    p.add_argument("--n", type=int, default=200, help="permutation count")
    p.add_argument("--samples", type=int, default=1000, help="draws per value estimate")
    p.add_argument("--seed", type=int, help="oracle seed; fresh if omitted")
    _add_outcome_flags(p)
    _add_common_output(p)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; keep its codes
        return int(exc.code or 0)
    try:
        threads = getattr(args, "threads", None)
        if threads is None and hasattr(args, "threads"):
            args.threads = _default_threads()
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LpmShapleyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
