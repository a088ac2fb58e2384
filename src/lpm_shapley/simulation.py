"""Population-level studies over Gaussian samples of a two-feature model.

The studies draw feature vectors from the model's own feature distribution
and measure, per pair of outcome interpretations, how often the two
explanations disagree — in any feature's sign, or in which feature ranks
first by signed Shapley value. A companion study integrates |phi_i| into a
global importance weight per outcome and reports the ratio between features.

Determinism contract: results are a pure function of (config, seed). Samples
are drawn in fixed blocks of 65536 through the counter-based generator in
``oracle``, each block addressed by its index, and per-block tallies are
reduced in block order — so thread count cannot change a single bit of the
output. Thread pools only overlap the block computations.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .model import (
    GaussianLPM,
    InvalidModelError,
    Link,
    OutcomeKind,
    OutcomeSpec,
    _as_float_tuple,
    _expected_outcome,
    _field,
    _parse_json_object,
)
from .disagreement import _signs_and_top
from .engine import two_feature_phis
from .oracle import RngSpec, standard_normal

__all__ = [
    "BLOCK_SIZE",
    "DisagreementTable",
    "ImportanceTable",
    "StudyConfig",
    "baseline_sweep",
    "eta_importance_closed_form",
    "run_disagreement_study",
    "run_importance_study",
]

BLOCK_SIZE = 65536

PAIR_LABELS = (
    "log_odds_vs_probability",
    "probability_vs_decision",
    "log_odds_vs_decision",
)


@dataclass(frozen=True)
class StudyConfig:
    """One study population: a normalized model plus sampling parameters.

    ``expected_eta`` is the intercept of the normalized model (the mean of
    the linear score), ``scaled_sigmas`` the two products |beta_i| * sigma_i
    that fully determine the attribution distribution. ``eta_star`` sets the
    decision threshold; ``n_samples`` the number of Monte Carlo draws.
    """

    expected_eta: float
    scaled_sigmas: tuple
    link: Link = Link.LOGIT
    eta_star: float = 0.0
    n_samples: int = 1_000_000
    rng: RngSpec = field(default_factory=lambda: RngSpec(seed=0))

    def __post_init__(self) -> None:
        ss = tuple(float(s) for s in self.scaled_sigmas)
        if len(ss) != 2:
            raise InvalidModelError("scaled_sigmas must hold exactly 2 values")
        if not all(math.isfinite(s) and s > 0 for s in ss):
            raise InvalidModelError("scaled sigmas must be finite and positive")
        if not math.isfinite(self.expected_eta):
            raise InvalidModelError("expected_eta must be finite")
        if not math.isfinite(self.eta_star):
            raise InvalidModelError("eta_star must be finite")
        if self.n_samples < 1:
            raise InvalidModelError("n_samples must be at least 1")
        object.__setattr__(self, "scaled_sigmas", ss)
        object.__setattr__(self, "expected_eta", float(self.expected_eta))
        object.__setattr__(self, "eta_star", float(self.eta_star))

    def model(self) -> GaussianLPM:
        return GaussianLPM(
            intercept=self.expected_eta,
            coefficients=(1.0, 1.0),
            means=(0.0, 0.0),
            stddevs=self.scaled_sigmas,
        )

    def outcomes(self) -> tuple:
        return (
            OutcomeSpec(OutcomeKind.LOG_ODDS, self.link),
            OutcomeSpec(OutcomeKind.PROBABILITY, self.link),
            OutcomeSpec(OutcomeKind.DECISION, self.link, eta_star=self.eta_star),
        )

    def to_dict(self) -> dict:
        return {
            "expected_eta": self.expected_eta,
            "scaled_sigmas": list(self.scaled_sigmas),
            "link": self.link.value,
            "eta_star": self.eta_star,
            "n_samples": self.n_samples,
            "seed": self.rng.seed,
            "stream": self.rng.stream,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StudyConfig":
        if not isinstance(data, dict):
            raise InvalidModelError("study config must be a JSON object")
        read = functools.partial(_field, data, source="study config")
        return cls(
            expected_eta=read("expected_eta", float),
            scaled_sigmas=read("scaled_sigmas", lambda v: tuple(float(s) for s in v)),
            link=read("link", Link, "logit"),
            eta_star=read("eta_star", float, 0.0),
            n_samples=read("n_samples", int, 1_000_000),
            rng=RngSpec(seed=read("seed", int, 0), stream=read("stream", int, 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "StudyConfig":
        return cls.from_dict(_parse_json_object(text))


@dataclass(frozen=True)
class DisagreementTable:
    """Disagreement rates (percent) per outcome pair for one population.

    ``sign_pct[pair]`` is the share of samples where at least one feature's
    attribution carries strictly opposite nonzero signs under the two
    outcomes; ``top_pct[pair]`` the share where the top-ranked feature (by
    signed value) differs. Decision-involving cells are None when every
    sampled decision came out identical (the threshold was never crossed):
    the decision explanation is constant there and ranking against it is
    meaningless.
    """

    config: StudyConfig
    sign_pct: dict
    top_pct: dict
    decision_degenerate: bool

    def csv_rows(self) -> list:
        b1s1, b2s2 = self.config.scaled_sigmas
        rows = []
        for pair in PAIR_LABELS:
            rows.append(
                {
                    "expected_eta": self.config.expected_eta,
                    "b1s1": b1s1,
                    "b2s2": b2s2,
                    "pair": pair,
                    "sign_pct": self.sign_pct[pair],
                    "top_pct": self.top_pct[pair],
                }
            )
        return rows

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "sign_pct": dict(self.sign_pct),
            "top_pct": dict(self.top_pct),
            "decision_degenerate": self.decision_degenerate,
        }


@dataclass(frozen=True)
class ImportanceTable:
    """Global importance I_i = sum over samples of |phi_i|, per outcome.

    ``relative`` is I_1 / I_2 per outcome (None for the decision outcome
    when no sample crosses the threshold, where the ratio is meaningless);
    ``excess_pct`` is the percent by which each transformed outcome's ratio
    exceeds the log-odds ratio.
    """

    config: StudyConfig
    importance: dict  # outcome kind value -> (I1, I2)
    relative: dict  # outcome kind value -> I1/I2 or None
    excess_pct: dict  # outcome kind value -> percent over log-odds, or None

    def csv_rows(self) -> list:
        rows = []
        for kind in ("log_odds", "probability", "decision"):
            i1, i2 = self.importance[kind]
            rows.append(
                {
                    "outcome": kind,
                    "I1": i1,
                    "I2": i2,
                    "relative": self.relative[kind],
                    "excess": self.excess_pct[kind],
                }
            )
        return rows

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "importance": {k: list(v) for k, v in self.importance.items()},
            "relative": dict(self.relative),
            "excess_pct": dict(self.excess_pct),
        }


def _thread_count(n_threads) -> int:
    if n_threads is None:
        return 1
    n = int(n_threads)
    if n < 1:
        raise InvalidModelError("thread count must be at least 1")
    return n


def _draw_block(config: StudyConfig, block_index: int, size: int):
    z = standard_normal(config.rng, 2 * size, path=(0, block_index)).reshape(size, 2)
    s1, s2 = config.scaled_sigmas
    return z[:, 0] * s1, z[:, 1] * s2


def _study_block(config: StudyConfig, tally, block_index: int, size: int) -> tuple:
    """Draw, explain and tally one block.

    Returns (every decision is 1, some decision is 1, ``tally(phis)``), with
    phis {outcome kind: (phi1, phi2)}. The draw stays a call of its own so
    that its (size, 2) normal buffer is freed before the kernels run.
    """
    x1, x2 = _draw_block(config, block_index, size)
    b0 = config.expected_eta
    s1, s2 = config.scaled_sigmas
    phis = {}
    for spec in config.outcomes():
        _, p1, p2 = two_feature_phis(b0, s1, s2, x1, x2, spec)
        phis[spec.kind.value] = (p1, p2)
    decided = b0 + x1 + x2 >= config.eta_star
    return bool(decided.all()), bool(decided.any()), tally(phis)


def _disagreement_tally(phis: dict) -> dict:
    """Per pair: samples with an opposite-sign feature, samples whose top differs."""
    classes = {kind: _signs_and_top(p, 0.0) for kind, p in phis.items()}
    counts = {}
    for pair in PAIR_LABELS:
        (sa, top_a), (sb, top_b) = (classes[kind] for kind in pair.split("_vs_"))
        sign_dis = (sa[0] * sb[0] < 0) | (sa[1] * sb[1] < 0)
        counts[pair] = (int(np.count_nonzero(sign_dis)), int(np.count_nonzero(top_a != top_b)))
    return counts


def _importance_tally(phis: dict) -> dict:
    """Per outcome: (sum |phi1|, sum |phi2|) over the block."""
    return {k: (float(np.abs(p1).sum()), float(np.abs(p2).sum())) for k, (p1, p2) in phis.items()}


def _run_blocks(config: StudyConfig, tally, n_threads) -> tuple:
    """Per-block tallies in block order, and whether the decision never varied."""
    full, rem = divmod(config.n_samples, BLOCK_SIZE)
    jobs = [(i, BLOCK_SIZE) for i in range(full)] + ([(full, rem)] if rem else [])
    threads = _thread_count(n_threads)
    if threads == 1:
        results = [_study_block(config, tally, i, size) for i, size in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # map preserves submission order, so the reductions are
            # independent of scheduling
            results = list(pool.map(lambda job: _study_block(config, tally, *job), jobs))
    degenerate = all(r[0] for r in results) or not any(r[1] for r in results)
    return [r[2] for r in results], degenerate


def run_disagreement_study(config: StudyConfig, n_threads=None) -> DisagreementTable:
    """Monte Carlo disagreement rates between the three outcome explanations.

    Draws ``config.n_samples`` feature vectors, explains each under all
    three outcomes, and tallies per outcome pair the share of samples with
    an opposite-sign feature and the share whose signed-top feature differs.
    Rates are percentages. Cells of decision-involving pairs are None when
    the sampled decision is constant.
    """
    tallies, degenerate = _run_blocks(config, _disagreement_tally, n_threads)
    sign_pct = {}
    top_pct = {}
    for pair in PAIR_LABELS:
        if degenerate and "decision" in pair:
            sign_pct[pair] = None
            top_pct[pair] = None
        else:
            sign_pct[pair] = 100.0 * sum(t[pair][0] for t in tallies) / config.n_samples
            top_pct[pair] = 100.0 * sum(t[pair][1] for t in tallies) / config.n_samples
    return DisagreementTable(
        config=config, sign_pct=sign_pct, top_pct=top_pct, decision_degenerate=degenerate
    )


def run_importance_study(config: StudyConfig, n_threads=None) -> ImportanceTable:
    """Global importance I_i = sum over samples of |phi_i|, per outcome.

    The log-odds importances also have a closed form
    (``eta_importance_closed_form``); the Monte Carlo sums here let all
    three outcomes share one sampling design. ``relative`` and ``excess_pct``
    are None for the decision outcome when no sampled decision varies (the
    decision explanation is numerically degenerate there and its ratio
    meaningless).
    """
    tallies, degenerate = _run_blocks(config, _importance_tally, n_threads)
    importance = {}
    relative = {}
    excess = {}
    for kind in ("log_odds", "probability", "decision"):
        # float sums in block order: the bits cannot depend on threading
        i1 = i2 = 0.0
        for t in tallies:
            i1 += t[kind][0]
            i2 += t[kind][1]
        importance[kind] = (i1, i2)
        if i2 == 0.0 or (degenerate and kind == "decision"):
            relative[kind] = None
        else:
            relative[kind] = i1 / i2
    base = relative["log_odds"]
    for kind in ("log_odds", "probability", "decision"):
        r = relative[kind]
        if r is None or base is None or base == 0.0:
            excess[kind] = None
        else:
            excess[kind] = 100.0 * (r / base - 1.0)
    return ImportanceTable(
        config=config, importance=importance, relative=relative, excess_pct=excess
    )


def eta_importance_closed_form(config: StudyConfig) -> tuple:
    """Exact linear-score importance sums: |beta_i| sigma_i n sqrt(2/pi).

    phi_i on the linear score is beta_i (x_i - mu_i) ~ N(0, (beta_i s_i)^2),
    the mean absolute value of a centered normal is sigma sqrt(2/pi), and the
    importance is summed over the config's n_samples draws.
    """
    b1s1, b2s2 = config.scaled_sigmas
    c = math.sqrt(2.0 / math.pi) * config.n_samples
    return (b1s1 * c, b2s2 * c)


def baseline_sweep(expected_eta: float, variance_grid, link: Link = Link.LOGIT, eta_star: float = 0.0) -> list:
    """Baselines of all outcomes as total feature variance sweeps a grid.

    Each row reports, at total variance V: the linear-score baseline (just
    ``expected_eta``), that baseline pushed through the link, the probability
    baseline Phi(E / sqrt(lam + V)), and the decision baseline
    Phi((E - eta_star) / sqrt(V)). As V -> 0 the probability baseline climbs
    to the transformed score; as V -> infinity both transformed baselines
    sink toward 1/2 (for eta_star = 0) and toward each other.
    """
    if not math.isfinite(expected_eta):
        raise InvalidModelError("expected_eta must be finite")
    probability = OutcomeSpec(OutcomeKind.PROBABILITY, link)
    decision = OutcomeSpec(OutcomeKind.DECISION, link, eta_star=eta_star)
    transformed = float(_expected_outcome(expected_eta, 0.0, probability))
    rows = []
    for v in _as_float_tuple(variance_grid, "variance grid"):
        if not v > 0:
            raise InvalidModelError("variance grid entries must be positive")
        rows.append(
            {
                "variance": v,
                "phi0_eta": float(expected_eta),
                "phi0_eta_transformed": transformed,
                "phi0_prob": float(_expected_outcome(expected_eta, v, probability)),
                "phi0_decision": float(_expected_outcome(expected_eta, v, decision)),
            }
        )
    return rows
