"""How the three outcome interpretations disagree about one model.

Four analytics live here, all closed form or bisection on closed forms:

* baseline_report — the three reference points and the strict ordering
  0.5 < phi0_prob < phi0_decision < Phi(beta0 / sqrt(lam)) that holds
  whenever beta0 > 0 and the feature variance exceeds lam.
* classify_pair — per-sample disagreement between two explanations: opposite
  nonzero signs per feature, and a change in the top-ranked feature. The
  ranking compares signed Shapley values (largest wins, ties to the lower
  index); ranking by magnitude is a different statistic and does not
  reproduce the reference disagreement tables once beta0 moves off zero.
  The population studies in ``simulation`` tally the same classifier over
  whole sample blocks, with zero tolerance 0.
* zero_level_curve — the locus where one feature's attribution crosses zero,
  found by bisection in that feature's own coordinate for each grid value of
  the other. For the decision outcome the attribution can jump across zero
  without touching it; the returned point is then the sign separator.
* equal_importance_lines / verify_equal_importance — the analytic lines where
  both features matter equally, and a numeric residual check along them.

Everything expects a normalized two-feature model (means 0, coefficients 1);
call ``normalize`` first for anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DimensionMismatchError,
    GaussianLPM,
    InvalidModelError,
    OutcomeKind,
    OutcomeSpec,
    _expected_outcome,
)
from .engine import (
    Explanation,
    _require_normalized_pair,
    baseline,
    shapley_two_feature,
    two_feature_phis,
)

__all__ = [
    "BaselineReport",
    "CurveSet",
    "Line",
    "PairDisagreement",
    "baseline_report",
    "classify_pair",
    "equal_importance_lines",
    "verify_equal_importance",
    "zero_level_curve",
]


@dataclass(frozen=True)
class BaselineReport:
    """The three baselines plus the log-odds baseline pushed through the link.

    The ordering flags record each inequality of the chain
    0.5 < phi0_prob < phi0_decision < Phi(phi0_eta / sqrt(lam)) separately;
    the last link can flip when the feature variance drops below lam.
    """

    phi0_eta: float
    phi0_eta_transformed: float
    phi0_prob: float
    phi0_decision: float
    ordering_half_lt_prob: bool
    ordering_prob_lt_decision: bool
    ordering_decision_lt_transformed: bool

    @property
    def chain_holds(self) -> bool:
        return (
            self.ordering_half_lt_prob
            and self.ordering_prob_lt_decision
            and self.ordering_decision_lt_transformed
        )

    def to_dict(self) -> dict:
        return {
            "phi0_eta": self.phi0_eta,
            "phi0_eta_transformed": self.phi0_eta_transformed,
            "phi0_prob": self.phi0_prob,
            "phi0_decision": self.phi0_decision,
            "ordering_half_lt_prob": self.ordering_half_lt_prob,
            "ordering_prob_lt_decision": self.ordering_prob_lt_decision,
            "ordering_decision_lt_transformed": self.ordering_decision_lt_transformed,
        }


def baseline_report(
    model: GaussianLPM, outcome_link, eta_star: float = 0.0
) -> BaselineReport:
    """Baselines of all three outcomes for a normalized two-feature model.

    ``outcome_link`` is a Link; the decision baseline uses ``eta_star``.
    For beta0 > 0 with sigma1^2 + sigma2^2 > lam the strict chain holds:
    every flag True. The report stores each link of the chain so callers can
    see exactly which comparison flips in other regimes.
    """
    _require_normalized_pair(model)
    probability = OutcomeSpec(OutcomeKind.PROBABILITY, outcome_link)
    phi0_eta_transformed = float(_expected_outcome(model.intercept, 0.0, probability))
    phi0_prob = baseline(model, probability)
    phi0_decision = baseline(
        model, OutcomeSpec(OutcomeKind.DECISION, outcome_link, eta_star=eta_star)
    )
    return BaselineReport(
        phi0_eta=model.intercept,
        phi0_eta_transformed=phi0_eta_transformed,
        phi0_prob=phi0_prob,
        phi0_decision=phi0_decision,
        ordering_half_lt_prob=0.5 < phi0_prob,
        ordering_prob_lt_decision=phi0_prob < phi0_decision,
        ordering_decision_lt_transformed=phi0_decision < phi0_eta_transformed,
    )


@dataclass(frozen=True)
class PairDisagreement:
    """Disagreement between two explanations of the same sample."""

    outcome_a: OutcomeSpec
    outcome_b: OutcomeSpec
    sign_disagree: tuple
    top_feature_a: int
    top_feature_b: int
    top_feature_disagree: bool

    @property
    def any_sign_disagree(self) -> bool:
        return any(self.sign_disagree)


def _signs_and_top(phis, zero_tol: float):
    """Per-feature signs and the top feature of one or many explanations.

    ``phis`` holds one entry per feature: a number, or an array with one
    element per sample. A sign is 0 where |phi| <= zero_tol, else +1 or -1,
    as int8. The top feature is the one with the largest signed value, ties
    to the lower index. Two features, the population-block case, take one
    comparison each way: on 65536-sample blocks ``np.sign`` costs about 4x
    and a stacked ``argmax`` about 50x as much.
    """
    signs = [(p > zero_tol).view(np.int8) - (p < -zero_tol).view(np.int8) for p in phis]
    if len(phis) == 2:
        top = (phis[1] > phis[0]).view(np.int8)
    else:
        top = np.argmax(phis, axis=0)
    return signs, top


def classify_pair(
    expl_a: Explanation, expl_b: Explanation, zero_tol: float = 1e-12
) -> PairDisagreement:
    """Compare two explanations of one sample feature by feature.

    A feature's signs disagree when both are nonzero (past zero_tol) and
    opposite; a zero disagrees with nothing. The top feature is the one with
    the largest signed Shapley value.
    """
    if len(expl_a.phis) != len(expl_b.phis):
        raise DimensionMismatchError(
            f"explanations have {len(expl_a.phis)} and {len(expl_b.phis)} features"
        )
    sa, top_a = _signs_and_top(np.asarray(expl_a.phis, dtype=np.float64), zero_tol)
    sb, top_b = _signs_and_top(np.asarray(expl_b.phis, dtype=np.float64), zero_tol)
    return PairDisagreement(
        outcome_a=expl_a.outcome,
        outcome_b=expl_b.outcome,
        sign_disagree=tuple(bool(a * b < 0) for a, b in zip(sa, sb)),
        top_feature_a=int(top_a),
        top_feature_b=int(top_b),
        top_feature_disagree=bool(top_a != top_b),
    )


@dataclass(frozen=True)
class Line:
    """The line x2 = slope * x1 + intercept in the feature plane."""

    kind: str  # "same_sign" or "opposite_sign"
    slope: float
    intercept: float

    def x2_at(self, x1: float) -> float:
        return self.slope * x1 + self.intercept


@dataclass(frozen=True)
class CurveSet:
    """Level-curve data: grid of the other feature, roots, analytic lines.

    ``roots[i]`` is the explained feature's coordinate where its attribution
    crosses zero at grid[i] (None when no sign change exists inside the
    widened bracket). ``lines`` carries equal-importance lines when present.
    """

    outcome: OutcomeSpec
    feature: int
    grid: tuple
    roots: tuple
    lines: tuple = ()


def _bisect_sign_change(f, lo: float, hi: float, tol: float, max_iter: int = 200):
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0) == (fhi < 0):
        return None
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def zero_level_curve(
    model: GaussianLPM,
    outcome: OutcomeSpec,
    feature: int,
    x_other_grid,
    bracket=None,
    tol: float = 1e-10,
) -> CurveSet:
    """Zero-attribution curve of one feature against a grid of the other.

    For each grid value, bisection finds where the feature's Shapley value
    changes sign as its own coordinate moves across the bracket. The bracket
    is widened as needed until it covers |x| <= 10 * max(sigma) + 10; a grid
    point with no sign change inside it gets a None root. The decision outcome's
    attribution jumps at the decision boundary, so its "root" there is the
    sign-separating point rather than an actual zero.
    """
    _require_normalized_pair(model)
    if feature not in (0, 1):
        raise DimensionMismatchError("feature index must be 0 or 1")
    other = 1 - feature
    s1, s2 = model.stddevs
    cap = 10.0 * max(s1, s2) + 10.0
    if bracket is None:
        bracket = (-cap, cap)
    lo0, hi0 = float(bracket[0]), float(bracket[1])
    if not (lo0 < hi0):
        raise InvalidModelError("bracket must be an interval (lo < hi)")

    def phi_own(x_own: float, x_oth: float) -> float:
        xs = [0.0, 0.0]
        xs[feature] = x_own
        xs[other] = x_oth
        _, p1, p2 = two_feature_phis(model.intercept, s1, s2, xs[0], xs[1], outcome)
        return float(p1) if feature == 0 else float(p2)

    roots = []
    for x_oth in x_other_grid:
        lo, hi = lo0, hi0
        while True:
            root = _bisect_sign_change(lambda t: phi_own(t, float(x_oth)), lo, hi, tol)
            if root is not None:
                break
            # Push each end out by the span, clipped to the cap but never
            # moved inward, so a bracket beyond the cap still reaches it.
            span = hi - lo
            wider = (min(lo, max(lo - span, -cap)), max(hi, min(hi + span, cap)))
            if wider == (lo, hi):
                break
            lo, hi = wider
        roots.append(root)
    return CurveSet(
        outcome=outcome,
        feature=feature,
        grid=tuple(float(v) for v in x_other_grid),
        roots=tuple(roots),
    )


def equal_importance_lines(model: GaussianLPM, outcome: OutcomeSpec) -> CurveSet:
    """Analytic lines where both features' attributions tie.

    same_sign: phi1 = phi2. Log-odds: x2 = x1. Probability: slope
    sqrt((lam+s1^2)/(lam+s2^2)) through (-b0, -b0). Decision: slope s1/s2
    through (eta_star - b0 shifted accordingly); all three pass through the
    common point (-b0, -b0) when eta_star = 0.

    opposite_sign: phi1 = -phi2, a slope -1 line. Log-odds: x1 + x2 = 0.
    Probability: x1 + x2 = -b0 + b0 sqrt(lam/(lam+s1^2+s2^2)), exact.
    Decision: the attribution sum never vanishes off the decision boundary,
    and it flips sign exactly there, so the separator x1 + x2 = eta_star - b0
    stands in for the line.
    """
    _require_normalized_pair(model)
    b0 = model.intercept
    s1, s2 = model.stddevs
    kind = outcome.kind
    if kind is OutcomeKind.LOG_ODDS:
        same = Line("same_sign", 1.0, 0.0)
        opp = Line("opposite_sign", -1.0, 0.0)
    elif kind is OutcomeKind.PROBABILITY:
        lam = outcome.lam
        slope = math.sqrt((lam + s1 * s1) / (lam + s2 * s2))
        same = Line("same_sign", slope, b0 * (slope - 1.0))
        shrink = math.sqrt(lam / (lam + s1 * s1 + s2 * s2))
        opp = Line("opposite_sign", -1.0, -b0 + b0 * shrink)
    else:
        if s2 == 0.0:
            raise InvalidModelError("decision equal-importance slope needs sigma2 > 0")
        shift = b0 - outcome.eta_star
        slope = s1 / s2
        same = Line("same_sign", slope, shift * (slope - 1.0))
        opp = Line("opposite_sign", -1.0, outcome.eta_star - b0)
    return CurveSet(outcome=outcome, feature=0, grid=(), roots=(), lines=(same, opp))


def verify_equal_importance(
    model: GaussianLPM,
    outcome: OutcomeSpec,
    line: Line,
    n_points: int = 100,
) -> float:
    """Max residual of the tie condition along a line.

    same_sign lines: max |phi1 - phi2| over sampled points. opposite_sign
    lines: max |phi1 + phi2|, except for the decision outcome, where the sum
    cannot vanish; there the check is that its sign flips across the line at
    every sampled x1, and the residual is 0 when it does (else the smaller
    |phi1 + phi2| of the straddling pair, a measure of how badly the flip
    failed).
    """
    _require_normalized_pair(model)
    if n_points < 2:
        raise InvalidModelError("n_points must be at least 2")
    b0 = model.intercept
    s1, s2 = model.stddevs
    span = 3.0 * (s1 + s2) + 1.0
    worst = 0.0
    decision_opposite = (
        outcome.kind is OutcomeKind.DECISION and line.kind == "opposite_sign"
    )
    eps = 1e-7 * max(1.0, span)
    for k in range(n_points):
        x1 = -b0 - span + (2.0 * span) * k / (n_points - 1)
        x2 = line.x2_at(x1)
        if decision_opposite:
            above = shapley_two_feature(model, outcome, (x1, x2 + eps))
            below = shapley_two_feature(model, outcome, (x1, x2 - eps))
            sum_above = above.phis[0] + above.phis[1]
            sum_below = below.phis[0] + below.phis[1]
            if sum_above * sum_below < 0:
                residual = 0.0
            else:
                residual = min(abs(sum_above), abs(sum_below))
        else:
            expl = shapley_two_feature(model, outcome, (x1, x2))
            if line.kind == "same_sign":
                residual = abs(expl.phis[0] - expl.phis[1])
            else:
                residual = abs(expl.phis[0] + expl.phis[1])
        worst = max(worst, residual)
    return worst
