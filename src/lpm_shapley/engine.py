"""Exact Shapley values for the three outcomes of a Gaussian-feature LPM.

Everything here is closed form. Conditioning on a subset S of features leaves
eta Gaussian with known mean and variance, so each conditional expectation
(the value function v(S)) is one evaluation of the model's expected-outcome
kernel, which states the three formulas.

``shapley_exact`` and ``shapley_exact_batch`` share one kernel with three
exact paths:

- log-odds: v(S) is linear in the revealed deltas, so phi_i = delta_i and the
  baseline is the centred intercept, at every m;
- enumeration: the 2^m subset values, streamed in chunks of masks, each
  chunk adding its weighted share to the phis, so memory stays bounded. It
  is the path below 15 features, and above that wherever it is cheaper;
- characteristic function (probability and decision, m >= 15): Owen's
  multilinear extension turns phi_i into a q-integral of the expected
  marginal gain when every other feature is revealed with probability q.
  For fixed q each feature is a two-part mixture, so the law of eta has a
  product characteristic function, and one Gil-Pelaez integral gives the
  gain. The cost is polynomial in m; the kernel estimates it from the
  case's own widths and variances and enumerates when 2^m is cheaper.

``shapley_two_feature`` evaluates the literal two-feature formulas and must
agree with the enumeration to 1e-12, which the tests enforce.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    CapacityError,
    DimensionMismatchError,
    GaussianLPM,
    InvalidModelError,
    OutcomeKind,
    OutcomeSpec,
    _check_sample,
    _expected_outcome,
    conditional_eta,
    predict,
)

__all__ = [
    "Explanation",
    "MAX_EXACT_FEATURES",
    "baseline",
    "shapley_exact",
    "shapley_two_feature",
    "value_function",
]

# Largest m served exactly. Enumeration still serves some cases at any m, such
# as decision models with a zero-variance feature; it streams its 2^m subset
# values in bounded memory, but its time doubles with each feature.
MAX_EXACT_FEATURES = 25


@dataclass(frozen=True)
class Explanation:
    """Baseline plus per-feature Shapley values for one sample.

    Satisfies efficiency: baseline + sum(phis) equals the prediction to
    1e-10 (the decision outcome hits its exact 0/1 value).
    """

    outcome: OutcomeSpec
    x: tuple
    baseline: float
    phis: tuple
    prediction: float

    def residual(self) -> float:
        """Efficiency residual baseline + sum(phis) - prediction."""
        return self.baseline + math.fsum(self.phis) - self.prediction

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline,
            "phis": list(self.phis),
            "prediction": self.prediction,
            "outcome": self.outcome.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def value_function(model: GaussianLPM, outcome: OutcomeSpec, subset, x) -> float:
    """Conditional expectation of the outcome given the subset's values."""
    law = conditional_eta(model, subset, x)
    return float(_expected_outcome(law.mean, law.variance, outcome))


def _enumerate_phis(b0, eta, delta, var_terms, outcome: OutcomeSpec):
    """Exact Shapley values for a batch of cases, vectorized over the batch.

    Returns (baseline, phis) with shapes (n,) and (n, m). delta[i] =
    beta[i]*(x[i]-mu[i]) is what revealing feature i adds to the mean of eta,
    var_terms[i] = (beta[i]*sigma[i])^2 the variance it stops hiding, and eta
    is the full mask's mean. The 2^m masks (bit i = feature i) are streamed
    in chunks, each adding its share of

        phi_i = sum_T v(T) c_i(T),  c_i(T) = w(|T|-1) if i in T else -w(|T|),

    with w(k) = k! (m-k-1)! / m! and w(m) = 0, so no value table is kept.
    Since sum_T c_i(T) = 0, v is taken relative to the baseline v(empty set),
    which keeps small attributions accurate.
    """
    n, m = delta.shape
    n_masks = 1 << m
    # w[k] = 1 / (m * C(m-1, k)); w[m] = 0 also serves as w[-1] for T = empty.
    w = np.array([1.0 / (m * math.comb(m - 1, k)) for k in range(m)] + [0.0])
    base = np.asarray(_expected_outcome(b0, var_terms.sum(axis=1), outcome))
    phis = np.zeros((n, m), dtype=np.float64)
    # Keep the (n, chunk) work arrays and the (chunk, m) bit matrix near 8 MB.
    chunk = max(1, min(n_masks, (1 << 20) // max(n, m)))
    bits_idx = np.arange(m, dtype=np.uint32)
    ones = np.ones(m, dtype=np.float64)
    for start in range(0, n_masks, chunk):
        masks = np.arange(start, min(start + chunk, n_masks), dtype=np.uint32)
        bits = ((masks[:, None] >> bits_idx) & 1).astype(np.float64)
        mean = b0[:, None] + delta @ bits.T
        if masks[-1] == n_masks - 1:
            mean[:, -1] = eta
        # Summing the hidden variances leaves exactly 0 where nothing is hidden.
        v = _expected_outcome(mean, var_terms @ (1.0 - bits).T, outcome) - base[:, None]
        size = (bits @ ones).astype(np.intp)
        w_out = w[size]
        phis += (v * (w[size - 1] + w_out)) @ bits - (v @ w_out)[:, None]
    # Null players: the weighted sum leaves rounding residue, not 0.
    phis[(delta == 0.0) & (var_terms == 0.0)] = 0.0
    return base, phis


# Enumeration serves every case below this many features: single calls on the
# perfbench random models cross over at m = 12 to 13, and below 15 the outputs
# stay those of enumeration.
_CF_MIN_FEATURES = 15
# Seconds per (q node, u node, feature) element of the CF path over seconds per
# (mask, feature) element of the streamed enumeration. Median single calls on
# the perfbench random models, m = 12 to 18, both outcomes, numpy 2.4 on a
# 2-core x86-64 host: 24 to 43 ns against 5 to 11 ns, ratios 2.3 to 5.7.
_CF_COST_RATIO = 4.0
# The u integral stops where its Gaussian damping falls below e^-46.
_CF_LOG_CUTOFF = 46.0
# Complex elements per (features, u nodes) work array: 2 MB.
_CF_BLOCK = 1 << 17


def _cf_phis(b0: float, eta: float, delta, t, outcome: OutcomeSpec, budget):
    """Shapley values of one case by the multilinear extension, or None.

    phi_i = int_0^1 E_{S ~ Bern(q)}[v(S + i) - v(S)] dq; the integrand is a
    polynomial of degree m - 1 in q, so Gauss-Legendre with m // 2 + 1 nodes
    is exact. For fixed q, feature j contributes delta_j with probability q
    and N(0, t_j) otherwise, so eta - threshold has the characteristic
    function e^{iuc} e^{-lam u^2 / 2} prod_j f_j(u) with
    f_j = q e^{iu delta_j} + (1 - q) e^{-t_j u^2 / 2}, and by Gil-Pelaez

        E[v(S + i) - v(S)] = (1/pi) int_0^inf Im[e^{iuc} e^{-lam u^2/2}
                             prod_{j != i} f_j (e^{iu delta_i} - e^{-t_i u^2/2})] / u du,

    with the leave-one-out products built as prefix x suffix products.
    Features with delta = t = 0 are null players (phi = 0) and are dropped.

    The full-subset term q^{m-1} e^{iu(eta - threshold)} e^{-lam u^2/2} is
    the one the features leave undamped (eta = b0 + sum delta, passed as the
    prediction computes it). It is subtracted node by node and its exact
    value v(N) - 1/2 (weight 1/m after the q integral) added back,
    which also gives the decision outcome's inclusive indicator on the
    boundary. Every other term is damped by at least lam + min t, which
    fixes where the u integral stops. eta - threshold lies within
    |c| + sum|delta| + 12 sd of zero, so the midpoint step h = pi / width
    keeps every alias of the rule's square wave away from zero.

    Returns None when (q nodes) x (u nodes) x m exceeds ``budget``; a
    decision feature with x != mu and zero variance is a second undamped
    atom, needs infinitely many nodes and always does.
    """
    phis = np.zeros(delta.size, dtype=np.float64)
    active = np.flatnonzero((delta != 0.0) | (t > 0.0))
    m = active.size
    if m == 0:
        return phis
    d, tv = delta[active], t[active]
    lam = outcome.lam if outcome.kind is OutcomeKind.PROBABILITY else 0.0
    threshold = outcome.eta_star if outcome.kind is OutcomeKind.DECISION else 0.0
    floor = lam + float(tv.min())
    if floor <= 0.0:
        return None
    c = b0 - threshold
    width = abs(c) + float(np.abs(d).sum()) + 12.0 * math.sqrt(lam + float(tv.sum()))
    h = math.pi / width
    n_u = math.ceil(math.sqrt(2.0 * _CF_LOG_CUTOFF / floor) / h)
    n_q = m // 2 + 1
    if _CF_COST_RATIO * n_q * n_u * m > budget:
        return None
    q, wq = np.polynomial.legendre.leggauss(n_q)
    q, wq = 0.5 * (q + 1.0), 0.5 * wq
    acc = np.zeros(m, dtype=np.float64)
    step = max(1, _CF_BLOCK // m)
    for start in range(0, n_u, step):
        u = (np.arange(start, min(start + step, n_u)) + 0.5) * h
        damp = np.exp(-0.5 * lam * u * u) / u
        revealed = np.exp(1j * d[:, None] * u)
        hidden = np.exp(-0.5 * tv[:, None] * (u * u))
        gain = (np.exp(1j * c * u) * damp) * (revealed - hidden)
        atom = float((np.sin((eta - threshold) * u) * damp).sum())
        prefix = np.ones((m + 1, u.size), dtype=np.complex128)
        suffix = np.ones((m + 1, u.size), dtype=np.complex128)
        for qn, wn in zip(q, wq):
            f = qn * revealed + (1.0 - qn) * hidden
            np.cumprod(f, axis=0, out=prefix[1:])
            np.cumprod(f[::-1], axis=0, out=suffix[1:])
            # prefix[i] = prod_{j < i} f_j; suffix[m-1-i] = prod_{j > i} f_j.
            leave_out = prefix[:m] * suffix[m - 1 :: -1]
            acc += wn * ((leave_out * gain).imag.sum(axis=1) - qn ** (m - 1) * atom)
    v_full = float(_expected_outcome(eta, 0.0, outcome))
    phis[active] = acc * (h / math.pi) + (v_full - 0.5) / m
    return phis


def _exact_phis(b0, eta, delta, var_terms, outcome: OutcomeSpec):
    """Exact (baseline, phis) for a batch of cases by the cheapest exact path.

    eta is each case's linear index as ``predict`` computes it; v(N) is taken
    from it, so efficiency holds against the prediction even where b0 +
    sum(delta) rounds to the other side of the decision threshold.
    Log-odds is linear, so phi = delta at every m. Below _CF_MIN_FEATURES the
    batch is enumerated in one go. From there on each case takes the CF path
    unless its cost exceeds that of 2^m subset values, so a batch row always
    equals the single-sample call on the same case bit for bit.
    """
    if outcome.kind is OutcomeKind.LOG_ODDS:
        return b0 + 0.0, delta + 0.0
    n, m = delta.shape
    if m < _CF_MIN_FEATURES:
        return _enumerate_phis(b0, eta, delta, var_terms, outcome)
    base = np.asarray(_expected_outcome(b0, var_terms.sum(axis=1), outcome))
    phis = np.empty((n, m), dtype=np.float64)
    for r in range(n):
        row = _cf_phis(
            float(b0[r]), float(eta[r]), delta[r], var_terms[r], outcome, (1 << m) * m
        )
        if row is None:
            one = slice(r, r + 1)
            row = _enumerate_phis(b0[one], eta[one], delta[one], var_terms[one], outcome)[1][0]
        phis[r] = row
    return base, phis


def _model_case_arrays(model: GaussianLPM, x: np.ndarray):
    beta = model.coef_array()
    mu = model.mean_array()
    sd = model.stddev_array()
    b0 = np.array([model.intercept + float(beta @ mu)])
    delta = (beta * (x - mu))[None, :]
    var_terms = ((beta * sd) ** 2)[None, :]
    return b0, delta, var_terms


def shapley_exact(model: GaussianLPM, outcome: OutcomeSpec, x) -> Explanation:
    """Exact Shapley attribution, by the cheapest exact path for the case.

    phi_i = sum over subsets S not containing i of
            |S|! (m-|S|-1)! / m!  *  (v(S + i) - v(S)),
    with the baseline phi_0 = v(empty set): streamed subset enumeration
    below 15 features, polynomial-time CF inversion from there on wherever
    it is cheaper, and phi = delta for log-odds. Capacity is capped at
    MAX_EXACT_FEATURES features; beyond that, use the sampling oracle
    (``lpm_shapley.oracle.mc_shapley``).
    """
    arr = _check_sample(model, x)
    if model.m > MAX_EXACT_FEATURES:
        raise CapacityError(
            f"exact Shapley values support m <= {MAX_EXACT_FEATURES}; "
            f"got m={model.m}. Use the sampling oracle (mc_shapley) instead."
        )
    b0, delta, var_terms = _model_case_arrays(model, arr)
    eta = np.array([model.intercept + arr @ model.coef_array()])  # as ``predict``
    base, phis = _exact_phis(b0, eta, delta, var_terms, outcome)
    return Explanation(
        outcome=outcome,
        x=tuple(float(v) for v in arr),
        baseline=float(base[0]),
        phis=tuple(float(p) for p in phis[0]),
        prediction=predict(model, outcome, arr),
    )


def shapley_exact_batch(model: GaussianLPM, outcome: OutcomeSpec, xs) -> np.ndarray:
    """Baseline and Shapley values for many samples of one model.

    Returns an array of shape (n, m + 1): column 0 is the baseline (identical
    across rows), columns 1..m are the per-feature values. Used by studies
    and tests where per-sample Explanation objects would dominate runtime.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != model.m:
        raise DimensionMismatchError(
            f"samples must have shape (n, {model.m}); got {xs.shape}"
        )
    if model.m > MAX_EXACT_FEATURES:
        raise CapacityError(
            f"exact Shapley values support m <= {MAX_EXACT_FEATURES}; got m={model.m}"
        )
    beta = model.coef_array()
    mu = model.mean_array()
    sd = model.stddev_array()
    n = xs.shape[0]
    b0 = np.full(n, model.intercept + float(beta @ mu))
    delta = beta * (xs - mu)
    var_terms = np.broadcast_to((beta * sd) ** 2, (n, model.m))
    # Row by row, to get the bits ``predict`` gets; log-odds never reads eta.
    eta = b0
    if outcome.kind is not OutcomeKind.LOG_ODDS:
        eta = model.intercept + np.fromiter((x @ beta for x in xs), np.float64, n)
    base, phis = _exact_phis(b0, eta, delta, var_terms, outcome)
    return np.column_stack([base, phis])


def _require_normalized_pair(model: GaussianLPM) -> None:
    if model.m != 2:
        raise DimensionMismatchError("two-feature formulas need exactly 2 features")
    if not model.is_normalized():
        raise InvalidModelError(
            "two-feature formulas expect a normalized model (means 0, "
            "coefficients 1); call normalize(model, x) first"
        )


def two_feature_phis(
    b0: float,
    s1,
    s2,
    x1,
    x2,
    outcome: OutcomeSpec,
):
    """Closed-form (phi0, phi1, phi2) for a normalized two-feature model.

    Array-friendly in x1/x2; this is the hot path under the Monte Carlo
    studies, so it stays free of per-sample Python objects.
    """
    if outcome.kind is OutcomeKind.LOG_ODDS:
        x1 = np.asarray(x1, dtype=np.float64)
        x2 = np.asarray(x2, dtype=np.float64)
        zero = np.zeros_like(x1 + x2)
        return b0 + zero, x1 + zero, x2 + zero
    v0 = _expected_outcome(b0, s1 * s1 + s2 * s2, outcome)
    v1 = _expected_outcome(b0 + x1, s2 * s2, outcome)
    v2 = _expected_outcome(b0 + x2, s1 * s1, outcome)
    v12 = _expected_outcome(b0 + x1 + x2, 0.0, outcome)
    phi1 = 0.5 * ((v1 - v0) + (v12 - v2))
    phi2 = 0.5 * ((v2 - v0) + (v12 - v1))
    return v0 + np.zeros_like(phi1), phi1, phi2


def shapley_two_feature(model: GaussianLPM, outcome: OutcomeSpec, x) -> Explanation:
    """Two-feature Shapley values from the literal closed-form expressions.

    Requires a normalized model; agrees with ``shapley_exact`` to 1e-12 on
    every input because it is the same algebra with the subset sum unrolled.
    """
    _require_normalized_pair(model)
    arr = _check_sample(model, x)
    s1, s2 = model.stddevs
    phi0, phi1, phi2 = two_feature_phis(
        model.intercept, s1, s2, arr[0], arr[1], outcome
    )
    return Explanation(
        outcome=outcome,
        x=(float(arr[0]), float(arr[1])),
        baseline=float(phi0),
        phis=(float(phi1), float(phi2)),
        prediction=predict(model, outcome, arr),
    )


def baseline(model: GaussianLPM, outcome: OutcomeSpec) -> float:
    """Unconditional expected outcome v(empty set), the reference point."""
    x0 = model.mean_array()
    return value_function(model, outcome, frozenset(), x0)
