"""Exact Shapley values for the three outcomes of a Gaussian-feature LPM.

Everything here is closed form. Conditioning on a subset S of features leaves
eta Gaussian with known mean and variance, so each conditional expectation
(the value function v(S)) is one evaluation of the model's expected-outcome
kernel, which states the three formulas.

``shapley_exact`` enumerates all 2^m subsets with the exact combinatorial
weights; ``shapley_two_feature`` evaluates the literal two-feature formulas
and must agree with the enumeration to 1e-12, which the tests enforce.
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

# 2^m value evaluations; beyond this, exactness is not worth the memory.
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


def _popcounts(m: int) -> np.ndarray:
    pc = np.zeros(1, dtype=np.uint8)
    for _ in range(m):
        pc = np.concatenate([pc, pc + 1])
    return pc


def _mask_values(
    b0: np.ndarray, delta: np.ndarray, var_terms: np.ndarray, outcome: OutcomeSpec
) -> np.ndarray:
    """v(S) for every case (leading axis) and every subset mask.

    delta[i] = beta[i]*(x[i]-mu[i]) is what conditioning on feature i adds to
    the mean; var_terms[i] = (beta[i]*sigma[i])^2 is what it removes from the
    variance. Masks are enumerated in natural order, bit i = feature i.
    """
    n, m = delta.shape
    n_masks = 1 << m
    base_mean = b0 + 0.0
    total_var = var_terms.sum(axis=1)
    values = np.empty((n, n_masks), dtype=np.float64)
    # Keep the (n, chunk) work arrays around 32 MB.
    chunk = max(1, min(n_masks, (1 << 22) // max(n, 1)))
    bits_idx = np.arange(m, dtype=np.uint32)
    for start in range(0, n_masks, chunk):
        masks = np.arange(start, min(start + chunk, n_masks), dtype=np.uint32)
        bits = ((masks[:, None] >> bits_idx) & 1).astype(np.float64)
        mean = base_mean[:, None] + delta @ bits.T
        var = total_var[:, None] - var_terms @ bits.T
        # Conditioning can only shave variance; clip float dust.
        np.clip(var, 0.0, None, out=var)
        values[:, start : start + masks.size] = _expected_outcome(mean, var, outcome)
    return values


def _enumerate_phis(
    b0: np.ndarray, delta: np.ndarray, var_terms: np.ndarray, outcome: OutcomeSpec
):
    """Exact Shapley values for a batch of cases, vectorized over the batch.

    Returns (baseline, phis) with shapes (n,) and (n, m). The full value
    table over all 2^m masks is materialized, then each phi_i is a weighted
    contraction of the table along feature i's bit axis.
    """
    n, m = delta.shape
    # weights[k] = k! (m-k-1)! / m! = 1 / (m * C(m-1, k)), exact integers
    # under the hood; the k = m slot is never consumed (S excludes i).
    weights = np.zeros(m + 1, dtype=np.float64)
    for k in range(m):
        weights[k] = 1.0 / (m * math.comb(m - 1, k))
    w_mask = weights[_popcounts(m)]
    values = _mask_values(b0, delta, var_terms, outcome)
    cube = values.reshape((n,) + (2,) * m)
    w_cube = w_mask.reshape((2,) * m)
    phis = np.empty((n, m), dtype=np.float64)
    for i in range(m):
        axis = m - i  # bit i of the mask, offset by the batch axis
        v0 = np.take(cube, 0, axis=axis)
        v1 = np.take(cube, 1, axis=axis)
        w0 = np.take(w_cube, 0, axis=axis - 1)
        flat_w = w0.reshape(-1)
        diff = (v1 - v0).reshape(n, -1)
        phis[:, i] = diff @ flat_w
    return values[:, 0], phis


def _model_case_arrays(model: GaussianLPM, x: np.ndarray):
    beta = model.coef_array()
    mu = model.mean_array()
    sd = model.stddev_array()
    b0 = np.array([model.intercept + float(beta @ mu)])
    delta = (beta * (x - mu))[None, :]
    var_terms = ((beta * sd) ** 2)[None, :]
    return b0, delta, var_terms


def shapley_exact(model: GaussianLPM, outcome: OutcomeSpec, x) -> Explanation:
    """Exact Shapley attribution by full subset enumeration.

    phi_i = sum over subsets S not containing i of
            |S|! (m-|S|-1)! / m!  *  (v(S + i) - v(S)),
    with the baseline phi_0 = v(empty set). Capacity is capped at
    MAX_EXACT_FEATURES features; beyond that, use the sampling oracle
    (``lpm_shapley.oracle.mc_shapley``).
    """
    arr = _check_sample(model, x)
    if model.m > MAX_EXACT_FEATURES:
        raise CapacityError(
            f"exact enumeration supports m <= {MAX_EXACT_FEATURES}; "
            f"got m={model.m}. Use the sampling oracle (mc_shapley) instead."
        )
    b0, delta, var_terms = _model_case_arrays(model, arr)
    base, phis = _enumerate_phis(b0, delta, var_terms, outcome)
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
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != model.m:
        raise DimensionMismatchError(
            f"samples must have shape (n, {model.m}); got {xs.shape}"
        )
    if model.m > MAX_EXACT_FEATURES:
        raise CapacityError(
            f"exact enumeration supports m <= {MAX_EXACT_FEATURES}; got m={model.m}"
        )
    beta = model.coef_array()
    mu = model.mean_array()
    sd = model.stddev_array()
    n = xs.shape[0]
    b0 = np.full(n, model.intercept + float(beta @ mu))
    delta = beta * (xs - mu)
    var_terms = np.broadcast_to((beta * sd) ** 2, (n, model.m))
    base, phis = _enumerate_phis(b0, delta, var_terms, outcome)
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
