"""Brute-force verification of the closed-form Shapley engine.

Nothing in this module trusts the engine's algebra. Conditional expectations
are estimated by actually sampling the unknown features; Shapley values are
estimated by averaging marginal contributions over uniformly random feature
permutations; and the exact-sigmoid expectation (which has no closed form)
is computed by Gauss-Hermite quadrature, or above variance 9 by inverting a
characteristic function, to quantify the probit approximation's gap.

Reproducibility contract: every estimate is a pure function of its RngSpec.
Uniform words come straight from the Philox counter stream and become
Gaussians through the inverse CDF, so no numpy Generator method sits between
the seed and the draws; identical (seed, stream) gives identical estimates on
any platform, and antithetic pairs are exact negations by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtr, ndtri

from .model import (
    ConvergenceError,
    GaussianLPM,
    OutcomeKind,
    OutcomeSpec,
    _check_sample,
    conditional_eta,
    predict,
)

__all__ = [
    "OracleEstimate",
    "RngSpec",
    "gauss_hermite_expect_sigmoid",
    "mc_shapley",
    "mc_value_function",
    "standard_normal",
]

_U64_MAX = (1 << 64) - 1


@dataclass(frozen=True)
class RngSpec:
    """Seed plus sub-stream id; the complete identity of a random stream."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= int(v) <= _U64_MAX:
                raise ValueError(f"{name} must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class OracleEstimate:
    """A Monte Carlo estimate with its standard error."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def _raw_words(spec: RngSpec, path: tuple, count: int) -> np.ndarray:
    seq = np.random.SeedSequence(entropy=int(spec.seed), spawn_key=(int(spec.stream), *path))
    return np.random.Philox(seq).random_raw(count)


def standard_normal(spec: RngSpec, size: int, path: tuple = ()) -> np.ndarray:
    """Deterministic N(0,1) draws for (seed, stream, *path).

    The top 53 bits of each Philox word become u = (k + 0.5) * 2^-53, a
    uniform strictly inside (0,1) whose grid is symmetric about 1/2, and
    z = ndtri(u). Negating z therefore lands exactly on another grid point,
    which is what makes antithetic pairs exact.
    """
    words = _raw_words(spec, path, size)
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u)


def _uniform_permutation(m: int, spec: RngSpec, path: tuple) -> np.ndarray:
    """Fisher-Yates shuffle driven by raw Philox words (no Generator methods)."""
    words = _raw_words(spec, path, max(m - 1, 0))
    order = np.arange(m)
    for step, i in enumerate(range(m - 1, 0, -1)):
        j = int(words[step] % np.uint64(i + 1))
        order[i], order[j] = order[j], order[i]
    return order


def _outcome_of_eta(etas: np.ndarray, outcome: OutcomeSpec) -> np.ndarray:
    if outcome.kind is OutcomeKind.LOG_ODDS:
        return etas
    if outcome.kind is OutcomeKind.PROBABILITY:
        return ndtr(etas / math.sqrt(outcome.lam))
    return (etas >= outcome.eta_star).astype(np.float64)


def mc_value_function(
    model: GaussianLPM,
    outcome: OutcomeSpec,
    subset,
    x,
    n: int,
    rng: RngSpec,
    path: tuple = (1,),
) -> OracleEstimate:
    """Sampled conditional expectation of the outcome given the subset.

    Features outside the subset are drawn from their Gaussian marginals in
    antithetic pairs (z and -z); the i.i.d. unit for the standard error is
    the pair mean. Odd n is rounded up to the next even count. With the full
    subset there is nothing to sample: the value is predict(x) with SE 0.
    """
    if n < 1000:
        raise ValueError(f"n must be at least 1000, got {n}")
    arr = _check_sample(model, x)
    known = set(int(i) for i in subset)
    law = conditional_eta(model, known, arr)  # validates indices
    if len(known) == model.m:
        return OracleEstimate(value=predict(model, outcome, arr), std_error=0.0, n_samples=n)
    free = np.array(sorted(set(range(model.m)) - known), dtype=np.int64)
    beta_sd = model.coef_array()[free] * model.stddev_array()[free]
    n_pairs = (n + 1) // 2
    z = standard_normal(rng, n_pairs * free.size, path=path).reshape(n_pairs, free.size)
    swing = z @ beta_sd
    f_plus = _outcome_of_eta(law.mean + swing, outcome)
    f_minus = _outcome_of_eta(law.mean - swing, outcome)
    pair_means = 0.5 * (f_plus + f_minus)
    value = float(pair_means.mean())
    if n_pairs > 1:
        se = float(pair_means.std(ddof=1) / math.sqrt(n_pairs))
    else:
        se = 0.0
    return OracleEstimate(value=value, std_error=se, n_samples=2 * n_pairs)


def mc_shapley(
    model: GaussianLPM,
    outcome: OutcomeSpec,
    x,
    n_perms: int,
    n_inner: int,
    rng: RngSpec,
) -> list:
    """Permutation-sampled Shapley values with per-feature standard errors.

    Each uniformly random permutation contributes one marginal-contribution
    sample per feature: walking the permutation, v(prefix + feature) -
    v(prefix), with every prefix value re-estimated from n_inner fresh draws.
    The per-feature standard error is the spread of those per-permutation
    contributions over sqrt(n_perms); permutations use independent
    sub-streams, so the contributions are i.i.d.
    """
    if n_perms < 100:
        raise ValueError(f"n_perms must be at least 100, got {n_perms}")
    arr = _check_sample(model, x)
    m = model.m
    contribs = np.zeros((n_perms, m), dtype=np.float64)
    for p in range(n_perms):
        order = _uniform_permutation(m, rng, (3, p))
        prefix: set = set()
        v_prev = mc_value_function(
            model, outcome, prefix, arr, n_inner, rng, path=(2, p, 0)
        ).value
        for t, feat in enumerate(order):
            prefix.add(int(feat))
            v_cur = mc_value_function(
                model, outcome, prefix, arr, n_inner, rng, path=(2, p, t + 1)
            ).value
            contribs[p, feat] = v_cur - v_prev
            v_prev = v_cur
    values = contribs.mean(axis=0)
    errors = contribs.std(axis=0, ddof=1) / math.sqrt(n_perms)
    return [
        OracleEstimate(value=float(v), std_error=float(se), n_samples=n_perms)
        for v, se in zip(values, errors)
    ]


def gauss_hermite_expect_sigmoid(mean: float, variance: float, order: int = 200) -> float:
    """E[sigmoid(Z)] for Z ~ N(mean, variance), verified to 1e-10.

    Up to variance 9 this is Gauss-Hermite quadrature: ``order`` caps the
    quadrature order, and evaluation climbs a doubling ladder of orders
    starting at 20 that must see successive results agree to 1e-10 before
    returning; otherwise a ConvergenceError reports the last gap. Above
    variance 9 the sigmoid saturates at the nodes, so every order returns the
    same wrong value; there the characteristic-function form below is used
    (``order`` still has to lie in [20, 200]). This is the ground truth
    against which the probit approximation's Phi(mean / sqrt(8/pi +
    variance)) is compared.
    """
    if not 20 <= order <= 200:
        raise ValueError(f"order must lie in [20, 200], got {order}")
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise ValueError("mean and variance must be finite")
    if variance == 0.0:
        return float(expit(mean))
    if variance > 9.0:
        coarse = _expect_sigmoid_cf(mean, variance, 1)
        fine = _expect_sigmoid_cf(mean, variance, 2)
        if abs(fine - coarse) > 1e-10:
            raise ConvergenceError(
                f"characteristic-function integral did not converge to 1e-10; "
                f"step h and h/2 differ by {abs(fine - coarse):.3e}"
            )
        return fine
    ladder = []
    o = 20
    while o < order:
        ladder.append(o)
        o *= 2
    ladder.append(order)
    if len(ladder) < 2:
        raise ConvergenceError(
            "cannot verify convergence with a single quadrature order; "
            "raise the order cap above 20"
        )
    scale = math.sqrt(2.0 * variance)
    prev = None
    last_gap = math.inf
    for o in ladder:
        nodes, weights = np.polynomial.hermite.hermgauss(o)
        est = float(weights @ expit(mean + scale * nodes) / math.sqrt(math.pi))
        if prev is not None:
            last_gap = abs(est - prev)
            if last_gap <= 1e-10:
                return est
        prev = est
    raise ConvergenceError(
        f"Gauss-Hermite ladder did not converge to 1e-10 by order {order}; "
        f"last gap {last_gap:.3e}"
    )


# Most nodes the characteristic-function integral may use before giving up.
_CF_MAX_NODES = 1 << 24


def _expect_sigmoid_cf(mean: float, variance: float, refine: int) -> float:
    """E[sigmoid(Z)] by Gil-Pelaez inversion, midpoint step pi / (refine * width).

    sigmoid(z) = P(L <= z) for a standard logistic L, whose characteristic
    function is pi u / sinh(pi u), so E[sigmoid(Z)] = P(Z - L >= 0) =
    1/2 + (1/pi) int_0^inf sin(u mean) e^{-variance u^2 / 2} pi / sinh(pi u) du.
    The midpoint rule with step pi / width integrates sign(Z - L) exactly
    while |Z - L| < 2 width; with width = |mean| + 12 sd(Z - L), the mass
    beyond that is below 1e-17 for variance above 9 (the logistic tail past
    12 sd). The sum stops where the integrand's decay passes e^-46.
    """
    width = abs(mean) + 12.0 * math.sqrt(variance + math.pi**2 / 3.0)
    h = math.pi / (refine * width)
    u_max = (math.sqrt(math.pi**2 + 92.0 * variance) - math.pi) / variance
    n = math.ceil(u_max / h)
    if n > _CF_MAX_NODES:
        raise ConvergenceError(
            f"characteristic-function integral needs {n} nodes at mean {mean} "
            f"and variance {variance}; the cap is {_CF_MAX_NODES}"
        )
    u = (np.arange(n) + 0.5) * h
    terms = np.sin(mean * u) * np.exp(-0.5 * variance * u * u) / np.sinh(math.pi * u)
    return 0.5 + h * math.fsum(terms)
