"""Linear probability models with independent Gaussian features.

A model maps a feature vector x through the linear index eta = beta0 + x.beta
and interprets the result in one of three ways: as the raw index (log-odds
under a logit link, z-units under probit), as a probability G(eta), or as a
binary decision 1(eta >= eta_star).

Because the features are independent Gaussians, eta conditioned on any subset
of known feature values is again Gaussian, which is what makes closed-form
Shapley attribution possible downstream.

The logit probability outcome is *defined* as Phi(eta / sqrt(8/pi)) — the
probit approximation to the sigmoid — so that predictions, conditional
expectations, and Shapley additivity are mutually consistent. The exact
``sigmoid`` is exposed for diagnostics only.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, ndtr

__all__ = [
    "LOGIT_LAMBDA",
    "CapacityError",
    "ConvergenceError",
    "DimensionMismatchError",
    "EtaDistribution",
    "GaussianLPM",
    "InvalidModelError",
    "Link",
    "LpmShapleyError",
    "OutcomeKind",
    "OutcomeSpec",
    "conditional_eta",
    "eta",
    "normalize",
    "predict",
    "sigmoid",
    "sigmoid_probit_approx",
    "std_normal_cdf",
]

# Variance of the logistic distribution over the variance of the standard
# normal, the scaling under which Phi best tracks the sigmoid.
LOGIT_LAMBDA: float = 8.0 / math.pi


class LpmShapleyError(Exception):
    """Base class for all errors raised by this package."""


class InvalidModelError(LpmShapleyError):
    """Model parameters violate an invariant (lengths, signs, finiteness)."""


class DimensionMismatchError(LpmShapleyError):
    """A sample or index set does not match the model's feature count."""


class CapacityError(LpmShapleyError):
    """Exact enumeration was asked for more features than it supports."""


class ConvergenceError(LpmShapleyError):
    """An iterative numeric routine failed to reach its tolerance."""


class OutcomeKind(enum.Enum):
    LOG_ODDS = "log_odds"
    PROBABILITY = "probability"
    DECISION = "decision"


class Link(enum.Enum):
    LOGIT = "logit"
    PROBIT = "probit"

    @property
    def lam(self) -> float:
        """Link scaling: 1 for probit, 8/pi for the logit approximation."""
        return 1.0 if self is Link.PROBIT else LOGIT_LAMBDA

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"{value!r} is not logit or probit")


@dataclass(frozen=True)
class OutcomeSpec:
    """Which interpretation of the model output to explain.

    ``link`` matters for the Probability outcome and for transforming
    log-odds baselines onto the probability scale; ``lam`` is derived from it
    and never set independently. ``eta_star`` is the Decision threshold.
    """

    kind: OutcomeKind
    link: Link = Link.LOGIT
    eta_star: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, OutcomeKind):
            raise InvalidModelError(f"kind must be an OutcomeKind, got {self.kind!r}")
        if not isinstance(self.link, Link):
            raise InvalidModelError(f"link must be a Link, got {self.link!r}")
        if not math.isfinite(self.eta_star):
            raise InvalidModelError("eta_star must be finite")

    @property
    def lam(self) -> float:
        """Link scaling: 1 for probit, 8/pi for the logit approximation."""
        return self.link.lam

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "link": self.link.value,
            "eta_star": self.eta_star,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "OutcomeSpec":
        return cls(
            kind=_field(doc, "kind", OutcomeKind, source="outcome"),
            link=_field(doc, "link", Link, "logit", source="outcome"),
            eta_star=_field(doc, "eta_star", float, 0.0, source="outcome"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "OutcomeSpec":
        return cls.from_dict(_parse_json_object(text))


def _parse_json_object(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidModelError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidModelError("expected a JSON object")
    return doc


_REQUIRED = object()


def _field(doc: dict, key: str, convert, default=_REQUIRED, source: str = "config"):
    """``convert`` of ``doc[key]``, or of ``default`` when the key is absent.

    A missing required key, or a value that ``convert`` rejects with a
    TypeError or ValueError, is an InvalidModelError naming the key.
    """
    if key in doc:
        value = doc[key]
    elif default is _REQUIRED:
        raise InvalidModelError(f"{source} missing key: {key}")
    else:
        value = default
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise InvalidModelError(f"{source} has a malformed {key}: {exc}") from exc


def _as_float_tuple(values, name: str) -> tuple:
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise InvalidModelError(f"{name} must be a sequence of numbers") from exc
    if not all(math.isfinite(v) for v in out):
        raise InvalidModelError(f"{name} must be finite")
    return out


@dataclass(frozen=True)
class GaussianLPM:
    """A linear probability model over independent Gaussian features.

    Feature i is distributed N(means[i], stddevs[i]**2); stddevs may be zero
    (a degenerate, constant feature). The linear index is
    intercept + sum(coefficients[i] * x[i]).
    """

    intercept: float
    coefficients: tuple
    means: tuple
    stddevs: tuple

    def __init__(self, intercept: float, coefficients, means, stddevs) -> None:
        try:
            intercept = float(intercept)
        except (TypeError, ValueError) as exc:
            raise InvalidModelError("intercept must be a number") from exc
        if not math.isfinite(intercept):
            raise InvalidModelError("intercept must be finite")
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "coefficients", _as_float_tuple(coefficients, "coefficients"))
        object.__setattr__(self, "means", _as_float_tuple(means, "means"))
        object.__setattr__(self, "stddevs", _as_float_tuple(stddevs, "stddevs"))
        m = len(self.coefficients)
        if m < 1:
            raise InvalidModelError("model needs at least one feature")
        if len(self.means) != m or len(self.stddevs) != m:
            raise InvalidModelError(
                "coefficients, means, and stddevs must have equal length; got "
                f"{m}, {len(self.means)}, {len(self.stddevs)}"
            )
        if any(s < 0 for s in self.stddevs):
            raise InvalidModelError("stddevs must be nonnegative")

    @property
    def m(self) -> int:
        return len(self.coefficients)

    def coef_array(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=np.float64)

    def mean_array(self) -> np.ndarray:
        return np.asarray(self.means, dtype=np.float64)

    def stddev_array(self) -> np.ndarray:
        return np.asarray(self.stddevs, dtype=np.float64)

    def is_normalized(self) -> bool:
        """True when every coefficient is 1 and every mean is 0."""
        return all(c == 1.0 for c in self.coefficients) and all(
            mu == 0.0 for mu in self.means
        )

    def to_dict(self) -> dict:
        return {
            "intercept": self.intercept,
            "coefficients": list(self.coefficients),
            "means": list(self.means),
            "stddevs": list(self.stddevs),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GaussianLPM":
        missing = {"intercept", "coefficients", "means", "stddevs"} - set(doc)
        if missing:
            raise InvalidModelError(f"model document missing fields: {sorted(missing)}")
        return cls(
            intercept=doc["intercept"],
            coefficients=doc["coefficients"],
            means=doc["means"],
            stddevs=doc["stddevs"],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "GaussianLPM":
        return cls.from_dict(_parse_json_object(text))


def _check_finite_scalar(x, name: str) -> None:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InvalidModelError(f"{name} must be finite")


def std_normal_cdf(z):
    """Standard normal CDF, accurate to well below 1e-12 absolute error.

    Accepts a scalar or an array; non-finite input is a domain error.
    """
    _check_finite_scalar(z, "z")
    out = ndtr(np.asarray(z, dtype=np.float64))
    if np.ndim(z) == 0:
        return float(out)
    return out


def sigmoid(x):
    """Exact logistic function 1 / (1 + exp(-x))."""
    _check_finite_scalar(x, "x")
    out = expit(np.asarray(x, dtype=np.float64))
    if np.ndim(x) == 0:
        return float(out)
    return out


def sigmoid_probit_approx(x):
    """Probit approximation to the sigmoid: Phi(x / sqrt(8/pi))."""
    _check_finite_scalar(x, "x")
    out = ndtr(np.asarray(x, dtype=np.float64) / math.sqrt(LOGIT_LAMBDA))
    if np.ndim(x) == 0:
        return float(out)
    return out


def _check_sample(model: GaussianLPM, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (model.m,):
        raise DimensionMismatchError(
            f"sample has shape {arr.shape}, model expects ({model.m},)"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidModelError("sample values must be finite")
    return arr


def eta(model: GaussianLPM, x) -> float:
    """Linear index beta0 + x.beta for one sample."""
    arr = _check_sample(model, x)
    return float(model.intercept + arr @ model.coef_array())


def predict(model: GaussianLPM, outcome: OutcomeSpec, x) -> float:
    """Model output for one sample under the requested outcome.

    Decision is inclusive at the threshold: eta == eta_star predicts 1.
    """
    return float(_expected_outcome(eta(model, x), 0.0, outcome))


def _expected_outcome(mean, var, outcome: OutcomeSpec):
    """E[outcome | eta ~ N(mean, var)], elementwise over mean and var.

    This is the value function v(S) of every Shapley computation in the
    package, with (mean, var) the law of eta given the features in S:

        log-odds:     mean
        probability:  Phi(mean / sqrt(lam + var))
        decision:     Phi((mean - eta_star) / sqrt(var)),
                      the inclusive indicator mean >= eta_star where var = 0

    var = 0 gives the prediction itself. The indicator keeps value
    functions, predictions and the two-feature path consistent on the
    decision boundary (a measure-zero set that the tests do step on).
    Scalar inputs are used as given, so a scalar call costs no array
    conversion and matches the same point of an array call bit for bit.
    """
    kind = outcome.kind
    if kind is OutcomeKind.LOG_ODDS:
        return mean
    if kind is OutcomeKind.PROBABILITY:
        return ndtr(mean / np.sqrt(outcome.lam + var))
    num = mean - outcome.eta_star
    sd = np.sqrt(var)
    positive = sd > 0.0
    # Masking only where var mixes zero and positive entries keeps scalar
    # calls cheap and spends no ndtr on an all-zero (indicator) block.
    if positive.all():
        return ndtr(num / sd)
    if not positive.any():
        return 1.0 * (num >= 0.0)
    return np.where(positive, ndtr(num / np.where(positive, sd, 1.0)), num >= 0.0)


@dataclass(frozen=True)
class EtaDistribution:
    """Gaussian law of the linear index, possibly after conditioning."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.variance < 0:
            raise InvalidModelError("variance must be nonnegative")


def conditional_eta(model: GaussianLPM, known, x) -> EtaDistribution:
    """Law of eta given that the features in ``known`` are fixed at x.

    ``known`` is an iterable of 0-based feature indices. Features outside it
    contribute their means to the location and their beta^2 sigma^2 to the
    variance; independence is what keeps the conditional law Gaussian.
    """
    arr = _check_sample(model, x)
    known = set(known)
    for i in known:
        if not isinstance(i, (int, np.integer)) or not 0 <= i < model.m:
            raise DimensionMismatchError(
                f"feature index {i!r} out of range for m={model.m}"
            )
    beta = model.coef_array()
    mu = model.mean_array()
    sd = model.stddev_array()
    mask = np.zeros(model.m, dtype=bool)
    if known:
        mask[sorted(known)] = True
    mean = model.intercept + float(beta[mask] @ arr[mask]) + float(beta[~mask] @ mu[~mask])
    variance = float(((beta[~mask] * sd[~mask]) ** 2).sum())
    return EtaDistribution(mean=mean, variance=variance)


def normalize(model: GaussianLPM, x):
    """Rewrite the model so every feature has mean 0 and coefficient 1.

    Returns the equivalent model and the transformed sample
    x_tilde[i] = beta[i] * (x[i] - mu[i]). The linear index is preserved, and
    so is every Shapley value under every outcome, because the conditional
    laws of eta are untouched. A negative coefficient flips the feature axis,
    which matters for the orientation of level curves.

    Features with a zero coefficient are rejected: their normalized scale is
    undefined, so the caller must drop or keep them explicitly.
    """
    arr = _check_sample(model, x)
    for i, b in enumerate(model.coefficients):
        if b == 0.0:
            raise InvalidModelError(
                f"cannot normalize: coefficient of feature {i} is zero"
            )
    beta = model.coef_array()
    mu = model.mean_array()
    sd = model.stddev_array()
    new_model = GaussianLPM(
        intercept=model.intercept + float(beta @ mu),
        coefficients=(1.0,) * model.m,
        means=(0.0,) * model.m,
        stddevs=tuple(abs(b) * s for b, s in zip(model.coefficients, model.stddevs)),
    )
    x_tilde = tuple(float(v) for v in beta * (arr - mu))
    return new_model, x_tilde
