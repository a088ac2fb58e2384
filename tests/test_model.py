"""Model layer: construction, serialization, links, and Gaussian conditioning.

Each test class checks one property of the model layer. Numerical ground
truth comes from direct integration (scipy.integrate.quad) or from Monte
Carlo moments with seeded generators, never from the code under test.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from lpm_shapley import (
    LOGIT_LAMBDA,
    DimensionMismatchError,
    EtaDistribution,
    GaussianLPM,
    InvalidModelError,
    Link,
    OutcomeKind,
    OutcomeSpec,
    conditional_eta,
    eta,
    normalize,
    predict,
    shapley_exact,
    sigmoid,
    sigmoid_probit_approx,
    std_normal_cdf,
)
from lpm_shapley.model import _expected_outcome


def _random_model(rng, m):
    return GaussianLPM(
        intercept=float(rng.normal(0, 2)),
        coefficients=tuple(rng.normal(0, 1.5, size=m)),
        means=tuple(rng.normal(0, 1, size=m)),
        stddevs=tuple(rng.uniform(0.2, 3.0, size=m)),
    )


class TestModelConstruction:
    def test_fields_coerced_to_float_tuples(self):
        model = GaussianLPM(intercept=1, coefficients=[1, 2], means=(0, 0), stddevs=[1, 2])
        assert model.coefficients == (1.0, 2.0)
        assert isinstance(model.intercept, float)
        assert model.m == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidModelError):
            GaussianLPM(0.0, (1.0, 2.0), (0.0,), (1.0, 1.0))

    def test_no_features_rejected(self):
        with pytest.raises(InvalidModelError):
            GaussianLPM(0.0, (), (), ())

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidModelError):
            GaussianLPM(math.nan, (1.0,), (0.0,), (1.0,))
        with pytest.raises(InvalidModelError):
            GaussianLPM(0.0, (math.inf,), (0.0,), (1.0,))

    def test_negative_stddev_rejected(self):
        with pytest.raises(InvalidModelError):
            GaussianLPM(0.0, (1.0,), (0.0,), (-0.5,))

    def test_is_normalized(self):
        assert GaussianLPM(1.0, (1.0, 1.0), (0.0, 0.0), (2.0, 1.0)).is_normalized()
        assert not GaussianLPM(1.0, (2.0, 1.0), (0.0, 0.0), (2.0, 1.0)).is_normalized()
        assert not GaussianLPM(1.0, (1.0, 1.0), (0.5, 0.0), (2.0, 1.0)).is_normalized()

    def test_frozen(self):
        model = GaussianLPM(0.0, (1.0,), (0.0,), (1.0,))
        with pytest.raises(Exception):
            model.intercept = 2.0


class TestModelSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for m in (1, 2, 5):
            model = _random_model(rng, m)
            again = GaussianLPM.from_json(model.to_json())
            assert again == model

    def test_dict_keys(self):
        model = GaussianLPM(1.0, (1.0, 1.0), (0.0, 0.0), (2.0, 1.0))
        assert set(model.to_dict()) == {"intercept", "coefficients", "means", "stddevs"}

    def test_missing_field_named(self):
        with pytest.raises(InvalidModelError, match="coefficients"):
            GaussianLPM.from_dict({"intercept": 0.0, "means": [0.0], "stddevs": [1.0]})

    def test_bad_json_rejected(self):
        with pytest.raises(InvalidModelError):
            GaussianLPM.from_json("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(InvalidModelError):
            GaussianLPM.from_json("[1, 2, 3]")


class TestOutcomeSpec:
    def test_logit_lambda(self):
        """The logit link's latent-scale constant is 8/pi."""
        spec = OutcomeSpec(OutcomeKind.PROBABILITY, Link.LOGIT)
        assert spec.lam == pytest.approx(8.0 / math.pi, rel=0, abs=0)
        assert LOGIT_LAMBDA == 8.0 / math.pi

    def test_probit_lambda(self):
        spec = OutcomeSpec(OutcomeKind.PROBABILITY, Link.PROBIT)
        assert spec.lam == 1.0

    def test_round_trip(self):
        spec = OutcomeSpec(OutcomeKind.DECISION, Link.PROBIT, eta_star=0.75)
        again = OutcomeSpec.from_json(spec.to_json())
        assert again == spec

    def test_default_threshold_zero(self):
        assert OutcomeSpec(OutcomeKind.DECISION, Link.LOGIT).eta_star == 0.0

    def test_invalid_kind_rejected(self):
        with pytest.raises(InvalidModelError):
            OutcomeSpec.from_dict({"kind": "odds", "link": "logit", "eta_star": 0.0})

    def test_nonfinite_threshold_rejected(self):
        with pytest.raises(InvalidModelError):
            OutcomeSpec(OutcomeKind.DECISION, Link.LOGIT, eta_star=math.inf)


class TestStdNormalCdf:
    def test_against_quadrature(self):
        """Phi(z) equals the integral of the normal density up to z."""

        def density(t):
            return math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)

        for z in np.linspace(-6.0, 6.0, 25):
            # integrate the short interval [0, |z|] and use symmetry; quad's
            # error estimate stays tiny this way
            body, err = quad(density, 0.0, abs(z), epsabs=1e-14, epsrel=1e-13)
            expected = 0.5 + body if z >= 0 else 0.5 - body
            assert err < 1e-12
            assert_allclose(std_normal_cdf(z), expected, atol=1e-12, rtol=0)

    def test_symmetry(self):
        z = np.linspace(-8, 8, 101)
        assert_allclose(std_normal_cdf(z) + std_normal_cdf(-z), 1.0, atol=1e-15)

    def test_reference_value(self):
        # two-sided 97.5% point of the standard normal
        assert_allclose(std_normal_cdf(1.959964), 0.9750000009035577, atol=1e-15)

    def test_vector_and_scalar_forms(self):
        vec = std_normal_cdf(np.array([0.0, 1.0]))
        assert vec.shape == (2,)
        assert isinstance(std_normal_cdf(0.0), float)
        assert std_normal_cdf(0.0) == 0.5


class TestSigmoid:
    def test_definition(self):
        x = np.linspace(-30, 30, 201)
        assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-14)

    def test_symmetry(self):
        x = np.linspace(-20, 20, 101)
        assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)

    def test_no_overflow_far_out(self):
        assert sigmoid(-1000.0) == 0.0
        assert sigmoid(1000.0) == 1.0


class TestProbitApproximation:
    """The probability outcome is defined through Phi(x / sqrt(8/pi))."""

    def test_matches_cdf_form(self):
        x = np.linspace(-10, 10, 501)
        assert_allclose(
            sigmoid_probit_approx(x),
            std_normal_cdf(x / math.sqrt(8.0 / math.pi)),
            atol=1e-15,
        )

    def test_worst_case_gap_to_sigmoid(self):
        """Max |sigmoid - approximation| on [-10, 10]: a fixed, small constant.

        The value is frozen from a fine-grid scan; the approximation is the
        definition of the probability outcome, so this gap is a property of
        the design, not an error to shrink.
        """
        x = np.arange(-10.0, 10.0 + 1e-9, 1e-4)
        gap = np.max(np.abs(sigmoid(x) - sigmoid_probit_approx(x)))
        assert_allclose(gap, 0.01767118861707262, atol=1e-12)
        assert gap < 0.018

    def test_scalar_returns_float(self):
        out = sigmoid_probit_approx(0.3)
        assert isinstance(out, float)


class TestEtaAndPredict:
    def test_eta_linear_form(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            model = _random_model(rng, 4)
            x = rng.normal(0, 2, size=4)
            expected = model.intercept + float(np.dot(model.coef_array(), x))
            assert_allclose(eta(model, x), expected, rtol=1e-14)

    def test_probability_uses_latent_scale(self):
        model = GaussianLPM(0.4, (1.0, 1.0), (0.0, 0.0), (2.0, 1.0))
        x = (0.3, -0.2)
        e = eta(model, x)
        for link, lam in ((Link.LOGIT, 8.0 / math.pi), (Link.PROBIT, 1.0)):
            spec = OutcomeSpec(OutcomeKind.PROBABILITY, link)
            assert_allclose(predict(model, spec, x), std_normal_cdf(e / math.sqrt(lam)), rtol=1e-14)

    def test_decision_inclusive_at_threshold(self):
        model = GaussianLPM(0.0, (1.0,), (0.0,), (1.0,))
        spec = OutcomeSpec(OutcomeKind.DECISION, Link.LOGIT, eta_star=0.5)
        assert predict(model, spec, (0.5,)) == 1.0
        assert predict(model, spec, (0.5 - 1e-12,)) == 0.0

    def test_dimension_mismatch_rejected(self):
        model = GaussianLPM(0.0, (1.0, 1.0), (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(DimensionMismatchError):
            eta(model, (1.0,))


_LOG_ODDS = OutcomeSpec(OutcomeKind.LOG_ODDS, Link.LOGIT)
_PROB = OutcomeSpec(OutcomeKind.PROBABILITY, Link.LOGIT)
_PROBIT = OutcomeSpec(OutcomeKind.PROBABILITY, Link.PROBIT)
_DECISION = OutcomeSpec(OutcomeKind.DECISION, Link.LOGIT, eta_star=0.7)
_MODEL = GaussianLPM(0.2, (1.0, -2.0), (0.0, 0.0), (1.0, 1.0))
_X = (0.5, 0.1)  # eta = 0.5


class TestExpectedOutcome:
    """The one E[outcome | eta ~ N(mean, var)] kernel behind every value."""

    @pytest.mark.parametrize(
        "spec, mean, var, want",
        [
            # var = 0 is the prediction itself, for every outcome
            (_LOG_ODDS, 0.5, 0.0, predict(_MODEL, _LOG_ODDS, _X)),
            (_PROB, 0.5, 0.0, predict(_MODEL, _PROB, _X)),
            (_PROBIT, 0.5, 0.0, predict(_MODEL, _PROBIT, _X)),
            (_DECISION, 0.5, 0.0, predict(_MODEL, _DECISION, _X)),
            # the decision indicator is inclusive: mean == eta_star gives 1
            (_DECISION, 0.7, 0.0, 1.0),
            # var > 0: the closed forms
            (_PROB, -0.4, 2.5, std_normal_cdf(-0.4 / math.sqrt(LOGIT_LAMBDA + 2.5))),
            (_DECISION, -0.4, 2.5, std_normal_cdf((-0.4 - 0.7) / math.sqrt(2.5))),
        ],
    )
    def test_contract(self, spec, mean, var, want):
        """Each case holds for a scalar call, and the scalar call is bit-identical
        to the same point inside an array call mixing zero and positive var."""
        scalar = _expected_outcome(mean, var, spec)
        assert scalar == want
        means = np.array([1.3, mean, -2.0])
        variances = np.array([0.0, var, 4.0])
        assert _expected_outcome(means, variances, spec)[1] == scalar
        assert _expected_outcome(means, var, spec)[1] == scalar


class TestConditionalEta:
    def test_no_conditioning_gives_marginal_law(self):
        model = GaussianLPM(1.0, (2.0, -1.0), (0.5, 1.0), (3.0, 0.5))
        law = conditional_eta(model, (), (9.0, 9.0))
        assert_allclose(law.mean, 1.0 + 2.0 * 0.5 - 1.0 * 1.0, rtol=1e-14)
        assert_allclose(law.variance, (2.0 * 3.0) ** 2 + (1.0 * 0.5) ** 2, rtol=1e-14)

    def test_full_conditioning_is_deterministic(self):
        model = GaussianLPM(1.0, (2.0, -1.0), (0.5, 1.0), (3.0, 0.5))
        x = (0.2, -0.4)
        law = conditional_eta(model, (0, 1), x)
        assert law.variance == 0.0
        assert_allclose(law.mean, eta(model, x), rtol=1e-14)

    def test_partial_conditioning_mixes_sample_and_means(self):
        model = GaussianLPM(0.0, (1.0, 2.0, 3.0), (1.0, -1.0, 0.5), (1.0, 2.0, 3.0))
        x = (5.0, 0.0, 0.0)
        law = conditional_eta(model, (0,), x)
        assert_allclose(law.mean, 5.0 + 2.0 * (-1.0) + 3.0 * 0.5, rtol=1e-14)
        assert_allclose(law.variance, (2.0 * 2.0) ** 2 + (3.0 * 3.0) ** 2, rtol=1e-14)

    def test_monte_carlo_moments(self):
        """Sampled eta with free features drawn from their marginals matches
        the conditional law's mean and variance within sampling error."""
        rng = np.random.default_rng(17)
        model = _random_model(rng, 3)
        x = rng.normal(0, 1, size=3)
        law = conditional_eta(model, (1,), x)
        n = 1_000_000
        beta = model.coef_array()
        draws = (
            model.intercept
            + beta[1] * x[1]
            + beta[0] * rng.normal(model.means[0], model.stddevs[0], size=n)
            + beta[2] * rng.normal(model.means[2], model.stddevs[2], size=n)
        )
        se_mean = math.sqrt(law.variance / n)
        assert abs(draws.mean() - law.mean) < 4 * se_mean
        # variance of the sample variance of a Gaussian is 2 sigma^4 / (n-1)
        se_var = math.sqrt(2.0 / (n - 1)) * law.variance
        assert abs(draws.var(ddof=1) - law.variance) < 4 * se_var

    def test_bad_index_rejected(self):
        model = GaussianLPM(0.0, (1.0, 1.0), (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(DimensionMismatchError):
            conditional_eta(model, (2,), (0.0, 0.0))


class TestEtaDistribution:
    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidModelError):
            EtaDistribution(mean=0.0, variance=-1e-9)


class TestNormalize:
    def test_transformed_sample_formula(self):
        model = GaussianLPM(1.0, (2.0, -0.5), (1.0, 3.0), (1.5, 2.0))
        x = (2.0, 1.0)
        normed, x_tilde = normalize(model, x)
        assert normed.is_normalized()
        assert_allclose(x_tilde, (2.0 * (2.0 - 1.0), -0.5 * (1.0 - 3.0)), rtol=1e-14)
        assert normed.stddevs == (2.0 * 1.5, 0.5 * 2.0)

    def test_eta_preserved(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            model = _random_model(rng, 3)
            x = rng.normal(0, 2, size=3)
            normed, x_tilde = normalize(model, x)
            assert_allclose(eta(normed, x_tilde), eta(model, x), rtol=1e-12, atol=1e-12)

    def test_shapley_values_invariant(self):
        """Normalization relabels feature axes without touching any
        conditional law of eta, so every Shapley value is unchanged."""
        rng = np.random.default_rng(29)
        for _ in range(20):
            model = _random_model(rng, 3)
            x = rng.normal(0, 2, size=3)
            normed, x_tilde = normalize(model, x)
            for kind in OutcomeKind:
                spec = OutcomeSpec(kind, Link.LOGIT, eta_star=0.3)
                a = shapley_exact(model, spec, x)
                b = shapley_exact(normed, spec, x_tilde)
                assert_allclose(b.phis, a.phis, atol=1e-10)
                assert_allclose(b.baseline, a.baseline, atol=1e-12)

    def test_zero_coefficient_rejected_naming_feature(self):
        model = GaussianLPM(0.0, (1.0, 0.0), (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(InvalidModelError, match="feature 1"):
            normalize(model, (0.0, 0.0))
