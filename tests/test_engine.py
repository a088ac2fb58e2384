"""Exact Shapley engine: value functions, enumeration, and the two-feature path.

The enumeration engine is checked against hand-computable closed forms, the
Shapley axioms (efficiency, symmetry, dummy), and an independent
per-subset reference built here from the raw weighted-marginal definition.
"""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpm_shapley import (
    CapacityError,
    DimensionMismatchError,
    Explanation,
    GaussianLPM,
    InvalidModelError,
    Link,
    OutcomeKind,
    OutcomeSpec,
    baseline,
    baseline_report,
    conditional_eta,
    eta,
    predict,
    shapley_exact,
    shapley_exact_batch,
    shapley_two_feature,
    std_normal_cdf,
    two_feature_phis,
    value_function,
)

ALL_SPECS = [
    OutcomeSpec(OutcomeKind.LOG_ODDS, Link.LOGIT),
    OutcomeSpec(OutcomeKind.PROBABILITY, Link.LOGIT),
    OutcomeSpec(OutcomeKind.PROBABILITY, Link.PROBIT),
    OutcomeSpec(OutcomeKind.DECISION, Link.LOGIT, eta_star=0.0),
    OutcomeSpec(OutcomeKind.DECISION, Link.LOGIT, eta_star=0.7),
]


def _random_model(rng, m):
    return GaussianLPM(
        intercept=float(rng.normal(0, 2)),
        coefficients=tuple(rng.normal(0, 1.5, size=m)),
        means=tuple(rng.normal(0, 1, size=m)),
        stddevs=tuple(rng.uniform(0.2, 3.0, size=m)),
    )


def _reference_shapley(model, spec, x):
    """Direct weighted-marginal Shapley computation from the definition.

    Sums |S|! (m - |S| - 1)! / m! marginal contributions over every subset,
    using only value_function. Exponential in m; fine for m <= 6.
    """
    m = model.m
    phis = np.zeros(m)
    features = range(m)
    for i in features:
        rest = [j for j in features if j != i]
        for k in range(m):
            weight = math.factorial(k) * math.factorial(m - k - 1) / math.factorial(m)
            for subset in itertools.combinations(rest, k):
                gain = value_function(model, spec, subset + (i,), x) - value_function(
                    model, spec, subset, x
                )
                phis[i] += weight * gain
    return phis


class TestValueFunction:
    def test_empty_subset_is_baseline(self):
        rng = np.random.default_rng(5)
        for spec in ALL_SPECS:
            model = _random_model(rng, 3)
            x = rng.normal(0, 1, size=3)
            assert_allclose(
                value_function(model, spec, (), x), baseline(model, spec), rtol=1e-14
            )

    def test_full_subset_is_prediction(self):
        rng = np.random.default_rng(6)
        for spec in ALL_SPECS:
            model = _random_model(rng, 3)
            x = rng.normal(0, 1, size=3)
            assert_allclose(
                value_function(model, spec, (0, 1, 2), x),
                predict(model, spec, x),
                rtol=1e-14,
            )

    def test_log_odds_value_is_conditional_mean(self):
        rng = np.random.default_rng(7)
        model = _random_model(rng, 4)
        x = rng.normal(0, 1, size=4)
        spec = OutcomeSpec(OutcomeKind.LOG_ODDS, Link.LOGIT)
        for subset in ((), (1,), (0, 2), (0, 1, 2, 3)):
            law = conditional_eta(model, subset, x)
            assert_allclose(value_function(model, spec, subset, x), law.mean, rtol=1e-14)

    def test_probability_value_closed_form(self):
        """v(S) = Phi(mu_S / sqrt(lam + s2_S)): the Gaussian-smoothed link."""
        rng = np.random.default_rng(8)
        model = _random_model(rng, 3)
        x = rng.normal(0, 1, size=3)
        for link in (Link.LOGIT, Link.PROBIT):
            spec = OutcomeSpec(OutcomeKind.PROBABILITY, link)
            for subset in ((), (0,), (1, 2)):
                law = conditional_eta(model, subset, x)
                expected = std_normal_cdf(law.mean / math.sqrt(spec.lam + law.variance))
                assert_allclose(value_function(model, spec, subset, x), expected, rtol=1e-14)

    def test_decision_value_closed_form(self):
        """v(S) = Phi((mu_S - eta*) / s_S), crossing probability of the rest."""
        rng = np.random.default_rng(9)
        model = _random_model(rng, 3)
        x = rng.normal(0, 1, size=3)
        spec = OutcomeSpec(OutcomeKind.DECISION, Link.LOGIT, eta_star=0.4)
        for subset in ((), (0,), (1, 2)):
            law = conditional_eta(model, subset, x)
            expected = std_normal_cdf((law.mean - 0.4) / math.sqrt(law.variance))
            assert_allclose(value_function(model, spec, subset, x), expected, rtol=1e-14)

    def test_decision_value_degenerate_subset_is_indicator(self):
        model = GaussianLPM(0.0, (1.0, 1.0), (0.0, 0.0), (1.0, 1.0))
        spec = OutcomeSpec(OutcomeKind.DECISION, Link.LOGIT, eta_star=0.25)
        assert value_function(model, spec, (0, 1), (0.25, 0.0)) == 1.0
        assert value_function(model, spec, (0, 1), (0.25 - 1e-9, 0.0)) == 0.0


class TestShapleyAxioms:
    def test_efficiency(self):
        """baseline + sum(phis) = prediction, to near machine precision."""
        rng = np.random.default_rng(10)
        for _ in range(60):
            m = int(rng.integers(1, 7))
            model = _random_model(rng, m)
            x = rng.normal(0, 2, size=m)
            for spec in ALL_SPECS:
                expl = shapley_exact(model, spec, x)
                assert abs(expl.residual()) <= 1e-10

    def test_symmetry(self):
        """Interchangeable features (same beta, mu, sigma, x) get equal phis."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            b = float(rng.normal(0, 1))
            mu = float(rng.normal(0, 1))
            sd = float(rng.uniform(0.3, 2.0))
            model = GaussianLPM(
                float(rng.normal(0, 1)), (b, b, 0.7), (mu, mu, 0.0), (sd, sd, 1.0)
            )
            xv = float(rng.normal(0, 1))
            x = (xv, xv, 0.4)
            for spec in ALL_SPECS:
                expl = shapley_exact(model, spec, x)
                assert_allclose(expl.phis[0], expl.phis[1], atol=1e-12)

    def test_dummy_feature_gets_zero(self):
        """A zero-coefficient feature changes no conditional law: phi = 0."""
        rng = np.random.default_rng(12)
        for _ in range(20):
            model = GaussianLPM(
                float(rng.normal(0, 1)),
                (float(rng.normal(0, 1)), 0.0, float(rng.normal(0, 1))),
                tuple(rng.normal(0, 1, size=3)),
                tuple(rng.uniform(0.3, 2.0, size=3)),
            )
            x = rng.normal(0, 2, size=3)
            for spec in ALL_SPECS:
                expl = shapley_exact(model, spec, x)
                assert expl.phis[1] == 0.0

    def test_matches_definition_reference(self):
        """Enumeration agrees with the raw weighted-marginal definition."""
        rng = np.random.default_rng(13)
        for m in (1, 2, 3, 4):
            model = _random_model(rng, m)
            x = rng.normal(0, 1, size=m)
            for spec in ALL_SPECS:
                expl = shapley_exact(model, spec, x)
                ref = _reference_shapley(model, spec, x)
                assert_allclose(expl.phis, ref, atol=1e-12)

    def test_linear_outcome_phis(self):
        """For the linear score, phi_i = beta_i (x_i - mu_i) exactly."""
        rng = np.random.default_rng(14)
        spec = OutcomeSpec(OutcomeKind.LOG_ODDS, Link.LOGIT)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            model = _random_model(rng, m)
            x = rng.normal(0, 2, size=m)
            expl = shapley_exact(model, spec, x)
            expected = model.coef_array() * (np.asarray(x) - model.mean_array())
            assert_allclose(expl.phis, expected, atol=1e-12)
            assert_allclose(expl.baseline, conditional_eta(model, (), x).mean, rtol=1e-14)
            assert_allclose(expl.prediction, eta(model, x), rtol=1e-14)

    def test_own_coordinate_monotonicity(self):
        """phi_i increases in x_i for positive beta_i, for every outcome."""
        model = GaussianLPM(0.3, (1.0, 1.0), (0.0, 0.0), (2.0, 1.0))
        grid = np.linspace(-4, 4, 41)
        for spec in ALL_SPECS:
            values = [shapley_exact(model, spec, (g, 0.5)).phis[0] for g in grid]
            diffs = np.diff(values)
            assert np.all(diffs >= -1e-12)


class TestBatchKernel:
    def test_matches_single_calls(self):
        rng = np.random.default_rng(15)
        for m in (1, 3, 5):
            model = _random_model(rng, m)
            xs = rng.normal(0, 2, size=(40, m))
            for spec in ALL_SPECS:
                batch = shapley_exact_batch(model, spec, xs)
                assert batch.shape == (40, m + 1)
                for row, x in zip(batch, xs):
                    expl = shapley_exact(model, spec, x)
                    assert_allclose(row[0], expl.baseline, atol=1e-13)
                    assert_allclose(row[1:], expl.phis, atol=1e-12)

    def test_bad_shape_rejected(self):
        model = GaussianLPM(0.0, (1.0, 1.0), (0.0, 0.0), (1.0, 1.0))
        spec = OutcomeSpec(OutcomeKind.LOG_ODDS, Link.LOGIT)
        with pytest.raises(DimensionMismatchError):
            shapley_exact_batch(model, spec, np.zeros((5, 3)))


class TestCapacity:
    def test_too_many_features_rejected(self):
        m = 26
        model = GaussianLPM(0.0, (1.0,) * m, (0.0,) * m, (1.0,) * m)
        spec = OutcomeSpec(OutcomeKind.LOG_ODDS, Link.LOGIT)
        with pytest.raises(CapacityError, match="25"):
            shapley_exact(model, spec, (0.0,) * m)

    def test_factorial_weights_sum_to_one(self):
        """Enumeration weights are a probability law over subset sizes:
        sum over k of C(m-1, k) / (m * C(m-1, k)) = 1."""
        for m in range(1, 26):
            total = sum(
                math.comb(m - 1, k) / (m * math.comb(m - 1, k)) for k in range(m)
            )
            assert_allclose(total, 1.0, rtol=1e-12)


class TestTwoFeaturePath:
    def test_matches_enumeration_everywhere(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            b0 = float(rng.normal(0, 3))
            s1, s2 = rng.uniform(0.05, 30.0, size=2)
            model = GaussianLPM(b0, (1.0, 1.0), (0.0, 0.0), (s1, s2))
            x = rng.normal(0, 2 * max(s1, s2), size=2)
            for spec in ALL_SPECS:
                expl_fast = shapley_two_feature(model, spec, x)
                expl_ref = shapley_exact(model, spec, x)
                assert_allclose(expl_fast.phis, expl_ref.phis, atol=1e-12)
                assert_allclose(expl_fast.baseline, expl_ref.baseline, atol=1e-12)
                assert_allclose(expl_fast.prediction, expl_ref.prediction, atol=1e-12)

    def test_vectorized_form_matches_scalars(self):
        rng = np.random.default_rng(17)
        b0, s1, s2 = 0.4, 2.0, 1.0
        x1 = rng.normal(0, 3, size=200)
        x2 = rng.normal(0, 2, size=200)
        for spec in ALL_SPECS:
            phi0, phi1, phi2 = two_feature_phis(b0, s1, s2, x1, x2, spec)
            for j in (0, 57, 199):
                s0, sa, sb = two_feature_phis(
                    b0, s1, s2, float(x1[j]), float(x2[j]), spec
                )
                assert_allclose([phi0[j], phi1[j], phi2[j]], [s0, sa, sb], atol=1e-14)

    def test_requires_normalized_model(self):
        model = GaussianLPM(0.0, (2.0, 1.0), (0.0, 0.0), (1.0, 1.0))
        spec = OutcomeSpec(OutcomeKind.LOG_ODDS, Link.LOGIT)
        with pytest.raises(InvalidModelError, match="normalize"):
            shapley_two_feature(model, spec, (0.0, 0.0))

    def test_requires_two_features(self):
        model = GaussianLPM(0.0, (1.0,), (0.0,), (1.0,))
        spec = OutcomeSpec(OutcomeKind.LOG_ODDS, Link.LOGIT)
        with pytest.raises(DimensionMismatchError):
            shapley_two_feature(model, spec, (0.0,))


class TestDecisionDiscontinuity:
    def test_attribution_jumps_across_threshold(self):
        """Crossing the decision boundary flips the full-coalition indicator,
        which carries Shapley weight 1/2 in the two-feature game: adjacent
        samples straddling the boundary differ by at least 0.4 in phi_1."""
        model = GaussianLPM(0.0, (1.0, 1.0), (0.0, 0.0), (2.0, 1.0))
        spec = OutcomeSpec(OutcomeKind.DECISION, Link.LOGIT)
        for x2 in (-1.7, 0.0, 2.3):
            lo = shapley_two_feature(model, spec, (-x2 - 1e-9, x2)).phis[0]
            hi = shapley_two_feature(model, spec, (-x2 + 1e-9, x2)).phis[0]
            assert hi - lo >= 0.4


class TestBaselines:
    def test_baseline_is_empty_coalition_value(self):
        rng = np.random.default_rng(18)
        model = _random_model(rng, 3)
        for spec in ALL_SPECS:
            assert_allclose(
                baseline(model, spec),
                value_function(model, spec, (), model.means),
                rtol=1e-14,
            )

    def test_transformed_score_baseline(self):
        """Pushing the linear-score baseline through the link gives
        Phi(E(eta) / sqrt(lam)), distinct from the probability baseline."""
        model = GaussianLPM(1.0, (1.0, 1.0), (0.0, 0.0), (2.0, 1.0))
        for link in (Link.LOGIT, Link.PROBIT):
            spec = OutcomeSpec(OutcomeKind.PROBABILITY, link)
            expected = std_normal_cdf(1.0 / math.sqrt(spec.lam))
            assert_allclose(
                baseline_report(model, link).phi0_eta_transformed, expected, rtol=1e-14
            )


class TestExplanationContract:
    def test_serialized_keys_exactly(self):
        model = GaussianLPM(0.2, (1.0, 1.0), (0.0, 0.0), (2.0, 1.0))
        spec = OutcomeSpec(OutcomeKind.PROBABILITY, Link.LOGIT)
        doc = shapley_exact(model, spec, (0.5, -0.5)).to_dict()
        assert set(doc) == {"baseline", "phis", "prediction", "outcome"}
        assert doc["outcome"] == {"kind": "probability", "link": "logit", "eta_star": 0.0}
        assert isinstance(doc["phis"], list)

    def test_residual_definition(self):
        expl = Explanation(
            outcome=OutcomeSpec(OutcomeKind.LOG_ODDS, Link.LOGIT),
            x=(0.0, 0.0),
            baseline=0.25,
            phis=(0.5, 0.125),
            prediction=0.875,
        )
        assert expl.residual() == 0.0
