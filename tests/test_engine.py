"""Exact Shapley engine: value functions, enumeration, and the two-feature path.

The enumeration engine is checked against hand-computable closed forms, the
Shapley axioms (efficiency, symmetry, dummy), and an independent
per-subset reference built here from the raw weighted-marginal definition.
The characteristic-function path is checked against the enumeration.
"""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpm_shapley import engine
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

    def test_per_row_null_players_are_exactly_zero(self):
        """A zero-sd feature is a null player in the rows where x = mu and an
        atom in the others; the streamed weighted sum must still give its
        null rows exactly 0 (unmasked, it leaves rounding residue)."""
        rng = np.random.default_rng(25)
        for m in range(3, 13):
            model = _random_model(rng, m)
            sds = list(model.stddevs)
            sds[m // 2] = 0.0
            model = GaussianLPM(model.intercept, model.coefficients, model.means, tuple(sds))
            xs = rng.normal(0, 2, size=(8, m))
            xs[::2, m // 2] = model.means[m // 2]
            for spec in ALL_SPECS[1:]:
                batch = shapley_exact_batch(model, spec, xs)
                assert np.all(batch[::2, 1 + m // 2] == 0.0)

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


class TestDecisionThresholdEfficiency:
    """Efficiency holds to 1e-10 against ``predict`` right at the decision
    threshold: the full subset's value must be the prediction's own
    inclusive indicator, with no variance dust and no rounding of
    b0 + sum(delta) to the other side of eta_star."""

    SPEC = OutcomeSpec(OutcomeKind.DECISION, Link.LOGIT)

    def test_reproducer_at_eta_1e_7(self):
        model = GaussianLPM(0.0, (1.0,) * 4, (0.0,) * 4, (0.908, 16.516, 181.483, 18.317))
        expl = shapley_exact(model, self.SPEC, (-2.279, 1.174, 1.067, 0.0380001))
        assert expl.prediction == 1.0
        assert abs(expl.residual()) <= 1e-10

    def test_seeded_sweep_single_and_batch(self):
        """Unit coefficients, zero means, sds log-uniform on 0.5..300 and the
        last x set so that eta = offset, at m from 2 to 17 (both paths)."""
        rng = np.random.default_rng(26)
        offsets = (0.0, 1e-9, -1e-9, 1e-7)
        for m in (2, 4, 8, 12, 16, 17):
            for _ in range(3):
                sds = np.exp(rng.uniform(math.log(0.5), math.log(300.0), m))
                model = GaussianLPM(0.0, (1.0,) * m, (0.0,) * m, tuple(sds))
                xs = rng.normal(0.0, sds, size=(len(offsets), m))
                xs[:, -1] = np.array(offsets) - xs[:, :-1].sum(axis=1)
                batch = shapley_exact_batch(model, self.SPEC, xs)
                for row, x in zip(batch, xs):
                    prediction = predict(model, self.SPEC, x)
                    assert abs(row[0] + math.fsum(row[1:]) - prediction) <= 1e-10
                    assert abs(shapley_exact(model, self.SPEC, x).residual()) <= 1e-10


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


class TestExactPaths:
    """The kernel's three paths: log-odds shortcut, enumeration, CF inversion."""

    SPECS = [
        OutcomeSpec(kind, link, eta_star=eta_star)
        for kind in (OutcomeKind.PROBABILITY, OutcomeKind.DECISION)
        for link in (Link.LOGIT, Link.PROBIT)
        for eta_star in (0.0, 0.3)
    ]

    @staticmethod
    def _case(rng, m, scale, intercept):
        delta = rng.normal(0, scale, m) * rng.normal(0, 1.5, m)
        t = (rng.uniform(0.3, 1.5, m) * scale) ** 2
        return np.array([intercept]), delta[None], t[None]

    @staticmethod
    def _assert_cf_matches_enumeration(b0, delta, t, spec):
        eta = b0 + delta.sum(axis=1)
        _, want = engine._enumerate_phis(b0, eta, delta, t, spec)
        got = engine._cf_phis(float(b0[0]), float(eta[0]), delta[0], t[0], spec, math.inf)
        assert_allclose(got, want[0], rtol=0, atol=1e-12)
        return got

    def test_cf_path_matches_enumeration(self):
        """m = 2..16 runs every (scale, intercept) pair once, each under both
        outcomes, both links and two thresholds; odd m carry a zero
        coefficient (delta = t = 0)."""
        rng = np.random.default_rng(20)
        scales = (0.02, 1.0, 200.0)
        intercepts = (8.0, -8.0, 20.0, -20.0, None)
        for m in range(2, 17):
            scale = scales[(m - 2) % 3]
            intercept = intercepts[(m - 2) // 3]
            if intercept is None:
                intercept = float(rng.normal(0, 2 * scale))
            b0, delta, t = self._case(rng, m, scale, intercept)
            if m % 2:
                delta[0, 1] = t[0, 1] = 0.0
            for spec in self.SPECS:
                got = self._assert_cf_matches_enumeration(b0, delta, t, spec)
                if m % 2:
                    assert got[1] == 0.0

    def test_cf_path_on_the_decision_boundary(self):
        """b0 + sum(delta) == eta_star exactly (dyadic inputs): the full
        subset's value is the inclusive indicator, 1."""
        delta = np.array([[0.5, -0.25, -0.75, 0.0, 0.125, 0.125]])
        t = np.array([[1.0, 0.25, 4.0, 0.0, 0.5, 2.0]])
        for eta_star in (0.0, 0.375):
            spec = OutcomeSpec(OutcomeKind.DECISION, Link.LOGIT, eta_star=eta_star)
            b0 = np.array([0.25 + eta_star])
            got = self._assert_cf_matches_enumeration(b0, delta, t, spec)
            base = engine._enumerate_phis(b0, b0 + delta.sum(axis=1), delta, t, spec)[0][0]
            assert_allclose(base + got.sum(), 1.0, rtol=0, atol=1e-12)

    def test_wide_model_takes_the_cf_path(self):
        rng = np.random.default_rng(21)
        b0, delta, t = self._case(rng, 20, 1.0, 0.5)
        eta = b0 + delta.sum(axis=1)
        for spec in (self.SPECS[0], self.SPECS[-1]):
            want_base, want = engine._enumerate_phis(b0, eta, delta, t, spec)
            base, phis = engine._exact_phis(b0, eta, delta, t, spec)
            assert np.array_equal(
                phis[0],
                engine._cf_phis(float(b0[0]), float(eta[0]), delta[0], t[0], spec, math.inf),
            )
            assert_allclose(phis, want, rtol=0, atol=1e-12)
            assert base[0] == want_base[0]

    def test_zero_sd_decision_feature_is_enumerated(self):
        """A zero-variance feature with x != mu is an undamped atom of the
        decision value's law: the CF path declines and enumeration serves.
        The probability outcome's link noise damps it, so the CF path holds."""
        m = 16
        rng = np.random.default_rng(22)
        sds = rng.uniform(0.5, 2.0, m)
        sds[3] = 0.0
        model = GaussianLPM(0.3, tuple(rng.normal(0, 1.5, m)), (0.0,) * m, tuple(sds))
        x = rng.normal(0, 1.0, m)
        spec = OutcomeSpec(OutcomeKind.DECISION, Link.LOGIT, eta_star=0.3)
        b0, delta, t = engine._model_case_arrays(model, x)
        eta = b0 + delta.sum(axis=1)
        assert engine._cf_phis(float(b0[0]), float(eta[0]), delta[0], t[0], spec, math.inf) is None
        base, phis = engine._enumerate_phis(b0, eta, delta, t, spec)
        expl = shapley_exact(model, spec, x)
        assert expl.baseline == base[0]
        assert expl.phis == tuple(phis[0])
        self._assert_cf_matches_enumeration(b0, delta, t, self.SPECS[0])

    def test_batch_rows_equal_single_calls_bit_for_bit(self):
        """At m >= 15 batch rows go through the single-case kernel, whichever
        path each row takes (row 0 has x = mu on the zero-sd feature, so its
        CF path is open; the others enumerate)."""
        m = 15
        rng = np.random.default_rng(23)
        sds = rng.uniform(0.5, 2.0, m)
        sds[0] = 0.0
        model = GaussianLPM(-0.2, tuple(rng.normal(0, 1.5, m)), (0.0,) * m, tuple(sds))
        xs = rng.normal(0, 1.0, (3, m))
        xs[0, 0] = 0.0
        for spec in (ALL_SPECS[1], ALL_SPECS[4]):
            batch = shapley_exact_batch(model, spec, xs)
            for row, x in zip(batch, xs):
                expl = shapley_exact(model, spec, x)
                assert row[0] == expl.baseline
                assert tuple(row[1:]) == expl.phis

    def test_log_odds_is_delta_at_any_m(self):
        """On a dyadic model every step is exact, so phi = delta and the
        efficiency residual is 0 (the m = 24 enumeration missed by 1e-12)."""
        m = 24
        beta = np.tile([1.0, -0.5, 0.25, -2.0], m // 4)
        mu = np.tile([0.5, -1.0, 0.0, 0.25], m // 4)
        x = np.tile([1.5, 0.25, -0.75, 0.5], m // 4)
        model = GaussianLPM(0.75, tuple(beta), tuple(mu), (1.0,) * m)
        expl = shapley_exact(model, ALL_SPECS[0], x)
        assert expl.phis == tuple(beta * (x - mu))
        assert expl.baseline == 0.75 + float(beta @ mu)
        assert expl.residual() == 0.0

    def test_small_m_batch_memory(self, child_peak_rss):
        """A 4,096-row batch at m = 12 in a fresh process stays under 250 MB:
        the enumeration streams its masks instead of holding a 4,096 x 2^12
        value table and its per-feature copies (about 440 MB)."""
        code = (
            "import numpy as np\n"
            "from lpm_shapley import GaussianLPM, OutcomeKind, OutcomeSpec, shapley_exact_batch\n"
            "rng = np.random.default_rng(27)\n"
            "m = 12\n"
            "model = GaussianLPM(0.2, tuple(rng.normal(0, 1, m)), (0.0,) * m, tuple(rng.uniform(0.5, 2, m)))\n"
            "out = shapley_exact_batch(model, OutcomeSpec(OutcomeKind.DECISION), rng.normal(0, 1, (4096, m)))\n"
            "assert out.shape == (4096, m + 1)\n"
        )
        rss_mb, _ = child_peak_rss(code, timeout=120)
        assert rss_mb < 250.0

    def test_wide_call_memory_and_time(self, child_peak_rss):
        """One m = 24 call per outcome in a fresh process: under 300 MB of
        peak RSS and 5 s (full enumeration needs about 2.3 GB and 6 s a call)."""
        code = (
            "import time\n"
            "import numpy as np\n"
            "from lpm_shapley import GaussianLPM, Link, OutcomeKind, OutcomeSpec, shapley_exact\n"
            "rng = np.random.default_rng(24)\n"
            "m = 24\n"
            "beta = rng.choice((-1.0, 1.0), m) * rng.uniform(0.5, 1.5, m)\n"
            "model = GaussianLPM(0.5, tuple(beta), (0.0,) * m, tuple(np.linspace(0.5, 2.0, m)))\n"
            "x = rng.normal(0.0, 1.0, m)\n"
            "start = time.perf_counter()\n"
            "for kind in OutcomeKind:\n"
            "    assert abs(shapley_exact(model, OutcomeSpec(kind), x).residual()) <= 1e-10\n"
            "print(time.perf_counter() - start)\n"
        )
        rss_mb, out = child_peak_rss(code, timeout=120)
        assert rss_mb < 300.0
        assert float(out) < 5.0
