"""Sampling oracle: deterministic streams, estimator correctness, quadrature.

The oracle must be trustworthy on its own terms before it can referee the
closed forms, so these tests check its randomness plumbing (addressable,
reproducible, platform-pinned streams), its statistical behavior
(unbiasedness against closed forms, 1/sqrt(n) error decay), and its
quadrature ground truth against direct integration.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from lpm_shapley import (
    ConvergenceError,
    GaussianLPM,
    Link,
    OracleEstimate,
    OutcomeKind,
    OutcomeSpec,
    RngSpec,
    conditional_eta,
    gauss_hermite_expect_sigmoid,
    mc_shapley,
    mc_value_function,
    predict,
    shapley_exact,
    sigmoid,
    standard_normal,
    std_normal_cdf,
)
from lpm_shapley.oracle import _raw_words, _uniform_permutation


def _random_model(rng, m):
    return GaussianLPM(
        intercept=float(rng.normal(0, 1.5)),
        coefficients=tuple(rng.normal(0, 1.2, size=m)),
        means=tuple(rng.normal(0, 1, size=m)),
        stddevs=tuple(rng.uniform(0.3, 2.5, size=m)),
    )


class TestRngSpec:
    def test_validation(self):
        with pytest.raises(Exception):
            RngSpec(seed=-1)
        with pytest.raises(Exception):
            RngSpec(seed=2**64)
        assert RngSpec(seed=0).stream == 0

    def test_estimate_validation(self):
        with pytest.raises(Exception):
            OracleEstimate(value=0.0, std_error=-1.0, n_samples=10)


class TestStreamAddressing:
    def test_same_address_same_draws(self):
        spec = RngSpec(seed=99, stream=2)
        a = standard_normal(spec, 100, path=(4, 7))
        b = standard_normal(spec, 100, path=(4, 7))
        assert np.array_equal(a, b)

    def test_distinct_addresses_differ(self):
        spec = RngSpec(seed=99)
        base = standard_normal(spec, 100, path=(0,))
        assert not np.array_equal(base, standard_normal(spec, 100, path=(1,)))
        assert not np.array_equal(base, standard_normal(RngSpec(seed=100), 100, path=(0,)))
        assert not np.array_equal(
            base, standard_normal(RngSpec(seed=99, stream=1), 100, path=(0,))
        )

    def test_counter_words_pinned(self):
        """Raw generator output is part of the reproducibility contract:
        these exact words must come back on any platform."""
        words = _raw_words(RngSpec(seed=12345), (0,), 4)
        assert list(words) == [
            14304198281923020603,
            9044031903793399423,
            3731394834975343333,
            8700961519976082648,
        ]

    def test_normals_pinned(self):
        z = standard_normal(RngSpec(seed=12345), 6, path=(2, 1))
        assert_allclose(
            z,
            [
                -0.34171576859961184,
                -0.5715129831224373,
                0.26994060963774646,
                0.26138884621734415,
                0.6287508760673561,
                -1.0600637008940985,
            ],
            rtol=0,
            atol=0,
        )

    def test_permutations_pinned_and_valid(self):
        spec = RngSpec(seed=12345)
        p0 = _uniform_permutation(5, spec, (3, 0))
        p1 = _uniform_permutation(5, spec, (3, 1))
        assert list(p0) == [3, 0, 2, 1, 4]
        assert list(p1) == [1, 3, 2, 0, 4]
        assert sorted(p0) == list(range(5))

    def test_normal_moments(self):
        z = standard_normal(RngSpec(seed=7), 1_000_000, path=(9,))
        assert abs(z.mean()) < 4 / math.sqrt(1_000_000)
        assert abs(z.var() - 1.0) < 4 * math.sqrt(2.0 / 1_000_000)


class TestMcValueFunction:
    def test_full_subset_is_exact(self):
        rng = np.random.default_rng(21)
        model = _random_model(rng, 3)
        x = rng.normal(0, 1, size=3)
        spec = OutcomeSpec(OutcomeKind.PROBABILITY, Link.LOGIT)
        est = mc_value_function(model, spec, (0, 1, 2), x, 1000, RngSpec(seed=1))
        assert est.value == predict(model, spec, x)
        assert est.std_error == 0.0

    def test_linear_outcome_is_exact_by_antithesis(self):
        """Antithetic pairs cancel the linear part completely, so the
        sampled conditional mean of the score is exact with zero spread."""
        rng = np.random.default_rng(22)
        model = _random_model(rng, 3)
        x = rng.normal(0, 1, size=3)
        spec = OutcomeSpec(OutcomeKind.LOG_ODDS, Link.LOGIT)
        law = conditional_eta(model, (1,), x)
        est = mc_value_function(model, spec, (1,), x, 2000, RngSpec(seed=2))
        assert_allclose(est.value, law.mean, rtol=1e-12)
        assert est.std_error < 1e-12

    def test_probability_against_closed_form(self):
        rng = np.random.default_rng(23)
        failures = 0
        trials = 40
        for t in range(trials):
            model = _random_model(rng, 3)
            x = rng.normal(0, 1, size=3)
            spec = OutcomeSpec(OutcomeKind.PROBABILITY, Link.LOGIT)
            law = conditional_eta(model, (0,), x)
            closed = std_normal_cdf(law.mean / math.sqrt(spec.lam + law.variance))
            est = mc_value_function(
                model, spec, (0,), x, 20_000, RngSpec(seed=300 + t)
            )
            if abs(est.value - closed) > max(4 * est.std_error, 1e-9):
                failures += 1
        # 4 SE two-sided miss rate is ~6e-5; even one failure in 40 is rare
        assert failures <= 1

    def test_decision_against_closed_form(self):
        rng = np.random.default_rng(24)
        failures = 0
        trials = 40
        for t in range(trials):
            model = _random_model(rng, 3)
            x = rng.normal(0, 1, size=3)
            spec = OutcomeSpec(OutcomeKind.DECISION, Link.LOGIT, eta_star=0.2)
            law = conditional_eta(model, (2,), x)
            closed = std_normal_cdf((law.mean - 0.2) / math.sqrt(law.variance))
            est = mc_value_function(
                model, spec, (2,), x, 20_000, RngSpec(seed=600 + t)
            )
            tol = max(4 * est.std_error, 1e-9)
            if est.std_error == 0.0 and est.value in (0.0, 1.0):
                # every indicator draw agreed, so the empirical SE carries no
                # information; a crossing probability up to ~10/n_pairs is
                # still consistent with seeing none (exact binomial bound)
                tol = max(tol, 10.0 / (est.n_samples // 2))
            if abs(est.value - closed) > tol:
                failures += 1
        assert failures <= 1

    def test_minimum_draw_count_enforced(self):
        model = GaussianLPM(0.0, (1.0, 1.0), (0.0, 0.0), (1.0, 1.0))
        spec = OutcomeSpec(OutcomeKind.PROBABILITY, Link.LOGIT)
        with pytest.raises(ValueError):
            mc_value_function(model, spec, (0,), (0.0, 0.0), 999, RngSpec(seed=0))

    def test_odd_n_rounds_up_to_pairs(self):
        model = GaussianLPM(0.0, (1.0, 1.0), (0.0, 0.0), (1.0, 1.0))
        spec = OutcomeSpec(OutcomeKind.PROBABILITY, Link.LOGIT)
        est = mc_value_function(model, spec, (0,), (0.0, 0.0), 1001, RngSpec(seed=0))
        assert est.n_samples == 1002

    def test_standard_error_halves_per_quadrupling(self):
        """log SE regressed on log n has slope -1/2 (root-n convergence)."""
        model = GaussianLPM(0.2, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (1.5, 1.0, 0.5))
        spec = OutcomeSpec(OutcomeKind.PROBABILITY, Link.LOGIT)
        x = (0.4, -0.3, 0.1)
        sizes = [2000 * 4**k for k in range(5)]
        log_se = []
        for k, n in enumerate(sizes):
            # average several independent SE estimates to tame the noise of
            # the SE estimate itself
            ses = [
                mc_value_function(
                    model, spec, (0,), x, n, RngSpec(seed=40 + r), path=(1, k)
                ).std_error
                for r in range(6)
            ]
            log_se.append(math.log(float(np.mean(ses))))
        slope = np.polyfit(np.log(sizes), log_se, 1)[0]
        assert abs(slope - (-0.5)) < 0.05


class TestMcShapley:
    def test_reproducible(self):
        model = GaussianLPM(0.3, (1.0, -0.5), (0.0, 0.2), (1.0, 2.0))
        spec = OutcomeSpec(OutcomeKind.PROBABILITY, Link.LOGIT)
        a = mc_shapley(model, spec, (0.5, -0.5), 120, 1000, RngSpec(seed=5))
        b = mc_shapley(model, spec, (0.5, -0.5), 120, 1000, RngSpec(seed=5))
        assert [e.value for e in a] == [e.value for e in b]
        assert [e.std_error for e in a] == [e.std_error for e in b]

    def test_agrees_with_exact_all_outcomes(self):
        rng = np.random.default_rng(31)
        feature_cases = 0
        misses = 0
        for t in range(6):
            m = int(rng.integers(2, 5))
            model = _random_model(rng, m)
            x = rng.normal(0, 1, size=m)
            for kind in OutcomeKind:
                spec = OutcomeSpec(kind, Link.LOGIT, eta_star=0.1)
                exact = shapley_exact(model, spec, x)
                ests = mc_shapley(model, spec, x, 150, 1200, RngSpec(seed=800 + t))
                for i, est in enumerate(ests):
                    feature_cases += 1
                    if abs(est.value - exact.phis[i]) > max(4 * est.std_error, 1e-9):
                        misses += 1
        assert feature_cases >= 36
        assert misses / feature_cases <= 0.04

    def test_minimum_permutations_enforced(self):
        model = GaussianLPM(0.0, (1.0, 1.0), (0.0, 0.0), (1.0, 1.0))
        spec = OutcomeSpec(OutcomeKind.LOG_ODDS, Link.LOGIT)
        with pytest.raises(ValueError):
            mc_shapley(model, spec, (0.0, 0.0), 99, 1000, RngSpec(seed=0))

    def test_linear_outcome_zero_error(self):
        """For the linear score every permutation walk is exact, so the
        estimator returns the true phis with zero spread."""
        model = GaussianLPM(0.1, (1.0, 2.0), (0.0, 0.5), (1.0, 2.0))
        spec = OutcomeSpec(OutcomeKind.LOG_ODDS, Link.LOGIT)
        x = (0.7, -0.1)
        exact = shapley_exact(model, spec, x)
        ests = mc_shapley(model, spec, x, 100, 1000, RngSpec(seed=6))
        for est, phi in zip(ests, exact.phis):
            assert_allclose(est.value, phi, atol=1e-10)
            assert est.std_error < 1e-10


class TestGaussHermite:
    def test_frozen_reference_value(self):
        """E[sigmoid(Z)], Z ~ N(1, 4): fixed high-precision value."""
        got = gauss_hermite_expect_sigmoid(1.0, 4.0)
        assert_allclose(got, 0.6477264385258688, atol=1e-12, rtol=0)

    def test_against_direct_integration(self):
        def integrand(z, mu, var):
            return (
                sigmoid(z)
                * math.exp(-0.5 * (z - mu) ** 2 / var)
                / math.sqrt(2 * math.pi * var)
            )

        for mu, var in ((0.0, 1.0), (1.0, 4.0), (-2.0, 0.25), (3.0, 9.0)):
            expected, err = quad(
                integrand, mu - 40 * math.sqrt(var), mu + 40 * math.sqrt(var),
                args=(mu, var), epsabs=1e-13, limit=200,
            )
            got = gauss_hermite_expect_sigmoid(mu, var)
            assert_allclose(got, expected, atol=5e-9)

    def test_probit_approximation_gap(self):
        """The closed-form Phi(mu / sqrt(8/pi + var)) tracks the true
        smoothed sigmoid to a few parts in a thousand; the gap at (1, 4)
        is a frozen design constant."""
        true_value = gauss_hermite_expect_sigmoid(1.0, 4.0)
        approx = std_normal_cdf(1.0 / math.sqrt(8.0 / math.pi + 4.0))
        assert_allclose(approx, 0.6520412832389009, atol=1e-12)
        assert abs(true_value - approx) < 5e-3

    def test_matches_mpmath_at_every_scale(self):
        """Within 1e-10 of a 20-digit reference (or ConvergenceError) from
        sd 0.01 to 200. The ladder alone returned 0.5 at (1, sd 200) because
        the sigmoid saturates at every node. The reference integrates over
        z = (eta - mean) / sd, split at 0 and at the sigmoid's kink, and
        takes means 0 and -3 from E[sigmoid(Z)](-mean) = 1 - E(mean)."""
        mp = pytest.importorskip("mpmath")

        def reference(mean, sd):
            mean, sd = mp.mpf(mean), mp.mpf(sd)

            def integrand(z):
                return mp.npdf(z) / (1 + mp.exp(-(mean + sd * z)))

            with mp.workdps(20):
                return float(mp.quad(integrand, [-mp.inf, -mean / sd, 0, mp.inf]))

        for sd in (1e-2, 1.0, 5.0, 10.0, 50.0, 100.0, 200.0):
            ref = {mean: reference(mean, sd) for mean in (1.0, 3.0)}
            ref[0.0] = 0.5
            ref[-3.0] = 1.0 - ref[3.0]
            for mean, want in ref.items():
                try:
                    got = gauss_hermite_expect_sigmoid(mean, sd * sd)
                except ConvergenceError:
                    # Allowed by the contract, but not where the
                    # characteristic-function form serves (variance > 9).
                    assert sd * sd <= 9.0, (mean, sd)
                    continue
                assert abs(got - want) <= 1e-10, (mean, sd, got, want)

    def test_zero_variance_is_plain_sigmoid(self):
        assert gauss_hermite_expect_sigmoid(0.3, 0.0) == pytest.approx(
            float(sigmoid(0.3)), abs=0
        )

    def test_order_bounds_enforced(self):
        with pytest.raises(ValueError):
            gauss_hermite_expect_sigmoid(0.0, 1.0, order=19)
        with pytest.raises(ValueError):
            gauss_hermite_expect_sigmoid(0.0, 1.0, order=201)

    def test_single_rung_ladder_cannot_verify(self):
        with pytest.raises(ConvergenceError):
            gauss_hermite_expect_sigmoid(0.0, 1.0, order=20)
