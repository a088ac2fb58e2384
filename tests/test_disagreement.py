"""Disagreement analytics: baselines, pair classification, curves, lines.

Ground truth throughout is the exact two-feature engine; the analytics under
test are the derived geometric objects (ordering chain, zero-crossing
curves, equal-importance lines) and the per-sample disagreement classifiers.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lpm_shapley import (
    DimensionMismatchError,
    Explanation,
    GaussianLPM,
    InvalidModelError,
    Link,
    OutcomeKind,
    OutcomeSpec,
    baseline_report,
    classify_pair,
    equal_importance_lines,
    shapley_two_feature,
    std_normal_cdf,
    verify_equal_importance,
    zero_level_curve,
)

LOGIT = Link.LOGIT
PROBIT = Link.PROBIT


def _model(b0, s1, s2):
    return GaussianLPM(b0, (1.0, 1.0), (0.0, 0.0), (s1, s2))


def _spec(kind, link=LOGIT, eta_star=0.0):
    return OutcomeSpec(kind, link, eta_star=eta_star)


class TestBaselineReport:
    def test_zero_intercept_aligns_all(self):
        """With a centered score every baseline is exactly one half."""
        rep = baseline_report(_model(0.0, 2.0, 1.0), LOGIT)
        assert rep.phi0_eta == 0.0
        assert rep.phi0_eta_transformed == 0.5
        assert rep.phi0_prob == 0.5
        assert rep.phi0_decision == 0.5

    def test_probit_reference_values(self):
        """Probit link, b0=1, sigmas (2,1): the three transformed baselines
        are Phi(1/sqrt(6)) < Phi(1/sqrt(5)) < Phi(1)."""
        rep = baseline_report(_model(1.0, 2.0, 1.0), PROBIT)
        assert_allclose(rep.phi0_prob, std_normal_cdf(1.0 / math.sqrt(6.0)), rtol=1e-14)
        assert_allclose(rep.phi0_decision, std_normal_cdf(1.0 / math.sqrt(5.0)), rtol=1e-14)
        assert_allclose(rep.phi0_eta_transformed, std_normal_cdf(1.0), rtol=1e-14)
        assert rep.chain_holds

    def test_ordering_chain_random_sweep(self):
        """0.5 < prob < decision < transformed score, strictly, whenever the
        intercept is positive and feature variance exceeds the latent scale."""
        rng = np.random.default_rng(41)
        lam = 8.0 / math.pi
        for _ in range(300):
            b0 = float(rng.uniform(0.05, 4.0))
            s1 = float(rng.uniform(0.2, 5.0))
            lo = max(0.05, lam - s1 * s1) ** 0.5
            s2 = float(rng.uniform(lo + 0.05, lo + 5.0))
            assert s1 * s1 + s2 * s2 > lam
            rep = baseline_report(_model(b0, s1, s2), LOGIT)
            assert 0.5 < rep.phi0_prob < rep.phi0_decision < rep.phi0_eta_transformed
            assert rep.chain_holds

    def test_low_variance_flips_last_link_only(self):
        """When total variance sits below the latent scale, the decision
        baseline overtakes the transformed score; the first two links hold."""
        rep = baseline_report(_model(1.0, 0.3, 0.2), LOGIT)
        assert rep.ordering_half_lt_prob
        assert rep.ordering_prob_lt_decision
        assert not rep.ordering_decision_lt_transformed

    def test_requires_normalized_two_feature_model(self):
        bad = GaussianLPM(0.0, (2.0, 1.0), (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(InvalidModelError):
            baseline_report(bad, LOGIT)
        with pytest.raises(DimensionMismatchError):
            baseline_report(GaussianLPM(0.0, (1.0,), (0.0,), (1.0,)), LOGIT)


class TestClassifyPair:
    def test_identical_explanations_agree(self):
        model = _model(0.5, 2.0, 1.0)
        spec = _spec(OutcomeKind.PROBABILITY)
        e = shapley_two_feature(model, spec, (0.7, -0.2))
        pair = classify_pair(e, e)
        assert not pair.any_sign_disagree
        assert not pair.top_feature_disagree

    def test_zero_sign_disagrees_with_nothing(self):
        """At the feature means the linear-score attributions are exactly
        zero while the probability attributions are positive; under the
        zero-tolerance rule that is NOT a sign disagreement."""
        model = _model(1.0, 2.0, 1.0)
        e_eta = shapley_two_feature(model, _spec(OutcomeKind.LOG_ODDS), (0.0, 0.0))
        e_prob = shapley_two_feature(model, _spec(OutcomeKind.PROBABILITY), (0.0, 0.0))
        assert e_eta.phis == (0.0, 0.0)
        assert e_prob.phis[0] > 0 and e_prob.phis[1] > 0
        pair = classify_pair(e_eta, e_prob)
        assert pair.sign_disagree == (False, False)

    def test_opposite_signs_fire(self):
        """Just left of the mean with a positive intercept, the linear score
        attributes negatively while probability still attributes positively."""
        model = _model(1.0, 2.0, 1.0)
        x = (-0.05, 0.0)
        e_eta = shapley_two_feature(model, _spec(OutcomeKind.LOG_ODDS), x)
        e_prob = shapley_two_feature(model, _spec(OutcomeKind.PROBABILITY), x)
        assert e_eta.phis[0] < 0 < e_prob.phis[0]
        pair = classify_pair(e_eta, e_prob)
        assert pair.sign_disagree[0]

    def test_top_feature_is_signed_argmax(self):
        """The ranking compares signed values: a large negative attribution
        never outranks a small positive one."""
        model = _model(0.0, 2.0, 1.0)
        spec = _spec(OutcomeKind.LOG_ODDS)
        e = shapley_two_feature(model, spec, (-3.0, 0.5))
        pair = classify_pair(e, e)
        assert e.phis[0] < 0 < e.phis[1]
        assert pair.top_feature_a == 1

    def test_top_feature_tie_goes_to_lower_index(self):
        model = _model(0.0, 2.0, 1.0)
        spec = _spec(OutcomeKind.LOG_ODDS)
        e = shapley_two_feature(model, spec, (0.5, 0.5))
        pair = classify_pair(e, e)
        assert e.phis[0] == e.phis[1]
        assert pair.top_feature_a == 0

    def test_top_feature_disagreement(self):
        """Sufficiently asymmetric deviations flip which feature ranks first
        between the linear score and the decision outcome."""
        model = _model(0.0, 2.0, 1.0)
        x = (0.4, 0.5)
        e_eta = shapley_two_feature(model, _spec(OutcomeKind.LOG_ODDS), x)
        e_dec = shapley_two_feature(model, _spec(OutcomeKind.DECISION), x)
        pair = classify_pair(e_eta, e_dec)
        assert pair.top_feature_a == 1
        assert pair.top_feature_b == 0
        assert pair.top_feature_disagree

    def test_zero_tolerance_band(self):
        """An attribution of 5e-13 is zero at the default tolerance, so it
        disagrees with nothing; at zero_tol=0, the population tally's
        tolerance, it is positive and opposes a negative one."""
        spec = _spec(OutcomeKind.LOG_ODDS)
        tiny = Explanation(spec, (0.0, 0.0), 0.0, (5e-13, 1.0), 1.0)
        negative = Explanation(spec, (0.0, 0.0), 0.0, (-0.5, 1.0), 0.5)
        assert classify_pair(tiny, negative).sign_disagree == (False, False)
        pair = classify_pair(tiny, negative, zero_tol=0.0)
        assert pair.sign_disagree == (True, False)
        assert [type(v) for v in pair.sign_disagree] == [bool, bool]
        assert type(pair.top_feature_a) is int and type(pair.top_feature_disagree) is bool

    def test_top_feature_over_three_features(self):
        """Past two features the signed argmax still sends ties to the lower
        index."""
        spec = _spec(OutcomeKind.LOG_ODDS)
        tied = Explanation(spec, (0.0,) * 3, 0.0, (0.2, 0.5, 0.5), 1.2)
        last = Explanation(spec, (0.0,) * 3, 0.0, (0.2, -0.1, 0.3), 0.4)
        pair = classify_pair(tied, last)
        assert (pair.top_feature_a, pair.top_feature_b) == (1, 2)
        assert pair.sign_disagree == (False, True, False)

    def test_length_mismatch_rejected(self):
        m2 = _model(0.0, 2.0, 1.0)
        m3 = GaussianLPM(0.0, (1.0, 1.0, 1.0), (0.0,) * 3, (1.0,) * 3)
        from lpm_shapley import shapley_exact

        spec = _spec(OutcomeKind.LOG_ODDS)
        a = shapley_two_feature(m2, spec, (0.0, 0.0))
        b = shapley_exact(m3, spec, (0.0, 0.0, 0.0))
        with pytest.raises(DimensionMismatchError):
            classify_pair(a, b)


class TestZeroLevelCurve:
    def test_linear_score_curve_is_vertical_line(self):
        """phi_1 of the linear score vanishes exactly at x1 = 0 regardless
        of the other feature."""
        model = _model(0.7, 2.0, 1.0)
        curve = zero_level_curve(
            model, _spec(OutcomeKind.LOG_ODDS), 0, np.linspace(-5, 5, 21)
        )
        assert all(r is not None for r in curve.roots)
        assert_allclose(curve.roots, 0.0, atol=1e-9)

    def test_roots_are_actual_zeros_for_smooth_outcomes(self):
        model = _model(0.5, 2.0, 1.0)
        spec = _spec(OutcomeKind.PROBABILITY)
        grid = np.linspace(-4, 4, 17)
        curve = zero_level_curve(model, spec, 0, grid)
        for x2, root in zip(curve.grid, curve.roots):
            phi1 = shapley_two_feature(model, spec, (root, x2)).phis[0]
            assert abs(phi1) < 1e-9

    def test_monotone_separation_around_curve(self):
        """phi_1 is strictly positive right of its zero curve and strictly
        negative left of it."""
        model = _model(0.5, 2.0, 1.0)
        for kind in (OutcomeKind.PROBABILITY, OutcomeKind.DECISION):
            spec = _spec(kind)
            grid = np.linspace(-3, 3, 13)
            curve = zero_level_curve(model, spec, 0, grid)
            for x2, root in zip(curve.grid, curve.roots):
                left = shapley_two_feature(model, spec, (root - 0.25, x2)).phis[0]
                right = shapley_two_feature(model, spec, (root + 0.25, x2)).phis[0]
                assert left < 0 < right

    def test_decision_curve_jump_segment(self):
        """Near the threshold the decision attribution changes sign by
        jumping across zero, so the returned point is the sign separator on
        the decision boundary x1 = -x2 (centered model, |x2| small enough
        that the jump actually spans zero)."""
        model = _model(0.0, 2.0, 1.0)
        spec = _spec(OutcomeKind.DECISION)
        grid = [-0.8, -0.4, 0.4, 0.8]
        curve = zero_level_curve(model, spec, 0, grid)
        assert_allclose(curve.roots, [-g for g in grid], atol=1e-8)
        for x2, root in zip(curve.grid, curve.roots):
            below = shapley_two_feature(model, spec, (root - 1e-6, x2)).phis[0]
            above = shapley_two_feature(model, spec, (root + 1e-6, x2)).phis[0]
            assert below < 0 < above

    def test_decision_curve_smooth_branch_far_out(self):
        """Far from the threshold the decision attribution crosses zero
        smoothly, on the branch where the two CDF terms cancel."""
        model = _model(0.0, 20.0, 10.0)
        spec = _spec(OutcomeKind.DECISION)
        x2 = 15.0  # beyond the jump segment for these deviations
        curve = zero_level_curve(model, spec, 0, [x2])
        root = curve.roots[0]
        phi1 = shapley_two_feature(model, spec, (root, x2)).phis[0]
        assert abs(phi1) < 1e-9
        assert root > -x2  # strictly off the decision boundary

    def test_feature_two_curve(self):
        """Explaining the second feature mirrors the geometry."""
        model = _model(0.0, 2.0, 1.0)
        spec = _spec(OutcomeKind.PROBABILITY)
        grid = [-1.0, 0.0, 1.0]
        curve = zero_level_curve(model, spec, 1, grid)
        for x1, root in zip(curve.grid, curve.roots):
            phi2 = shapley_two_feature(model, spec, (x1, root)).phis[1]
            assert abs(phi2) < 1e-9

    def test_explicit_bracket_widens_to_find_root(self):
        """A tight explicit bracket that misses the root is widened until the
        sign change is located."""
        model = _model(0.0, 2.0, 1.0)
        spec = _spec(OutcomeKind.PROBABILITY)
        curve = zero_level_curve(model, spec, 0, [8.0], bracket=(2.0, 3.0))
        root = curve.roots[0]
        assert root is not None
        phi1 = shapley_two_feature(model, spec, (root, 8.0)).phis[0]
        assert abs(phi1) < 1e-9

    def test_root_beyond_widening_cap_yields_none(self):
        """When the sign separator lies outside the widening cap the grid
        point reports None rather than a spurious root.

        With unit deviations the cap is 20; a decision threshold of 100 at
        x2 = 70 puts the separator at x1 = 30, and the attribution is a
        strictly negative constant across the whole searchable span.
        """
        model = _model(0.0, 1.0, 1.0)
        spec = OutcomeSpec(OutcomeKind.DECISION, Link.LOGIT, 100.0)
        curve = zero_level_curve(model, spec, 0, [70.0])
        assert curve.roots == (None,)

    def test_invalid_feature_rejected(self):
        model = _model(0.0, 2.0, 1.0)
        with pytest.raises(DimensionMismatchError):
            zero_level_curve(model, _spec(OutcomeKind.LOG_ODDS), 2, [0.0])

    def test_low_variance_probability_curve_tracks_linear_score(self):
        """At deviations (0.02, 0.01) the probability zero curve sits within
        1e-3 of the linear score's vertical line."""
        model = _model(0.0, 0.02, 0.01)
        spec = _spec(OutcomeKind.PROBABILITY)
        grid = np.linspace(-0.06, 0.06, 25)
        curve = zero_level_curve(model, spec, 0, grid)
        assert max(abs(r) for r in curve.roots) <= 1e-3

    def test_high_variance_probability_curve_tracks_decision(self):
        """At deviations (200, 100) the probability and decision curves agree
        to 1e-2 relative to the feature scale (checked at matched grids)."""
        model = _model(0.0, 200.0, 100.0)
        grid = np.linspace(-300.0, 300.0, 25)
        prob = zero_level_curve(model, _spec(OutcomeKind.PROBABILITY), 0, grid)
        dec = zero_level_curve(model, _spec(OutcomeKind.DECISION), 0, grid)
        span = 6.0 * 200.0
        worst = max(
            abs(p - d) for p, d in zip(prob.roots, dec.roots) if p is not None and d is not None
        )
        assert worst / span < 1e-2


class TestEqualImportanceLines:
    def test_linear_score_lines(self):
        lines = equal_importance_lines(_model(1.0, 2.0, 1.0), _spec(OutcomeKind.LOG_ODDS)).lines
        same = next(l for l in lines if l.kind == "same_sign")
        opp = next(l for l in lines if l.kind == "opposite_sign")
        assert (same.slope, same.intercept) == (1.0, 0.0)
        assert (opp.slope, opp.intercept) == (-1.0, 0.0)

    def test_probability_line_coefficients(self):
        lam = 8.0 / math.pi
        b0, s1, s2 = 0.8, 2.0, 1.0
        lines = equal_importance_lines(_model(b0, s1, s2), _spec(OutcomeKind.PROBABILITY)).lines
        same = next(l for l in lines if l.kind == "same_sign")
        opp = next(l for l in lines if l.kind == "opposite_sign")
        slope = math.sqrt((lam + s1 * s1) / (lam + s2 * s2))
        assert_allclose(same.slope, slope, rtol=1e-14)
        assert_allclose(same.intercept, b0 * (slope - 1.0), rtol=1e-14)
        assert opp.slope == -1.0
        assert_allclose(
            opp.intercept,
            -b0 + b0 * math.sqrt(lam / (lam + s1 * s1 + s2 * s2)),
            rtol=1e-14,
        )

    def test_decision_line_coefficients(self):
        """Slope sigma1/sigma2 = 2 and intercept b0(slope-1) = 1 for the
        (2, 1) deviations with unit intercept."""
        lines = equal_importance_lines(_model(1.0, 2.0, 1.0), _spec(OutcomeKind.DECISION)).lines
        same = next(l for l in lines if l.kind == "same_sign")
        opp = next(l for l in lines if l.kind == "opposite_sign")
        assert same.slope == 2.0
        assert_allclose(same.intercept, 1.0, rtol=1e-14)
        assert (opp.slope, opp.intercept) == (-1.0, -1.0)

    def test_same_sign_lines_meet_at_common_point(self):
        """Every outcome's tie line passes through (-b0, -b0)."""
        rng = np.random.default_rng(43)
        for _ in range(50):
            b0 = float(rng.normal(0, 2))
            s1, s2 = rng.uniform(0.1, 10.0, size=2)
            model = _model(b0, float(s1), float(s2))
            for kind in OutcomeKind:
                line = next(
                    l
                    for l in equal_importance_lines(model, _spec(kind)).lines
                    if l.kind == "same_sign"
                )
                assert_allclose(line.x2_at(-b0), -b0, atol=1e-10)

    def test_zero_intercept_collapses_opposite_lines(self):
        """With b0 = 0 all three opposite-sign lines are x1 + x2 = 0."""
        model = _model(0.0, 2.0, 1.0)
        for kind in OutcomeKind:
            opp = next(
                l
                for l in equal_importance_lines(model, _spec(kind)).lines
                if l.kind == "opposite_sign"
            )
            assert (opp.slope, opp.intercept) == (-1.0, 0.0)

    def test_equal_deviations_give_unit_slope(self):
        """sigma1 = sigma2 makes both features exchangeable: slope 1 for all
        outcomes, and x1 = x2 = c ties the attributions exactly."""
        model = _model(0.6, 1.3, 1.3)
        for kind in OutcomeKind:
            spec = _spec(kind)
            same = next(
                l for l in equal_importance_lines(model, spec).lines if l.kind == "same_sign"
            )
            assert_allclose(same.slope, 1.0, rtol=1e-14)
            e = shapley_two_feature(model, spec, (0.4, 0.4))
            assert_allclose(e.phis[0], e.phis[1], atol=1e-14)

    def test_threshold_shifts_decision_lines(self):
        """A nonzero decision threshold translates both decision lines."""
        eta_star = 0.8
        b0, s1, s2 = 1.0, 2.0, 1.0
        lines = equal_importance_lines(
            _model(b0, s1, s2), _spec(OutcomeKind.DECISION, eta_star=eta_star)
        ).lines
        same = next(l for l in lines if l.kind == "same_sign")
        opp = next(l for l in lines if l.kind == "opposite_sign")
        assert_allclose(same.intercept, (b0 - eta_star) * (s1 / s2 - 1.0), rtol=1e-14)
        assert_allclose(opp.intercept, eta_star - b0, rtol=1e-14)


class TestVerifyEqualImportance:
    def test_linear_score_residual_zero(self):
        model = _model(0.9, 2.0, 1.0)
        spec = _spec(OutcomeKind.LOG_ODDS)
        for line in equal_importance_lines(model, spec).lines:
            assert verify_equal_importance(model, spec, line, n_points=50) == 0.0

    def test_probability_lines_exact(self):
        """Both probability tie lines are analytic identities, so residuals
        sit at rounding error across random parameters."""
        rng = np.random.default_rng(44)
        for _ in range(25):
            model = _model(
                float(rng.normal(0, 1.5)), *(float(v) for v in rng.uniform(0.2, 5.0, size=2))
            )
            spec = _spec(OutcomeKind.PROBABILITY)
            for line in equal_importance_lines(model, spec).lines:
                residual = verify_equal_importance(model, spec, line, n_points=40)
                assert residual <= 1e-8

    def test_decision_same_sign_exact(self):
        model = _model(1.2, 3.0, 0.7)
        spec = _spec(OutcomeKind.DECISION)
        line = next(
            l for l in equal_importance_lines(model, spec).lines if l.kind == "same_sign"
        )
        assert verify_equal_importance(model, spec, line, n_points=60) <= 1e-8

    def test_decision_opposite_sign_flip(self):
        """The attribution sum never vanishes for the decision outcome; the
        check is that its sign flips across the separator everywhere."""
        model = _model(1.2, 3.0, 0.7)
        spec = _spec(OutcomeKind.DECISION)
        line = next(
            l for l in equal_importance_lines(model, spec).lines if l.kind == "opposite_sign"
        )
        assert verify_equal_importance(model, spec, line, n_points=60) == 0.0

    def test_point_count_validated(self):
        model = _model(0.0, 2.0, 1.0)
        spec = _spec(OutcomeKind.LOG_ODDS)
        line = equal_importance_lines(model, spec).lines[0]
        with pytest.raises(InvalidModelError):
            verify_equal_importance(model, spec, line, n_points=1)
