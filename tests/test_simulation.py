"""Tests for the population studies: disagreement rates, global importance,
and the baseline sweep.

The studies are Monte Carlo but fully deterministic given a seed, so most
checks here assert exact equality of repeated runs (including across thread
counts) and statistical closeness to closed forms where one exists.
"""

import math

import pytest
from numpy.testing import assert_allclose

from lpm_shapley import (
    InvalidModelError,
    Link,
    OutcomeKind,
    RngSpec,
    StudyConfig,
    baseline_sweep,
    classify_pair,
    eta_importance_closed_form,
    run_disagreement_study,
    run_importance_study,
    shapley_two_feature,
    standard_normal,
    std_normal_cdf,
)

PAIRS = ("log_odds_vs_probability", "probability_vs_decision", "log_odds_vs_decision")
DECISION_PAIRS = ("probability_vs_decision", "log_odds_vs_decision")


def _config(expected_eta, sigmas, n_samples=50_000, seed=7, **kw):
    return StudyConfig(
        expected_eta=expected_eta,
        scaled_sigmas=sigmas,
        n_samples=n_samples,
        rng=RngSpec(seed=seed),
        **kw,
    )


class TestStudyConfig:
    def test_defaults(self):
        cfg = StudyConfig(expected_eta=0.0, scaled_sigmas=(2.0, 1.0))
        assert cfg.link is Link.LOGIT
        assert cfg.eta_star == 0.0
        assert cfg.n_samples == 1_000_000
        assert cfg.rng.seed == 0

    def test_model_is_normalized_with_scaled_deviations(self):
        """The population model has unit coefficients, zero means, and the
        scaled deviations as its stddevs, with the expected score as
        intercept."""
        cfg = _config(1.5, (2.0, 0.5))
        model = cfg.model()
        assert model.is_normalized()
        assert model.intercept == 1.5
        assert model.stddevs == (2.0, 0.5)

    def test_outcomes_cover_all_three_kinds(self):
        """The three outcome specs share the link; the threshold matters only
        to the decision outcome and is threaded into that spec alone."""
        cfg = _config(0.0, (2.0, 1.0), link=Link.PROBIT, eta_star=0.25)
        kinds = [spec.kind for spec in cfg.outcomes()]
        assert kinds == [OutcomeKind.LOG_ODDS, OutcomeKind.PROBABILITY, OutcomeKind.DECISION]
        assert all(spec.link is Link.PROBIT for spec in cfg.outcomes())
        assert cfg.outcomes()[2].eta_star == 0.25

    def test_rejects_wrong_sigma_count(self):
        with pytest.raises(InvalidModelError, match="2"):
            StudyConfig(expected_eta=0.0, scaled_sigmas=(1.0, 2.0, 3.0))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(InvalidModelError):
            StudyConfig(expected_eta=0.0, scaled_sigmas=(2.0, 0.0))

    def test_rejects_nonfinite_expected_eta(self):
        with pytest.raises(InvalidModelError):
            StudyConfig(expected_eta=float("nan"), scaled_sigmas=(2.0, 1.0))

    def test_rejects_zero_samples(self):
        with pytest.raises(InvalidModelError):
            StudyConfig(expected_eta=0.0, scaled_sigmas=(2.0, 1.0), n_samples=0)

    def test_frozen(self):
        cfg = _config(0.0, (2.0, 1.0))
        with pytest.raises(AttributeError):
            cfg.expected_eta = 1.0

    def test_dict_round_trip(self):
        cfg = _config(1.0, (0.02, 0.01), n_samples=123, seed=99, link=Link.PROBIT, eta_star=0.5)
        assert StudyConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_fills_defaults(self):
        cfg = StudyConfig.from_dict({"expected_eta": 1.0, "scaled_sigmas": [2.0, 1.0]})
        assert cfg.link is Link.LOGIT
        assert cfg.n_samples == 1_000_000
        assert cfg.rng == RngSpec(seed=0)

    def test_from_dict_names_missing_key(self):
        with pytest.raises(InvalidModelError, match="scaled_sigmas"):
            StudyConfig.from_dict({"expected_eta": 1.0})

    def test_from_dict_rejects_unknown_link(self):
        with pytest.raises(InvalidModelError, match="logit or probit"):
            StudyConfig.from_dict(
                {"expected_eta": 0.0, "scaled_sigmas": [2.0, 1.0], "link": "cauchit"}
            )

    def test_from_json_rejects_bad_text(self):
        with pytest.raises(InvalidModelError, match="JSON"):
            StudyConfig.from_json("{not json")


class TestTallyIsClassifyPair:
    def test_block_counts_match_classify_pair(self):
        """One 2000-sample block: the study's counts are exactly those of
        classify_pair(..., zero_tol=0.0) over per-sample explanations of the
        same draws, so both compute one statistic."""
        cfg = _config(1.0, (2.0, 1.0), n_samples=2000, seed=7)
        xs = standard_normal(cfg.rng, 4000, path=(0, 0)).reshape(2000, 2) * cfg.scaled_sigmas
        model = cfg.model()
        expls = [[shapley_two_feature(model, spec, x) for spec in cfg.outcomes()] for x in xs]
        table = run_disagreement_study(cfg)
        for pair, (a, b) in zip(PAIRS, ((0, 1), (1, 2), (0, 2))):
            verdicts = [classify_pair(e[a], e[b], zero_tol=0.0) for e in expls]
            signs = sum(v.any_sign_disagree for v in verdicts)
            tops = sum(v.top_feature_disagree for v in verdicts)
            assert signs > 0 and tops > 0
            assert table.sign_pct[pair] == 100.0 * signs / 2000
            assert table.top_pct[pair] == 100.0 * tops / 2000


class TestDeterminism:
    def test_repeated_runs_identical(self):
        """The same config yields bit-identical tables on every run."""
        cfg = _config(0.0, (2.0, 1.0), n_samples=20_000)
        a = run_disagreement_study(cfg).to_dict()
        b = run_disagreement_study(cfg).to_dict()
        assert a == b

    def test_thread_count_does_not_change_results(self):
        """Splitting the sample across worker threads changes nothing: each
        block owns a fixed slice of the random stream and tallies are reduced
        in block order."""
        cfg = _config(1.0, (2.0, 1.0), n_samples=140_000, seed=11)
        single = run_disagreement_study(cfg, n_threads=1).to_dict()
        multi = run_disagreement_study(cfg, n_threads=4).to_dict()
        assert single == multi
        imp_single = run_importance_study(cfg, n_threads=1).to_dict()
        imp_multi = run_importance_study(cfg, n_threads=4).to_dict()
        assert imp_single == imp_multi

    def test_seed_changes_results(self):
        base = _config(0.0, (2.0, 1.0), n_samples=20_000, seed=1)
        other = _config(0.0, (2.0, 1.0), n_samples=20_000, seed=2)
        assert run_disagreement_study(base).sign_pct != run_disagreement_study(other).sign_pct

    def test_stream_changes_results(self):
        def cfg(stream):
            return StudyConfig(
                expected_eta=0.0,
                scaled_sigmas=(2.0, 1.0),
                n_samples=20_000,
                rng=RngSpec(seed=1, stream=stream),
            )

        assert (
            run_disagreement_study(cfg(0)).sign_pct
            != run_disagreement_study(cfg(1)).sign_pct
        )


class TestDisagreementStudy:
    def test_rates_are_valid_percentages_over_exact_counts(self):
        """Every rate is count/n_samples in percent, so rate*n/100 recovers
        an integer even when the sample count straddles block boundaries."""
        cfg = _config(0.0, (2.0, 1.0), n_samples=70_001, seed=3)
        table = run_disagreement_study(cfg, n_threads=3)
        for pair in PAIRS:
            for pct in (table.sign_pct[pair], table.top_pct[pair]):
                assert 0.0 <= pct <= 100.0
                count = pct * cfg.n_samples / 100.0
                assert abs(count - round(count)) < 1e-6

    def test_sign_disagreement_grows_with_feature_scale(self):
        """Between the linear score and the probability outcome, opposite
        signs appear more often the larger the feature deviations: the
        probability transform's curvature is what flips signs, and it only
        matters when the score moves far from its mean."""
        rates = []
        for sigmas in ((0.02, 0.01), (2.0, 1.0), (200.0, 100.0)):
            cfg = _config(0.0, sigmas, n_samples=60_000, seed=5)
            rates.append(run_disagreement_study(cfg).sign_pct["log_odds_vs_probability"])
        assert rates[0] < rates[1] < rates[2]

    def test_probability_decision_gap_shrinks_with_feature_scale(self):
        """The probability and decision explanations converge as deviations
        grow (the smooth transform steepens toward the step), so their sign
        disagreement moves the opposite way."""
        rates = []
        for sigmas in ((0.02, 0.01), (2.0, 1.0), (200.0, 100.0)):
            cfg = _config(0.0, sigmas, n_samples=60_000, seed=5)
            rates.append(run_disagreement_study(cfg).sign_pct["probability_vs_decision"])
        assert rates[0] > rates[1] > rates[2]

    def test_degenerate_decision_blanks_decision_pairs(self):
        """When the sampled decision never varies (here the score sits ~45
        deviations above the threshold) the decision explanation is constant,
        so decision-involving cells are None and the flag is set."""
        cfg = _config(1.0, (0.02, 0.01), n_samples=20_000, seed=9)
        table = run_disagreement_study(cfg)
        assert table.decision_degenerate
        for pair in DECISION_PAIRS:
            assert table.sign_pct[pair] is None
            assert table.top_pct[pair] is None
        assert isinstance(table.sign_pct["log_odds_vs_probability"], float)

    def test_varied_decision_is_not_blanked(self):
        cfg = _config(1.0, (2.0, 1.0), n_samples=20_000, seed=9)
        table = run_disagreement_study(cfg)
        assert not table.decision_degenerate
        for pair in PAIRS:
            assert table.sign_pct[pair] is not None

    def test_csv_rows_shape(self):
        cfg = _config(1.0, (2.0, 1.0), n_samples=5_000)
        rows = run_disagreement_study(cfg).csv_rows()
        assert [r["pair"] for r in rows] == list(PAIRS)
        assert all(
            set(r) == {"expected_eta", "b1s1", "b2s2", "pair", "sign_pct", "top_pct"}
            for r in rows
        )
        assert rows[0]["b1s1"] == 2.0 and rows[0]["b2s2"] == 1.0


class TestImportanceStudy:
    def test_linear_score_importance_matches_closed_form(self):
        """The sampled linear-score importance sums agree with the folded
        normal closed form |beta_i| sigma_i n sqrt(2/pi) to Monte Carlo
        accuracy."""
        cfg = _config(1.0, (2.0, 1.0), n_samples=100_000, seed=21)
        table = run_importance_study(cfg)
        exact = eta_importance_closed_form(cfg)
        sampled = table.importance["log_odds"]
        for got, want in zip(sampled, exact):
            assert abs(got - want) / want < 0.015

    def test_closed_form_values(self):
        cfg = _config(0.0, (2.0, 0.5), n_samples=1000)
        expected = (2.0 * 1000 * math.sqrt(2 / math.pi), 0.5 * 1000 * math.sqrt(2 / math.pi))
        assert_allclose(eta_importance_closed_form(cfg), expected, rtol=1e-15)

    def test_log_odds_relative_importance_tracks_scale_ratio(self):
        """On the linear score each feature's attribution is exactly its
        centered value, so the importance ratio estimates sigma_1/sigma_2."""
        cfg = _config(0.0, (2.0, 1.0), n_samples=100_000, seed=33)
        table = run_importance_study(cfg)
        assert abs(table.relative["log_odds"] - 2.0) < 0.05
        assert table.excess_pct["log_odds"] == 0.0

    def test_transformed_outcomes_amplify_relative_importance(self):
        """Away from the mean score, the bounded outcomes concentrate credit
        on the stronger feature: relative importance exceeds the linear
        score's ratio, and the decision exceeds the probability."""
        cfg = _config(1.0, (2.0, 1.0), n_samples=60_000, seed=17)
        table = run_importance_study(cfg)
        assert table.excess_pct["probability"] > 0.0
        assert table.excess_pct["decision"] > table.excess_pct["probability"]

    def test_degenerate_decision_blanks_ratio_only(self):
        """A constant sampled decision blanks the decision ratio and excess;
        the raw importance sums are still reported."""
        cfg = _config(1.0, (0.02, 0.01), n_samples=20_000, seed=9)
        table = run_importance_study(cfg)
        assert table.relative["decision"] is None
        assert table.excess_pct["decision"] is None
        i1, i2 = table.importance["decision"]
        assert isinstance(i1, float) and isinstance(i2, float)
        assert table.relative["probability"] is not None

    def test_thread_count_does_not_change_sums(self):
        cfg = _config(1.0, (0.05, 0.01), n_samples=70_000, seed=41)
        a = run_importance_study(cfg, n_threads=1).to_dict()
        b = run_importance_study(cfg, n_threads=5).to_dict()
        assert a == b

    def test_csv_rows_shape(self):
        cfg = _config(1.0, (2.0, 1.0), n_samples=5_000)
        rows = run_importance_study(cfg).csv_rows()
        assert [r["outcome"] for r in rows] == ["log_odds", "probability", "decision"]
        assert all(set(r) == {"outcome", "I1", "I2", "relative", "excess"} for r in rows)


class TestBaselineSweep:
    def test_centered_score_pins_all_baselines_at_half(self):
        """With the expected score at the threshold, every outcome's baseline
        is exactly one half at any variance."""
        for row in baseline_sweep(0.0, [1e-4, 1.0, 1e4]):
            assert row["phi0_eta"] == 0.0
            assert_allclose(
                [row["phi0_eta_transformed"], row["phi0_prob"], row["phi0_decision"]],
                0.5,
                atol=1e-15,
            )

    def test_probability_baseline_climbs_to_transformed_score_at_low_variance(self):
        row = baseline_sweep(1.0, [1e-6])[0]
        assert abs(row["phi0_prob"] - row["phi0_eta_transformed"]) < 1e-5
        assert row["phi0_decision"] == 1.0  # 1000 deviations above the threshold

    def test_baselines_meet_at_half_at_high_variance(self):
        row = baseline_sweep(1.0, [4e4])[0]
        assert abs(row["phi0_prob"] - 0.5) < 1e-2
        assert abs(row["phi0_prob"] - row["phi0_decision"]) < 1e-3

    def test_probability_baseline_decreases_in_variance(self):
        """For a positive expected score the probability baseline falls
        monotonically as feature variance grows."""
        rows = baseline_sweep(1.0, [10.0 ** k for k in range(-4, 5)])
        probs = [row["phi0_prob"] for row in rows]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_probit_link_uses_unit_latent_variance(self):
        row = baseline_sweep(1.0, [1.0], link=Link.PROBIT)[0]
        assert_allclose(row["phi0_eta_transformed"], std_normal_cdf(1.0), rtol=1e-15)
        assert_allclose(row["phi0_prob"], std_normal_cdf(1.0 / math.sqrt(2.0)), rtol=1e-14)

    def test_threshold_shifts_decision_baseline(self):
        row = baseline_sweep(1.0, [4.0], eta_star=1.0)[0]
        assert_allclose(row["phi0_decision"], 0.5, atol=1e-15)

    def test_rejects_bad_variance(self):
        with pytest.raises(InvalidModelError):
            baseline_sweep(1.0, [0.0])
        with pytest.raises(InvalidModelError):
            baseline_sweep(1.0, [float("inf")])

    def test_rejects_nonfinite_expected_eta(self):
        with pytest.raises(InvalidModelError):
            baseline_sweep(float("nan"), [1.0])
