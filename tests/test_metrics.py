"""Metric tests: definitional anchors, invariances, report serialization."""

import numpy as np
import pytest

from koopstab.errors import DataError, DegenerateDataError, DimensionError, NumericError
from koopstab.metrics import MetricsReport, build_report, nmse


def sample_truth(rng, T=20, n=2):
    return rng.normal(0.0, 3.0, size=(T, n)) + rng.normal(size=n)


def norm_std(predicted, truth) -> float:
    """NormSTD of lists of trajectories, as ``build_report`` scores it."""
    return build_report(predicted, truth, spectral_radius=1.0, barrier_margin=0.0).norm_std


class TestNmse:
    def test_perfect_prediction_scores_zero(self):
        rng = np.random.default_rng(80)
        x = sample_truth(rng)
        assert nmse([x.copy()], [x]) == 0.0

    def test_mean_prediction_scores_one(self):
        rng = np.random.default_rng(81)
        x = sample_truth(rng)
        constant = np.tile(x.mean(axis=0), (x.shape[0], 1))
        assert nmse([constant], [x]) == pytest.approx(1.0, rel=1e-12)

    def test_translation_invariant(self):
        rng = np.random.default_rng(82)
        x = sample_truth(rng)
        p = x + rng.normal(0.0, 0.5, size=x.shape)
        shift = rng.normal(0.0, 100.0, size=x.shape[1])
        assert nmse([p + shift], [x + shift]) == pytest.approx(nmse([p], [x]), rel=1e-9)

    def test_scale_invariant(self):
        rng = np.random.default_rng(83)
        x = sample_truth(rng)
        p = x + rng.normal(0.0, 0.5, size=x.shape)
        assert nmse([7.3 * p], [7.3 * x]) == pytest.approx(nmse([p], [x]), rel=1e-12)

    def test_multi_trajectory_is_mean_of_singles(self):
        rng = np.random.default_rng(84)
        xs = [sample_truth(rng) for _ in range(3)]
        ps = [x + rng.normal(0.0, 0.2, size=x.shape) for x in xs]
        singles = [nmse([p], [x]) for p, x in zip(ps, xs)]
        assert nmse(ps, xs) == pytest.approx(np.mean(singles), rel=1e-12)

    def test_zero_variance_truth_rejected(self):
        x = np.ones((5, 2))
        with pytest.raises(DegenerateDataError):
            nmse([x], [x])
        # the mean of 0.3s is not exactly 0.3: a variance of ~6e-33 is still zero
        x = np.full((20, 2), 0.3)
        with pytest.raises(DegenerateDataError):
            nmse([x + 0.1], [x])

    def test_small_real_variance_scores(self):
        x = 0.3 + 1e-9 * np.arange(20.0)[:, None] * np.ones((1, 2))
        assert nmse([x + 1e-10], [x]) == pytest.approx(1e-20 / np.var(x[:, 0]), rel=1e-6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            nmse([np.zeros((4, 2))], [np.zeros((5, 2))])

    def test_count_mismatch_rejected(self):
        x = sample_truth(np.random.default_rng(87))
        with pytest.raises(DimensionError, match="2 predictions but 1 truths"):
            nmse([x, x], [x])

    def test_empty_trajectory_rejected(self):
        with pytest.raises(DataError, match="trajectory 0 is empty"):
            nmse([np.zeros((0, 2))], [np.zeros((0, 2))])

    @pytest.mark.parametrize("bad", [1e200, np.inf, np.nan])
    def test_non_finite_error_is_a_numeric_failure(self, bad):
        rng = np.random.default_rng(86)
        xs = [sample_truth(rng) for _ in range(2)]
        ps = [x.copy() for x in xs]
        ps[1][3, 0] = bad
        with pytest.raises(NumericError, match="trajectory 1: non-finite"):
            nmse(ps, xs)
        with pytest.raises(NumericError, match="trajectory 1: non-finite"):
            build_report(ps, xs, spectral_radius=0.5, barrier_margin=0.1)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            nmse([], [])


class TestNormStd:
    def test_perfect_prediction_scores_zero(self):
        rng = np.random.default_rng(85)
        x = sample_truth(rng)
        assert norm_std([x.copy()], [x]) == 0.0

    def test_constant_offset_scores_zero(self):
        rng = np.random.default_rng(86)
        x = sample_truth(rng)
        assert norm_std([x + np.array([5.0, -2.0])], [x]) == pytest.approx(0.0, abs=1e-12)

    def test_translation_and_scale_invariant(self):
        rng = np.random.default_rng(87)
        x = sample_truth(rng)
        p = x + rng.normal(0.0, 0.5, size=x.shape)
        base = norm_std([p], [x])
        shift = rng.normal(0.0, 50.0, size=x.shape[1])
        assert norm_std([p + shift], [x + shift]) == pytest.approx(base, rel=1e-9)
        assert norm_std([3.0 * p], [3.0 * x]) == pytest.approx(base, rel=1e-12)

    def test_non_negative_on_random_inputs(self):
        rng = np.random.default_rng(88)
        for _ in range(50):
            x = sample_truth(rng)
            p = x + rng.normal(0.0, rng.uniform(0.01, 5.0), size=x.shape)
            assert norm_std([p], [x]) >= 0.0
            assert nmse([p], [x]) >= 0.0

    @pytest.mark.parametrize("bad", [1e200, np.inf, np.nan])
    def test_non_finite_error_spread_is_a_numeric_failure(self, bad):
        # the error norms overflow only where the mean squared error already has
        rng = np.random.default_rng(87)
        xs = [sample_truth(rng) for _ in range(2)]
        ps = [x.copy() for x in xs]
        ps[1][3, 0] = bad
        with pytest.raises(NumericError, match="trajectory 1: non-finite"):
            build_report(ps, xs, spectral_radius=1.0, barrier_margin=0.0)


class TestReport:
    def _report(self, rng):
        xs = [sample_truth(rng) for _ in range(2)]
        ps = [x + rng.normal(0.0, 0.3, size=x.shape) for x in xs]
        return build_report(ps, xs, spectral_radius=0.97, barrier_margin=0.01)

    def test_aggregates_match_breakdown(self):
        report = self._report(np.random.default_rng(89))
        assert report.nmse == pytest.approx(
            np.mean([e for e, _ in report.per_trajectory]))
        assert report.norm_std == pytest.approx(
            np.mean([s for _, s in report.per_trajectory]))

    def test_csv_is_parseable_and_exact(self):
        report = self._report(np.random.default_rng(90))
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "metric,value"
        parsed = dict(line.split(",") for line in lines[1:])
        assert float(parsed["nmse"]) == report.nmse
        assert float(parsed["spectral_radius"]) == 0.97
        assert float(parsed["traj1.norm_std"]) == report.per_trajectory[1][1]

    def test_text_table_mentions_all_fields(self):
        text = self._report(np.random.default_rng(91)).text()
        for key in ("nmse", "norm_std", "spectral_radius", "barrier_margin",
                    "trajectory 1"):
            assert key in text

    def test_negative_metric_rejected(self):
        with pytest.raises(DataError):
            MetricsReport(nmse=-0.1, norm_std=0.0, per_trajectory=(),
                          spectral_radius=1.0, barrier_margin=0.0)
