"""Evaluation metrics for trajectory predictions.

Conventions (stated because no single standard definition exists; absolute
comparability with numbers computed under other conventions is not claimed):

* nmse: mean squared prediction error per sample, normalized by the truth
  trajectory's empirical variance about its own mean,

      nmse = mean_k ||p_k - x_k||^2 / mean_k ||x_k - mean(x)||^2,

  so predicting the truth's mean everywhere scores exactly 1.

* norm_std: population standard deviation of the per-sample error norms
  ||p_k - x_k||, normalized by the truth's RMS amplitude about its mean.
  A constant-offset prediction scores 0 (the error has no spread).

Predictions and truths come as lists of (T, n) trajectories; each
trajectory is scored separately and the scores are averaged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateDataError, DimensionError, NumericError


def _as_pairs(predicted, truth) -> list[tuple[np.ndarray, np.ndarray]]:
    pred_list, truth_list = list(predicted), list(truth)
    if len(pred_list) != len(truth_list):
        raise DimensionError(
            f"{len(pred_list)} predictions but {len(truth_list)} truths")
    if not pred_list:
        raise DataError("no trajectories to score")
    pairs = []
    for k, (p, x) in enumerate(zip(pred_list, truth_list)):
        p = np.asarray(p, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if p.shape != x.shape or p.ndim != 2:
            raise DimensionError(
                f"trajectory {k}: prediction shape {p.shape} vs truth {x.shape}")
        if p.shape[0] < 1:
            raise DataError(f"trajectory {k} is empty")
        pairs.append((p, x))
    return pairs


def _truth_variance(x: np.ndarray, k: int) -> float:
    var = float(np.mean(np.sum((x - x.mean(axis=0)) ** 2, axis=1)))
    # a constant trajectory keeps a variance of rounding size, not exactly 0
    rounding = (x.shape[0] * np.finfo(np.float64).eps) ** 2
    if var <= rounding * float(np.mean(np.sum(x * x, axis=1))):
        raise DegenerateDataError(
            f"trajectory {k}: truth has zero variance, metric undefined")
    return var


def nmse_single(predicted: np.ndarray, truth: np.ndarray, k: int = 0) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        mse = float(np.mean(np.sum((predicted - truth) ** 2, axis=1)))
    if not np.isfinite(mse):
        raise NumericError(f"trajectory {k}: non-finite prediction error")
    return mse / _truth_variance(truth, k)


def norm_std_single(predicted: np.ndarray, truth: np.ndarray, k: int = 0) -> float:
    # callers run nmse_single first: a finite mean squared error bounds the spread
    spread = float(np.std(np.linalg.norm(predicted - truth, axis=1)))
    return spread / np.sqrt(_truth_variance(truth, k))


def nmse(predicted, truth) -> float:
    """Variance-normalized mean squared error, averaged over trajectories."""
    pairs = _as_pairs(predicted, truth)
    return float(np.mean([nmse_single(p, x, k) for k, (p, x) in enumerate(pairs)]))


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate scores, per-trajectory breakdown, and stability diagnostics."""

    nmse: float
    norm_std: float
    per_trajectory: tuple[tuple[float, float], ...]
    spectral_radius: float
    barrier_margin: float

    def __post_init__(self):
        if self.nmse < 0.0 or self.norm_std < 0.0:
            raise DataError("metrics cannot be negative")

    def rows(self) -> list[tuple[str, float]]:
        out = [("nmse", self.nmse),
               ("norm_std", self.norm_std),
               ("spectral_radius", self.spectral_radius),
               ("barrier_margin", self.barrier_margin)]
        for k, (e, s) in enumerate(self.per_trajectory):
            out.append((f"traj{k}.nmse", e))
            out.append((f"traj{k}.norm_std", s))
        return out

    def to_csv(self) -> str:
        lines = ["metric,value"]
        lines += [f"{name},{repr(float(v))}" for name, v in self.rows()]
        return "\n".join(lines) + "\n"

    def text(self) -> str:
        lines = [f"nmse            {self.nmse:.6g}",
                 f"norm_std        {self.norm_std:.6g}",
                 f"spectral_radius {self.spectral_radius:.6g}",
                 f"barrier_margin  {self.barrier_margin:.6g}"]
        for k, (e, s) in enumerate(self.per_trajectory):
            lines.append(f"trajectory {k}: nmse {e:.6g}, norm_std {s:.6g}")
        return "\n".join(lines)


def build_report(predicted, truth, spectral_radius: float,
                 barrier_margin: float) -> MetricsReport:
    """Score trajectory pairs and attach the model's stability diagnostics."""
    pairs = _as_pairs(predicted, truth)
    per = tuple((nmse_single(p, x, k), norm_std_single(p, x, k))
                for k, (p, x) in enumerate(pairs))
    return MetricsReport(
        nmse=float(np.mean([e for e, _ in per])),
        norm_std=float(np.mean([s for _, s in per])),
        per_trajectory=per,
        spectral_radius=float(spectral_radius),
        barrier_margin=float(barrier_margin))
