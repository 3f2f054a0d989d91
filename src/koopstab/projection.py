"""Exact per-row projections for the barrier-relaxed projected gradient step.

The stability condition decouples by rows, so the matrix-level quadratic
projection splits into d independent d-variable problems. Two modes exist:

* symmetric: both sign branches of the row condition are enforced. Jointly
  they reduce to a row L1-norm bound,

      1 + x_i - sum_{j != i} |x_j| >= tau  and
      1 - x_i - sum_{j != i} |x_j| >= tau
      <=>  |x_i| + sum_{j != i} |x_j| <= 1 - tau,

  so the projection is the classic Euclidean projection onto an L1 ball of
  radius 1 - tau (sort and soft-threshold, exact in O(d log d)).

* asymmetric: the branch containing -x_i is dropped (useful for smoothly
  sampled data), leaving {x : sum_{j != i} |x_j| - x_i <= 1 - tau}. A
  single KKT multiplier lam >= 0 solves it: x_i = y_i + lam and
  x_j = soft_threshold(y_j, lam); the constraint residual is piecewise
  linear and strictly decreasing in lam, so the root is found exactly by
  walking its breakpoints.

The relaxed threshold tau = min(0, alpha * h_i(K_prev)) never exceeds 0:
rows that already satisfy the stability condition must keep satisfying it,
while infeasible rows are only required not to regress (and, for
alpha < 1, to approach the feasible set geometrically).

``project_row`` is the one entry to both row projections; ``pgd_project``
applies it to every row that misses its threshold, measuring rows only with
the certifier's own ``barrier_values``. The test suite checks it against a
brute-force support-pattern enumeration of the same row problems.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, NumericError
from .stability import barrier_values


def barrier_threshold(h_prev, alpha: float):
    """Relaxed per-row constraint threshold min(0, alpha * h_prev), elementwise."""
    if not 0.0 < alpha <= 1.0:
        raise ContractError(f"alpha must lie in (0, 1], got {alpha}")
    return np.minimum(0.0, alpha * np.asarray(h_prev, dtype=np.float64))


def _l1_project(y: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of y onto {x : ||x||_1 <= radius}."""
    if radius <= 0.0:
        return np.zeros_like(y)
    mags = np.abs(y)
    if mags.sum() <= radius:
        return y.copy()
    u = np.sort(mags)[::-1]
    cumulative = np.cumsum(u)
    counts = np.arange(1, y.size + 1)
    # index 0 always qualifies in exact arithmetic, but rounding loses it
    # when the entries dwarf the radius
    hits = np.nonzero(u * counts > cumulative - radius)[0]
    rho = hits[-1] if hits.size else 0
    theta = (cumulative[rho] - radius) / (rho + 1.0)
    x = np.sign(y) * np.maximum(mags - theta, 0.0)
    # float roundoff can leave the result a few ulp outside; rescale down
    for _ in range(4):
        s = np.abs(x).sum()
        if s <= radius:
            break
        x *= radius / s
    return x


def _asym_project(y: np.ndarray, i: int, radius: float) -> np.ndarray:
    """Projection onto {x : sum_{j != i} |x_j| - x_i <= radius}."""
    others = np.abs(np.delete(y, i))
    if others.sum() - y[i] <= radius:
        return y.copy()
    # residual(lam) = sum_j max(|y_j| - lam, 0) - (y_i + lam) - radius,
    # strictly decreasing; solve the linear piece containing the root.
    u = np.sort(others)[::-1]
    cumulative = np.concatenate([[0.0], np.cumsum(u)])
    lam = None
    n = u.size
    for m in range(n + 1):
        candidate = (cumulative[m] - y[i] - radius) / (m + 1.0)
        lo = u[m] if m < n else 0.0
        hi = u[m - 1] if m > 0 else np.inf
        if lo - 1e-12 <= candidate <= hi + 1e-12:
            lam = max(candidate, 0.0)
            break
    if lam is None:
        raise NumericError("asymmetric projection: no breakpoint segment "
                           "contains the multiplier (malformed input?)")
    x = np.sign(y) * np.maximum(np.abs(y) - lam, 0.0)
    x[i] = y[i] + lam
    gap = (np.abs(np.delete(x, i)).sum() - x[i]) - radius
    if gap > 0.0:  # ulp-level guard: raising x_i reduces the residual 1:1
        x[i] += gap
    return x


def project_row(y, i: int, tau: float, mode: str) -> np.ndarray:
    """Euclidean projection of row ``i`` onto its barrier set at threshold tau.

    ``mode='symmetric'`` enforces both branches, an L1 ball of radius
    1 - tau (the row index is validated, though the ball does not depend on
    it); ``mode='asymmetric'`` enforces 'sum_{j != i} |x_j| - x_i <= 1 - tau'.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    if not 0 <= i < y.size:
        raise DimensionError(f"row index {i} out of range for length {y.size}")
    radius = 1.0 - tau
    if mode == "symmetric":
        if radius <= 0.0:
            raise ContractError(
                f"threshold {tau} leaves an empty interior (1 - tau <= 0)")
        return _l1_project(y, radius)
    if mode == "asymmetric":
        return _asym_project(y, i, radius)
    raise ContractError(f"unknown projection mode {mode!r}")


def pgd_project(K_tilde, K_prev, alpha: float, mode: str = "symmetric",
                margin: float = 0.0) -> np.ndarray:
    """Projected-gradient step: pull each row of K_tilde back to its barrier set.

    Thresholds are computed from ``K_prev`` (the matrix as it stood before
    the gradient update), so the row problems are mutually independent.
    ``margin > 0`` shrinks every row radius to 1 - tau - margin, trading the
    marginal certificate for a strict one. Rows are tested with the
    certifier's own ``barrier_values``, so the fresh C-ordered result
    certifies at ``margin_tol=0``.
    """
    K_tilde = np.asarray(K_tilde, dtype=np.float64)
    K_prev = np.asarray(K_prev, dtype=np.float64)
    if K_tilde.shape != K_prev.shape:
        raise DimensionError(
            f"reference and previous matrices differ: {K_tilde.shape} vs {K_prev.shape}")
    if K_tilde.ndim != 2 or K_tilde.shape[0] != K_tilde.shape[1]:
        raise DimensionError(f"expected square matrices, got {K_tilde.shape}")
    if not (np.all(np.isfinite(K_tilde)) and np.all(np.isfinite(K_prev))):
        raise ContractError("pgd_project needs finite matrices (NaN or Inf entry)")
    if not 0.0 <= margin < 1.0:
        raise ContractError(f"margin must lie in [0, 1), got {margin}")

    target = barrier_threshold(barrier_values(K_prev).rows(mode), alpha) + margin
    out = np.array(K_tilde, order="C")
    for i in np.flatnonzero(barrier_values(out).rows(mode) < target):
        out[i] = project_row(out[i], i, target[i], mode)
    # scaling a row toward 0 raises h by (1 - h) per unit shrink, so a
    # relative 1e-12 nudge absorbs any ulp-level shortfall left by the
    # projection's own rounding
    for _ in range(8):
        short = barrier_values(out).rows(mode) < target
        if not short.any():
            return out
        out[short] *= 1.0 - 1e-12
    raise NumericError(f"rows {np.flatnonzero(short).tolist()}: projection "
                       f"failed to reach barrier targets {target[short].tolist()}")
