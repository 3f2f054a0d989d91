"""Exact per-row projections for the barrier-relaxed projected gradient step.

The stability condition decouples by rows, so the matrix-level quadratic
projection splits into d independent d-variable problems. Two modes exist:

* symmetric: both sign branches of the row condition are enforced. Jointly
  they reduce to a row L1-norm bound,

      1 + x_i - sum_{j != i} |x_j| >= tau  and
      1 - x_i - sum_{j != i} |x_j| >= tau
      <=>  |x_i| + sum_{j != i} |x_j| <= 1 - tau,

  so the projection is the classic Euclidean projection onto an L1 ball of
  radius 1 - tau (sort and soft-threshold, exact in O(d log d); Duchi et
  al., ICML 2008; Condat, Math. Prog. 2016). One kernel solves a whole
  block of rows at once, each row against its own radius, with numpy
  operations along the row axis instead of a Python loop over rows.

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

``project_row`` is the one-row entry to both row projections; in symmetric
mode it is a one-row view of the same block kernel. ``pgd_project`` measures
rows only with the certifier's own ``barrier_values``; in symmetric mode it
hands every row that misses its threshold to the kernel in one call, and in
asymmetric mode it calls ``project_row`` row by row. The test suite checks
the rows against a brute-force support-pattern enumeration of the same row
problems, and the block kernel bit for bit against a row-by-row reference.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DimensionError, NumericError
from .stability import barrier_values


def barrier_threshold(h_prev, alpha: float):
    """Relaxed per-row constraint threshold min(0, alpha * h_prev), elementwise."""
    if not 0.0 < alpha <= 1.0:
        raise ContractError(f"alpha must lie in (0, 1], got {alpha}")
    return np.minimum(0.0, alpha * np.asarray(h_prev, dtype=np.float64))


def _l1_project(Y: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of Y onto {x : ||x||_1 <= radius}.

    ``Y`` is a C-ordered block of rows and ``radii`` holds one positive
    radius per row. Each row's result depends only on that row and its
    radius: a sort and a cumsum along the row, a per-row threshold and up to
    four per-row rescales. So a row gets the same bits in any block.
    """
    mags = np.abs(Y)
    out = Y.copy()
    over = np.flatnonzero(~(mags.sum(axis=1) <= radii))
    if over.size == 0:
        return out
    mags, radius = mags[over], radii[over]
    u = np.sort(mags, axis=1)[:, ::-1]
    cumulative = np.cumsum(u, axis=1)
    counts = np.arange(1, Y.shape[1] + 1)
    hits = u * counts > cumulative - radius[:, None]
    # index 0 always qualifies in exact arithmetic, but rounding loses it
    # when the entries dwarf the radius; a row without hits takes rho = 0
    rho = np.where(hits.any(axis=1), Y.shape[1] - 1 - np.argmax(hits[:, ::-1], axis=1), 0)
    theta = (np.take_along_axis(cumulative, rho[:, None], axis=1)[:, 0]
             - radius) / (rho + 1.0)
    x = np.sign(Y[over]) * np.maximum(mags - theta[:, None], 0.0)
    # float roundoff can leave a row a few ulp outside; rescale it down
    for _ in range(4):
        s = np.abs(x).sum(axis=1)
        still = ~(s <= radius)
        if not still.any():
            break
        x[still] *= (radius[still] / s[still])[:, None]
    out[over] = x
    return out


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
        return _l1_project(y[None, :], np.array([radius]))[0]
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
    certifies at ``margin_tol=0``. A row of either matrix whose absolute sum
    overflows has no finite barrier and raises ``NumericError``.

    In symmetric mode every row below its target goes through one call of
    the block L1 kernel, with radius 1 - target per row; the result is bit
    for bit what projecting the rows one at a time gives. Asymmetric mode
    projects the rows one at a time.
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

    out = np.array(K_tilde, order="C")
    h_prev = barrier_values(K_prev).rows(mode)
    h_tilde = barrier_values(out).rows(mode)
    for name, h in (("K_prev", h_prev), ("K_tilde", h_tilde)):
        if not np.all(np.isfinite(h)):
            raise NumericError(f"{name} rows {np.flatnonzero(~np.isfinite(h)).tolist()}: "
                               "non-finite row barrier (row absolute sum overflows)")
    target = barrier_threshold(h_prev, alpha) + margin
    rows = np.flatnonzero(h_tilde < target)
    if mode == "symmetric":
        out[rows] = _l1_project(out[rows], 1.0 - target[rows])
    else:
        for i in rows:
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


def displacement(K, K_proj) -> float:
    """Frobenius distance ||K - K_proj||_F, finite wherever the distance is.

    The difference is scaled by the power of two that brings its largest
    magnitude into [0.5, 1) before the norm, and back after. That scaling is
    exact, so the value equals ``np.linalg.norm(K - K_proj)`` bit for bit
    wherever the squares there neither overflow nor underflow.
    """
    diff = np.asarray(K, dtype=np.float64) - np.asarray(K_proj, dtype=np.float64)
    _, exp = math.frexp(float(np.abs(diff).max(initial=0.0)))
    return math.ldexp(float(np.linalg.norm(np.ldexp(diff, -exp))), exp)
