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
  al., ICML 2008; Condat, Math. Prog. 2016).

* asymmetric: the branch containing -x_i is dropped (useful for smoothly
  sampled data), leaving {x : sum_{j != i} |x_j| - x_i <= 1 - tau}. Its
  KKT multiplier lam >= 0 gives x_i = y_i + lam and x_j soft-thresholded
  by lam: the L1-ball projection of the off-diagonal entries with radius
  R = 1 - tau + y_i, with the diagonal as one more, always active,
  coordinate. If the k largest |y_j| (sum cum_k) stay nonzero,
  lam = (cum_k - R) / (k + 1); k = 0 solves rows with R <= -max |y_j|.

The relaxed threshold tau = min(0, alpha * h_i(K_prev)) never exceeds 0:
rows that already satisfy the stability condition must keep satisfying it,
while infeasible rows are only required not to regress (and, for
alpha < 1, to approach the feasible set geometrically).

One kernel solves a block of rows of either mode at once, each against its
own radius. ``pgd_project`` measures rows only with the certifier's own
``barrier_values`` and hands every row that misses its threshold to it in
one call. The test suite checks the rows against a brute-force
support-pattern enumeration of the same row problems, symmetric blocks bit
for bit against a row-by-row reference, and asymmetric rows against a
breakpoint-walk reference.
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


def _l1_project(Y: np.ndarray, radii: np.ndarray, active: int = 0):
    """Soft-threshold each row of Y so that ||x||_1 <= radius + active * theta.

    Returns the block and each row's threshold theta (0 for a row already
    within). ``active`` counts coordinates outside ``Y`` that are always
    active and rise by theta: 0 gives the L1-ball projection (radius > 0),
    1 the asymmetric row problem with the diagonal taken out (any radius).
    A row's result depends only on that row and its radius (a sort and a
    cumsum along the row, a per-row threshold and, with ``active = 0``, up
    to four rescales), so a row gets the same bits in any block.
    """
    mags = np.abs(Y)
    theta = np.zeros(len(Y))
    over = np.flatnonzero(~(mags.sum(axis=1) <= radii))
    width = Y.shape[1]
    if over.size == 0 or width == 0:
        # a row without entries (asymmetric, d = 1) leaves all to the diagonal
        theta[over] = -radii[over]
        return Y.copy(), theta
    mags, radius = mags[over], radii[over]
    theta[over] = lam = _threshold(mags, radius, active)
    # x = sign(y) max(|y| - lam, 0), formed in the buffer of the rows' |y|
    x = mags
    x -= lam[:, None]
    np.maximum(x, 0.0, out=x)
    x *= np.sign(Y[over])
    out = Y.copy()
    # float roundoff can leave a ball row a few ulp outside; rescale it down
    for _ in range(0 if active else 4):
        s = np.abs(x).sum(axis=1)
        still = ~(s <= radius)
        if not still.any():
            break
        x[still] *= (radius[still] / s[still])[:, None]
    out[over] = x
    return out, theta


def _threshold(mags: np.ndarray, radius: np.ndarray, active: int) -> np.ndarray:
    """Each row's soft threshold lam for the magnitudes ``mags`` of a row over
    its ``radius``; the sort, its cumulative sums and the hit mask die on
    return."""
    width = mags.shape[1]
    u = np.sort(mags, axis=1)[:, ::-1]
    cumulative = np.cumsum(u, axis=1)
    hits = u * np.arange(1 + active, width + 1 + active) > cumulative - radius[:, None]
    # k is the last hit. A row without hits takes k = 0 with active = 1, and
    # k = 1 with active = 0: index 0 always qualifies in exact arithmetic,
    # but rounding loses it when the entries dwarf the radius
    k = np.where(hits.any(axis=1), width - np.argmax(hits[:, ::-1], axis=1), 1 - active)
    top = np.take_along_axis(cumulative, np.maximum(k - 1, 0)[:, None], axis=1)[:, 0]
    return (np.where(k > 0, top, 0.0) - radius) / (k + active)


def _project_rows(Y: np.ndarray, diag: np.ndarray, radii: np.ndarray, mode: str):
    """Project each row ``Y[r]``, whose diagonal entry is ``Y[r, diag[r]]``,
    onto its barrier set of radius ``radii[r] = 1 - tau`` in one kernel call.
    An asymmetric row goes without its diagonal, which rises by the kernel's
    threshold."""
    if mode == "symmetric":
        return _l1_project(Y, radii)[0]
    at = (np.arange(len(Y)), diag)
    off_mask = np.ones(Y.shape, dtype=bool)
    off_mask[at] = False
    y_ii = Y[at]
    off, lam = _l1_project(Y[off_mask].reshape(len(Y), -1), radii + y_ii, active=1)
    x_ii = y_ii + lam
    # ulp-level guard: raising x_ii reduces the residual one for one
    x_ii += np.maximum(np.abs(off).sum(axis=1) - x_ii - radii, 0.0)
    out = np.empty_like(Y)
    out[off_mask], out[at] = off.ravel(), x_ii
    return out


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

    Every row below its target goes through one call of the block kernel,
    with radius 1 - target per row; in symmetric mode the result is bit for
    bit what projecting the rows one at a time gives.
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
    if rows.size:
        out[rows] = _project_rows(out[rows], rows, 1.0 - target[rows], mode)
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
