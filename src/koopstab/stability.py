"""Row-decoupled stability certificates.

A square matrix K is certified stable when every row satisfies the pair of
piecewise-linear inequalities

    h_plus_i  = 1 + K_ii - sum_{j != i} |K_ij| >= 0
    h_minus_i = 1 - K_ii - sum_{j != i} |K_ij| >= 0

which together say the row absolute sum is at most 1, i.e. the map keeps
the unit hypercube forward-invariant. The condition is sufficient, not
necessary: it implies ||K||_inf <= 1 and hence spectral radius <= 1, but
Schur-stable matrices exist that violate it (see the tests for a nilpotent
witness). The test suite cross-checks the certificate against a vertex-wise
forward-invariance check of the hypercube.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, NumericError

_DENSE_EIG_LIMIT = 64


def _check_square(K) -> np.ndarray:
    """K as a C-ordered float64 square matrix, so row sums add in one order."""
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {K.shape}")
    return np.ascontiguousarray(K)


@dataclass
class BarrierReport:
    """Per-row barrier values of a square matrix."""

    h_plus: np.ndarray
    h_minus: np.ndarray
    h: np.ndarray = field(init=False)
    margin: float = field(init=False)

    def __post_init__(self):
        self.h = np.minimum(self.h_plus, self.h_minus)
        self.margin = float(self.h.min())

    def rows(self, mode: str = "symmetric") -> np.ndarray:
        """Per-row barrier under the given constraint mode.

        Symmetric mode enforces both sign branches (h = min of the pair);
        asymmetric mode drops the branch containing -K_ii and keeps h_plus.
        """
        if mode == "symmetric":
            return self.h
        if mode == "asymmetric":
            return self.h_plus
        raise ContractError(f"unknown mode {mode!r}")


def barrier_values(K) -> BarrierReport:
    """Evaluate both barrier branches for every row of K."""
    K = _check_square(K)
    diag = np.diag(K)
    offdiag = np.sum(np.abs(K), axis=1) - np.abs(diag)
    return BarrierReport(h_plus=1.0 + diag - offdiag, h_minus=1.0 - diag - offdiag)


@dataclass
class Certificate:
    """Outcome of a stability certification attempt."""

    certified: bool
    report: BarrierReport
    margin_tol: float
    spectral_radius: float

    def text(self) -> str:
        lines = []
        verdict = "CERTIFIED" if self.certified else "REFUSED"
        lines.append(f"stability check: {verdict} (margin tolerance {self.margin_tol:g})")
        lines.append(f"{'row':>4}  {'h_plus':>14}  {'h_minus':>14}  {'h':>14}")
        rep = self.report
        for i in range(rep.h.size):
            lines.append(f"{i:>4}  {rep.h_plus[i]:>14.6e}  {rep.h_minus[i]:>14.6e}  "
                         f"{rep.h[i]:>14.6e}")
        lines.append(f"margin          = {rep.margin:.6e}")
        lines.append(f"spectral radius = {self.spectral_radius:.6e}")
        return "\n".join(lines)


def certify_stable(K, margin_tol: float = 0.0) -> Certificate:
    """Certify K stable iff its barrier margin is >= -margin_tol.

    A certificate implies ``||K||_inf <= 1 + margin_tol`` and therefore a
    spectral radius of at most ``1 + margin_tol``; a refusal implies
    nothing (the condition is only sufficient).
    """
    report = barrier_values(K)
    return Certificate(
        certified=bool(report.margin >= -margin_tol),
        report=report,
        margin_tol=float(margin_tol),
        spectral_radius=spectral_radius(K),
    )


def spectral_radius(K, max_iter: int = 100_000) -> float:
    """Largest eigenvalue modulus of a square matrix.

    Small matrices use the dense eigensolver; above the dense limit an
    implicitly restarted Arnoldi iteration finds the largest-modulus
    eigenvalues (relative accuracy 1e-8 or better).
    """
    K = _check_square(K)
    d = K.shape[0]
    if d <= _DENSE_EIG_LIMIT:
        return float(np.max(np.abs(np.linalg.eigvals(K))))
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigs
    try:
        vals = eigs(K, k=min(6, d - 2), which="LM", return_eigenvectors=False,
                    v0=np.full(d, d ** -0.5), maxiter=max_iter, tol=1e-10)
    except (ArpackNoConvergence, ArpackError) as exc:
        raise NumericError(f"spectral radius iteration failed: {exc}") from exc
    return float(np.max(np.abs(vals)))
