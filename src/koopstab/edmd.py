"""Closed-form EDMD baseline: least-squares fit of lifted one-step dynamics.

Given snapshot matrices Psi (lifted states, columns) and Psi_plus (lifted
successors), the minimizer of ||Psi_plus - K Psi||_F over all K is

    K* = Psi_plus @ pinv(Psi),

with the pseudoinverse computed by SVD. This gives the unconstrained
baseline the trained-and-projected models are compared against; nothing
here guarantees stability of K*.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import model
from .errors import ContractError, DataError, DegenerateDataError, DimensionError

# relative singular-value cutoff for the pseudoinverse
SVD_RCOND = 1e-10


@dataclass(frozen=True)
class SnapshotPair:
    """Column-aligned lifted snapshots: column k of Psi_plus succeeds column k of Psi."""

    Psi: np.ndarray
    Psi_plus: np.ndarray

    def __post_init__(self):
        if self.Psi.ndim != 2 or self.Psi_plus.ndim != 2:
            raise DimensionError("snapshot matrices must be 2-D")
        if self.Psi.shape != self.Psi_plus.shape:
            raise DimensionError(
                f"snapshot shapes differ: {self.Psi.shape} vs {self.Psi_plus.shape}")

    @property
    def n_pairs(self) -> int:
        return self.Psi.shape[1]


def edmd_fit(pairs: SnapshotPair) -> np.ndarray:
    """Least-squares lifted transition matrix K* = Psi_plus @ pinv(Psi)."""
    if pairs.n_pairs < 1:
        raise ContractError("EDMD needs at least one snapshot pair")
    if not np.any(pairs.Psi):
        raise DegenerateDataError("snapshot matrix Psi is identically zero")
    return pairs.Psi_plus @ np.linalg.pinv(pairs.Psi, rcond=SVD_RCOND)


def monomial_exponents(n_vars: int, degree: int) -> list[tuple[int, ...]]:
    """Variable index tuples for all monomials of degree 1..degree, graded lex.

    Degree-1 terms come first in variable order, then degree-2 products, and
    so on; no constant term. For n_vars=2, degree=2 the order is
    x1, x2, x1^2, x1*x2, x2^2.
    """
    if degree < 1:
        raise ContractError(f"monomial degree must be >= 1, got {degree}")
    out: list[tuple[int, ...]] = []
    for deg in range(1, degree + 1):
        out.extend(itertools.combinations_with_replacement(range(n_vars), deg))
    return out


def monomial_features(X: np.ndarray, degree: int) -> np.ndarray:
    """Stack monomial observables of column-stacked states X (n x N).

    A float64 feature matrix larger than ``model.MAX_TAPE_BYTES`` raises
    ``ContractError`` before any monomial is listed.
    """
    X = np.asarray(X, dtype=np.float64)
    (n, N), p = X.shape, max(degree, 0)
    needed = 8 * (math.comb(n + p, p) - 1) * N
    if needed > model.MAX_TAPE_BYTES:
        raise ContractError(
            f"monomials:{degree} of {n} variables at {N} snapshots would hold "
            f"{needed / 2**30:.3g} GiB of features, more than the "
            f"{model.MAX_TAPE_BYTES / 2**30:g} GiB limit; lower the degree")
    rows = [np.prod(X[list(idx), :], axis=0)
            for idx in monomial_exponents(n, degree)]
    return np.vstack(rows)


def _resolve_dictionary(dictionary: str) -> Callable[[np.ndarray], np.ndarray]:
    if dictionary == "identity":
        return lambda X: X
    if isinstance(dictionary, str) and dictionary.startswith("monomials:"):
        try:
            degree = int(dictionary.split(":", 1)[1])
        except ValueError:
            raise ContractError(
                f"monomial degree must be an integer in {dictionary!r}") from None
        return lambda X: monomial_features(X, degree)
    raise ContractError(
        f"unknown dictionary {dictionary!r}; expected 'identity' or 'monomials:<p>'")


def lift_dataset(trajectories: Sequence[np.ndarray],
                 dictionary: str = "identity") -> SnapshotPair:
    """Assemble consecutive-pair snapshot matrices from raw trajectories.

    Each trajectory is a (T, n) array of row-stacked states; a trajectory of
    length T contributes T - 1 column pairs. The dictionary, ``identity`` or
    ``monomials:<p>`` (every monomial of degree 1 to p), maps column-stacked
    states (n x N) to observables (d x N).
    """
    lift = _resolve_dictionary(dictionary)
    before, after = [], []
    for k, traj in enumerate(trajectories):
        states = np.asarray(traj, dtype=np.float64)
        if states.ndim != 2:
            raise DimensionError(f"trajectory {k} must be 2-D, got {states.ndim}-D")
        if states.shape[0] < 2:
            raise DataError(f"trajectory {k} has {states.shape[0]} samples; "
                            "need at least 2 to form a snapshot pair")
        before.append(states[:-1].T)
        after.append(states[1:].T)
    if not before:
        raise DataError("no trajectories given")
    return SnapshotPair(Psi=lift(np.hstack(before)), Psi_plus=lift(np.hstack(after)))
