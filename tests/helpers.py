"""Shared test oracles: finite differences, matrix construction, and the
reference implementations the package's fast paths are checked against.

* ``total_loss`` and its three terms evaluate the training loss one
  trajectory and one step at a time; ``sliding_window_loss`` must agree with
  it over the explicit windows.
* ``with_mlp_dtype`` turns a fresh float32 model into a float64 one.
* ``brute_force_row_qp`` solves the row projections by enumerating support
  patterns; ``project_row``, one row through the package's block kernel,
  must agree with it.
* ``pgd_project_rowwise`` is ``pgd_project`` projecting one row at a time:
  symmetric rows by the one-row sort-and-threshold ``l1_project_row``,
  which the block kernel must match bit for bit, and asymmetric rows by the
  breakpoint walk ``_asym_project``, which the kernel must match to
  rounding.
* ``gather_cols_adjoint_bincount``, ``backward_out_of_place``,
  ``tanh_adjoint_reference``, ``rollout_reference`` and
  ``adam_step_reference`` are the plain forms of the tape's and the
  optimizer's fast paths (in-place sums and updates); the fast paths must
  match them bit for bit.
* ``min_margins`` reads a training history's worst barrier per step.
* ``Polyhedron``, ``unit_hypercube``, ``scale_set`` and
  ``inward_pointing_check`` decide forward invariance of a vertex-listed
  polytope, which the hypercube certificate must agree with.
"""

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from koopstab import autodiff as ad
from koopstab import trainer
from koopstab.autodiff import DiffValue
from koopstab.errors import ContractError, DataError, DimensionError, NumericError
from koopstab.model import (
    BoundModel,
    KoopmanModel,
    LossWeights,
    MlpParams,
    _check_horizon,
    _states_matrix,
)
from koopstab.projection import _project_rows, barrier_threshold
from koopstab.stability import _check_square, barrier_values

FEASIBILITY_TOL = 1e-9
MEMBERSHIP_TOL = 1e-9


def fd_gradient(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at matrix x."""
    g = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(*x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def rel_err(approx, exact):
    """Max absolute deviation normalized by the larger gradient scale."""
    scale = max(np.max(np.abs(exact)), np.max(np.abs(approx)), 1e-6)
    return np.max(np.abs(approx - exact)) / scale


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def matrix_with_condition(rng, d, cond):
    """Random d x d matrix with 2-norm condition number exactly ``cond``."""
    sigma = np.geomspace(1.0, 1.0 / cond, d)
    return random_orthogonal(rng, d) @ np.diag(sigma) @ random_orthogonal(rng, d)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def eig_match_distance(A, B):
    """Largest eigenvalue gap under the optimal one-to-one pairing."""
    ea = np.linalg.eigvals(A)
    eb = np.linalg.eigvals(B)
    cost = np.abs(ea[:, None] - eb[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# ------------------------------------------------ loss oracle

def loss_pred(bound: BoundModel, states, horizon: int) -> DiffValue:
    """Squared decoded-prediction error over steps 1..horizon from x_0."""
    X = _states_matrix(states)
    _check_horizon(X.shape[0], horizon)
    z = bound.encode(bound.tape.leaf(X[0:1].T))
    Keff = bound.effective()
    total = None
    for k in range(1, horizon + 1):
        z = ad.matmul(Keff, z)
        err = ad.sub(bound.decode(z), bound.tape.leaf(X[k:k + 1].T))
        term = ad.sum_sq_norm(err)
        total = term if total is None else ad.add(total, term)
    return total


def loss_lin(bound: BoundModel, states, horizon: int) -> DiffValue:
    """Squared lifted-linearity error over steps 1..horizon from x_0."""
    X = _states_matrix(states)
    _check_horizon(X.shape[0], horizon)
    Psi = bound.encode(bound.tape.leaf(X[:horizon + 1].T))
    z = ad.gather_cols(Psi, [0])
    Keff = bound.effective()
    total = None
    for k in range(1, horizon + 1):
        z = ad.matmul(Keff, z)
        term = ad.sum_sq_norm(ad.sub(ad.gather_cols(Psi, [k]), z))
        total = term if total is None else ad.add(total, term)
    return total


def loss_rec(bound: BoundModel, states) -> DiffValue:
    """Squared autoencoding error over every sample of the trajectory."""
    X = _states_matrix(states)
    if X.shape[0] < 1:
        raise DataError("reconstruction loss needs at least one sample")
    leaf = bound.tape.leaf(X.T)
    return ad.sum_sq_norm(ad.sub(bound.decode(bound.encode(leaf)), leaf))


def total_loss(bound: BoundModel, batch: Sequence, weights: LossWeights) -> DiffValue:
    """Weighted loss averaged over the batch trajectories."""
    if len(batch) == 0:
        raise DataError("empty batch")
    total = None
    for states in batch:
        parts = []
        if weights.pred > 0.0:
            parts.append(ad.scale(loss_pred(bound, states, weights.horizon),
                                  weights.pred))
        if weights.lin > 0.0:
            parts.append(ad.scale(loss_lin(bound, states, weights.horizon),
                                  weights.lin))
        if weights.rec > 0.0:
            parts.append(ad.scale(loss_rec(bound, states), weights.rec))
        item = parts[0]
        for p in parts[1:]:
            item = ad.add(item, p)
        total = item if total is None else ad.add(total, item)
    return ad.scale(total, 1.0 / len(batch))


def with_mlp_dtype(model: KoopmanModel, dtype) -> KoopmanModel:
    """``model`` with its encoder and decoder arrays cast to ``dtype``; a
    float64 model is built from arrays, as ``load_checkpoint`` builds one."""
    def cast(mlp: MlpParams) -> MlpParams:
        return MlpParams([w.astype(dtype) for w in mlp.weights],
                         [b.astype(dtype) for b in mlp.biases], mlp.activation)
    return KoopmanModel(cast(model.encoder), cast(model.decoder), model.K, model.S)


# --------------------------------------- row projection oracle

def _pattern_candidates(y: np.ndarray, coeff_rows: np.ndarray, free: np.ndarray,
                        radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Equality-constrained minimizers x = y - nu*a over all support patterns.

    ``coeff_rows`` holds the active-constraint gradient per pattern (zeros on
    the pattern's fixed coordinates), ``free`` its support mask. Returns the
    stacked candidates and their multipliers.
    """
    weight = (coeff_rows * coeff_rows).sum(axis=1)
    nu = (coeff_rows @ y - radius) / weight
    x = (y[None, :] - nu[:, None] * coeff_rows) * free
    return x, nu


def brute_force_row_qp(y, i: int, tau: float, mode: str = "symmetric") -> np.ndarray:
    """Row projection by exhaustive support-pattern enumeration (test oracle).

    Every candidate solution has some sign/zero pattern; for each of the
    3^k patterns the constraint restricted to the pattern is linear, so the
    active-set minimizer is closed-form. The optimum is the closest
    feasible candidate. Exponential in d; intended for d <= 8.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    if not 0 <= i < y.size:
        raise DimensionError(f"row index {i} out of range for length {y.size}")
    d = y.size
    radius = 1.0 - tau
    if mode not in ("symmetric", "asymmetric"):
        raise ContractError(f"unknown projection mode {mode!r}")

    if mode == "symmetric":
        if np.abs(y).sum() <= radius:
            return y.copy()
        signs = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=d)))
        signs = signs[np.any(signs != 0.0, axis=1)]
        free = signs != 0.0
        candidates, _ = _pattern_candidates(y, signs, free, radius)
        sign_ok = np.all(signs * candidates >= -1e-12, axis=1)
        feasible = np.abs(candidates).sum(axis=1) <= radius + FEASIBILITY_TOL
    else:
        if np.abs(np.delete(y, i)).sum() - y[i] <= radius:
            return y.copy()
        others = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=d - 1)))
        signs = np.insert(others, i, -1.0, axis=1)
        free = signs != 0.0
        candidates, _ = _pattern_candidates(y, signs, free, radius)
        other_mask = np.ones(d, dtype=bool)
        other_mask[i] = False
        sign_ok = np.all((signs * candidates)[:, other_mask] >= -1e-12, axis=1)
        feasible = (np.abs(candidates[:, other_mask]).sum(axis=1)
                    - candidates[:, i]) <= radius + FEASIBILITY_TOL

    valid = sign_ok & feasible
    if not valid.any():
        raise NumericError("brute-force oracle found no feasible candidate")
    dist = ((candidates - y[None, :]) ** 2).sum(axis=1)
    dist[~valid] = np.inf
    return candidates[int(np.argmin(dist))]


def project_row(y: np.ndarray, i: int, tau: float, mode: str) -> np.ndarray:
    """Row ``i`` projected onto its barrier set at threshold tau, alone in a block."""
    return _project_rows(y[None, :], np.array([i]), np.array([1.0 - tau]), mode)[0]


def l1_project_row(y: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of one row onto {x : ||x||_1 <= radius}."""
    if radius <= 0.0:
        return np.zeros_like(y)
    mags = np.abs(y)
    if mags.sum() <= radius:
        return y.copy()
    u = np.sort(mags)[::-1]
    cumulative = np.cumsum(u)
    counts = np.arange(1, y.size + 1)
    hits = np.nonzero(u * counts > cumulative - radius)[0]
    rho = hits[-1] if hits.size else 0
    theta = (cumulative[rho] - radius) / (rho + 1.0)
    x = np.sign(y) * np.maximum(mags - theta, 0.0)
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


def pgd_project_rowwise(K_tilde, K_prev, alpha: float, mode: str = "symmetric",
                        margin: float = 0.0) -> np.ndarray:
    """``pgd_project`` on finite square input, projecting one row at a time."""
    target = barrier_threshold(barrier_values(K_prev).rows(mode), alpha) + margin
    out = np.array(K_tilde, dtype=np.float64, order="C")
    for i in np.flatnonzero(barrier_values(out).rows(mode) < target):
        if mode == "symmetric":
            out[i] = l1_project_row(out[i], 1.0 - target[i])
        else:
            out[i] = _asym_project(out[i], i, 1.0 - target[i])
    for _ in range(8):
        short = barrier_values(out).rows(mode) < target
        if not short.any():
            return out
        out[short] *= 1.0 - 1e-12
    raise NumericError("row-by-row projection failed to reach its targets")


# ------------------------------------- plain tape and optimizer arithmetic

def same_bits(a, b) -> bool:
    """True when two float64 arrays have one shape and identical bytes (-0.0 != 0.0)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.dtype == b.dtype == np.float64 and a.shape == b.shape
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def gather_cols_adjoint_bincount(g: np.ndarray, idx, rows: int, cols: int) -> np.ndarray:
    """``gather_cols``' adjoint as one bincount over all rows, for any indices."""
    idx = np.asarray(idx, dtype=np.intp)
    flat = (idx + cols * np.arange(rows)[:, None]).ravel()
    buf = np.bincount(flat, weights=g.ravel(), minlength=rows * cols)
    # with no weights at all bincount returns int64 zeros
    return buf.astype(np.float64, copy=False).reshape(rows, cols)


def backward_out_of_place(tape: ad.Tape, loss: DiffValue) -> None:
    """``Tape.backward`` that forms every sum as a new array; constants get none."""
    nodes, tape._nodes = tape._nodes, []
    tape._released = len(nodes)
    tape._backward_done = True
    loss._grad = np.ones((1, 1))
    while nodes:
        node = nodes.pop()
        g = node.out._grad
        if g is None:
            continue
        for parent, pg in zip(node.parents, node.backward_fn(g)):
            if parent.needs_grad:
                parent._grad = pg if parent._grad is None else parent._grad + pg


def tanh_adjoint_reference(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    return g * (1.0 - out * out)


def rollout_reference(Keff: np.ndarray, z0: np.ndarray, horizon: int) -> np.ndarray:
    """[Keff z0, ..., Keff^horizon z0] as rows, one new vector per step."""
    z = np.asarray(z0, dtype=np.float64)
    out = np.empty((horizon, z.size))
    for k in range(horizon):
        z = Keff @ z
        out[k] = z
    return out


def adam_step_reference(params, grads, state, config):
    """``adam_step``'s update as whole-array expressions with new moments."""
    state.step += 1
    t = state.step
    b1, b2 = trainer._BETA1, trainer._BETA2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    out = {}
    for name, p in params.items():
        g = grads[name]
        m = state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        v = state.v[name] = b2 * state.v[name] + (1.0 - b2) * (g * g)
        out[name] = p - config.lr * (m / bias1) / (np.sqrt(v / bias2) + trainer._EPS)
    return out


def min_margins(history) -> np.ndarray:
    """Each recorded step's worst projected row barrier."""
    return np.array([r.h_post.min() for r in history.records])


# ------------------------------------- polyhedral invariance

@dataclass
class Polyhedron:
    """H-representation ``{x : A x <= b}`` with an optional vertex list."""

    A: np.ndarray
    b: np.ndarray
    vertices: Optional[np.ndarray] = None

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64).ravel()
        if self.A.ndim != 2 or self.A.shape[0] != self.b.size:
            raise DimensionError(
                f"A is {self.A.shape} but b has {self.b.size} entries")
        if self.vertices is not None:
            self.vertices = np.atleast_2d(np.asarray(self.vertices, dtype=np.float64))
            if self.vertices.shape[1] != self.dim:
                raise DimensionError("vertex dimension does not match A")
            slack = self.vertices @ self.A.T - self.b
            if slack.max(initial=-np.inf) > MEMBERSHIP_TOL:
                raise ContractError(
                    f"listed vertex violates constraints by {slack.max():.3e}")

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        x = np.asarray(x, dtype=np.float64).ravel()
        return bool(np.all(self.A @ x <= self.b + tol))


def unit_hypercube(d: int, with_vertices: bool = True) -> Polyhedron:
    """The axis-aligned hypercube [-1, 1]^d.

    Constraint rows come in (+e_i, -e_i) pairs; vertices, when requested,
    enumerate sign patterns in lexicographic order starting at (-1,...,-1).
    Vertex count is 2^d, so keep d modest when asking for them.
    """
    A = np.vstack([np.eye(d), -np.eye(d)])
    b = np.ones(2 * d)
    vertices = None
    if with_vertices:
        grid = np.meshgrid(*([np.array([-1.0, 1.0])] * d), indexing="ij")
        vertices = np.stack([g.ravel() for g in grid], axis=1)
    return Polyhedron(A, b, vertices)


def scale_set(C: Polyhedron, s: float) -> Polyhedron:
    """Scale an origin-containing polyhedron: ``sC = {x : A x <= s b}``."""
    if s < 0:
        raise ContractError(f"scale must be nonnegative, got {s}")
    if np.any(C.b < 0):
        raise ContractError("scaling requires an origin-containing set (b >= 0)")
    vertices = None if C.vertices is None else s * C.vertices
    return Polyhedron(C.A, s * C.b, vertices)


@dataclass
class InwardPointingResult:
    ok: bool
    vertex: Optional[np.ndarray] = None
    constraint_index: Optional[int] = None

    def __bool__(self):
        return self.ok


def inward_pointing_check(C: Polyhedron, A) -> InwardPointingResult:
    """Decide whether the linear field ``x -> A x`` maps C into itself.

    For a bounded polytope given by its complete vertex list this is
    equivalent to checking the image of every vertex (the image of a convex
    set under a linear map is the convex hull of the vertex images). On
    failure the witness is the first vertex, in listed order, whose image
    leaves C, together with the index of the violated constraint row.
    """
    if C.vertices is None or len(C.vertices) == 0:
        raise ContractError("inward_pointing_check needs the complete vertex list")
    if np.any(C.b <= 0):
        raise ContractError("set must contain the origin strictly (all b > 0)")
    A = _check_square(A)
    if A.shape[0] != C.dim:
        raise DimensionError(f"field is {A.shape}, set lives in dimension {C.dim}")
    images = C.vertices @ A.T
    slack = images @ C.A.T - C.b
    bad = np.argwhere(slack > MEMBERSHIP_TOL)
    if bad.size == 0:
        return InwardPointingResult(ok=True)
    v_idx, c_idx = bad[0]
    return InwardPointingResult(ok=False, vertex=C.vertices[v_idx].copy(),
                                constraint_index=int(c_idx))
