"""Learnable lifted-linear dynamics model.

The model is x ~ psi_d(z), z+ = S^-1 K S z, z = psi_e(x): an MLP encoder
into a d-dimensional lifted space, a square transition matrix K together
with a change of basis S, and an MLP decoder back to state space. K is the
matrix the row-wise stability condition applies to; S gives the lifted
coordinates room to rotate/scale so that condition can hold without
restricting the spectrum of the effective matrix S^-1 K S.

Losses follow the squared-L2 convention. For one trajectory x_0..x_T:

    pred(H) = sum_{k=1..H} ||x_k - psi_d((S^-1 K S)^k psi_e(x_0))||^2
    lin(H)  = sum_{k=1..H} ||psi_e(x_k) - (S^-1 K S)^k psi_e(x_0)||^2
    rec     = sum_k ||x_k - psi_d(psi_e(x_k))||^2   (all samples)

``sliding_window_loss`` is the training objective: the weighted sum
averaged over every length H+1 window (stride 1) of every trajectory,
evaluated for all windows in one stacked pass, so it runs as a handful of
matrix products instead of a Python loop per window. The test suite checks
it against a per-window, per-step reference loss.

Checkpoints are self-describing text: layer sizes, activation kinds, every
matrix with repr-exact floats, plus optional preprocessing record and config
key/value pairs. Round-trips are bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ACTIVATIONS, DiffValue, Tape
from .data import Preprocessing
from .errors import (
    ContractError,
    DataError,
    DimensionError,
    ParseError,
)


@dataclass
class MlpParams:
    """Dense MLP weights; activation on every layer except the last."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "tanh"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ContractError(
                f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}")
        if not self.weights or len(self.weights) != len(self.biases):
            raise DimensionError("need one bias per weight matrix, at least one layer")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[0], 1):
                raise DimensionError(
                    f"layer {k}: weight {w.shape} needs bias ({w.shape[0]}, 1), "
                    f"got {b.shape}")
            if k > 0 and w.shape[1] != self.weights[k - 1].shape[0]:
                raise DimensionError(
                    f"layer {k} input {w.shape[1]} != layer {k - 1} output "
                    f"{self.weights[k - 1].shape[0]}")

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @classmethod
    def init(cls, sizes: Sequence[int], activation: str = "tanh",
             rng: np.random.Generator | None = None) -> "MlpParams":
        """Xavier-uniform weights, zero biases."""
        if len(sizes) < 2:
            raise DimensionError("an MLP needs at least input and output sizes")
        rng = rng if rng is not None else np.random.default_rng(0)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
            biases.append(np.zeros((fan_out, 1)))
        return cls(weights=weights, biases=biases, activation=activation)

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Plain numpy pass over column-stacked inputs (in_dim x N)."""
        h = X
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = w @ h + b
            if k < last:
                ad._activate(h, self.activation)
        return h


@dataclass
class KoopmanModel:
    """Encoder, decoder, transition matrix K, and change of basis S."""

    encoder: MlpParams
    decoder: MlpParams
    K: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        d = self.encoder.layer_sizes[-1]
        n = self.encoder.layer_sizes[0]
        if self.decoder.layer_sizes[0] != d or self.decoder.layer_sizes[-1] != n:
            raise DimensionError(
                f"decoder sizes {self.decoder.layer_sizes} do not invert encoder "
                f"sizes {self.encoder.layer_sizes}")
        if self.K.shape != (d, d) or self.S.shape != (d, d):
            raise DimensionError(f"K and S must be ({d}, {d}) to match the encoder")

    @property
    def n(self) -> int:
        return self.encoder.layer_sizes[0]

    @property
    def d(self) -> int:
        return self.encoder.layer_sizes[-1]

    @classmethod
    def init(cls, n: int, d: int, hidden: Sequence[int] = (50, 50, 50),
             activation: str = "tanh", seed: int = 0,
             k_init: str = "certified") -> "KoopmanModel":
        """Fresh model: mirrored encoder/decoder, near-identity K and S.

        ``k_init='certified'`` starts at 0.99 I (stability margin 0.01), so
        the constraint thresholds are pinned at zero from the first step;
        ``'infeasible'`` starts at 1.5 I to exercise recovery from a violated
        stability condition.
        """
        rng = np.random.default_rng(seed)
        encoder = MlpParams.init([n, *hidden, d], activation, rng)
        decoder = MlpParams.init([d, *reversed(list(hidden)), n], activation, rng)
        if k_init == "certified":
            K = 0.99 * np.eye(d)
        elif k_init == "infeasible":
            K = 1.5 * np.eye(d)
        else:
            raise ContractError(f"unknown k_init {k_init!r}")
        S = np.eye(d) + rng.uniform(-1e-3, 1e-3, size=(d, d))
        return cls(encoder=encoder, decoder=decoder, K=K, S=S)

    def _run(self, mlp: MlpParams, x, expected: int) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        single = arr.ndim == 1
        cols = arr.reshape(-1, 1) if single else arr
        if cols.ndim != 2 or cols.shape[0] != expected:
            raise DimensionError(f"expected {expected} rows, got shape {arr.shape}")
        out = mlp.forward(cols)
        return out[:, 0] if single else out

    def encode(self, x) -> np.ndarray:
        """Lift states; accepts a single vector or column-stacked batch."""
        return self._run(self.encoder, x, self.n)

    def decode(self, psi) -> np.ndarray:
        """Map lifted vectors back to state space."""
        return self._run(self.decoder, psi, self.d)

    def effective_matrix(self) -> np.ndarray:
        """The matrix S^-1 K S that advances lifted coordinates."""
        return ad.checked_inverse(self.S) @ self.K @ self.S

    def rollout(self, psi0, horizon: int) -> np.ndarray:
        """Lifted iterates [K'z, K'^2 z, ..., K'^horizon z], rows stacked."""
        return self._rollout(self.effective_matrix(), psi0, horizon)

    def _rollout(self, Keff: np.ndarray, psi0, horizon: int) -> np.ndarray:
        if horizon < 1:
            raise ContractError(f"horizon must be >= 1, got {horizon}")
        z = np.asarray(psi0, dtype=np.float64).reshape(self.d)
        out = np.empty((horizon, self.d))
        for k in range(horizon):
            z = Keff @ z
            out[k] = z
        return out

    def predict_states(self, x0, n_steps):
        """Decoded predictions for steps 1..n_steps from the state x0.

        ``x0`` may also be a (B, n) stack of initial states, with
        ``n_steps`` a sequence of B step counts; the result is then a list
        of B prediction arrays, and S^-1 K S is formed once for all of them.
        """
        states = np.asarray(x0, dtype=np.float64)
        Keff = self.effective_matrix()

        def predict(x, count):
            lifted = self._rollout(Keff, self.encode(x), count)
            return self.decode(lifted.T).T

        if states.ndim == 1:
            return predict(states, n_steps)
        if states.ndim != 2 or np.ndim(n_steps) != 1 or len(n_steps) != len(states):
            raise DimensionError(
                f"expected one initial state or a stack of them with one step "
                f"count each, got states {states.shape} and counts {n_steps!r}")
        return [predict(x, count) for x, count in zip(states, n_steps)]

    def get_params(self) -> dict[str, np.ndarray]:
        """Named views of every trainable array (mutations write through)."""
        out: dict[str, np.ndarray] = {}
        for prefix, mlp in (("encoder", self.encoder), ("decoder", self.decoder)):
            for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
                out[f"{prefix}.w{k}"] = w
                out[f"{prefix}.b{k}"] = b
        out["K"] = self.K
        out["S"] = self.S
        return out

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        current = self.get_params()
        if set(params) != set(current):
            raise ContractError("parameter names do not match this model")
        for name, arr in params.items():
            if arr.shape != current[name].shape:
                raise DimensionError(
                    f"{name}: shape {arr.shape} != {current[name].shape}")
        for prefix, mlp in (("encoder", self.encoder), ("decoder", self.decoder)):
            for k in range(len(mlp.weights)):
                mlp.weights[k] = np.array(params[f"{prefix}.w{k}"], dtype=np.float64)
                mlp.biases[k] = np.array(params[f"{prefix}.b{k}"], dtype=np.float64)
        self.K = np.array(params["K"], dtype=np.float64)
        self.S = np.array(params["S"], dtype=np.float64)

    def copy(self) -> "KoopmanModel":
        enc = MlpParams([w.copy() for w in self.encoder.weights],
                        [b.copy() for b in self.encoder.biases],
                        self.encoder.activation)
        dec = MlpParams([w.copy() for w in self.decoder.weights],
                        [b.copy() for b in self.decoder.biases],
                        self.decoder.activation)
        return KoopmanModel(encoder=enc, decoder=dec,
                            K=self.K.copy(), S=self.S.copy())


@dataclass(frozen=True)
class LossWeights:
    """Weights of the three loss terms and the multi-step horizon."""

    pred: float = 1.0
    lin: float = 0.1
    rec: float = 1.0
    horizon: int = 10

    def __post_init__(self):
        if min(self.pred, self.lin, self.rec) < 0.0:
            raise ContractError("loss weights must be non-negative")
        if max(self.pred, self.lin, self.rec) == 0.0:
            raise ContractError("at least one loss weight must be positive")
        if self.horizon < 1:
            raise ContractError(f"horizon must be >= 1, got {self.horizon}")


class BoundModel:
    """Model parameters bound to a tape as differentiable leaves."""

    def __init__(self, tape: Tape, model: KoopmanModel):
        self.tape = tape
        self.model = model
        self.leaves: dict[str, DiffValue] = {
            name: tape.leaf(arr) for name, arr in model.get_params().items()}
        self._effective: DiffValue | None = None

    def _mlp(self, prefix: str, mlp: MlpParams, X: DiffValue) -> DiffValue:
        h = X
        last = len(mlp.weights) - 1
        for k in range(len(mlp.weights)):
            h = ad.dense(self.leaves[f"{prefix}.w{k}"], h,
                         self.leaves[f"{prefix}.b{k}"],
                         mlp.activation if k < last else "identity")
        return h

    def encode(self, X: DiffValue) -> DiffValue:
        return self._mlp("encoder", self.model.encoder, X)

    def decode(self, Z: DiffValue) -> DiffValue:
        return self._mlp("decoder", self.model.decoder, Z)

    def effective(self) -> DiffValue:
        """S^-1 K S on the tape; computed once and shared by all losses."""
        if self._effective is None:
            s_inv = ad.matinv(self.leaves["S"])
            self._effective = ad.matmul(ad.matmul(s_inv, self.leaves["K"]),
                                        self.leaves["S"])
        return self._effective

    def gradients(self) -> dict[str, np.ndarray]:
        return {name: leaf.grad for name, leaf in self.leaves.items()}


def _states_matrix(states) -> np.ndarray:
    arr = np.asarray(states, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected (T, n) states, got shape {arr.shape}")
    return arr


def _check_horizon(T: int, horizon: int) -> None:
    if T < horizon + 1:
        raise DataError(
            f"trajectory has {T} samples, need {horizon + 1} for horizon {horizon}")


def sliding_window_loss(bound: BoundModel, batch: Sequence,
                        weights: LossWeights,
                        components: dict | None = None) -> DiffValue:
    """Weighted loss averaged over every stride-1 window of length horizon+1.

    All window starts advance through the lifted dynamics together as one
    column-stacked matrix, and lifted targets are gathered from a single
    shared encoding of all samples, so cost scales with matrix sizes rather
    than window count.

    When ``components`` is given it is filled with the unweighted per-window
    means of the three terms (zero for terms whose weight is zero).
    """
    if len(batch) == 0:
        raise DataError("empty batch")
    H = weights.horizon
    arrays = [_states_matrix(states) for states in batch]
    for X in arrays:
        _check_horizon(X.shape[0], H)
    offsets = np.cumsum([0] + [X.shape[0] for X in arrays])
    X_all = np.vstack(arrays).T
    starts = np.concatenate([
        off + np.arange(X.shape[0] - H) for off, X in zip(offsets, arrays)])
    n_windows = starts.size

    X_leaf = bound.tape.leaf(X_all)
    Psi_all = bound.encode(X_leaf)
    Keff = bound.effective()

    z = ad.gather_cols(Psi_all, starts)
    pred_total = None
    lin_total = None
    for k in range(1, H + 1):
        z = ad.matmul(Keff, z)
        if weights.lin > 0.0:
            term = ad.sum_sq_norm(ad.sub(ad.gather_cols(Psi_all, starts + k), z))
            lin_total = term if lin_total is None else ad.add(lin_total, term)
        if weights.pred > 0.0:
            targets = bound.tape.leaf(X_all[:, starts + k])
            term = ad.sum_sq_norm(ad.sub(bound.decode(z), targets))
            pred_total = term if pred_total is None else ad.add(pred_total, term)

    parts = []
    if weights.pred > 0.0:
        parts.append(ad.scale(pred_total, weights.pred))
    if weights.lin > 0.0:
        parts.append(ad.scale(lin_total, weights.lin))
    rec_total = None
    if weights.rec > 0.0:
        residual = ad.sub(bound.decode(Psi_all), X_leaf)
        # each sample enters once per window containing it
        window_cols = (starts[:, None] + np.arange(H + 1)[None, :]).ravel()
        rec_total = ad.sum_sq_norm(ad.gather_cols(residual, window_cols))
        parts.append(ad.scale(rec_total, weights.rec))
    if components is not None:
        components.clear()
        for key, term in (("pred", pred_total), ("lin", lin_total),
                          ("rec", rec_total)):
            components[key] = (float(term.value[0, 0]) / n_windows
                               if term is not None else 0.0)
    total = parts[0]
    for p in parts[1:]:
        total = ad.add(total, p)
    return ad.scale(total, 1.0 / n_windows)


CHECKPOINT_HEADER = "koopstab-checkpoint v1"


def _write_matrix(lines: list[str], name: str, arr: np.ndarray) -> None:
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    lines.append(f"matrix {name} {arr.shape[0]} {arr.shape[1]}")
    for row in arr:
        lines.append(" ".join(repr(float(v)) for v in row))


def save_checkpoint(path, model: KoopmanModel,
                    preprocessing: Preprocessing | None = None,
                    config: dict | None = None) -> None:
    """Write a self-describing text checkpoint with repr-exact floats."""
    lines = [CHECKPOINT_HEADER]
    lines.append(f"encoder-activation {model.encoder.activation}")
    lines.append(f"decoder-activation {model.decoder.activation}")
    lines.append(f"encoder-layers {len(model.encoder.weights)}")
    lines.append(f"decoder-layers {len(model.decoder.weights)}")
    for key, value in (config or {}).items():
        lines.append(f"config {key} {value}")
    if preprocessing is not None and preprocessing.dt is not None:
        lines.append(f"preproc-dt {repr(float(preprocessing.dt))}")
    for name, arr in model.get_params().items():
        _write_matrix(lines, name, arr)
    if preprocessing is not None:
        if preprocessing.offset is not None:
            _write_matrix(lines, "preproc.offset", preprocessing.offset)
        if preprocessing.scale is not None:
            _write_matrix(lines, "preproc.scale", preprocessing.scale)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_count(token: str, what: str, path: Path, line: int | None = None) -> int:
    if not token.isdecimal():
        raise ParseError(f"{what} must be a non-negative integer, got {token!r}",
                         path=path, line=line)
    return int(token)


def load_checkpoint(path) -> tuple[KoopmanModel, Preprocessing, dict]:
    """Inverse of save_checkpoint; bit-exact for every stored matrix."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise ParseError(f"expected header {CHECKPOINT_HEADER!r}", path=path, line=1)
    meta: dict[str, str] = {}
    config: dict[str, str] = {}
    matrices: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "config":
            if len(tokens) < 3:
                raise ParseError("config line needs key and value",
                                 path=path, line=i)
            config[tokens[1]] = line.split(None, 2)[2]
        elif tokens[0] == "matrix":
            if len(tokens) != 4:
                raise ParseError("matrix line needs name, rows, cols",
                                 path=path, line=i)
            name = tokens[1]
            rows = _parse_count(tokens[2], f"matrix {name} rows", path, i)
            cols = _parse_count(tokens[3], f"matrix {name} columns", path, i)
            block = []
            for r in range(rows):
                try:
                    block.append([float(v) for v in lines[i + r].split()])
                except (IndexError, ValueError):
                    raise ParseError(f"bad row {r} of matrix {name}",
                                     path=path, line=i + r + 1) from None
                if len(block[-1]) != cols:
                    raise ParseError(f"matrix {name} row {r}: expected {cols} "
                                     f"values, got {len(block[-1])}",
                                     path=path, line=i + r + 1)
                if not np.all(np.isfinite(block[-1])):
                    raise ParseError(f"matrix {name} row {r}: entries must be finite",
                                     path=path, line=i + r + 1)
            matrices[name] = np.array(block)
            i += rows
        else:
            meta[tokens[0]] = line.split(None, 1)[1] if len(tokens) > 1 else ""

    def meta_value(key: str) -> str:
        if key not in meta:
            raise ParseError(f"missing key {key}", path=path)
        return meta[key]

    def build_mlp(prefix: str) -> MlpParams:
        count = _parse_count(meta_value(f"{prefix}-layers"), f"{prefix}-layers", path)
        activation = meta_value(f"{prefix}-activation")
        try:
            weights = [matrices.pop(f"{prefix}.w{k}") for k in range(count)]
            biases = [matrices.pop(f"{prefix}.b{k}") for k in range(count)]
        except KeyError as exc:
            raise ParseError(f"missing matrix {exc.args[0]}", path=path) from None
        return MlpParams(weights=weights, biases=biases, activation=activation)

    try:
        encoder = build_mlp("encoder")
        decoder = build_mlp("decoder")
        K = matrices.pop("K")
        S = matrices.pop("S")
    except KeyError as exc:
        raise ParseError(f"missing matrix {exc.args[0]}", path=path) from None
    model = KoopmanModel(encoder=encoder, decoder=decoder, K=K, S=S)
    try:
        dt = float(meta["preproc-dt"]) if "preproc-dt" in meta else None
    except ValueError:
        raise ParseError(f"preproc-dt must be a number, got {meta['preproc-dt']!r}",
                         path=path) from None
    offset = matrices.pop("preproc.offset", None)
    scale = matrices.pop("preproc.scale", None)
    for name, arr in (("offset", offset), ("scale", scale)):
        if arr is not None and arr.shape != (1, model.n):
            raise ParseError(f"preproc.{name} must be 1 x {model.n}", path=path)
    preprocessing = Preprocessing(
        dt=dt,
        offset=offset[0] if offset is not None else None,
        scale=scale[0] if scale is not None else None)
    return model, preprocessing, config
