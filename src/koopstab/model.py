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
matrix products instead of a Python loop per window or horizon step. The
test suite checks it against a per-window, per-step reference loss.

Checkpoints are self-describing text: layer sizes, activation kinds, the
MLP dtype, every matrix with repr-exact floats (a float32 entry in its
shortest float32 repr), plus optional preprocessing record and config
key/value pairs. Round-trips are bit-exact. Loading
refuses a repeated or unknown entry and a matrix the model does not use,
and reads a checkpoint without an ``mlp-dtype`` line, written before the
line existed, as a float64 model.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ACTIVATIONS, DiffValue, Tape
from .data import Preprocessing, parse_row
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
        """Xavier-uniform weights, drawn in float64 and cast to float32, and
        zero float32 biases."""
        if len(sizes) < 2:
            raise DimensionError("an MLP needs at least input and output sizes")
        rng = rng if rng is not None else np.random.default_rng(0)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)).astype(np.float32))
            biases.append(np.zeros((fan_out, 1), np.float32))
        return cls(weights=weights, biases=biases, activation=activation)

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Plain numpy pass over column-stacked inputs (in_dim x N), layer by
        layer with ``autodiff.dense_forward``, the forward of the tape's ``dense``."""
        h = X
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.dense_forward(w, h, b, self.activation if k < last else "identity")
        return h


@dataclass
class KoopmanModel:
    """Encoder, decoder, transition matrix K, and change of basis S.

    The encoder and decoder arrays share one dtype, float32 or float64:
    the model's ``dtype``, in which its MLP layers and the lifted rollout
    run. ``init`` makes float32 models; a float64 one is built from its
    arrays, as ``load_checkpoint`` does. K and S are float64 whatever it is.
    """

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
        dtypes = {a.dtype for mlp in (self.encoder, self.decoder)
                  for a in (*mlp.weights, *mlp.biases)}
        if len(dtypes) != 1 or not dtypes <= set(ad.FLOAT_DTYPES):
            raise ContractError(
                f"encoder and decoder arrays must all be float32 or all float64, "
                f"got {sorted(map(str, dtypes))}")

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every encoder and decoder array."""
        return self.encoder.weights[0].dtype

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
        """Fresh model: mirrored float32 encoder/decoder, near-identity K and S.

        ``k_init='certified'`` starts at 0.99 I (stability margin 0.01), so
        the constraint thresholds are pinned at zero from the first step;
        ``'infeasible'`` starts at 1.5 I to exercise recovery from a violated
        stability condition. Sizes whose tape would exceed ``MAX_TAPE_BYTES``
        with no data at all (``tape_bytes``) raise ``ContractError`` before
        anything is allocated: every training step's tape holds at least that.
        """
        sizes = [n, *hidden, d]
        needed = tape_bytes(sizes, sizes[::-1], np.float32, 0, 0, 0)
        if needed > MAX_TAPE_BYTES:
            raise ContractError(
                f"layer sizes {sizes} would hold {needed / 2**30:.3g} GiB on a step's "
                f"tape, more than the {MAX_TAPE_BYTES / 2**30:g} GiB limit; lower "
                f"lift_dim or hidden")
        rng = np.random.default_rng(seed)
        encoder = MlpParams.init(sizes, activation, rng)
        decoder = MlpParams.init(sizes[::-1], activation, rng)
        if k_init == "certified":
            K = 0.99 * np.eye(d)
        elif k_init == "infeasible":
            K = 1.5 * np.eye(d)
        else:
            raise ContractError(f"unknown k_init {k_init!r}")
        S = np.eye(d) + rng.uniform(-1e-3, 1e-3, size=(d, d))
        return cls(encoder=encoder, decoder=decoder, K=K, S=S)

    def _run(self, mlp: MlpParams, x, expected: int) -> np.ndarray:
        # an input of another dtype would promote every layer to it
        arr = np.asarray(x, dtype=self.dtype)
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

    def predict_states(self, x0, n_steps: int, Keff: np.ndarray | None = None):
        """Decoded predictions for steps 1..n_steps from one state x0, as rows.

        ``x0`` is one (n,) state and ``n_steps`` an int; a stack of states or
        a count of another type raises ``DimensionError``, and a count below 1
        ``ContractError``. A caller that already holds this model's S^-1 K S
        passes it as ``Keff``, and it is not formed again. The rollout runs in
        the model's dtype.
        """
        x0 = np.asarray(x0, dtype=self.dtype)
        if x0.ndim != 1 or not isinstance(n_steps, (int, np.integer)):
            raise DimensionError(f"expected one initial state and an int step count, "
                                 f"got state shape {x0.shape} and count {n_steps!r}")
        if n_steps < 1:
            raise ContractError(f"n_steps must be >= 1, got {n_steps}")
        if Keff is None:
            Keff = self.effective_matrix()
        Keff = Keff.astype(self.dtype, copy=False)
        z = self.encode(x0)
        lifted = np.empty((n_steps, self.d), self.dtype)
        for k in range(n_steps):
            z = np.matmul(Keff, z, out=lifted[k])
        return self.decode(lifted.T).T

    def get_params(self) -> dict[str, np.ndarray]:
        """The model's own trainable arrays by name; writing into one writes the model."""
        out: dict[str, np.ndarray] = {}
        for prefix, mlp in (("encoder", self.encoder), ("decoder", self.decoder)):
            for k, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
                out[f"{prefix}.w{k}"] = w
                out[f"{prefix}.b{k}"] = b
        out["K"] = self.K
        out["S"] = self.S
        return out


@dataclass(frozen=True)
class LossWeights:
    """Weights of the three loss terms and the multi-step horizon."""

    pred: float = 1.0
    lin: float = 0.1
    rec: float = 1.0
    horizon: int = 10

    def __post_init__(self):
        for name in ("pred", "lin", "rec"):
            value = getattr(self, name)
            # a NaN weight fails every comparison below and would drop its term
            if not np.isfinite(value):
                raise ContractError(f"loss weight {name!r} must be finite, got {value}")
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

    def decode_sq_dist(self, target: DiffValue, indices, Z: DiffValue,
                       counts=None) -> DiffValue:
        """``||target[:, indices] - decode(Z)||^2``, column j counted ``counts[j]``
        times if given, as one ``mlp_sq_dist`` node, which keeps no activation."""
        layers = range(len(self.model.decoder.weights))
        return ad.mlp_sq_dist(target, indices, Z,
                              [self.leaves[f"decoder.w{k}"] for k in layers],
                              [self.leaves[f"decoder.b{k}"] for k in layers],
                              self.model.decoder.activation, counts)

    def effective(self) -> DiffValue:
        """S^-1 K S on the tape in the model's dtype, formed in float64 by one
        ``similarity`` node; computed once and shared by all losses."""
        if self._effective is None:
            self._effective = ad.similarity(self.leaves["S"], self.leaves["K"],
                                            self.model.dtype)
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


# the most one sliding_window_loss tape may record; a batch that needs more is
# refused before anything is allocated (the backward pass needs about as
# much again for gradients)
MAX_TAPE_BYTES = 1 << 30


def tape_bytes(encoder_sizes: Sequence[int], decoder_sizes: Sequence[int], dtype,
               n_samples: int, n_windows: int, horizon: int) -> int:
    """Bytes of the arrays a training step's tape holds, with every loss term on.

    In the MLP ``dtype``: the encoder and decoder leaves, of the given layer
    sizes, and the decoder parameter gradients that the pred and rec terms'
    ``mlp_sq_dist`` nodes each form in their forward. Per sample: the data,
    every encoder layer and the rec term's gradient at the decoder's first
    layer. Per window: the initial lifted state and the rollout's H
    iterates, and the pred term's first-layer gradient at each of the H
    steps. A float32 model adds S^-1 K S in float32. In float64: the K and
    S leaves, and the S^-1 and S^-1 K S that the ``similarity`` node keeps
    for its adjoint. In integers, per window: the initial gather's start,
    and the H+1 sample columns that the lin term's targets are a view of.
    With no data, this is the least that any step's tape holds.
    """
    n, d, h1 = encoder_sizes[0], encoder_sizes[-1], decoder_sizes[1]
    enc = sum(encoder_sizes[1:])
    enc_params, dec_params = (sum(a * b + b for a, b in zip(sizes, sizes[1:]))
                              for sizes in (encoder_sizes, decoder_sizes))
    mlp_floats = (enc_params + 3 * dec_params
                  + n_samples * (n + enc + h1)
                  + n_windows * ((horizon + 1) * d + horizon * h1)
                  + (d * d if np.dtype(dtype) != np.float64 else 0))
    return (np.dtype(dtype).itemsize * mlp_floats + 8 * 4 * d * d
            + np.dtype(np.intp).itemsize * (horizon + 2) * n_windows)


def check_tape_fits(model: KoopmanModel, lengths: Sequence[int], horizon: int) -> int:
    """The number of stride-1 windows in a batch of trajectories of ``lengths``
    samples; counted from the lengths alone, so nothing is allocated.

    Raise ``DataError`` when a trajectory is shorter than horizon + 1 samples,
    or when a step over the batch would record more than ``MAX_TAPE_BYTES`` on
    its tape (see ``tape_bytes``).
    """
    for T in lengths:
        _check_horizon(T, horizon)
    n_samples = sum(lengths)
    n_windows = n_samples - horizon * len(lengths)
    needed = tape_bytes(model.encoder.layer_sizes, model.decoder.layer_sizes,
                        model.dtype, n_samples, n_windows, horizon)
    if needed > MAX_TAPE_BYTES:
        raise DataError(
            f"a step over {n_windows} windows of {len(lengths)} trajectories "
            f"would record {needed / 2**30:.3g} GiB on the tape, more than the "
            f"{MAX_TAPE_BYTES / 2**30:g} GiB limit; lower batch_size (trajectories "
            f"per step) or train on shorter trajectories")
    return n_windows


def sliding_window_loss(bound: BoundModel, batch: Sequence,
                        weights: LossWeights) -> tuple[DiffValue, dict[str, float]]:
    """Weighted loss averaged over every stride-1 window of length horizon+1,
    and the unweighted per-window means of its terms keyed ``pred``, ``lin``
    and ``rec`` (0.0 for a term whose weight is zero).

    All window starts advance through the lifted dynamics together: one
    ``rollout`` node holds the H steps of every window side by side, step
    by step (k-major), and lifted targets are gathered from a single shared
    encoding of all samples. The lin term is one ``gather_sq_dist`` node
    over the whole horizon. The pred and rec terms are one ``mlp_sq_dist``
    node each, which decodes block by block and keeps none of the decoder's
    activations: the pred node decodes the rollout, and the rec node
    decodes every sample once and counts sample j's squared error once per
    window that contains it. So cost scales with matrix
    sizes rather than window count or horizon. The states, cast to the
    model's dtype, enter the tape as a constant: they are not copied again,
    not scanned, and get no gradient.

    A batch whose tape would hold more than ``MAX_TAPE_BYTES`` (see
    ``check_tape_fits``) raises ``DataError`` before anything is allocated.
    """
    if len(batch) == 0:
        raise DataError("empty batch")
    H = weights.horizon
    arrays = [_states_matrix(states) for states in batch]
    lengths = [X.shape[0] for X in arrays]
    n_windows = check_tape_fits(bound.model, lengths, H)
    offsets = np.cumsum([0] + lengths)
    starts = np.concatenate([off + np.arange(T - H) for off, T in zip(offsets, lengths)])
    # the sample at step k of every window, k = 0..H: k-major like the rollout
    window_cols = (starts + np.arange(H + 1)[:, None]).ravel()
    ahead = window_cols[n_windows:]
    X_all = np.concatenate([X.T for X in arrays], axis=1, dtype=bound.model.dtype)

    X = bound.tape.constant(X_all)
    Psi_all = bound.encode(X)
    Z = ad.rollout(bound.effective(), ad.gather_cols(Psi_all, starts), H)
    sums = {}
    if weights.lin > 0.0:
        sums["lin"] = ad.gather_sq_dist(Psi_all, ahead, Z)
    if weights.pred > 0.0:
        sums["pred"] = bound.decode_sq_dist(X, ahead, Z)
    if weights.rec > 0.0:
        # each sample counts once per window containing it
        sums["rec"] = bound.decode_sq_dist(X, np.arange(X_all.shape[1]), Psi_all,
                                           counts=np.bincount(window_cols))
    parts = [ad.scale(sums[key], getattr(weights, key))
             for key in ("pred", "lin", "rec") if key in sums]
    total = parts[0]
    for p in parts[1:]:
        total = ad.add(total, p)
    terms = {key: float(sums[key].value[0, 0]) / n_windows if key in sums else 0.0
             for key in ("pred", "lin", "rec")}
    return ad.scale(total, 1.0 / n_windows), terms


CHECKPOINT_HEADER = "koopstab-checkpoint v1"
_META_KEYS = ("encoder-activation", "decoder-activation", "encoder-layers",
              "decoder-layers")
# optional: a checkpoint without it holds a float64 MLP
_DTYPE_KEY = "mlp-dtype"


def _entry_text(v: np.floating) -> str:
    """A float32 entry's shortest repr when it reads back through float64 to
    the same bits, else the float64 repr of its value; a float64 entry's repr."""
    if v.dtype == np.float32:
        text = str(v)
        if np.float32(float(text)) == v:
            return text
    return repr(float(v))


def _write_matrix(lines: list[str], name: str, arr: np.ndarray) -> None:
    arr = np.atleast_2d(np.asarray(arr))
    lines.append(f"matrix {name} {arr.shape[0]} {arr.shape[1]}")
    lines.extend(" ".join(map(_entry_text, row)) for row in arr)


def save_checkpoint(path, model: KoopmanModel,
                    preprocessing: Preprocessing | None = None,
                    config: dict | None = None) -> None:
    """Write a self-describing text checkpoint with repr-exact floats."""
    lines = [CHECKPOINT_HEADER]
    lines.append(f"encoder-activation {model.encoder.activation}")
    lines.append(f"decoder-activation {model.decoder.activation}")
    lines.append(f"{_DTYPE_KEY} {model.dtype}")
    lines.append(f"encoder-layers {len(model.encoder.weights)}")
    lines.append(f"decoder-layers {len(model.decoder.weights)}")
    lines.extend(f"config {key} {value}" for key, value in (config or {}).items())
    if preprocessing is not None and preprocessing.dt is not None:
        lines.append(f"preproc-dt {repr(float(preprocessing.dt))}")
    for name, arr in model.get_params().items():
        _write_matrix(lines, name, arr)
    for name in ("offset", "scale"):
        if getattr(preprocessing, name, None) is not None:
            _write_matrix(lines, f"preproc.{name}", getattr(preprocessing, name))
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
    seen: set[str] = set()
    dt = None
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        tokens = line.split()
        entry = " ".join(tokens[:2]) if tokens[0] in ("config", "matrix") else tokens[0]
        if entry in seen:
            raise ParseError(f"repeated entry {entry!r}", path=path, line=i)
        seen.add(entry)
        if tokens[0] == "config":
            if len(tokens) < 3:
                raise ParseError("config line needs key and value", path=path, line=i)
            config[tokens[1]] = line.split(None, 2)[2]
        elif tokens[0] == "matrix":
            if len(tokens) != 4:
                raise ParseError("matrix line needs name, rows, cols", path=path, line=i)
            name = tokens[1]
            rows = _parse_count(tokens[2], f"matrix {name} rows", path, i)
            cols = _parse_count(tokens[3], f"matrix {name} columns", path, i)
            if i + rows > len(lines):
                raise ParseError(f"matrix {name}: file ends before row {len(lines) - i}",
                                 path=path, line=i)
            matrices[name] = np.array([
                parse_row(lines[i + r].split(), path, i + r + 1, cols,
                          f"matrix {name} row {r}") for r in range(rows)])
            i += rows
        elif tokens[0] == "preproc-dt":
            dt = parse_row(tokens[1:], path, i, 1, "preproc-dt")[0]
            if dt <= 0:
                raise ParseError(f"preproc-dt must be positive, got {dt!r}", path=path, line=i)
        elif tokens[0] in (*_META_KEYS, _DTYPE_KEY):
            meta[tokens[0]] = line.split(None, 1)[1] if len(tokens) > 1 else ""
        else:
            raise ParseError(f"unknown entry {tokens[0]!r}", path=path, line=i)

    for key in _META_KEYS:
        if key not in meta:
            raise ParseError(f"missing key {key}", path=path)
    dtype = meta.get(_DTYPE_KEY, "float64")
    if dtype not in map(str, ad.FLOAT_DTYPES):
        raise ParseError(f"{_DTYPE_KEY} must be float32 or float64, got {dtype!r}",
                         path=path)

    def mlp_array(name: str) -> np.ndarray:
        with np.errstate(over="ignore"):
            arr = matrices.pop(name).astype(dtype)
        if not np.all(np.isfinite(arr)):
            raise ParseError(f"matrix {name} overflows {dtype}", path=path)
        return arr

    def build_mlp(prefix: str) -> MlpParams:
        count = _parse_count(meta[f"{prefix}-layers"], f"{prefix}-layers", path)
        return MlpParams(weights=[mlp_array(f"{prefix}.w{k}") for k in range(count)],
                         biases=[mlp_array(f"{prefix}.b{k}") for k in range(count)],
                         activation=meta[f"{prefix}-activation"])

    try:
        model = KoopmanModel(encoder=build_mlp("encoder"), decoder=build_mlp("decoder"),
                             K=matrices.pop("K"), S=matrices.pop("S"))
    except KeyError as exc:
        raise ParseError(f"missing matrix {exc.args[0]}", path=path) from None
    except (ContractError, DimensionError) as exc:
        raise ParseError(str(exc), path=path) from None
    vectors = {}
    for name in ("offset", "scale"):
        arr = matrices.pop(f"preproc.{name}", None)
        if arr is not None and arr.shape != (1, model.n):
            raise ParseError(f"preproc.{name} must be 1 x {model.n}", path=path)
        vectors[name] = None if arr is None else arr[0]
    if matrices:
        raise ParseError(f"unused matrix {next(iter(matrices))}", path=path)
    return model, Preprocessing(dt=dt, **vectors), config
