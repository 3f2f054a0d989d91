"""Training loop: Adam on all parameters, then the barrier projection on K.

Each iteration:
  1. evaluates the sliding-window loss on the batch and backpropagates, on
     the tape already bound to the current parameters,
  2. snapshots K (the projection thresholds come from this pre-update
     value), after the backward pass, so the copy lives through Adam and
     the projection only,
  3. updates encoder, decoder, K, and S in place with bias-corrected Adam,
  4. projects every row of K back to its relaxed barrier set, in place,
  5. binds the next iteration's tape to the updated parameters; validation
     scoring (``early_stop``) reads S^-1 K S from that tape, and the next
     loss reuses the same node, so each parameter state is inverted once.

Because the thresholds are min(0, alpha * h_i) of the pre-update matrix, a
certified K stays certified after every iteration, and an infeasible K's
row barriers never decrease (they approach feasibility geometrically for
alpha < 1). TrainHistory enforces that contract on every recorded step.

The history CSV contains no wall-clock column: two runs with the same seed
and config must produce byte-identical logs, and timing is kept in memory
only (``IterationRecord.wall_time``).

Training writes no file. ``train`` calls an optional ``after_epoch`` hook
at the end of each epoch, from which the CLI saves its periodic
checkpoints; the CLI writes every file of a run.
"""

from __future__ import annotations

import ctypes
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape
from .data import Dataset
from .errors import ContractError, DataError, NumericError
from .metrics import MetricsReport, build_report, nmse
from .model import (
    BoundModel,
    KoopmanModel,
    LossWeights,
    check_tape_fits,
    sliding_window_loss,
)
from .projection import barrier_threshold, displacement, pgd_project
from .stability import MODES, barrier_values, spectral_radius


# glibc's mallopt parameters (malloc.h) and the values keep_heap sets: no
# array below 32 MB is mmapped on its own, and up to 512 MB of freed memory
# at the top of the heap stays with the process
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
HEAP_MMAP_THRESHOLD = 32 << 20
HEAP_TRIM_THRESHOLD = 512 << 20


def _find_mallopt():
    """glibc's ``mallopt``, or None where the C library is not glibc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return None
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError, ValueError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def keep_heap() -> None:
    """Keep freed heap memory in the process instead of returning it to the OS.

    Each training step frees its tape at once. With glibc's default
    thresholds the allocator then trims the heap or unmaps its large blocks,
    and the next step faults the same pages back in. This raises both
    thresholds for the whole process, so freed memory is reused instead.
    Calling it again sets the same values; without glibc it does nothing.
    """
    mallopt = _find_mallopt()
    if mallopt is None:
        return
    mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)


# Adam's moment decay rates and denominator guard; no run changes them
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer, loss, and projection settings for one training run."""

    lr: float = 1e-3
    epochs: int = 3000
    batch_size: int = 0  # trajectories per iteration; 0 = full batch
    weights: LossWeights = field(default_factory=LossWeights)
    alpha: float = 1.0
    mode: str = "symmetric"
    margin: float = 0.0
    seed: int = 0
    early_stop: bool = False
    patience: int = 200

    def __post_init__(self):
        # NaN fails every comparison, so each check is written to pass only
        # for values inside the range
        if not 0.0 < self.lr < np.inf:
            raise ContractError(f"lr must be positive and finite, got {self.lr}")
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 0:
            raise ContractError("batch_size must be >= 0 (0 = full batch)")
        if not 0.0 < self.alpha <= 1.0:
            raise ContractError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.mode not in MODES:
            raise ContractError(f"unknown projection mode {self.mode!r}")
        if not 0.0 <= self.margin < 1.0:
            raise ContractError(f"margin must lie in [0, 1), got {self.margin}")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")
        if self.patience < 1:
            raise ContractError("patience must be >= 1")


@dataclass
class AdamState:
    """Adam's step counter and one ``(names, m, v)`` group per parameter dtype
    (the float32 encoder and decoder, the float64 K and S): the names in
    ``params`` order, and one flat ``m`` and one flat ``v`` buffer holding
    their moments end to end."""

    step: int
    groups: list[tuple[tuple[str, ...], np.ndarray, np.ndarray]]

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> "AdamState":
        names_of: dict[np.dtype, list[str]] = {}
        for name, p in params.items():
            names_of.setdefault(p.dtype, []).append(name)
        groups = []
        for dtype, names in names_of.items():
            m = np.zeros(sum(params[name].size for name in names), dtype)
            groups.append((tuple(names), m, np.zeros_like(m)))
        return cls(step=0, groups=groups)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected Adam update, written in place into the arrays of
    ``params`` and the moments of ``state``: each dtype's parameters update
    flattened together, with the float operations per entry of a per-array
    update. A non-finite gradient, or an update that overflows, raises
    ``NumericError`` naming the first parameter affected, before that
    dtype's parameters are written."""
    if set(params) != set(grads):
        raise ContractError("parameter and gradient names differ")
    if set(params) != {name for names, _, _ in state.groups for name in names}:
        raise ContractError("parameter names differ from the Adam state's")
    for name, p in params.items():
        if grads[name].shape != p.shape:
            raise ContractError(f"{name}: gradient shape {grads[name].shape} != {p.shape}")
    state.step += 1
    t = state.step
    bias1, bias2 = 1.0 - _BETA1 ** t, 1.0 - _BETA2 ** t

    def first_bad(finite, names):
        return next(name for name, part in _flat_views(finite, names, params) if not part.all())

    # an overflow leaves Inf or NaN behind, which the explicit checks name
    with np.errstate(over="ignore", invalid="ignore"):
        for names, m, v in state.groups:
            g = np.concatenate([grads[name] for name in names], axis=None, dtype=m.dtype)
            finite = np.isfinite(g)
            if not finite.all():
                raise NumericError(f"non-finite gradient in parameter "
                                   f"{first_bad(finite, names)!r} at step {t}")
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            # g's buffer then holds (1 - beta2) g^2, and then sqrt(v / bias2) + eps
            g *= g
            g *= 1.0 - _BETA2
            v += g
            np.divide(v, bias2, out=g)
            np.sqrt(g, out=g)
            g += _EPS
            step = m / bias1
            step *= config.lr
            step /= g
            del g
            new = np.concatenate([params[name] for name in names], axis=None)
            new -= step
            del step
            finite = np.isfinite(new) & np.isfinite(v)
            if not finite.all():
                raise NumericError(f"Adam step {t} left parameter {first_bad(finite, names)!r} "
                                   f"or its second moment non-finite")
            for name, p in _flat_views(new, names, params):
                params[name][...] = p


def _flat_views(flat: np.ndarray, names, params: dict[str, np.ndarray]):
    """(name, the part of ``flat`` holding that parameter, in its shape), in order."""
    start = 0
    for name in names:
        shape, end = params[name].shape, start + params[name].size
        yield name, flat[start:end].reshape(shape)
        start = end


@dataclass
class IterationRecord:
    iteration: int
    epoch: int
    total: float
    pred: float
    lin: float
    rec: float
    h_pre: np.ndarray      # barriers of K before the Adam update (thresholds)
    h_unprojected: np.ndarray
    h_post: np.ndarray
    displacement: float    # ||K_tilde - K_projected||_F
    val_nmse: float        # in preprocessed coordinates; nan when validation scoring is off
    wall_time: float       # seconds; never serialized


CSV_COLUMNS = ("iteration", "epoch", "total", "pred", "lin", "rec",
               "margin_pre", "margin_unprojected", "margin_post",
               "displacement", "val_nmse")


@dataclass
class TrainHistory:
    """Per-iteration log; appending enforces the relaxed barrier contract."""

    alpha: float
    records: list[IterationRecord] = field(default_factory=list)

    def append(self, record: IterationRecord) -> None:
        floor = barrier_threshold(record.h_pre, self.alpha)
        if not np.all(record.h_post >= floor):
            worst = float((record.h_post - floor).min())
            raise ContractError(
                f"iteration {record.iteration}: projected barrier fell "
                f"{-worst:.3e} below its relaxed threshold")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.records:
            row = (str(r.iteration), str(r.epoch), repr(r.total), repr(r.pred),
                   repr(r.lin), repr(r.rec), repr(float(r.h_pre.min())),
                   repr(float(r.h_unprojected.min())),
                   repr(float(r.h_post.min())), repr(r.displacement),
                   repr(r.val_nmse))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _update(model: KoopmanModel, grads: dict[str, np.ndarray], adam: AdamState,
            config: TrainConfig) -> tuple[np.ndarray, float, np.ndarray]:
    """Adam, then the projection of K, written into the arrays ``model`` holds.

    Returns the row barriers of the updated K_tilde, the projection's
    displacement and the row barriers of the projected K. K's pre-update
    copy, which sets the projection's thresholds, is taken here, after the
    backward pass, and it dies with the projection when this returns.
    """
    K_pre = model.K.copy()
    adam_step(model.get_params(), grads, adam, config)
    # model.K holds K_tilde until the projection is written back
    h_unprojected = barrier_values(model.K).rows(config.mode)
    K_proj = pgd_project(model.K, K_pre, config.alpha, config.mode, config.margin)
    step_displacement = displacement(model.K, K_proj)
    model.K[...] = K_proj
    return h_unprojected, step_displacement, barrier_values(K_proj).rows(config.mode)


def _batches(trajs: list[np.ndarray], batch_size: int,
             rng: np.random.Generator) -> list[list[np.ndarray]]:
    if batch_size == 0 or batch_size >= len(trajs):
        return [trajs]
    order = rng.permutation(len(trajs))
    return [[trajs[j] for j in order[k:k + batch_size]]
            for k in range(0, len(trajs), batch_size)]


def _predict_split(model: KoopmanModel, trajs, Keff: np.ndarray) -> list[np.ndarray]:
    """Each trajectory's states 1..T-1 predicted from its first, with S^-1 K S = Keff."""
    return [model.predict_states(t.states[0], t.n_samples - 1, Keff=Keff)
            for t in trajs]


def _check_states_fit(model: KoopmanModel, dataset: Dataset) -> None:
    """Refuse, with ``DataError``, a train or val state that is not finite in
    the model's dtype: the loss takes the states as tape constants, which
    nothing scans again."""
    for split in ("train", "val"):
        for k, t in enumerate(dataset.subset(split)):
            with np.errstate(over="ignore"):
                finite = np.isfinite(t.states.astype(model.dtype)).all(axis=1)
            if not finite.all():
                raise DataError(
                    f"{split} trajectory {k}: state {np.argmin(finite)} overflows "
                    f"{model.dtype}, the model's dtype; normalize the data or scale it down")


def train(model: KoopmanModel, dataset: Dataset, config: TrainConfig,
          after_epoch=None) -> TrainHistory:
    """Run the full loop, writing into the arrays ``model`` holds; returns the history.

    The arrays passed to ``KoopmanModel(...)`` are the ones that change.
    ``after_epoch(epoch)``, when given, is called after each epoch's last
    step, before early stopping decides whether to go on; the epoch at which
    a run stops is no exception. Training writes no file: ``koopstab train``
    saves its periodic checkpoints from this hook, so a numeric abort leaves
    the latest one on disk. Training first calls ``keep_heap``, which tunes
    the allocator of the whole process.

    Before anything is allocated, the largest batch (the ``batch_size``
    longest train trajectories) must fit the tape (``model.check_tape_fits``,
    which reads their lengths alone), and then every train and val state must
    be finite in the model's dtype; either failure raises ``DataError``.
    """
    keep_heap()
    train_trajs = [t.states for t in dataset.train]
    if not train_trajs:
        raise DataError("dataset has no train split")
    if dataset.dim != model.n:
        raise ContractError(
            f"model expects {model.n}-dimensional states, data has {dataset.dim}")
    longest = sorted((len(states) for states in train_trajs), reverse=True)
    check_tape_fits(model, longest[:config.batch_size or None], config.weights.horizon)
    _check_states_fit(model, dataset)
    rng = np.random.default_rng(config.seed)
    adam = AdamState.init(model.get_params())
    history = TrainHistory(alpha=config.alpha)
    score_val = config.early_stop and len(dataset.val) > 0
    val_truths = [t.states[1:] for t in dataset.val]
    best_val = np.inf
    best_epoch = 0
    iteration = 0
    h_post = barrier_values(model.K).rows(config.mode)
    bound = BoundModel(Tape(), model)

    for epoch in range(config.epochs):
        for batch in _batches(train_trajs, config.batch_size, rng):
            started = time.perf_counter()
            # model.K is the initial K or the last step's projection, whose
            # barriers h_post holds
            h_pre = h_post

            # an overflow leaves Inf or NaN behind, which the loss check here
            # and adam_step's gradient check name
            with np.errstate(over="ignore", invalid="ignore"):
                loss, terms = sliding_window_loss(bound, batch, config.weights)
                total = float(loss.value[0, 0])
                if not np.isfinite(total):
                    raise NumericError(f"loss became non-finite at epoch {epoch}")
                bound.tape.backward(loss)

            h_unprojected, step_displacement, h_post = _update(
                model, bound.gradients(), adam, config)

            # the next step's tape; validation scores with its S^-1 K S,
            # which that step's loss then reuses
            bound = BoundModel(Tape(), model)
            val_nmse = (nmse(_predict_split(model, dataset.val, bound.effective().value),
                             val_truths) if score_val else float("nan"))
            history.append(IterationRecord(
                iteration=iteration,
                epoch=epoch,
                total=total,
                **terms,
                h_pre=h_pre,
                h_unprojected=h_unprojected,
                h_post=h_post,
                displacement=step_displacement,
                val_nmse=val_nmse,
                wall_time=time.perf_counter() - started))
            iteration += 1

        if after_epoch is not None:
            after_epoch(epoch)
        if score_val:
            current = history.records[-1].val_nmse
            if current < best_val - 1e-12:
                best_val = current
                best_epoch = epoch
            elif epoch - best_epoch >= config.patience:
                break
    return history


def evaluate(model: KoopmanModel, dataset: Dataset, split: str = "val") -> MetricsReport:
    """Score full-trajectory predictions from each initial state.

    Predictions run in the model's (preprocessed) coordinates; the recorded
    preprocessing is inverted before scoring so the report reads in the
    data's original units.
    """
    trajs = dataset.subset(split)
    if not trajs:
        raise DataError(f"split {split!r} is empty")
    Keff = model.effective_matrix()
    preds = [dataset.preprocessing.invert(p) for p in _predict_split(model, trajs, Keff)]
    truths = [dataset.preprocessing.invert(t.states[1:]) for t in trajs]
    return build_report(
        preds, truths,
        spectral_radius=spectral_radius(Keff),
        barrier_margin=barrier_values(model.K).margin)
