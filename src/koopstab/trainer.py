"""Training loop: Adam on all parameters, then the barrier projection on K.

Each iteration */
  1. snapshots K (the projection thresholds come from this pre-update value),
  2. evaluates the sliding-window loss on the batch and backpropagates,
  3. applies a bias-corrected Adam update to encoder, decoder, K, and S,
  4. pulls every row of the updated K back to its relaxed barrier set.

Because the thresholds are min(0, alpha * h_i) of the pre-update matrix, a
certified K stays certified after every iteration, and an infeasible K's
row barriers never decrease (they approach feasibility geometrically for
alpha < 1). TrainHistory enforces that contract on every recorded step.

The history CSV contains no wall-clock column: two runs with the same seed
and config must produce byte-identical logs, and timing is kept in memory
only (``IterationRecord.wall_time``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tape
from .data import Dataset
from .errors import ContractError, DataError, NumericError
from .metrics import MetricsReport, build_report, nmse
from .model import (
    BoundModel,
    KoopmanModel,
    LossWeights,
    save_checkpoint,
    sliding_window_loss,
)
from .projection import barrier_threshold, pgd_project
from .stability import barrier_values, certify_stable, spectral_radius


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer, loss, and projection settings for one training run."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
        if self.lr <= 0.0:
            raise ContractError(f"learning rate must be positive, got {self.lr}")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ContractError("Adam betas must lie in (0, 1)")
        if self.eps <= 0.0:
            raise ContractError("Adam eps must be positive")
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 0:
            raise ContractError("batch_size must be >= 0 (0 = full batch)")
        if not 0.0 < self.alpha <= 1.0:
            raise ContractError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.mode not in ("symmetric", "asymmetric"):
            raise ContractError(f"unknown projection mode {self.mode!r}")
        if self.margin < 0.0:
            raise ContractError("margin must be >= 0")
        if self.patience < 1:
            raise ContractError("patience must be >= 1")

    def as_dict(self) -> dict[str, str]:
        return {
            "lr": repr(self.lr), "beta1": repr(self.beta1),
            "beta2": repr(self.beta2), "eps": repr(self.eps),
            "epochs": str(self.epochs), "batch_size": str(self.batch_size),
            "loss_pred": repr(self.weights.pred),
            "loss_lin": repr(self.weights.lin),
            "loss_rec": repr(self.weights.rec),
            "horizon": str(self.weights.horizon),
            "alpha": repr(self.alpha), "mode": self.mode,
            "margin": repr(self.margin), "seed": str(self.seed),
            "early_stop": str(self.early_stop).lower(),
            "patience": str(self.patience),
        }


@dataclass
class AdamState:
    """First/second moment accumulators and the shared step counter."""

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(step=0,
                   m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, config: TrainConfig) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update; returns new parameter arrays."""
    if set(params) != set(grads):
        raise ContractError("parameter and gradient names differ")
    state.step += 1
    t = state.step
    bias1 = 1.0 - config.beta1 ** t
    bias2 = 1.0 - config.beta2 ** t
    out: dict[str, np.ndarray] = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ContractError(f"{name}: gradient shape {g.shape} != {p.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in parameter {name!r} "
                               f"at step {t}")
        m = state.m[name] = config.beta1 * state.m[name] + (1.0 - config.beta1) * g
        v = state.v[name] = config.beta2 * state.v[name] + (1.0 - config.beta2) * (g * g)
        out[name] = p - config.lr * (m / bias1) / (np.sqrt(v / bias2) + config.eps)
    return out


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
    val_nmse: float        # nan when validation scoring is off
    wall_time: float       # seconds; never serialized


CSV_COLUMNS = ("iteration", "epoch", "total", "pred", "lin", "rec",
               "margin_pre", "margin_unprojected", "margin_post",
               "displacement", "val_nmse")


@dataclass
class TrainHistory:
    """Per-iteration log; appending enforces the relaxed barrier contract."""

    alpha: float
    mode: str
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

    def min_margins(self) -> np.ndarray:
        return np.array([r.h_post.min() for r in self.records])

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

    def save_csv(self, path) -> None:
        Path(path).write_text(self.to_csv(), encoding="utf-8")


def _batches(trajs: list[np.ndarray], batch_size: int,
             rng: np.random.Generator) -> list[list[np.ndarray]]:
    if batch_size == 0 or batch_size >= len(trajs):
        return [trajs]
    order = rng.permutation(len(trajs))
    return [[trajs[j] for j in order[k:k + batch_size]]
            for k in range(0, len(trajs), batch_size)]


def _initial_states(trajs) -> tuple[np.ndarray, list[int]]:
    """Stacked first states and the number of later steps of each trajectory."""
    return (np.array([t.states[0] for t in trajs]),
            [t.n_samples - 1 for t in trajs])


def _val_nmse(model: KoopmanModel, dataset: Dataset) -> float:
    val = dataset.val
    return nmse(model.predict_states(*_initial_states(val)),
                [t.states[1:] for t in val])


def train(model: KoopmanModel, dataset: Dataset, config: TrainConfig,
          checkpoint_path=None, checkpoint_every: int = 0) -> TrainHistory:
    """Run the full loop, mutating ``model`` in place; returns the history.

    With ``checkpoint_path`` set, the model is saved every
    ``checkpoint_every`` epochs (and at the end), so a numeric abort leaves
    the most recent checkpoint on disk.
    """
    train_trajs = [t.states for t in dataset.train]
    if not train_trajs:
        raise DataError("dataset has no train split")
    if dataset.dim != model.n:
        raise ContractError(
            f"model expects {model.n}-dimensional states, data has {dataset.dim}")
    components_buf: dict[str, float] = {}
    rng = np.random.default_rng(config.seed)
    adam = AdamState.init(model.get_params())
    history = TrainHistory(alpha=config.alpha, mode=config.mode)
    score_val = config.early_stop and len(dataset.val) > 0
    best_val = np.inf
    best_epoch = 0
    iteration = 0

    for epoch in range(config.epochs):
        for batch in _batches(train_trajs, config.batch_size, rng):
            started = time.perf_counter()
            K_pre = model.K.copy()
            h_pre = barrier_values(K_pre).rows(config.mode)

            tape = Tape()
            bound = BoundModel(tape, model)
            loss = sliding_window_loss(bound, batch, config.weights,
                                       components=components_buf)
            total = float(loss.value[0, 0])
            if not np.isfinite(total):
                raise NumericError(f"loss became non-finite at epoch {epoch}")
            tape.backward(loss)

            new_params = adam_step(model.get_params(), bound.gradients(),
                                   adam, config)
            K_tilde = new_params["K"]
            K_proj = pgd_project(K_tilde, K_pre, config.alpha, config.mode,
                                 config.margin)
            new_params["K"] = K_proj
            model.set_params(new_params)

            val_nmse = _val_nmse(model, dataset) if score_val else float("nan")
            history.append(IterationRecord(
                iteration=iteration,
                epoch=epoch,
                total=total,
                pred=components_buf.get("pred", 0.0),
                lin=components_buf.get("lin", 0.0),
                rec=components_buf.get("rec", 0.0),
                h_pre=h_pre,
                h_unprojected=barrier_values(K_tilde).rows(config.mode),
                h_post=barrier_values(K_proj).rows(config.mode),
                displacement=float(np.linalg.norm(K_tilde - K_proj)),
                val_nmse=val_nmse,
                wall_time=time.perf_counter() - started))
            iteration += 1

        if checkpoint_path is not None and checkpoint_every > 0 \
                and (epoch + 1) % checkpoint_every == 0:
            save_checkpoint(checkpoint_path, model, dataset.preprocessing,
                            config.as_dict())
        if score_val:
            current = history.records[-1].val_nmse
            if current < best_val - 1e-12:
                best_val = current
                best_epoch = epoch
            elif epoch - best_epoch >= config.patience:
                break

    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, model, dataset.preprocessing,
                        config.as_dict())
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
    preds = model.predict_states(*_initial_states(trajs))
    preds = [dataset.preprocessing.invert(p) for p in preds]
    truths = [dataset.preprocessing.invert(t.states[1:]) for t in trajs]
    return build_report(
        preds, truths,
        spectral_radius=spectral_radius(model.effective_matrix()),
        barrier_margin=certify_stable(model.K).report.margin)
