"""The benchmark's workloads: repeated training episodes.

Each workload is a closed loop with one caller doing batch work, in three
parts the runner times separately:

* ``prepare`` writes the inputs made from the seed (harness work, never timed);
* ``setup`` is the program's own set-up, repeated so its median can be taken;
* ``run_unit`` runs one unit of timed work and ``check`` verifies it.

Before timing, one episode runs on the reference input (``REFERENCE_SEED``)
and ``BURN_IN`` episodes on the seed's input; they are checked but not
timed.

A unit is one training episode: a fixed number of epochs from a fresh
model, so every episode of a run must produce the same history.
``op_seconds`` holds one sample per training step
(``IterationRecord.wall_time``).

The program is always called through its module attributes
(``trainer.train``, ``data.load_manifest``, ...), so the traced run's
wrappers, which replace those attributes, see every call.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from koopstab import data, metrics, model, stability, trainer

# data and model seed of acceptance criterion 09; every run also trains one
# episode on this seed's input, so its val_nmse is the same on every run
REFERENCE_SEED = 7


@dataclass
class UnitResult:
    """Outcome of one unit: timing samples, the check verdict and the output digest."""

    op_seconds: list[float]
    window_seconds: float   # benchmark clock around the timed program calls
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    key: str = ""           # which input the digest belongs to
    digest: str = ""
    val_nmse: float = math.nan


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class TrainSpec:
    n_traj: int
    n_val: int
    noise: float
    d: int
    hidden: tuple[int, ...]
    k_init: str
    alpha: float
    batch_size: int
    early_stop: bool
    epochs: int             # per episode


TRAIN_SPECS = {
    # criterion 09: 7 strokes of 81 samples (5 train, 2 val), d=20, 50x3,
    # H=10, full batch, symmetric mode, alpha=1, certified initial K
    "train_fullbatch": TrainSpec(n_traj=7, n_val=2, noise=0.0, d=20, hidden=(50, 50, 50),
                                 k_init="certified", alpha=1.0, batch_size=0,
                                 early_stop=False, epochs=100),
    # 10 train strokes in batches of 2 (5 steps per epoch), K from 1.5 I,
    # validation scored after every step; patience beyond the epoch budget
    # keeps the episode length fixed
    "train_minibatch_wide": TrainSpec(n_traj=12, n_val=2, noise=0.5, d=200, hidden=(32, 32),
                                      k_init="infeasible", alpha=0.5, batch_size=2,
                                      early_stop=True, epochs=20),
}


class TrainWorkload:
    """Repeated training episodes on trajectories loaded from CSV files.

    Each training step leaves its tape for the cyclic garbage collector, so
    the heap grows for about the first 300 steps of a process; the
    reference episode and the ``BURN_IN`` episodes before timing take it to
    that plateau.
    """

    BURN_IN = 2

    def __init__(self, name: str, seed: int, workdir: Path):
        self.spec = TRAIN_SPECS[name]
        self.seed = seed
        self.workdir = Path(workdir)
        self.manifest = self.workdir / "manifest.txt"
        self.config = trainer.TrainConfig(
            lr=1e-3, epochs=self.spec.epochs, batch_size=self.spec.batch_size,
            weights=model.LossWeights(pred=1.0, lin=0.1, rec=1.0, horizon=10),
            alpha=self.spec.alpha, mode="symmetric", seed=seed,
            early_stop=self.spec.early_stop, patience=self.spec.epochs + 1)
        self.dataset = None

    @property
    def steps_per_episode(self) -> int:
        n_train = self.spec.n_traj - self.spec.n_val
        batch = self.spec.batch_size or n_train
        return self.spec.epochs * math.ceil(n_train / batch)

    def prepare(self) -> None:
        """Write the seed's strokes as trajectory CSVs plus a manifest."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        strokes = data.synth_handwriting_like(n_traj=self.spec.n_traj, noise=self.spec.noise,
                                              seed=self.seed, n_val=self.spec.n_val)
        entries = []
        for k, (traj, split) in enumerate(zip(strokes.trajectories, strokes.split)):
            filename = f"stroke_{k:02d}.csv"
            data.write_trajectory_csv(self.workdir / filename, traj)
            entries.append((filename, split))
        data.write_manifest(self.manifest, entries)

    def _new_model(self) -> model.KoopmanModel:
        return model.KoopmanModel.init(n=self.dataset.dim, d=self.spec.d,
                                       hidden=self.spec.hidden, seed=self.seed,
                                       k_init=self.spec.k_init)

    def setup(self) -> None:
        self.dataset = data.normalize(data.center_to_equilibrium(
            data.load_manifest(self.manifest)))
        self._new_model()

    def warm_up(self) -> None:
        trainer.train(self._new_model(), self.dataset, replace(self.config, epochs=1))

    def run_unit(self, k: int):
        fresh = self._new_model()
        started = time.perf_counter()
        try:
            history = trainer.train(fresh, self.dataset, self.config)
        except Exception as exc:  # the program failed; the check records it
            return fresh, None, time.perf_counter() - started, exc
        return fresh, history, time.perf_counter() - started, None

    def check(self, k: int, raw) -> UnitResult:
        fitted, history, window, error = raw
        planned = self.steps_per_episode
        if error is not None:
            return UnitResult([], window, planned, planned,
                              [f"episode {k}: {type(error).__name__}: {error}"])
        failures = []
        failed = 0
        for r in history.records:
            floor = np.minimum(0.0, self.config.alpha * r.h_pre)
            if not np.all(r.h_post >= floor):
                failed += 1
                failures.append(f"episode {k} step {r.iteration}: barrier below its floor "
                                f"by {float((floor - r.h_post).max()):.3e}")
        val = self.dataset.val
        val_nmse = metrics.nmse([fitted.predict_states(t.states[0], t.n_samples - 1)
                                 for t in val], [t.states[1:] for t in val])
        end = []
        if len(history) != planned:
            end.append(f"{len(history)} steps, expected {planned}")
        # certify_stable's verdict at margin_tol=0, without the spectral radius
        # it also computes, which uses ARPACK at d=200 (README.md, "Held
        # workload")
        if not stability.barrier_values(fitted.K).margin >= 0.0:
            end.append("final K not certified at margin_tol=0")
        if not math.isfinite(val_nmse):
            end.append(f"val_nmse is {val_nmse}")
        if end:
            failures.append(f"episode {k}: " + "; ".join(end))
            failed = max(failed, 1)
        return UnitResult(op_seconds=[r.wall_time for r in history.records],
                          window_seconds=window, attempted=planned, failed=failed,
                          failures=failures, key=f"seed {self.seed}",
                          digest=_sha256(history.to_csv().encode()), val_nmse=val_nmse)


def make(name: str, seed: int, workdir: Path) -> TrainWorkload:
    return TrainWorkload(name, seed, workdir)
