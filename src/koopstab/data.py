"""Trajectory ingestion, preprocessing, and synthetic dataset generators.

File format: one trajectory per CSV file with header ``t,x1,...,xn``, UTF-8,
dot decimal separator. A dataset manifest is a plain-text file with one
``path,split`` entry per line (split is ``train`` or ``val``; paths are
resolved relative to the manifest). Native scientific containers are not
parsed; convert them to this CSV layout first.

``parse_row`` turns every row of numeric text into floats (trajectory and
matrix CSVs, checkpoints) and names ``path:line`` of a ragged, malformed or
non-finite row.

Preprocessing is recorded so it can be inverted exactly: states are first
shifted by ``offset`` (equilibrium centering) and then divided per-dimension
by ``scale`` (max-abs normalization over the train split). The record is the
single source of truth for mapping model output back to source units.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    ContractError,
    DataError,
    DegenerateDataError,
    DimensionError,
    ParseError,
)

TRAIN = "train"
VAL = "val"
# most steps of one resampled trajectory (240 MB for a 2-D state), checked
# before the grid is allocated
MAX_GRID_STEPS = 10**7


@dataclass(frozen=True)
class Trajectory:
    """Sampled path: strictly increasing times (s) and row-stacked states."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        states = np.asarray(self.states, dtype=np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        if times.ndim != 1 or states.ndim != 2:
            raise DimensionError("times must be 1-D and states 2-D")
        if times.size != states.shape[0]:
            raise DimensionError(
                f"{times.size} timestamps but {states.shape[0]} states")
        if times.size < 2:
            raise DataError("a trajectory needs at least 2 samples")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(states))):
            raise DataError("trajectory contains non-finite entries")
        if np.any(np.diff(times) <= 0.0):
            raise DataError("timestamps must be strictly increasing")

    @property
    def n_samples(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])


@dataclass(frozen=True)
class Preprocessing:
    """Invertible record of the state transform: (raw - offset) / scale."""

    dt: float | None = None
    offset: np.ndarray | None = None
    scale: np.ndarray | None = None

    def apply(self, states: np.ndarray) -> np.ndarray:
        out = np.asarray(states, dtype=np.float64)
        if self.offset is not None:
            out = out - self.offset
        if self.scale is not None:
            out = out / self.scale
        return out

    def invert(self, states: np.ndarray) -> np.ndarray:
        out = np.asarray(states, dtype=np.float64)
        if self.scale is not None:
            out = out * self.scale
        if self.offset is not None:
            out = out + self.offset
        return out


@dataclass(frozen=True)
class Dataset:
    """Trajectories with a train/val split and the preprocessing record."""

    trajectories: tuple[Trajectory, ...]
    split: tuple[str, ...]
    preprocessing: Preprocessing = field(default_factory=Preprocessing)

    def __post_init__(self):
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        object.__setattr__(self, "split", tuple(self.split))
        if len(self.trajectories) != len(self.split):
            raise DimensionError("split must assign every trajectory")
        bad = set(self.split) - {TRAIN, VAL}
        if bad:
            raise ContractError(f"unknown split labels {sorted(bad)}")
        dims = {t.dim for t in self.trajectories}
        if len(dims) > 1:
            raise DimensionError(f"mixed state dimensions {sorted(dims)}")

    def subset(self, label: str) -> tuple[Trajectory, ...]:
        return tuple(t for t, s in zip(self.trajectories, self.split) if s == label)

    @property
    def train(self) -> tuple[Trajectory, ...]:
        return self.subset(TRAIN)

    @property
    def val(self) -> tuple[Trajectory, ...]:
        return self.subset(VAL)

    @property
    def dim(self) -> int:
        if not self.trajectories:
            raise DataError("empty dataset has no dimension")
        return self.trajectories[0].dim

    def map_states(self, fn) -> "Dataset":
        trajs = tuple(Trajectory(times=t.times, states=fn(t.states))
                      for t in self.trajectories)
        return replace(self, trajectories=trajs)


def parse_row(tokens, path, line: int, width: int | None, label: str) -> list[float]:
    """Floats of one row's tokens; ParseError at ``path:line`` names ``label``."""
    if width is not None and len(tokens) != width:
        raise ParseError(f"{label}: expected {width} values, got {len(tokens)}",
                         path=path, line=line)
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ParseError(f"{label}: {exc}", path=path, line=line) from None
    if not all(map(math.isfinite, values)):
        raise ParseError(f"{label}: entries must be finite", path=path, line=line)
    return values


def load_trajectory(path) -> Trajectory:
    """Parse one ``t,x1,...,xn`` CSV file; every fault names the file."""
    path = Path(path)
    times: list[float] = []
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0].strip() != "t" or len(header) < 2:
            raise ParseError("expected header 't,x1,...,xn'", path=path, line=1)
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            values = parse_row(row, path, reader.line_num, len(header),
                               f"sample {len(rows)}")
            times.append(values[0])
            rows.append(values[1:])
    if len(rows) < 2:
        raise ParseError(f"needs at least 2 data rows, got {len(rows)}", path=path)
    try:
        return Trajectory(times=np.array(times), states=np.array(rows))
    except DataError as exc:
        raise ParseError(str(exc), path=path) from None


def load_trajectories(path) -> list[Trajectory]:
    """Load one CSV file, or every ``*.csv`` in a directory (sorted by name)."""
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.csv"))
        if not files:
            raise DataError(f"{path}: directory contains no .csv files")
        return [load_trajectory(f) for f in files]
    return [load_trajectory(path)]


def load_manifest(path) -> Dataset:
    """Build a Dataset from a ``path,split`` manifest (paths relative to it)."""
    path = Path(path)
    trajectories: list[Trajectory] = []
    split: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise ParseError("expected 'path,split'", path=path, line=lineno)
            entry, label = parts
            if label not in (TRAIN, VAL):
                raise ParseError(f"split must be '{TRAIN}' or '{VAL}', got {label!r}",
                                 path=path, line=lineno)
            trajectories.append(load_trajectory(path.parent / entry))
            split.append(label)
    if not trajectories:
        raise DataError(f"{path}: manifest lists no trajectories")
    return Dataset(trajectories=tuple(trajectories), split=tuple(split))


def resample(trajectory: Trajectory, dt: float) -> Trajectory:
    """Linear interpolation onto a uniform grid anchored at the first sample."""
    if not dt > 0.0:
        raise ContractError(f"dt must be positive, got {dt}")
    span = trajectory.duration
    if span < dt:
        raise DataError(f"trajectory spans {span} s, shorter than dt = {dt} s")
    steps = span / dt
    if not steps <= MAX_GRID_STEPS:  # also an overflow to inf
        raise DataError(f"resampling {span} s at dt = {dt} s needs {steps:.3g} "
                        f"steps, more than {MAX_GRID_STEPS}")
    n_steps = int(np.floor(steps + 1e-9))
    times = trajectory.times[0] + dt * np.arange(n_steps + 1)
    states = np.column_stack([
        np.interp(times, trajectory.times, trajectory.states[:, j])
        for j in range(trajectory.dim)
    ])
    return Trajectory(times=times, states=states)


def resample_dataset(dataset: Dataset, dt: float) -> Dataset:
    trajs = tuple(resample(t, dt) for t in dataset.trajectories)
    return replace(dataset, trajectories=trajs,
                   preprocessing=replace(dataset.preprocessing, dt=dt))


def center_to_equilibrium(dataset: Dataset) -> Dataset:
    """Shift states so the mean final state of all trajectories is the origin.

    Must precede normalization so the recorded transform stays a plain shift
    in source units.
    """
    if not dataset.trajectories:
        raise DataError("cannot center an empty dataset")
    if dataset.preprocessing.scale is not None:
        raise ContractError("center before normalizing, not after")
    offset = np.mean([t.states[-1] for t in dataset.trajectories], axis=0)
    previous = dataset.preprocessing.offset
    total = offset if previous is None else previous + offset
    shifted = dataset.map_states(lambda s: s - offset)
    return replace(shifted,
                   preprocessing=replace(dataset.preprocessing, offset=total))


def normalize(dataset: Dataset) -> Dataset:
    """Scale each dimension by its max-abs over the train split (recorded)."""
    if dataset.preprocessing.scale is not None:
        raise ContractError("dataset is already normalized")
    train = dataset.train
    if not train:
        raise DataError("normalization needs a non-empty train split")
    stacked = np.vstack([t.states for t in train])
    scale = np.abs(stacked).max(axis=0)
    if np.any(scale == 0.0):
        dead = np.nonzero(scale == 0.0)[0].tolist()
        raise DegenerateDataError(
            f"train split has identically zero dimensions {dead}")
    scaled = dataset.map_states(lambda s: s / scale)
    return replace(scaled,
                   preprocessing=replace(dataset.preprocessing, scale=scale))


def assign_split(n_traj: int, n_val: int) -> tuple[str, ...]:
    """Last ``n_val`` trajectories become validation, the rest train."""
    if not 0 <= n_val < n_traj:
        raise ContractError(f"cannot take n_val = {n_val} validation trajectories out of "
                            f"{n_traj}: n_val must lie in [0, {n_traj})")
    return tuple([TRAIN] * (n_traj - n_val) + [VAL] * n_val)


def synth_stable_spiral(n_traj: int = 7, length: int = 80, dt: float = 0.1,
                        decay: float = 0.98, angular_rate: float = 1.0,
                        noise: float = 0.0, seed: int = 0,
                        n_val: int = 2) -> Dataset:
    """Trajectories of the planar map x+ = decay * R(angular_rate * dt) x.

    The per-step matrix has known spectral radius ``decay``, giving a ground
    truth for recovery and stability checks.
    """
    if not 0.0 < decay < 1.0:
        raise ContractError(f"decay must lie in (0, 1), got {decay}")
    rng = np.random.default_rng(seed)
    theta = angular_rate * dt
    A = decay * np.array([[np.cos(theta), -np.sin(theta)],
                          [np.sin(theta), np.cos(theta)]])
    times = dt * np.arange(length + 1)
    trajectories = []
    for _ in range(n_traj):
        x = rng.uniform(-1.0, 1.0, size=2)
        states = [x]
        for _ in range(length):
            x = A @ x
            if noise:
                x = x + rng.normal(0.0, noise, size=2)
            states.append(x)
        trajectories.append(Trajectory(times=times, states=np.array(states)))
    return Dataset(trajectories=tuple(trajectories),
                   split=assign_split(n_traj, n_val),
                   preprocessing=Preprocessing(dt=dt))


def synth_handwriting_like(n_traj: int = 7, noise: float = 0.0, seed: int = 0,
                           n_val: int = 2) -> Dataset:
    """Smooth S-shaped 2-D pen strokes (mm) converging to the origin.

    Each stroke samples x = amp_x (1 - s), y = amp_y (1 - s) sin(2 pi s +
    phase) every 0.1 s for 8 s (s runs from 0 to 1), with the amplitudes
    and phase perturbed per trajectory, mimicking repeated demonstrations of
    one shape at desk scale (tens of mm). Additive noise is faded out toward
    the end so every final point is exactly the origin.
    """
    rng = np.random.default_rng(seed)
    s = np.linspace(0.0, 1.0, 81)
    fade = 1.0 - s
    times = 0.1 * np.arange(81)
    trajectories = []
    for _ in range(n_traj):
        amp_x = 30.0 * (1.0 + rng.uniform(-0.05, 0.05))
        amp_y = 20.0 * (1.0 + rng.uniform(-0.05, 0.05))
        phase = rng.uniform(-0.1, 0.1)
        states = np.column_stack(
            [amp_x * fade, amp_y * fade * np.sin(2.0 * np.pi * s + phase)])
        if noise:
            states = states + noise * fade[:, None] * rng.normal(size=states.shape)
        states[-1] = 0.0
        trajectories.append(Trajectory(times=times, states=states))
    return Dataset(trajectories=tuple(trajectories),
                   split=assign_split(n_traj, n_val),
                   preprocessing=Preprocessing(dt=0.1))


def write_trajectory_csv(path, trajectory: Trajectory) -> None:
    """Write a trajectory in the ``t,x1,...,xn`` format (repr-exact floats)."""
    path = Path(path)
    header = ["t"] + [f"x{j + 1}" for j in range(trajectory.dim)]
    lines = [",".join(header)]
    for t, row in zip(trajectory.times, trajectory.states):
        lines.append(",".join(repr(float(v)) for v in [t, *row]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_manifest(path, entries: Iterable[tuple[str, str]]) -> None:
    """Write ``path,split`` manifest lines."""
    path = Path(path)
    lines = [f"{entry},{label}" for entry, label in entries]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
