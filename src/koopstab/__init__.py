"""Learn provably stable lifted linear dynamics from trajectory data.

The package fits a neural lifting (encoder/decoder) around a linear
transition matrix and keeps that matrix inside a certified stability region
throughout training, using exact per-row projections instead of a generic
constrained solver. The certificate is a per-row piecewise-linear margin
whose nonnegativity implies a spectral radius of at most one and forward
invariance of the unit hypercube in the lifted space.
"""

from .autodiff import DiffValue, Tape
from .data import (
    Dataset,
    Preprocessing,
    Trajectory,
    assign_split,
    center_to_equilibrium,
    load_manifest,
    load_trajectories,
    load_trajectory,
    normalize,
    resample,
    resample_dataset,
    synth_handwriting_like,
    synth_stable_spiral,
    write_manifest,
    write_trajectory_csv,
)
from .edmd import SnapshotPair, edmd_fit, lift_dataset, monomial_features
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DegenerateDataError,
    DimensionError,
    KoopstabError,
    NumericError,
    ParseError,
    SingularMatrixError,
)
from .metrics import MetricsReport, build_report, nmse
from .model import (
    KoopmanModel,
    LossWeights,
    MlpParams,
    load_checkpoint,
    save_checkpoint,
    sliding_window_loss,
)
from .projection import barrier_threshold, pgd_project
from .stability import (
    BarrierReport,
    Certificate,
    barrier_values,
    certify_stable,
    spectral_radius,
)
from .trainer import TrainConfig, TrainHistory, adam_step, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "BarrierReport",
    "Certificate",
    "ConfigError",
    "ContractError",
    "DataError",
    "Dataset",
    "DegenerateDataError",
    "DiffValue",
    "DimensionError",
    "KoopmanModel",
    "KoopstabError",
    "LossWeights",
    "MetricsReport",
    "MlpParams",
    "NumericError",
    "ParseError",
    "Preprocessing",
    "SingularMatrixError",
    "SnapshotPair",
    "Tape",
    "TrainConfig",
    "TrainHistory",
    "Trajectory",
    "adam_step",
    "assign_split",
    "barrier_threshold",
    "barrier_values",
    "build_report",
    "center_to_equilibrium",
    "certify_stable",
    "edmd_fit",
    "evaluate",
    "lift_dataset",
    "load_checkpoint",
    "load_manifest",
    "load_trajectories",
    "load_trajectory",
    "monomial_features",
    "nmse",
    "normalize",
    "pgd_project",
    "resample",
    "resample_dataset",
    "save_checkpoint",
    "sliding_window_loss",
    "spectral_radius",
    "synth_handwriting_like",
    "synth_stable_spiral",
    "train",
    "write_manifest",
    "write_trajectory_csv",
]
