"""Command-line entry point: reproducible training, verification, projection,
EDMD fitting, and evaluation runs.

Run configuration is a flat ``key = value`` text file (``#`` starts a
comment); every key has a documented default and unknown keys are rejected,
so a config file diff always tells the whole story. Exit codes follow one
contract across commands: 0 success (for ``verify``: certified), 1
certification refused, 2 usage/parse/configuration errors, 3 numeric
failures (non-finite loss, singular basis, degenerate data), 4 internal
error (any other exception; the traceback goes to stderr).

With a fixed BLAS thread count (e.g. ``OPENBLAS_NUM_THREADS=1``), the same
config and seed produce byte-identical artifacts: every float is written
with ``repr`` or a fixed format and no artifact records wall-clock time.
Different thread counts may sum in a different order and change the bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import traceback
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    assign_split,
    center_to_equilibrium,
    load_manifest,
    load_trajectories,
    normalize,
    resample_dataset,
    synth_handwriting_like,
    synth_stable_spiral,
)
from .edmd import edmd_fit, lift_dataset
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DegenerateDataError,
    DimensionError,
    NumericError,
    ParseError,
    SingularMatrixError,
)
from .model import KoopmanModel, LossWeights, load_checkpoint
from .projection import pgd_project
from .stability import barrier_values, certify_stable
from .trainer import TrainConfig, evaluate, train


@dataclass(frozen=True)
class RunConfig:
    """Everything a training run needs, with one documented default per field.

    ``data`` names a trajectory CSV, a directory of CSVs, a ``path,split``
    manifest, or a built-in generator (``synth:spiral``,
    ``synth:handwriting``). ``dt = 0`` disables resampling; ``center`` and
    ``normalize`` control the equilibrium-shift / max-abs scaling steps
    recorded in the checkpoint's preprocessing block.
    """

    data: str = ""
    out: str = "koopstab_run"
    lift_dim: int = 20
    hidden: tuple = (50, 50, 50)
    activation: str = "tanh"
    k_init: str = "certified"
    dt: float = 0.1
    center: bool = True
    normalize: bool = True
    n_val: int = 2
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 3000
    batch_size: int = 0
    pred_weight: float = 1.0
    lin_weight: float = 0.1
    rec_weight: float = 1.0
    horizon: int = 10
    alpha: float = 1.0
    mode: str = "symmetric"
    margin: float = 0.0
    seed: int = 0
    early_stop: bool = False
    patience: int = 200
    checkpoint_every: int = 0
    eval_split: str = "val"

    def __post_init__(self):
        if self.lift_dim < 1:
            raise ConfigError(f"lift_dim must be >= 1, got {self.lift_dim}")
        if any(width < 1 for width in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {self.hidden}")

    def train_config(self) -> TrainConfig:
        weights = LossWeights(pred=self.pred_weight, lin=self.lin_weight,
                              rec=self.rec_weight, horizon=self.horizon)
        return TrainConfig(lr=self.lr, beta1=self.beta1, beta2=self.beta2,
                           eps=self.eps, epochs=self.epochs,
                           batch_size=self.batch_size, weights=weights,
                           alpha=self.alpha, mode=self.mode,
                           margin=self.margin, seed=self.seed,
                           early_stop=self.early_stop, patience=self.patience)


_FIELDS = {f.name: f for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    default = _FIELDS[key].default
    if isinstance(default, bool):
        low = raw.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ConfigError(f"{key}: expected true/false, got {raw!r}")
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            return tuple(int(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r}") from None
    return raw


def load_run_config(path) -> RunConfig:
    """Parse a flat ``key = value`` config file; unknown keys are errors."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        values[key] = _coerce(key, value)
    return RunConfig(**values)


def read_matrix(path) -> np.ndarray:
    """Read a headerless comma-separated float matrix."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ParseError(str(exc), path=str(path), line=lineno) from None
            if not np.all(np.isfinite(rows[-1])):
                raise DataError(f"{path}:{lineno}: matrix entries must be finite")
            if len(rows[-1]) != len(rows[0]):
                raise ParseError(
                    f"expected {len(rows[0])} columns, got {len(rows[-1])}",
                    path=str(path), line=lineno)
    if not rows:
        raise ParseError("empty matrix file", path=str(path), line=1)
    return np.array(rows, dtype=np.float64)


def write_matrix(path, matrix: np.ndarray) -> None:
    lines = [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(matrix)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_dataset(config: RunConfig) -> Dataset:
    """Resolve the ``data`` field and run the configured preprocessing."""
    source = config.data
    if not source:
        raise ConfigError(
            "missing dataset path: set 'data' in the config file or pass --data")
    if source == "synth:spiral":
        dataset = synth_stable_spiral(seed=config.seed, n_val=config.n_val)
    elif source == "synth:handwriting":
        dataset = synth_handwriting_like(seed=config.seed, n_val=config.n_val)
    else:
        path = Path(source)
        if not path.exists():
            raise DataError(f"dataset path does not exist: {source}")
        if path.is_dir() or path.suffix == ".csv":
            trajs = load_trajectories(path)
            dataset = Dataset(trajectories=tuple(trajs),
                              split=assign_split(len(trajs), config.n_val))
        else:
            dataset = load_manifest(path)
        if config.dt > 0:
            dataset = resample_dataset(dataset, config.dt)
    if config.center:
        dataset = center_to_equilibrium(dataset)
    if config.normalize:
        dataset = normalize(dataset)
    return dataset


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {}
    for key in ("data", "out", "seed", "epochs", "alpha", "mode", "margin",
                "horizon"):
        value = getattr(args, key, None)
        if value is not None:
            updates[key] = value
    return replace(config, **updates) if updates else config


def cmd_train(args: argparse.Namespace) -> int:
    config = load_run_config(args.config) if args.config else RunConfig()
    config = _apply_overrides(config, args)
    if config.eval_split not in ("train", "val"):
        raise ConfigError(
            f"eval_split must be 'train' or 'val', got {config.eval_split!r}")
    dataset = _load_dataset(config)
    model = KoopmanModel.init(n=dataset.dim, d=config.lift_dim,
                              hidden=config.hidden,
                              activation=config.activation, seed=config.seed,
                              k_init=config.k_init)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)

    history = train(model, dataset, config.train_config(),
                    checkpoint_path=out / "model.ckpt",
                    checkpoint_every=config.checkpoint_every)
    history.save_csv(out / "history.csv")

    split = config.eval_split if dataset.subset(config.eval_split) else "train"
    report = evaluate(model, dataset, split=split)
    report.save_csv(out / "metrics.csv")

    certificate = certify_stable(model.K)
    (out / "barrier.txt").write_text(certificate.text() + "\n", encoding="utf-8")

    last = history.records[-1]
    print(f"trained {len(history)} iterations; final loss {last.total:.6e}")
    print(f"{split} NMSE {report.nmse:.6e}, NormSTD {report.norm_std:.6e}")
    print(f"stability margin {certificate.report.margin:.6e} "
          f"({'certified' if certificate.certified else 'refused'})")
    print(f"artifacts in {out}: model.ckpt history.csv metrics.csv barrier.txt")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    certificate = certify_stable(read_matrix(args.matrix),
                                 margin_tol=args.margin)
    print(certificate.text())
    return 0 if certificate.certified else 1


def cmd_project(args: argparse.Namespace) -> int:
    K = read_matrix(args.matrix)
    reference = read_matrix(args.reference) if args.reference else np.zeros_like(K)
    projected = pgd_project(K, reference, alpha=args.alpha, mode=args.mode,
                            margin=args.margin)
    out = Path(args.out) if args.out else Path(args.matrix).with_suffix(
        ".projected.csv")
    write_matrix(out, projected)
    before = barrier_values(K).rows(args.mode).min()
    after = barrier_values(projected).rows(args.mode).min()
    diff = K - projected
    # scaled so entries near the float limit do not overflow the squares
    scale = float(np.abs(diff).max(initial=0.0)) or 1.0
    moved = scale * float(np.linalg.norm(diff / scale))
    print(f"min row barrier: {before:.6e} -> {after:.6e}")
    print(f"displacement (Frobenius): {moved:.6e}")
    print(f"wrote {out}")
    return 0


def cmd_edmd(args: argparse.Namespace) -> int:
    config = RunConfig(data=args.data, center=False, normalize=False, dt=0.0,
                       n_val=0)
    dataset = _load_dataset(config)
    trajs = dataset.train if dataset.train else dataset.trajectories
    pairs = lift_dataset([t.states for t in trajs], args.dictionary)
    K = edmd_fit(pairs)
    out = Path(args.out)
    write_matrix(out, K)
    print(certify_stable(K).text())
    print(f"wrote {out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    model, preprocessing, _ = load_checkpoint(args.checkpoint)
    config = RunConfig(data=args.data, center=False, normalize=False,
                       dt=preprocessing.dt or 0.0, n_val=args.n_val)
    raw = _load_dataset(config)
    dataset = dataclasses.replace(raw.map_states(preprocessing.apply),
                                  preprocessing=preprocessing)
    report = evaluate(model, dataset, split=args.split)
    print(report.text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopstab",
        description="Learn and certify stable lifted linear dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("train", formatter_class=fmt,
                       help="fit a model and write run artifacts")
    p.add_argument("--config", default=None,
                   help="key = value config file (defaults: RunConfig fields)")
    p.add_argument("--data", default=None,
                   help="trajectory CSV, directory, manifest, or synth:<name>")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="run seed")
    p.add_argument("--epochs", type=int, default=None, help="epoch budget")
    p.add_argument("--alpha", type=float, default=None,
                   help="constraint relaxation rate in (0, 1]")
    p.add_argument("--mode", choices=("symmetric", "asymmetric"), default=None,
                   help="row constraint family")
    p.add_argument("--margin", type=float, default=None,
                   help="extra stability margin")
    p.add_argument("--horizon", type=int, default=None,
                   help="multi-step loss window length")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", formatter_class=fmt,
                       help="certify a matrix from a CSV file")
    p.add_argument("matrix", help="headerless comma-separated matrix CSV")
    p.add_argument("--margin", type=float, default=0.0,
                   help="margin tolerance for certification")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("project", formatter_class=fmt,
                       help="project a matrix onto the certified set")
    p.add_argument("matrix", help="headerless comma-separated matrix CSV")
    p.add_argument("--reference", default=None,
                   help="previous-step matrix for relaxed thresholds "
                        "(default: zero matrix, i.e. strict feasibility)")
    p.add_argument("--alpha", type=float, default=1.0,
                   help="constraint relaxation rate in (0, 1]")
    p.add_argument("--mode", choices=("symmetric", "asymmetric"),
                   default="symmetric", help="row constraint family")
    p.add_argument("--margin", type=float, default=0.0,
                   help="extra stability margin")
    p.add_argument("--out", default=None,
                   help="output CSV (default: <matrix>.projected.csv)")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("edmd", formatter_class=fmt,
                       help="closed-form least-squares fit of the transition matrix")
    p.add_argument("data", help="trajectory CSV, directory, manifest, or synth:<name>")
    p.add_argument("--dictionary", default="identity",
                   help="identity, monomials:<degree>, for the lifting")
    p.add_argument("--out", default="edmd_K.csv", help="output matrix CSV")
    p.set_defaults(func=cmd_edmd)

    p = sub.add_parser("eval", formatter_class=fmt,
                       help="score a checkpoint on a dataset")
    p.add_argument("checkpoint", help="checkpoint file from a training run")
    p.add_argument("data", help="trajectory CSV, directory, manifest, or synth:<name>")
    p.add_argument("--split", choices=("train", "val"), default="val",
                   help="which trajectories to score")
    p.add_argument("--n-val", type=int, default=2, dest="n_val",
                   help="validation count when the source has no manifest")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NumericError, SingularMatrixError, DegenerateDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ContractError, DimensionError, DataError, OSError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # never 1: that code means "certification refused"
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
