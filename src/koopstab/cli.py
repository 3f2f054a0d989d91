"""Command-line entry point: reproducible training, verification, projection,
EDMD fitting, and evaluation runs.

Run configuration is a flat ``key = value`` text file (``#`` starts a
comment); every key has a documented default and unknown keys are rejected,
so a config file diff always tells the whole story. Exit codes follow one
contract across commands: 0 success (for ``verify``: certified), 1
certification refused, 2 usage/parse/configuration errors (settings too
large for the machine's memory among them), 3 numeric
failures (non-finite loss, singular basis, degenerate data), 4 internal
error (any other exception; the traceback goes to stderr).

With a fixed BLAS thread count (e.g. ``OPENBLAS_NUM_THREADS=1``), the same
config and seed produce byte-identical artifacts: every float is written
with ``repr`` or a fixed format and no artifact records wall-clock time.
Different thread counts may sum in a different order and change the bytes.

This module writes every file of a run and both spells (``setting_text``)
and parses (``_coerce``) the config text, so a checkpoint's ``config``
lines, one per config-file key, are a config file that replays the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import traceback
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    Preprocessing,
    assign_split,
    center_to_equilibrium,
    load_manifest,
    load_trajectories,
    normalize,
    parse_row,
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
from .model import KoopmanModel, LossWeights, load_checkpoint, save_checkpoint
from .projection import displacement, pgd_project
from .stability import MODES, barrier_values, certify_stable
from .trainer import TrainConfig, evaluate, train

# config-file key of each LossWeights field
LOSS_KEYS = {"pred_weight": "pred", "lin_weight": "lin", "rec_weight": "rec",
             "horizon": "horizon"}


def setting_text(value) -> str:
    """A setting as a config file spells it, which reads back unchanged.

    ``str`` spells a number exactly, a bool is ``true``/``false`` and a
    tuple is its items separated by spaces, or ``,`` when it is empty (a
    blank value would leave a checkpoint's ``config`` line without one).
    """
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return " ".join(map(str, value)) or ","
    return str(value)


def train_settings(config: TrainConfig) -> dict[str, str]:
    """Every setting of ``config`` by its config-file key, spelled by ``setting_text``."""
    values = {f.name: getattr(config, f.name) for f in fields(config)
              if f.name != "weights"}
    values.update({k: getattr(config.weights, name) for k, name in LOSS_KEYS.items()})
    return {key: setting_text(value) for key, value in values.items()}


@dataclass(frozen=True)
class RunConfig:
    """What the CLI adds to a training run, with one documented default per field.

    ``data`` names a trajectory CSV, a directory of CSVs, a ``path,split``
    manifest, or a built-in generator (``synth:spiral``,
    ``synth:handwriting``). ``dt = 0`` disables resampling and
    ``checkpoint_every = 0`` periodic checkpoints; ``center`` and
    ``normalize`` control the equilibrium-shift / max-abs scaling steps
    recorded in the checkpoint's preprocessing block. ``train`` holds the
    optimizer, loss and projection settings and the seed; a config file sets
    them by the keys ``train_settings`` writes. ``as_dict`` is the
    record of the run that a checkpoint keeps and ``eval`` reads back.
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
    checkpoint_every: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.lift_dim < 1:
            raise ConfigError(f"lift_dim must be >= 1, got {self.lift_dim}")
        if any(width < 1 for width in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {self.hidden}")
        if not (np.isfinite(self.dt) and self.dt >= 0.0):
            raise ConfigError(f"dt must be finite and >= 0, got {self.dt}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")

    def as_dict(self) -> dict[str, str]:
        """The run's settings as a checkpoint records them, by config-file key.

        Every field that shapes the data or the model comes first, then
        ``train``'s settings. ``out`` and ``checkpoint_every`` only say where
        and how often a run writes, so they are left out.
        """
        values = {f.name: setting_text(getattr(self, f.name)) for f in fields(self)
                  if f.name not in ("out", "checkpoint_every", "train")}
        return {**values, **train_settings(self.train)}


def _declared(cls) -> dict:
    """Field name -> default of every field with a plain default."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


_RUN_KEYS, _TRAIN_KEYS = _declared(RunConfig), _declared(TrainConfig)
# every config key, with the default whose type decides how its value parses
_DEFAULTS = {**_RUN_KEYS, **_TRAIN_KEYS, **{
    key: _declared(LossWeights)[name] for key, name in LOSS_KEYS.items()}}


def _coerce(key: str, raw: str):
    if key not in _DEFAULTS:
        raise ConfigError(f"unknown config key {key!r}")
    default = _DEFAULTS[key]
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


def _read_config_file(path) -> dict:
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
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        try:
            values[key] = _coerce(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


def load_run_config(path=None, overrides=None) -> RunConfig:
    """Build the run's settings from a flat ``key = value`` file and overrides.

    Each value is parsed by the type of its key's default and handed to the
    dataclass that declares the key; an override (same keys, unparsed
    strings) beats the file, and unknown keys are errors.
    """
    values = _read_config_file(path) if path else {}
    values.update({key: _coerce(key, raw) for key, raw in (overrides or {}).items()})
    weights = LossWeights(**{name: values[key] for key, name in LOSS_KEYS.items()
                             if key in values})
    train_config = TrainConfig(weights=weights, **{
        key: value for key, value in values.items() if key in _TRAIN_KEYS})
    return RunConfig(train=train_config, **{
        key: value for key, value in values.items() if key in _RUN_KEYS})


def read_matrix(path) -> np.ndarray:
    """Read a headerless comma-separated float matrix."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                rows.append(parse_row(line.split(","), path, lineno,
                                      len(rows[0]) if rows else None,
                                      f"matrix row {len(rows)}"))
    if not rows:
        raise ParseError("empty matrix file", path=path)
    return np.array(rows, dtype=np.float64)


def write_matrix(path, matrix: np.ndarray) -> None:
    lines = [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(matrix)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_dataset(config: RunConfig,
                  preprocessing: Preprocessing | None = None) -> Dataset:
    """Resolve the ``data`` field and preprocess it.

    Every source, generated or read, is resampled onto the ``dt`` grid.
    Without ``preprocessing`` the configured steps fit a new transform. A
    checkpoint's ``preprocessing`` is applied as it stands, on its own
    ``dt`` grid, so a model scores data in the coordinates it trained in.
    """
    source = config.data
    if not source:
        raise ConfigError("missing dataset path: set 'data' in the config file "
                          "or give the data on the command line")
    try:
        if source == "synth:spiral":
            dataset = synth_stable_spiral(seed=config.train.seed, n_val=config.n_val)
        elif source == "synth:handwriting":
            dataset = synth_handwriting_like(seed=config.train.seed, n_val=config.n_val)
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
    except ContractError as exc:  # a split the source cannot hold
        raise ContractError(f"data {source}: {exc}") from None
    dt = config.dt if preprocessing is None else preprocessing.dt or 0.0
    if dt > 0:
        dataset = resample_dataset(dataset, dt)
    if preprocessing is not None:
        return dataclasses.replace(dataset.map_states(preprocessing.apply),
                                   preprocessing=preprocessing)
    if config.center:
        dataset = center_to_equilibrium(dataset)
    if config.normalize:
        dataset = normalize(dataset)
    return dataset


def _flags(args: argparse.Namespace) -> dict:
    """The given arguments that are named after the config key they set."""
    return {key: value for key, value in vars(args).items()
            if key in _DEFAULTS and value is not None}


def _report_split(dataset: Dataset) -> str:
    """The split a run reports: ``val`` when it has trajectories."""
    return "val" if dataset.val else "train"


def cmd_train(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, _flags(args))
    dataset = _load_dataset(config)
    model = KoopmanModel.init(n=dataset.dim, d=config.lift_dim,
                              hidden=config.hidden,
                              activation=config.activation, seed=config.train.seed,
                              k_init=config.k_init)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    record = config.as_dict()

    def save_model():
        save_checkpoint(out / "model.ckpt", model, dataset.preprocessing, record)

    def after_epoch(epoch):
        # a numeric abort then leaves the latest periodic checkpoint
        if (epoch + 1) % config.checkpoint_every == 0:
            save_model()

    history = train(model, dataset, config.train,
                    after_epoch if config.checkpoint_every else None)
    save_model()
    (out / "history.csv").write_text(history.to_csv(), encoding="utf-8")

    split = _report_split(dataset)
    report = evaluate(model, dataset, split=split)
    (out / "metrics.csv").write_text(report.to_csv(), encoding="utf-8")

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
    print(f"min row barrier: {before:.6e} -> {after:.6e}")
    print(f"displacement (Frobenius): {displacement(K, projected):.6e}")
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
    model, preprocessing, recorded = load_checkpoint(args.checkpoint)
    # the run's own settings rebuild its data and split; a data argument
    # names other trajectories
    try:
        config = load_run_config(overrides={**recorded, **_flags(args)})
    except (ConfigError, ContractError) as exc:
        raise ParseError(f"config: {exc}", path=args.checkpoint) from None
    dataset = _load_dataset(config, preprocessing)
    report = evaluate(model, dataset, split=args.split or _report_split(dataset))
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
                   help="key = value config file (defaults: RunConfig and "
                        "TrainConfig fields)")
    p.add_argument("--data", default=None,
                   help="trajectory CSV, directory, manifest, or synth:<name>")
    p.add_argument("--out", default=None, help="output directory")
    # untyped: each value is parsed like the config key of the same name
    p.add_argument("--seed", default=None, help="run seed")
    p.add_argument("--epochs", default=None, help="epoch budget")
    p.add_argument("--alpha", default=None,
                   help="constraint relaxation rate in (0, 1]")
    p.add_argument("--mode", choices=MODES, default=None,
                   help="row constraint family")
    p.add_argument("--margin", default=None, help="extra stability margin")
    p.add_argument("--horizon", default=None,
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
    p.add_argument("--mode", choices=MODES, default="symmetric",
                   help="row constraint family")
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
    p.add_argument("data", nargs="?", default=None,
                   help="trajectory CSV, directory, manifest, or synth:<name>; "
                        "None: the checkpoint's config data line")
    p.add_argument("--split", choices=("train", "val"), default=None,
                   help="which trajectories to score; None: val when the "
                        "data has a val split, else train")
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
    except MemoryError as exc:  # settings too large for this machine
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    except Exception:
        # never 1: that code means "certification refused"
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
