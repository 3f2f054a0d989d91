"""Property test of the CLI exit-code contract on malformed input files.

``verify`` exits 0 (certified), 1 (refused), 2 (bad input) or 3 (numeric
failure); every other command exits 0, 2 or 3. Exit 4 marks an exception the
boundary let through, so it must never occur here, not even for bytes that
are not UTF-8 or a ``train`` config full of bad values. ``train`` runs on a
built-in generator and on a directory of CSV files, which alone is
resampled to the drawn ``dt``. Examples are drawn from a fixed seed, so every
run checks the same inputs.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from koopstab.cli import main
from koopstab.data import Preprocessing, synth_stable_spiral, write_trajectory_csv
from koopstab.model import KoopmanModel, save_checkpoint

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

entries = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "x", "1e999", "-1e999", "nan", "0x10", "1,,2"]))
rows = st.lists(entries, min_size=1, max_size=5).map(",".join)
csv_texts = st.one_of(
    st.just(""),
    st.binary(max_size=24),
    st.lists(rows, min_size=1, max_size=5).map("\n".join),
    # square matrices of finite values, so the numeric paths run too
    st.integers(1, 5).flatmap(lambda d: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=d, max_size=d).map(lambda r: ",".join(map(repr, r))),
        min_size=d, max_size=d)).map("\n".join))


def run(argv_for):
    with tempfile.TemporaryDirectory() as tmp:
        return main(argv_for(Path(tmp)))


def write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return path


@SETTINGS
@given(text=csv_texts)
@example(text=b"\xff\xfe1,0\n0,1\n")
@example(text="1e308,1e308\n0,0.5")
def test_verify_exit_codes(text):
    assert run(lambda tmp: ["verify", str(write(tmp / "K.csv", text))]) in {0, 1, 2, 3}


@SETTINGS
@given(text=csv_texts, reference=st.one_of(st.none(), csv_texts))
@example(text="9007199254740996.0", reference=None)
@example(text="1e308,1e308\n0,0.5", reference=None)
@example(text="0,0\n0,0", reference="1e308,1e308\n0,0.5")
def test_project_exit_codes(text, reference):
    def argv(tmp):
        args = ["project", str(write(tmp / "K.csv", text))]
        if reference is not None:
            args += ["--reference", str(write(tmp / "R.csv", reference))]
        return args

    assert run(argv) in {0, 2, 3}


@pytest.fixture(scope="module")
def checkpoint_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    model = KoopmanModel.init(n=2, d=3, hidden=(4,), seed=1)
    save_checkpoint(path, model,
                    Preprocessing(dt=0.1, offset=np.array([0.1, -0.2]),
                                  scale=np.array([2.0, 3.0])),
                    config={"epochs": 1})
    return path.read_text(encoding="utf-8")


tokens = st.sampled_from(["nan", "inf", "-inf", "x", "", "-1", "0", "7", "1e400",
                          "99999999", "matrix", "config", "tanh", "relu", "K", "S"])


@settings(SETTINGS, suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_eval_exit_codes_on_corrupted_checkpoints(checkpoint_text, data):
    lines = checkpoint_text.splitlines()
    kind = data.draw(st.sampled_from(["truncate", "byte", "token", "drop", "duplicate"]))
    if kind == "truncate":
        text = checkpoint_text[:data.draw(st.integers(0, len(checkpoint_text)))]
    elif kind == "byte":
        raw = bytearray(checkpoint_text.encode("utf-8"))
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        text = bytes(raw)
    else:
        k = data.draw(st.integers(0, len(lines) - 1))
        if kind == "token":
            words = lines[k].split() or [""]
            j = data.draw(st.integers(0, len(words) - 1))
            words[j] = data.draw(tokens)
            lines[k] = " ".join(words)
        elif kind == "drop":
            del lines[k]
        else:
            lines.insert(k, lines[k])
        text = "\n".join(lines) + "\n"
    code = run(lambda tmp: ["eval", str(write(tmp / "model.ckpt", text)),
                            "synth:spiral"])
    assert code in {0, 2, 3}


# every train config key but ``out`` with values a run accepts; sizes and
# epochs stay small so that no example allocates or trains at scale
TRAIN_VALUES = {
    "data": ["synth:spiral"], "lift_dim": ["1", "2", "4"],
    "hidden": ["3", "2, 4", "4 4 4"], "activation": ["tanh", "relu", "identity"],
    "k_init": ["certified", "infeasible"], "dt": ["0", "0.1", "0.25", "1e-300"],
    "center": ["true", "false"], "normalize": ["yes", "0"], "n_val": ["0", "1", "2"],
    "checkpoint_every": ["0", "1", "2"],
    "lr": ["1e-3", "0.05"], "epochs": ["1", "2", "3"], "batch_size": ["0", "1", "3"],
    "pred_weight": ["0", "1.0"], "lin_weight": ["0", "0.1"], "rec_weight": ["0", "1"],
    "horizon": ["1", "3", "10"], "alpha": ["1", "0.5", "0.1"],
    "mode": ["symmetric", "asymmetric"], "margin": ["0", "0.01", "0.5"],
    "seed": ["0", "3", "12"], "early_stop": ["true", "false"], "patience": ["1", "5"],
}
BAD_TOKENS = ["nan", "inf", "-inf", "-1", "0", "x", "", "1e400"]
# the smallest run, under whatever an example sets
TRAIN_BASE = {"data": "synth:spiral", "lift_dim": "2", "hidden": "3", "epochs": "1",
              "n_val": "1", "horizon": "3"}


@st.composite
def train_configs(draw):
    config = {key: draw(st.sampled_from(values)) for key, values in TRAIN_VALUES.items()}
    for key in draw(st.lists(st.sampled_from(sorted(TRAIN_VALUES)), max_size=3,
                             unique=True)):
        config[key] = draw(st.sampled_from(BAD_TOKENS))
    return config


def train_argv(config, csv_source=False):
    """``train`` on a config file of ``TRAIN_BASE`` updated by ``config``.

    With ``csv_source`` a valid ``data`` value names a directory of CSV files
    instead of the generator.
    """
    def argv(tmp):
        settings = {**TRAIN_BASE, **config, "out": str(tmp / "run")}
        if csv_source and settings["data"] == "synth:spiral":
            settings["data"] = str(tmp / "trajs")
            (tmp / "trajs").mkdir()
            for k, traj in enumerate(synth_stable_spiral(n_traj=4, length=40).trajectories):
                write_trajectory_csv(tmp / "trajs" / f"t{k}.csv", traj)
        text = "".join(f"{key} = {value}\n" for key, value in settings.items())
        return ["train", "--config", str(write(tmp / "run.cfg", text))]

    return argv


@SETTINGS
@given(config=train_configs())
@example(config={"seed": "-1"})
@example(config={"pred_weight": "nan"})
@example(config={"lr": "nan"})
@example(config={"margin": "1.5"})
@example(config={"dt": "nan"})
@example(config={"lr": "1e308"})
def test_train_exit_codes_on_random_configs(config):
    assert run(train_argv(config)) in {0, 2, 3}


@SETTINGS
@given(config=train_configs())
@example(config={"dt": "1e-300"})
@example(config={"dt": "0.1"})
def test_train_exit_codes_on_random_configs_over_csv_files(config):
    assert run(train_argv(config, csv_source=True)) in {0, 2, 3}
