"""Command-line interface tests: config parsing, commands, exit codes."""

import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import koopstab
from koopstab.cli import (
    RunConfig,
    load_run_config,
    main,
    read_matrix,
    train_settings,
    write_matrix,
)
from koopstab.data import (
    MAX_GRID_STEPS,
    Trajectory,
    synth_stable_spiral,
    write_manifest,
    write_trajectory_csv,
)
from koopstab.errors import ConfigError, ParseError
from koopstab.model import LossWeights, load_checkpoint
from koopstab.stability import MODES, certify_stable
from koopstab.trainer import TrainConfig, evaluate


class TestRunConfig:
    def test_defaults_match_reference_hyperparameters(self):
        c = RunConfig()
        w = c.train.weights
        assert w.pred == 1.0 and w.lin == 0.1 and w.rec == 1.0 and w.horizon == 10
        assert c.train.alpha == 1.0 and c.train.lr == 1e-3
        assert c.train.epochs == 3000 and c.train.batch_size == 0
        assert c.train.seed == 0 and c.hidden == (50, 50, 50)
        assert c.lift_dim == 20 and c.dt == 0.1

    def test_train_config_carries_weights(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("horizon = 4\nlin_weight = 0.5\n")
        tc = load_run_config(f).train
        assert tc.weights == LossWeights(pred=1.0, lin=0.5, rec=1.0, horizon=4)
        # and they reach training: the checkpoint records the weights it used
        cfg = write_config(tmp_path, epochs=1, horizon=4, lin_weight=0.5,
                           pred_weight=0.25, rec_weight=2.0)
        assert main(["train", "--config", str(cfg)]) == 0
        _, _, saved = load_checkpoint(tmp_path / "run" / "model.ckpt")
        assert (saved["pred_weight"], saved["lin_weight"], saved["rec_weight"],
                saved["horizon"]) == ("0.25", "0.5", "2.0", "4")

    def test_run_config_declares_no_training_setting(self):
        run = {f.name for f in fields(RunConfig)}
        assert run.isdisjoint(f.name for f in fields(TrainConfig))
        assert run.isdisjoint(f.name for f in fields(LossWeights))

    def test_every_field_has_a_default(self):
        RunConfig()  # constructible with no arguments

    def test_as_dict_is_stringly_typed(self):
        d = train_settings(TrainConfig())
        assert d["lr"] == "0.001" and d["mode"] == "symmetric"
        assert all(isinstance(v, str) for v in d.values())


positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
weight = st.floats(0.0, allow_infinity=False)
train_configs = st.builds(
    TrainConfig, lr=positive,
    epochs=st.integers(1, 10**9), batch_size=st.integers(0, 10**9),
    weights=st.builds(lambda w, horizon: LossWeights(*w, horizon=horizon),
                      st.tuples(weight, weight, weight).filter(lambda w: max(w) > 0.0),
                      st.integers(1, 10**9)),
    alpha=st.floats(0.0, 1.0, exclude_min=True), mode=st.sampled_from(MODES),
    margin=st.floats(0.0, 1.0, exclude_max=True), seed=st.integers(0, 2**64),
    early_stop=st.booleans(), patience=st.integers(1, 10**9))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(config=train_configs)
def test_settings_read_back_under_the_keys_they_are_written_with(config):
    assert load_run_config(overrides=train_settings(config)).train == config


run_configs = st.builds(
    RunConfig, data=st.sampled_from(["synth:spiral", "runs/a b/manifest.txt"]),
    lift_dim=st.integers(1, 10**9),
    hidden=st.lists(st.integers(1, 10**9), max_size=4).map(tuple),
    activation=st.sampled_from(["tanh", "relu", "identity"]),
    k_init=st.sampled_from(["certified", "infeasible"]),
    dt=st.floats(0.0, allow_infinity=False), center=st.booleans(),
    normalize=st.booleans(), n_val=st.integers(0, 10**9), train=train_configs)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(config=run_configs)
def test_a_checkpoints_record_reads_back_as_the_run(config):
    # every recorded value is non-blank, or its checkpoint line would not load
    record = config.as_dict()
    assert all(value.strip() for value in record.values())
    # where and how often a run writes are not part of the record
    assert replace(load_run_config(overrides=record), out=config.out,
                   checkpoint_every=config.checkpoint_every) == config
    assert "out" not in record and "checkpoint_every" not in record


def test_unknown_override_key_rejected():
    with pytest.raises(ConfigError, match="loss_pred"):
        load_run_config(overrides={"loss_pred": "1.0"})


class TestConfigFile:
    def test_parse_round_trip(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# comment line\n"
                     "data = synth:spiral\n"
                     "epochs = 12  # trailing comment\n"
                     "hidden = 8, 8\n"
                     "alpha=0.5\n"
                     "early_stop = true\n")
        c = load_run_config(f)
        assert c.data == "synth:spiral" and c.train.epochs == 12
        assert c.hidden == (8, 8) and c.train.alpha == 0.5
        assert c.train.early_stop is True

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("learning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="learning_rate"):
            load_run_config(f)

    def test_duplicate_key_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_run_config(f)

    def test_bad_value_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("epochs = soon\n")
        with pytest.raises(ConfigError, match="epochs"):
            load_run_config(f)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(tmp_path / "absent.cfg")


class TestMatrixIO:
    def test_round_trip_is_exact(self, tmp_path):
        M = np.array([[0.1, -2.5e-17], [3.0, 4.0]])
        path = tmp_path / "m.csv"
        write_matrix(path, M)
        np.testing.assert_array_equal(read_matrix(path), M)

    def test_malformed_rejected_with_location(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\nx,3.0\n")
        with pytest.raises(ParseError, match="2"):
            read_matrix(path)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError):
            read_matrix(path)


def write_csv_dir(directory, dataset):
    """One trajectory CSV per trajectory of ``dataset``, named in split order."""
    directory.mkdir()
    for k, t in enumerate(dataset.trajectories):
        write_trajectory_csv(directory / f"t{k}.csv", t)
    return directory


def write_config(tmp_path, **over):
    base = dict(data="synth:spiral", lift_dim=4, hidden="6", epochs=10,
                horizon=3, seed=3, n_val=1, out=str(tmp_path / "run"))
    base.update(over)
    f = tmp_path / "run.cfg"
    f.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return f


class TestTrainCommand:
    def test_smoke_run_emits_all_four_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "run"
        for name in ("model.ckpt", "history.csv", "metrics.csv", "barrier.txt"):
            assert (out / name).exists(), name
        history = (out / "history.csv").read_text().splitlines()
        assert len(history) == 11  # header + 10 iterations
        assert "certified" in capsys.readouterr().out
        model, _, saved = load_checkpoint(out / "model.ckpt")
        assert certify_stable(model.K).certified
        assert saved["epochs"] == "10"

    @pytest.mark.parametrize("source", ["synth:handwriting", "manifest", "one csv"])
    def test_trains_on_every_kind_of_source(self, tmp_path, capsys, source):
        spiral = synth_stable_spiral(n_traj=3, length=30, seed=8, n_val=1)
        if source == "manifest":
            write_csv_dir(tmp_path / "trajs", spiral)
            data = tmp_path / "trajs" / "manifest.txt"
            write_manifest(data, [("t0.csv", "train"), ("t1.csv", "val"),
                                  ("t2.csv", "train")])
        elif source == "one csv":
            data = tmp_path / "one.csv"
            write_trajectory_csv(data, spiral.trajectories[0])
        else:
            data = source
        # a single file holds no val trajectory: the report scores the train split
        n_val, split = (0, "train") if source == "one csv" else (1, "val")
        cfg = write_config(tmp_path, data=data, epochs=1, n_val=n_val)
        assert main(["train", "--config", str(cfg)]) == 0
        assert f"{split} NMSE" in capsys.readouterr().out
        assert (tmp_path / "run" / "metrics.csv").exists()

    def test_missing_dataset_path_exits_2_naming_field(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path / "r")]) == 2
        assert "data" in capsys.readouterr().err

    def test_nonexistent_dataset_exits_2(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_cli_overrides_beat_config(self, tmp_path):
        cfg = write_config(tmp_path, epochs=999)
        assert main(["train", "--config", str(cfg), "--epochs", "3"]) == 0
        history = (tmp_path / "run" / "history.csv").read_text().splitlines()
        assert len(history) == 4

    def test_same_config_same_artifact_bytes(self, tmp_path):
        cfg_a = write_config(tmp_path, out=str(tmp_path / "a"))
        assert main(["train", "--config", str(cfg_a)]) == 0
        cfg_b = write_config(tmp_path, out=str(tmp_path / "b"))
        assert main(["train", "--config", str(cfg_b)]) == 0
        for name in ("model.ckpt", "history.csv", "metrics.csv", "barrier.txt"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_bad_config_value_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha=2.0)
        assert main(["train", "--config", str(cfg)]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, named", [
        ("lr", "nan", "lr"), ("lr", "inf", "lr"),
        ("margin", "1.5", "margin"), ("margin", "nan", "margin"),
        ("seed", "-1", "seed"), ("pred_weight", "nan", "pred"),
        ("lin_weight", "inf", "lin"), ("dt", "nan", "dt"), ("dt", "-0.1", "dt"),
        ("checkpoint_every", "-1", "checkpoint_every")])
    def test_bad_setting_exits_2_naming_it(self, tmp_path, capsys, key, value, named):
        cfg = write_config(tmp_path, **{key: value})
        assert main(["train", "--config", str(cfg)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()  # refused before any work

    @pytest.mark.parametrize("flag, value", [("--seed", "-2"), ("--epochs", "x"),
                                             ("--margin", "1.5")])
    def test_bad_flag_exits_2_naming_it(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), flag, value]) == 2
        assert flag[2:] in capsys.readouterr().err

    def test_flag_replaces_bad_file_value_before_checking(self, tmp_path):
        cfg = write_config(tmp_path, epochs=0, seed=-1)
        assert main(["train", "--config", str(cfg), "--epochs", "2",
                     "--seed", "4"]) == 0
        _, _, saved = load_checkpoint(tmp_path / "run" / "model.ckpt")
        assert (saved["epochs"], saved["seed"]) == ("2", "4")

    def test_overflowing_learning_rate_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lr="1e308")
        assert main(["train", "--config", str(cfg)]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_default_run_trains_and_saves_a_float32_mlp(self, tmp_path):
        cfg = write_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        assert "mlp-dtype float32" in ckpt.read_text().splitlines()
        assert load_checkpoint(ckpt)[0].dtype == np.float32

    # a 1e20 step moves S along its rounding-noise gradient (zero in exact
    # arithmetic at K = 0.99 I) until the next inverse of S exceeds the
    # condition cap; a 1e39 step does not fit a float32 weight at all
    @pytest.mark.parametrize("lr, message", [("1e20", "exceeds cap"),
                                             ("1e39", "left parameter")])
    def test_float32_divergence_exits_3_without_a_traceback(self, tmp_path, capsys,
                                                            lr, message):
        cfg = write_config(tmp_path, lr=lr)
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("lr", ["1e150", "1e200"])
    def test_forward_overflow_after_a_huge_step_exits_3(self, tmp_path, capsys, lr):
        # the first step's parameters overflow the next step's forward pass;
        # the loss or gradient check names it, not a RuntimeWarning
        cfg = write_config(tmp_path, lr=lr)
        assert main(["train", "--config", str(cfg)]) == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("over", [{"epochs": 1}, {"early_stop": "true"}])
    def test_overflowing_validation_score_exits_3(self, tmp_path, capsys, over):
        # the last (or, with early stopping, the first) step leaves parameters
        # whose predictions overflow the validation score's squared error
        cfg = write_config(tmp_path, lr="1e200", **over)
        assert main(["train", "--config", str(cfg)]) == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("lift_dim", 0), ("hidden", "6, 0")])
    def test_empty_layer_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        assert main(["train", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    def test_dt_resamples_generated_data_as_it_does_files(self, tmp_path):
        data_dir = write_csv_dir(tmp_path / "trajs", synth_stable_spiral(seed=3, n_val=1))
        for name, data in (("synth", "synth:spiral"), ("files", data_dir)):
            cfg = write_config(tmp_path, data=data, dt=0.05, epochs=2,
                               out=str(tmp_path / name))
            assert main(["train", "--config", str(cfg)]) == 0
            _, pre, _ = load_checkpoint(tmp_path / name / "model.ckpt")
            assert pre.dt == 0.05
        assert ((tmp_path / "synth" / "history.csv").read_bytes()
                == (tmp_path / "files" / "history.csv").read_bytes())

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_too_few_trajectories_for_the_split_exits_2(self, tmp_path, capsys,
                                                         command):
        one = tmp_path / "one.csv"
        write_trajectory_csv(one, synth_stable_spiral(n_traj=1, n_val=0).trajectories[0])
        if command == "train":
            argv = ["train", "--data", str(one), "--out", str(tmp_path / "r")]
        else:
            assert main(["train", "--config", str(write_config(tmp_path, epochs=1,
                                                               n_val=2))]) == 0
            argv = ["eval", str(tmp_path / "run" / "model.ckpt"), str(one)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"data {one}: cannot take n_val = 2 validation trajectories out of 1" in err

    @pytest.mark.parametrize("dt", ["1e-300", "5e-324"])
    def test_oversized_resampling_grid_exits_2(self, tmp_path, capsys, dt):
        data_dir = write_csv_dir(tmp_path / "trajs", synth_stable_spiral(n_traj=3))
        cfg = write_config(tmp_path, data=str(data_dir), dt=dt)
        assert main(["train", "--config", str(cfg)]) == 2
        assert f"more than {MAX_GRID_STEPS}" in capsys.readouterr().err

    def test_batch_over_the_tape_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        # a float32 step of two trajectories records 35,288 bytes
        monkeypatch.setattr(koopstab.model, "MAX_TAPE_BYTES", 1 << 15)
        cfg = write_config(tmp_path, batch_size=2)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "windows" in err and "batch_size" in err
        assert not (tmp_path / "run" / "history.csv").exists()

    def test_largest_batch_over_the_tape_limit_exits_2_before_adam_allocates(
            self, tmp_path, capsys, monkeypatch):
        # the console-script check's long.cfg: one 8-s spiral of 400,001
        # samples at dt = 2e-5 trains as one batch of 399,991 windows, 1.56 GiB
        # of tape (at dt = 5e-5 its 159,991 windows would take 0.62 GiB and fit)
        data = write_csv_dir(tmp_path / "long", synth_stable_spiral(n_traj=3))
        def allocate(*args, **kwargs):
            raise AssertionError("Adam's moments were allocated")
        monkeypatch.setattr(koopstab.trainer.AdamState, "init", allocate)
        cfg = tmp_path / "long.cfg"
        cfg.write_text(f"data = {data}\ndt = 0.00002\nout = {tmp_path / 'run'}\n")
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "399991 windows of 1 trajectories" in err and "batch_size" in err
        assert not (tmp_path / "run" / "history.csv").exists()

    @pytest.mark.parametrize("bad, named", [(0, "train trajectory 0"),
                                            (2, "val trajectory 1")])
    def test_state_beyond_float32_exits_2_naming_its_trajectory(self, tmp_path, capsys,
                                                                 monkeypatch, bad, named):
        dataset = synth_stable_spiral(n_traj=3)
        trajs = list(dataset.trajectories)
        states = trajs[bad].states.copy()
        states[4, 0] = 1e39
        trajs[bad] = Trajectory(times=trajs[bad].times, states=states)
        data = write_csv_dir(tmp_path / "trajs", replace(dataset, trajectories=trajs))
        # refused once, before the first step: no loss is formed
        def step(*args, **kwargs):
            raise AssertionError("a training step ran")
        monkeypatch.setattr(koopstab.trainer, "sliding_window_loss", step)
        cfg = write_config(tmp_path, data=str(data), normalize="false", center="false",
                           n_val=2)
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: {named}: state 4 overflows float32, the model's dtype; normalize "
            f"the data or scale it down\n")

    @pytest.mark.parametrize("setting", [dict(lift_dim=1000000),
                                         dict(hidden="1000000 1000000"),
                                         dict(lift_dim=8000)])
    def test_model_over_the_tape_limit_exits_2_before_allocating(self, tmp_path, capsys,
                                                                 monkeypatch, setting):
        # 16 TB of K and S, 8 TB of MLP weights, or 2.3 GB of K, S, S^-1 and
        # S^-1 K S on an empty tape against 1 GB of parameters
        def allocate(*args, **kwargs):
            raise AssertionError("the model was allocated")
        monkeypatch.setattr(koopstab.model.MlpParams, "init", allocate)
        cfg = write_config(tmp_path, **setting)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "GiB on a step's tape, more than the 1 GiB limit; lower lift_dim" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 74.5 GiB"), "Unable to allocate 74.5 GiB"),
        (MemoryError(), "allocation failed")])
    def test_memory_error_exits_2_in_one_line(self, capsys, monkeypatch, exc, message):
        def exhausted(args):
            raise exc
        monkeypatch.setattr(koopstab.cli, "cmd_train", exhausted)
        assert main(["train"]) == 2
        assert capsys.readouterr().err == f"error: out of memory: {message}\n"

    def test_checkpoint_config_lines_replay_the_run(self, tmp_path):
        cfg = write_config(tmp_path, epochs=3, lr="0.0123", batch_size=2,
                           pred_weight=0.5, early_stop="true", mode="asymmetric",
                           lift_dim=5, hidden="6 4", k_init="infeasible",
                           activation="relu", n_val=2)
        assert main(["train", "--config", str(cfg)]) == 0
        run = tmp_path / "run"
        recorded = [line.split(" ", 2)[1:] for line in
                    (run / "model.ckpt").read_text().splitlines()
                    if line.startswith("config ")]
        # the data and model-shape keys are recorded too; only out is not
        replay = tmp_path / "replay.cfg"
        replay.write_text("".join(f"{key} = {value}\n" for key, value in recorded))
        assert main(["train", "--config", str(replay),
                     "--out", str(tmp_path / "replay")]) == 0
        for name in ("history.csv", "model.ckpt"):
            assert (tmp_path / "replay" / name).read_bytes() == \
                (run / name).read_bytes(), name

    @pytest.mark.parametrize("key, value", [("beta1", "0.9"), ("beta2", "0.999"),
                                            ("eps", "1e-08"), ("eval_split", "val")])
    def test_removed_setting_is_an_unknown_key(self, tmp_path, capsys, key, value):
        # checkpoints written while these were settings hold the Adam lines
        cfg = write_config(tmp_path, **{key: value})
        assert main(["train", "--config", str(cfg)]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_dictionary_key_is_unknown_to_train(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dictionary="monomials:2")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "dictionary" in capsys.readouterr().err

    def test_zero_variance_validation_trajectory_exits_3(self, tmp_path, capsys):
        data_dir = write_csv_dir(tmp_path / "trajs", synth_stable_spiral(
            n_traj=2, length=20, seed=5, n_val=0))
        # 0.3 does not survive the mean exactly: the variance is ~1e-33, not 0
        for level in (0.0, 0.3):
            flat = Trajectory(times=np.arange(20) * 0.1,
                              states=np.full((20, 2), level))
            write_trajectory_csv(data_dir / "t2.csv", flat)  # sorts last: the val split
            # refused while training scores it, before the history is written
            cfg = write_config(tmp_path, data=str(data_dir), dt=0, center="false",
                               epochs=2, early_stop="true")
            assert main(["train", "--config", str(cfg)]) == 3
            assert "zero variance" in capsys.readouterr().err
            assert not (tmp_path / "run" / "history.csv").exists()

    def test_periodic_checkpoints_follow_every_nth_epoch_and_the_end(self, tmp_path,
                                                                     monkeypatch):
        steps, saved_after = [], []
        original = koopstab.trainer.adam_step
        monkeypatch.setattr(koopstab.trainer, "adam_step",
                            lambda *args: steps.append(1) or original(*args))
        monkeypatch.setattr(koopstab.cli, "save_checkpoint",
                            lambda *args: saved_after.append(len(steps)))
        cfg = write_config(tmp_path, epochs=5, checkpoint_every=2)
        assert main(["train", "--config", str(cfg)]) == 0
        assert saved_after == [2, 4, 5]  # one full-batch step per epoch

    def test_checkpointing_preserves_latest_state(self, tmp_path, monkeypatch):
        trained = []
        original = koopstab.cli.train
        monkeypatch.setattr(koopstab.cli, "train",
                            lambda *args: trained.append(args) or original(*args))
        cfg = write_config(tmp_path, epochs=4, checkpoint_every=2)
        assert main(["train", "--config", str(cfg)]) == 0
        model, dataset = trained[0][:2]
        loaded, pre, config = load_checkpoint(tmp_path / "run" / "model.ckpt")
        np.testing.assert_array_equal(loaded.K, model.K)
        assert pre.dt == dataset.preprocessing.dt
        assert config["epochs"] == "4"

    def test_numeric_abort_leaves_the_latest_periodic_checkpoint(self, tmp_path, capsys,
                                                                 monkeypatch):
        cfg = write_config(tmp_path, epochs=2, out=str(tmp_path / "two"))
        assert main(["train", "--config", str(cfg)]) == 0
        # a full-batch epoch is one step: the loss of the fourth (epoch 3) is
        # NaN, after the checkpoint of epoch 1 and before that of epoch 3
        calls = []
        original = koopstab.trainer.sliding_window_loss

        def nan_in_epoch_3(*args, **kwargs):
            calls.append(1)
            loss, terms = original(*args, **kwargs)
            if len(calls) == 4:
                loss = SimpleNamespace(value=np.full((1, 1), np.nan))
            return loss, terms

        monkeypatch.setattr(koopstab.trainer, "sliding_window_loss", nan_in_epoch_3)
        cfg = write_config(tmp_path, epochs=6, checkpoint_every=2)
        assert main(["train", "--config", str(cfg)]) == 3
        assert "loss became non-finite at epoch 3" in capsys.readouterr().err
        assert not (tmp_path / "run" / "history.csv").exists()
        aborted = load_checkpoint(tmp_path / "run" / "model.ckpt")[0].get_params()
        two_epochs = load_checkpoint(tmp_path / "two" / "model.ckpt")[0].get_params()
        assert aborted.keys() == two_epochs.keys()
        for name, p in aborted.items():
            q = two_epochs[name]
            assert p.dtype == q.dtype and p.shape == q.shape, name
            assert p.tobytes() == q.tobytes(), name


class TestInputFaults:
    """Each malformed input exits 2 with a message that names where it is."""

    def test_config_line_without_equals(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data = synth:spiral\nepochs 3\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert f"{cfg}:2: expected 'key = value'" in capsys.readouterr().err

    def test_trajectory_with_one_data_row(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("t,x1\n0.0,1.0\n")
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "r")]) == 2
        assert f"{data}: needs at least 2 data rows, got 1" in capsys.readouterr().err

    def test_manifest_line_that_is_not_path_split(self, tmp_path, capsys):
        write_csv_dir(tmp_path / "trajs", synth_stable_spiral(n_traj=2, n_val=0))
        manifest = tmp_path / "trajs" / "manifest.txt"
        manifest.write_text("t0.csv,train\nt1.csv\n")
        assert main(["train", "--data", str(manifest),
                     "--out", str(tmp_path / "r")]) == 2
        assert f"{manifest}:2: expected 'path,split'" in capsys.readouterr().err

    def test_manifest_that_lists_nothing(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("# no trajectories yet\n")
        assert main(["train", "--data", str(manifest),
                     "--out", str(tmp_path / "r")]) == 2
        assert f"{manifest}: manifest lists no trajectories" in capsys.readouterr().err

    def test_checkpoint_config_line_without_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        lines = ckpt.read_text().splitlines()
        row = lines.index("config seed 3")
        lines[row] = "config seed"
        ckpt.write_text("\n".join(lines) + "\n")
        assert main(["eval", str(ckpt)]) == 2
        assert f"{ckpt}:{row + 1}: config line needs key and value" in \
            capsys.readouterr().err

    def test_config_value_that_does_not_parse(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data = synth:spiral\nseed = x\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert f"error: {cfg}:2: seed: cannot parse 'x'\n" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("config seed x", "seed: cannot parse 'x'"),
        ("config lr -1", "lr must be positive and finite, got -1.0"),
    ])
    def test_checkpoint_config_value_that_is_refused(self, tmp_path, capsys,
                                                      line, message):
        cfg = write_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        key = line.split()[1]
        ckpt.write_text("".join(
            f"{line}\n" if entry.startswith(f"config {key} ") else entry
            for entry in ckpt.read_text().splitlines(keepends=True)))
        capsys.readouterr()
        assert main(["eval", str(ckpt)]) == 2
        assert f"error: {ckpt}: config: {message}\n" in capsys.readouterr().err


class TestVerifyCommand:
    def test_identity_certified_exit_0(self, tmp_path, capsys):
        path = tmp_path / "k.csv"
        write_matrix(path, np.eye(2))
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "CERTIFIED" in out and "spectral radius" in out

    def test_scaled_identity_refused_exit_1(self, tmp_path, capsys):
        path = tmp_path / "k.csv"
        write_matrix(path, 1.5 * np.eye(2))
        assert main(["verify", str(path)]) == 1
        assert "REFUSED" in capsys.readouterr().out

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        path = tmp_path / "k.csv"
        path.write_text("not,a\nmatrix,here\n")
        assert main(["verify", str(path)]) == 2
        assert "k.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_entry_exit_2(self, tmp_path, capsys, bad):
        path = tmp_path / "k.csv"
        path.write_text(f"0.5,0.0\n0.0,{bad}\n")
        assert main(["verify", str(path)]) == 2
        assert "k.csv:2" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("K", [[[3.0, 0.2], [0.1, 0.3]], [[0.5, 0.0], [0.0, 0.5]]])
    def test_non_finite_margin_exit_2(self, tmp_path, capsys, tol, K):
        path = tmp_path / "k.csv"
        write_matrix(path, np.array(K))
        assert main(["verify", str(path), f"--margin={tol}"]) == 2
        assert "margin tolerance must be finite" in capsys.readouterr().err

    def test_zero_matrix_above_the_dense_limit_certified_exit_0(self, tmp_path, capsys):
        # ARPACK cannot start from a zero matrix; the dense solver answers
        path = tmp_path / "k.csv"
        write_matrix(path, np.zeros((100, 100)))
        assert main(["verify", str(path)]) == 0
        assert "spectral radius = 0.000000e+00" in capsys.readouterr().out

    def test_cyclic_permutation_above_the_dense_limit_certified_exit_0(self, tmp_path,
                                                                      capsys):
        # margin exactly 0; ARPACK gives up after scipy's default iteration
        # count and the dense solver answers
        path = tmp_path / "k.csv"
        write_matrix(path, np.roll(np.eye(100), 1, axis=1))
        assert main(["verify", str(path)]) == 0
        assert "spectral radius = 1.000000e+00" in capsys.readouterr().out

    def test_overflowing_row_sum_refused_exit_1(self, tmp_path, capsys):
        path = tmp_path / "k.csv"
        path.write_text("1e308,1e308\n0,0.5\n")
        assert main(["verify", str(path)]) == 1
        assert "REFUSED" in capsys.readouterr().out


class TestProjectCommand:
    def test_feasible_matrix_passes_through(self, tmp_path):
        path = tmp_path / "k.csv"
        K = np.array([[0.5, 0.1], [0.0, 0.3]])
        write_matrix(path, K)
        assert main(["project", str(path)]) == 0
        np.testing.assert_array_equal(
            read_matrix(tmp_path / "k.projected.csv"), K)

    def test_hand_case_and_explicit_out(self, tmp_path, capsys):
        path = tmp_path / "k.csv"
        write_matrix(path, np.array([[2.0, 0.0], [0.0, 0.5]]))
        dest = tmp_path / "proj.csv"
        assert main(["project", str(path), "--out", str(dest)]) == 0
        np.testing.assert_allclose(read_matrix(dest),
                                   [[1.0, 0.0], [0.0, 0.5]], atol=1e-12)
        assert "->" in capsys.readouterr().out

    def test_batch_outputs_are_certified(self, tmp_path):
        rng = np.random.default_rng(8)
        for trial in range(10):
            K = rng.normal(scale=1.2, size=(4, 4))
            path = tmp_path / f"k{trial}.csv"
            write_matrix(path, K)
            assert main(["project", str(path)]) == 0
            out = read_matrix(tmp_path / f"k{trial}.projected.csv")
            assert certify_stable(out, margin_tol=1e-9).certified

    def test_relaxed_threshold_with_reference(self, tmp_path):
        k_path, ref_path = tmp_path / "k.csv", tmp_path / "ref.csv"
        write_matrix(k_path, 1.5 * np.eye(2))
        write_matrix(ref_path, 1.5 * np.eye(2))  # h = -0.5 rows
        assert main(["project", str(k_path), "--reference", str(ref_path),
                     "--alpha", "0.5"]) == 0
        out = read_matrix(tmp_path / "k.projected.csv")
        # threshold is alpha * (-0.5) = -0.25, so diag 1.25 is allowed
        np.testing.assert_allclose(out, 1.25 * np.eye(2), atol=1e-9)

    def test_huge_entries_print_finite_displacement(self, tmp_path, capsys):
        path = tmp_path / "k.csv"
        write_matrix(path, np.array([[1e200, -3e200], [2e200, 0.5]]))
        assert main(["project", str(path)]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("displacement"))
        moved = float(line.split()[-1])
        assert np.isfinite(moved)
        assert moved == pytest.approx(np.sqrt(14.0) * 1e200, rel=1e-6)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_entry_exit_2(self, tmp_path, capsys, bad):
        path = tmp_path / "k.csv"
        path.write_text(f"{bad},0.0\n0.0,0.5\n")
        assert main(["project", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("overflowing", ["matrix", "reference"])
    def test_overflowing_row_sum_exits_3(self, tmp_path, capsys, mode, overflowing):
        paths = {"matrix": tmp_path / "k.csv", "reference": tmp_path / "ref.csv"}
        write_matrix(paths["matrix"], np.zeros((2, 2)))
        write_matrix(paths["reference"], np.zeros((2, 2)))
        paths[overflowing].write_text("1e308,1e308\n0,0.5\n")
        assert main(["project", str(paths["matrix"]), "--reference",
                     str(paths["reference"]), "--mode", mode]) == 3
        assert "non-finite row barrier" in capsys.readouterr().err
        assert not (tmp_path / "k.projected.csv").exists()


class TestEdmdCommand:
    def test_recovers_generator_and_reports(self, tmp_path, capsys):
        data_dir = write_csv_dir(tmp_path / "trajs", synth_stable_spiral(
            n_traj=3, length=30, decay=0.9, seed=5, n_val=0))
        dest = tmp_path / "K.csv"
        assert main(["edmd", str(data_dir), "--out", str(dest)]) == 0
        theta = 0.1
        A = 0.9 * np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
        np.testing.assert_allclose(read_matrix(dest), A, atol=1e-8)
        assert "CERTIFIED" in capsys.readouterr().out

    @pytest.mark.parametrize("dictionary", ["monomials:x", "monomials:"])
    def test_bad_monomial_degree_exits_2(self, tmp_path, capsys, dictionary):
        code = main(["edmd", "synth:spiral", "--dictionary", dictionary,
                     "--out", str(tmp_path / "K.csv")])
        assert code == 2
        assert "monomial degree" in capsys.readouterr().err

    def test_monomials_over_the_byte_limit_exit_2_before_listing_them(
            self, tmp_path, capsys, monkeypatch):
        # 4,504,500 features of 560 snapshot columns: about 20 GB in float64
        def listing(*args):
            raise AssertionError("the monomials were listed")
        monkeypatch.setattr(koopstab.edmd, "monomial_exponents", listing)
        code = main(["edmd", "synth:spiral", "--dictionary", "monomials:3000",
                     "--out", str(tmp_path / "K.csv")])
        assert code == 2
        assert ("monomials:3000 of 2 variables at 560 snapshots would hold 18.8 GiB"
                in capsys.readouterr().err)
        assert not (tmp_path / "K.csv").exists()


def drop_config_lines(path, keys):
    """Delete the checkpoint's ``config`` lines of ``keys``."""
    dropped = {("config", key) for key in keys}
    path.write_text("".join(line for line in path.read_text().splitlines(True)
                            if tuple(line.split()[:2]) not in dropped))


def one_by_one_k(text):
    """A checkpoint's text with its K replaced by the 1x1 matrix 0.5."""
    lines = text.splitlines(True)
    at = next(k for k, line in enumerate(lines) if line.startswith("matrix K "))
    rows = int(lines[at].split()[2])
    return "".join(lines[:at] + ["matrix K 1 1\n", "0.5\n"] + lines[at + 1 + rows:])


def scored(ckpt, seed, n_val, split="val"):
    """The report of the checkpoint on a spiral generated from ``seed`` and
    split by ``n_val``, in the checkpoint's coordinates."""
    model, pre, _ = load_checkpoint(ckpt)
    raw = synth_stable_spiral(seed=seed, n_val=n_val)
    dataset = replace(raw.map_states(pre.apply), preprocessing=pre)
    return evaluate(model, dataset, split=split).text() + "\n"


class TestEvalCommand:
    # the config lines that a checkpoint written before it recorded the
    # data and model settings lacks
    RUN_KEYS = ("data", "lift_dim", "hidden", "activation", "k_init", "dt",
                "center", "normalize", "n_val")

    def test_scores_checkpoint_on_dataset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=5)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        code = main(["eval", str(ckpt), "synth:spiral"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nmse" in out.lower()

    @staticmethod
    def reports_metrics_nmse(tmp_path, capsys, source, seed, n_val):
        """Train, then ``eval`` the checkpoint alone; it prints the NMSE of
        ``metrics.csv``."""
        cfg = write_config(tmp_path, data=source, epochs=3, seed=seed, n_val=n_val)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        if seed == 0:
            # a checkpoint without a config seed line was trained with seed 0
            drop_config_lines(ckpt, {"seed"})
        capsys.readouterr()
        assert main(["eval", str(ckpt)]) == 0
        nmse = next(float(line.split(",")[1]) for line in
                    (tmp_path / "run" / "metrics.csv").read_text().splitlines()
                    if line.startswith("nmse,"))
        assert f"nmse            {nmse:.6g}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["synth:spiral", "synth:handwriting"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_regenerates_the_runs_data_from_its_seed(self, tmp_path, capsys,
                                                     source, seed):
        self.reports_metrics_nmse(tmp_path, capsys, source, seed, n_val=1)

    @pytest.mark.parametrize("source", ["synth:spiral", "synth:handwriting"])
    @pytest.mark.parametrize("n_val", [0, 1, 3])
    def test_splits_the_data_by_the_runs_n_val(self, tmp_path, capsys, source, n_val):
        # with n_val = 0 both commands score the train split
        self.reports_metrics_nmse(tmp_path, capsys, source, seed=3, n_val=n_val)

    def test_float64_checkpoint_without_a_dtype_line_reports_its_nmse(self, capsys):
        """A checkpoint written before checkpoints recorded the MLP dtype (a
        3-epoch float64 spiral run at seed 5) scores the NMSE of its metrics.csv."""
        run = Path(__file__).parent / "fixtures" / "float64_run"
        nmse = next(float(line.split(",")[1]) for line in
                    (run / "metrics.csv").read_text().splitlines()
                    if line.startswith("nmse,"))
        assert main(["eval", str(run / "model.ckpt")]) == 0
        assert f"nmse            {nmse:.6g}\n" in capsys.readouterr().out
        model, pre, _ = load_checkpoint(run / "model.ckpt")
        assert model.dtype == np.float64
        raw = synth_stable_spiral(seed=5, n_val=1)
        dataset = replace(raw.map_states(pre.apply), preprocessing=pre)
        assert evaluate(model, dataset).nmse == nmse

    @pytest.mark.parametrize("seed_line", [True, False])
    def test_older_checkpoint_scores_with_default_settings(self, tmp_path, capsys,
                                                           seed_line):
        cfg = write_config(tmp_path, epochs=3, seed=3, n_val=1)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        drop_config_lines(ckpt, {*self.RUN_KEYS, *(() if seed_line else ("seed",))})
        capsys.readouterr()
        assert main(["eval", str(ckpt), "synth:spiral"]) == 0
        # n_val 2, and seed 0 without a seed line
        assert capsys.readouterr().out == scored(ckpt, 3 if seed_line else 0, 2)

    def test_older_checkpoint_needs_the_data_argument(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        drop_config_lines(ckpt, set(self.RUN_KEYS))
        capsys.readouterr()
        assert main(["eval", str(ckpt)]) == 2
        assert "'data'" in capsys.readouterr().err

    def test_data_argument_replaces_the_recorded_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        assert main(["eval", str(ckpt), str(tmp_path / "nope")]) == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_split_flag_beats_the_default(self, tmp_path, capsys, split):
        cfg = write_config(tmp_path, epochs=1, n_val=1)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        capsys.readouterr()
        assert main(["eval", str(ckpt), "--split", split]) == 0
        assert capsys.readouterr().out == scored(ckpt, 3, 1, split)

    def test_n_val_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(tmp_path / "model.ckpt"), "--n-val", "1"])
        assert exc.value.code == 2
        assert "--n-val" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["x", "-1"])
    def test_bad_seed_line_exits_2(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        ckpt.write_text(ckpt.read_text().replace("config seed 3", f"config seed {value}"))
        assert main(["eval", str(ckpt), "synth:spiral"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_non_integer_layer_count_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        ckpt.write_text(ckpt.read_text().replace("encoder-layers 2", "encoder-layers x"))
        assert main(["eval", str(ckpt), "synth:spiral"]) == 2
        assert "encoder-layers" in capsys.readouterr().err

    def test_missing_layer_count_exits_2_naming_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        ckpt.write_text(ckpt.read_text().replace("encoder-layers 2\n", ""))
        assert main(["eval", str(ckpt), "synth:spiral"]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: missing key encoder-layers" in err
        assert ":0:" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("encoder-activation tanh", "encoder-activation sigmoid"),
         "unknown activation 'sigmoid'"),
        (lambda text: text.replace("encoder-layers 2", "encoder-layers 0"),
         "need one bias per weight matrix"),
        (one_by_one_k, "K and S must be"),
    ], ids=["activation", "no-layers", "one-by-one-K"])
    def test_entries_that_build_no_model_exit_2_naming_the_file(self, tmp_path, capsys,
                                                                edit, message):
        cfg = write_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        ckpt.write_text(edit(ckpt.read_text()))
        capsys.readouterr()
        assert main(["eval", str(ckpt), "synth:spiral"]) == 2
        assert f"error: {ckpt}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, bad", [("K", "nan"), ("encoder.w0", "inf")])
    def test_non_finite_entry_exits_2(self, tmp_path, capsys, name, bad):
        cfg = write_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        lines = ckpt.read_text().splitlines()
        row = next(k for k, line in enumerate(lines)
                   if line.startswith(f"matrix {name} ")) + 1
        lines[row] = " ".join([bad] + lines[row].split()[1:])
        ckpt.write_text("\n".join(lines) + "\n")
        assert main(["eval", str(ckpt), "synth:spiral"]) == 2
        err = capsys.readouterr().err
        assert f"matrix {name} row 0" in err and f"model.ckpt:{row + 1}:" in err

    @pytest.mark.parametrize("extra, message", [
        ("matrix K 4 4\n" + "0 0 0 0\n" * 4, "repeated entry 'matrix K'"),
        ("config seed 9\n", "repeated entry 'config seed'"),
        ("encoder-activation relu\n", "repeated entry 'encoder-activation'"),
        ("matrix Kold 1 1\n0.5\n", "unused matrix Kold"),
    ])
    def test_repeated_or_unused_entry_exits_2(self, tmp_path, capsys, extra, message):
        cfg = write_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        ckpt.write_text(ckpt.read_text() + extra)
        assert main(["eval", str(ckpt), "synth:spiral"]) == 2
        assert message in capsys.readouterr().err

    def test_tiny_preprocessing_dt_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        ckpt.write_text(ckpt.read_text().replace("preproc-dt 0.1", "preproc-dt 1e-300"))
        data_dir = write_csv_dir(tmp_path / "trajs", synth_stable_spiral(n_traj=3))
        assert main(["eval", str(ckpt), str(data_dir)]) == 2
        assert f"more than {MAX_GRID_STEPS}" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        code = main(["eval", str(tmp_path / "no.ckpt"), "synth:spiral"])
        assert code == 2


class TestHelp:
    @pytest.mark.parametrize("cmd", ["train", "verify", "project", "edmd", "eval"])
    def test_every_command_prints_defaults(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "default" in capsys.readouterr().out.lower()

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["unknown-command"])
        assert exc.value.code == 2


def test_unexpected_exception_exits_4(monkeypatch, tmp_path, capsys):
    def broken(args):
        raise RuntimeError("injected")

    monkeypatch.setattr("koopstab.cli.cmd_verify", broken)
    assert main(["verify", str(tmp_path / "K.csv")]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: injected" in err


def test_separate_processes_write_identical_artifacts(tmp_path):
    """Byte-identical artifacts across processes at one fixed BLAS thread count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(koopstab.__file__).parents[1]))
    for tag in ("a", "b"):
        cfg = write_config(tmp_path, epochs=5, out=str(tmp_path / tag))
        subprocess.run([sys.executable, "-m", "koopstab.cli", "train", "--config",
                        str(cfg)], env=env, check=True, capture_output=True,
                       timeout=300)
    for name in ("model.ckpt", "history.csv", "metrics.csv", "barrier.txt"):
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes(), name
