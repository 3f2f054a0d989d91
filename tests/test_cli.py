"""Command-line interface tests: config parsing, commands, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import koopstab
from koopstab.cli import (
    RunConfig,
    load_run_config,
    main,
    read_matrix,
    write_matrix,
)
from koopstab.errors import ConfigError, ParseError
from koopstab.model import LossWeights, load_checkpoint
from koopstab.stability import certify_stable


class TestRunConfig:
    def test_defaults_match_reference_hyperparameters(self):
        c = RunConfig()
        assert c.pred_weight == 1.0 and c.lin_weight == 0.1
        assert c.rec_weight == 1.0 and c.alpha == 1.0
        assert c.lr == 1e-3 and c.hidden == (50, 50, 50)
        assert c.lift_dim == 20 and c.dt == 0.1

    def test_train_config_carries_weights(self):
        tc = RunConfig(horizon=4, lin_weight=0.5).train_config()
        assert tc.weights == LossWeights(pred=1.0, lin=0.5, rec=1.0, horizon=4)

    def test_every_field_has_a_default(self):
        RunConfig()  # constructible with no arguments


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
        assert c.data == "synth:spiral" and c.epochs == 12
        assert c.hidden == (8, 8) and c.alpha == 0.5 and c.early_stop is True

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


    @pytest.mark.parametrize("key, value", [("lift_dim", 0), ("hidden", "6, 0")])
    def test_empty_layer_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        assert main(["train", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    def test_dictionary_key_is_unknown_to_train(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dictionary="monomials:2")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "dictionary" in capsys.readouterr().err

    def test_zero_variance_validation_trajectory_exits_3(self, tmp_path, capsys):
        from koopstab.data import Trajectory, synth_stable_spiral, write_trajectory_csv
        data_dir = tmp_path / "trajs"
        data_dir.mkdir()
        for k, t in enumerate(synth_stable_spiral(n_traj=2, length=20, seed=5,
                                                           n_val=0).trajectories):
            write_trajectory_csv(data_dir / f"t{k}.csv", t)
        # 0.3 does not survive the mean exactly: the variance is ~1e-33, not 0
        for level in (0.0, 0.3):
            flat = Trajectory(times=np.arange(20) * 0.1,
                              states=np.full((20, 2), level))
            write_trajectory_csv(data_dir / "t2.csv", flat)  # sorts last: the val split
            # scored while training only: the final report reads the train split
            cfg = write_config(tmp_path, data=str(data_dir), dt=0, center="false",
                               epochs=2, early_stop="true", eval_split="train")
            assert main(["train", "--config", str(cfg)]) == 3
            assert "zero variance" in capsys.readouterr().err


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


class TestEdmdCommand:
    def test_recovers_generator_and_reports(self, tmp_path, capsys):
        from koopstab.data import synth_stable_spiral, write_trajectory_csv
        dataset = synth_stable_spiral(n_traj=3, length=30, decay=0.9, seed=5,
                                      n_val=0)
        data_dir = tmp_path / "trajs"
        data_dir.mkdir()
        for k, t in enumerate(dataset.trajectories):
            write_trajectory_csv(data_dir / f"t{k}.csv", t)
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


class TestEvalCommand:
    def test_scores_checkpoint_on_dataset(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=5)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        code = main(["eval", str(ckpt), "synth:spiral", "--n-val", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nmse" in out.lower()

    def test_non_integer_layer_count_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        ckpt.write_text(ckpt.read_text().replace("encoder-layers 2", "encoder-layers x"))
        assert main(["eval", str(ckpt), "synth:spiral", "--n-val", "1"]) == 2
        assert "encoder-layers" in capsys.readouterr().err

    def test_missing_layer_count_exits_2_naming_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run" / "model.ckpt"
        ckpt.write_text(ckpt.read_text().replace("encoder-layers 2\n", ""))
        assert main(["eval", str(ckpt), "synth:spiral", "--n-val", "1"]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: missing key encoder-layers" in err
        assert ":0:" not in err

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
        assert main(["eval", str(ckpt), "synth:spiral", "--n-val", "1"]) == 2
        err = capsys.readouterr().err
        assert f"matrix {name} row 0" in err and f"model.ckpt:{row + 1}:" in err

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
