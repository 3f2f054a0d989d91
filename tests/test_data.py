"""Data layer tests: parsing, preprocessing round-trips, synthetic generators."""

import numpy as np
import pytest

from koopstab import data
from koopstab.data import (
    Dataset,
    Trajectory,
    assign_split,
    center_to_equilibrium,
    load_manifest,
    load_trajectories,
    load_trajectory,
    normalize,
    parse_row,
    resample,
    resample_dataset,
    synth_handwriting_like,
    synth_stable_spiral,
    write_manifest,
    write_trajectory_csv,
)
from koopstab.edmd import edmd_fit, lift_dataset
from koopstab.errors import (
    ContractError,
    DataError,
    DegenerateDataError,
    DimensionError,
    ParseError,
)
from helpers import rotation


def make_traj(states, dt=0.1):
    states = np.asarray(states, dtype=np.float64)
    return Trajectory(times=dt * np.arange(states.shape[0]), states=states)


class TestTrajectory:
    def test_basic_properties(self):
        t = make_traj([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]], dt=0.5)
        assert t.n_samples == 3 and t.dim == 2
        assert t.duration == pytest.approx(1.0)

    def test_non_monotone_times_rejected(self):
        with pytest.raises(DataError):
            Trajectory(times=np.array([0.0, 0.0, 1.0]), states=np.zeros((3, 2)))

    def test_non_finite_states_rejected(self):
        with pytest.raises(DataError):
            Trajectory(times=np.array([0.0, 1.0]),
                       states=np.array([[0.0], [np.nan]]))

    def test_single_sample_rejected(self):
        with pytest.raises(DataError):
            Trajectory(times=np.array([0.0]), states=np.zeros((1, 2)))

    @pytest.mark.parametrize("times, states", [
        (np.zeros((2, 1)), np.zeros((2, 2))),
        (np.arange(2.0), np.zeros(2)),
    ])
    def test_wrong_rank_rejected(self, times, states):
        with pytest.raises(DimensionError, match="times must be 1-D and states 2-D"):
            Trajectory(times=times, states=states)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 2)))


class TestCsvLoading:
    def test_three_row_file(self, tmp_path):
        f = tmp_path / "a.csv"
        f.write_text("t,x1,x2\n0.0,1.0,2.0\n0.1,3.0,4.0\n0.2,5.0,6.0\n")
        t = load_trajectory(f)
        assert t.n_samples == 3
        np.testing.assert_array_equal(t.states, [[1, 2], [3, 4], [5, 6]])
        np.testing.assert_allclose(t.times, [0.0, 0.1, 0.2])

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        with pytest.raises(DataError):
            load_trajectory(f)

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("time,x\n0,1\n1,2\n")
        with pytest.raises(ParseError):
            load_trajectory(f)

    def test_ragged_row_reports_location(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("t,x1\n0.0,1.0\n0.1\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(f)
        assert err.value.line == 3
        assert "ragged.csv" in str(err.value)

    def test_non_numeric_cell_rejected(self, tmp_path):
        f = tmp_path / "text.csv"
        f.write_text("t,x1\n0.0,1.0\n0.1,abc\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(f)
        assert err.value.line == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_entry_names_line(self, tmp_path, bad):
        f = tmp_path / "nan.csv"
        f.write_text(f"t,x1\n0.0,1.0\n0.1,{bad}\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(f)
        assert str(err.value) == f"{f}:3: sample 1: entries must be finite"

    def test_trajectory_fault_names_file(self, tmp_path):
        f = tmp_path / "back.csv"
        f.write_text("t,x1\n0.0,1.0\n0.2,2.0\n0.1,3.0\n")
        with pytest.raises(ParseError) as err:
            load_trajectory(f)
        assert str(err.value) == f"{f}: timestamps must be strictly increasing"

    def test_blank_lines_skipped(self, tmp_path):
        f = tmp_path / "gaps.csv"
        f.write_text("t,x1\n0.0,1.0\n\n0.1,2.0\n")
        assert load_trajectory(f).n_samples == 2

    def test_directory_of_files(self, tmp_path):
        for k in range(7):
            (tmp_path / f"demo{k}.csv").write_text(
                f"t,x1\n0.0,{k}.0\n0.1,{k}.5\n")
        trajs = load_trajectories(tmp_path)
        assert len(trajs) == 7
        # sorted by filename
        assert trajs[0].states[0, 0] == 0.0 and trajs[6].states[0, 0] == 6.0

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_trajectories(tmp_path)

    def test_csv_writer_round_trips_exactly(self, tmp_path):
        rng = np.random.default_rng(3)
        t = make_traj(rng.normal(size=(9, 3)))
        f = tmp_path / "rt.csv"
        write_trajectory_csv(f, t)
        back = load_trajectory(f)
        np.testing.assert_array_equal(back.states, t.states)
        np.testing.assert_array_equal(back.times, t.times)


class TestParseRow:
    def test_floats_of_tokens(self):
        assert parse_row(["1.5", " -2e3 "], "m.csv", 4, 2, "row 0") == [1.5, -2000.0]

    @pytest.mark.parametrize("tokens, message", [
        (["1.0"], "expected 2 values, got 1"),
        (["1.0", "x"], "could not convert string to float: 'x'"),
        (["1.0", "1e999"], "entries must be finite"),
        (["nan", "0"], "entries must be finite"),
    ])
    def test_fault_names_path_line_and_label(self, tokens, message):
        with pytest.raises(ParseError) as err:
            parse_row(tokens, "m.csv", 4, 2, "matrix K row 3")
        assert str(err.value) == f"m.csv:4: matrix K row 3: {message}"
        assert err.value.line == 4

    def test_any_width_without_one_given(self):
        assert parse_row(["1", "2", "3"], "m.csv", 1, None, "row 0") == [1.0, 2.0, 3.0]


class TestManifest:
    def test_round_trip_with_splits(self, tmp_path):
        for name in ("a.csv", "b.csv", "c.csv"):
            (tmp_path / name).write_text("t,x1\n0.0,1.0\n0.1,2.0\n")
        write_manifest(tmp_path / "set.txt",
                       [("a.csv", "train"), ("b.csv", "train"), ("c.csv", "val")])
        ds = load_manifest(tmp_path / "set.txt")
        assert len(ds.train) == 2 and len(ds.val) == 1

    def test_comments_and_blanks_skipped(self, tmp_path):
        (tmp_path / "a.csv").write_text("t,x1\n0.0,1.0\n0.1,2.0\n")
        (tmp_path / "m.txt").write_text("# demo set\n\na.csv,train\n")
        assert len(load_manifest(tmp_path / "m.txt").trajectories) == 1

    def test_bad_split_label_rejected(self, tmp_path):
        (tmp_path / "a.csv").write_text("t,x1\n0.0,1.0\n0.1,2.0\n")
        (tmp_path / "m.txt").write_text("a.csv,test\n")
        with pytest.raises(ParseError):
            load_manifest(tmp_path / "m.txt")


class TestResample:
    def test_uniform_grid_unchanged(self):
        t = make_traj(np.arange(10.0).reshape(5, 2), dt=0.1)
        out = resample(t, 0.1)
        np.testing.assert_allclose(out.times, t.times, atol=1e-12)
        np.testing.assert_allclose(out.states, t.states, atol=1e-12)

    def test_linear_signal_exact_on_any_grid(self):
        times = np.array([0.0, 0.3, 0.35, 0.9, 1.0])
        states = np.column_stack([2.0 * times + 1.0, -times])
        out = resample(Trajectory(times=times, states=states), 0.25)
        np.testing.assert_allclose(out.states[:, 0], 2.0 * out.times + 1.0,
                                   atol=1e-12)
        np.testing.assert_allclose(out.states[:, 1], -out.times, atol=1e-12)

    def test_endpoint_kept_when_span_divides(self):
        t = make_traj(np.zeros((11, 1)), dt=0.05)
        out = resample(t, 0.1)
        assert out.times[-1] == pytest.approx(0.5)

    def test_too_short_span_rejected(self):
        t = make_traj(np.zeros((2, 1)), dt=0.01)
        with pytest.raises(DataError):
            resample(t, 0.1)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ContractError):
            resample(make_traj(np.zeros((3, 1))), 0.0)

    @pytest.mark.parametrize("times, dt", [
        ([0.0, 8.0], 1e-300),      # tiny dt
        ([0.0, 8.0], 5e-324),      # span / dt overflows to inf
        ([0.0, 1e300], 0.1),       # huge span
    ])
    def test_oversized_grid_rejected_before_allocating(self, times, dt):
        t = Trajectory(times=np.array(times), states=np.zeros((2, 1)))
        with pytest.raises(DataError, match="steps"):
            resample(t, dt)

    def test_grid_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(data, "MAX_GRID_STEPS", 10)
        t = make_traj(np.zeros((3, 1)), dt=0.5)
        assert resample(t, 0.1).n_samples == 11
        with pytest.raises(DataError, match="more than 10"):
            resample(t, 0.09)

    def test_nan_dt_rejected(self):
        with pytest.raises(ContractError):
            resample(make_traj(np.zeros((3, 1))), float("nan"))

    def test_dataset_resample_records_dt(self):
        ds = synth_stable_spiral(n_traj=3, length=10, dt=0.05, n_val=1)
        out = resample_dataset(ds, 0.1)
        assert out.preprocessing.dt == 0.1
        assert all(t.times[1] - t.times[0] == pytest.approx(0.1)
                   for t in out.trajectories)


class TestPreprocessing:
    def _dataset(self, rng):
        trajs = tuple(make_traj(rng.normal(size=(6, 2)) + 5.0) for _ in range(3))
        return Dataset(trajectories=trajs, split=("train", "train", "val"))

    def test_centering_moves_mean_final_point_to_origin(self):
        rng = np.random.default_rng(10)
        ds = center_to_equilibrium(self._dataset(rng))
        finals = np.array([t.states[-1] for t in ds.trajectories])
        np.testing.assert_allclose(finals.mean(axis=0), 0.0, atol=1e-12)

    def test_round_trip_restores_raw_states(self):
        rng = np.random.default_rng(12)
        ds = self._dataset(rng)
        out = normalize(center_to_equilibrium(ds))
        for raw, proc in zip(ds.trajectories, out.trajectories):
            np.testing.assert_allclose(
                out.preprocessing.invert(proc.states), raw.states, atol=1e-12)
            np.testing.assert_allclose(
                out.preprocessing.apply(raw.states), proc.states, atol=1e-12)

    def test_normalize_uses_train_split_only(self):
        t_train = make_traj([[2.0, 1.0], [-4.0, 0.5]])
        t_val = make_traj([[100.0, 100.0], [50.0, 50.0]])
        ds = Dataset(trajectories=(t_train, t_val), split=("train", "val"))
        out = normalize(ds)
        np.testing.assert_allclose(out.preprocessing.scale, [4.0, 1.0])
        assert np.abs(out.trajectories[0].states).max() == pytest.approx(1.0)
        assert out.trajectories[1].states.max() > 1.0

    def test_zero_dimension_rejected(self):
        t = make_traj([[1.0, 0.0], [2.0, 0.0]])
        ds = Dataset(trajectories=(t,), split=("train",))
        with pytest.raises(DegenerateDataError):
            normalize(ds)

    def test_centering_an_empty_dataset_rejected(self):
        with pytest.raises(DataError, match="cannot center an empty dataset"):
            center_to_equilibrium(Dataset(trajectories=(), split=()))

    def test_normalize_without_train_split_rejected(self):
        ds = Dataset(trajectories=(make_traj([[1.0, 2.0], [2.0, 3.0]]),),
                     split=("val",))
        with pytest.raises(DataError, match="needs a non-empty train split"):
            normalize(ds)

    def test_center_after_normalize_rejected(self):
        rng = np.random.default_rng(13)
        ds = normalize(self._dataset(rng))
        with pytest.raises(ContractError):
            center_to_equilibrium(ds)

    def test_double_normalize_rejected(self):
        rng = np.random.default_rng(14)
        ds = normalize(self._dataset(rng))
        with pytest.raises(ContractError):
            normalize(ds)


class TestSplit:
    def test_five_two_protocol(self):
        labels = assign_split(7, 2)
        assert labels.count("train") == 5 and labels.count("val") == 2

    def test_invalid_counts_rejected(self):
        with pytest.raises(ContractError):
            assign_split(3, 3)


class TestSpiralGenerator:
    def test_single_step_matches_rotation_scale(self):
        ds = synth_stable_spiral(n_traj=1, length=1, dt=0.1, decay=0.9,
                                 angular_rate=2.0, seed=5, n_val=0)
        s = ds.trajectories[0].states
        expected = 0.9 * rotation(0.2) @ s[0]
        np.testing.assert_allclose(s[1], expected, atol=1e-12)

    def test_edmd_recovers_generator(self):
        ds = synth_stable_spiral(n_traj=4, length=30, dt=0.1, decay=0.95,
                                 angular_rate=1.5, seed=6, n_val=1)
        K = edmd_fit(lift_dataset([t.states for t in ds.trajectories]))
        expected = 0.95 * rotation(0.15)
        assert np.abs(K - expected).max() <= 1e-8

    def test_norms_decay(self):
        ds = synth_stable_spiral(n_traj=3, length=50, decay=0.9, seed=7, n_val=1)
        for t in ds.trajectories:
            norms = np.linalg.norm(t.states, axis=1)
            assert norms[-1] < norms[0]

    def test_deterministic_under_seed(self):
        a = synth_stable_spiral(seed=8, noise=0.01)
        b = synth_stable_spiral(seed=8, noise=0.01)
        for ta, tb in zip(a.trajectories, b.trajectories):
            np.testing.assert_array_equal(ta.states, tb.states)

    def test_bad_decay_rejected(self):
        with pytest.raises(ContractError):
            synth_stable_spiral(decay=1.0)


class TestHandwritingGenerator:
    def test_final_points_exactly_origin(self):
        ds = synth_handwriting_like(noise=0.5, seed=9)
        for t in ds.trajectories:
            assert np.all(t.states[-1] == 0.0)

    def test_deterministic_under_seed(self):
        a = synth_handwriting_like(seed=10, noise=0.3)
        b = synth_handwriting_like(seed=10, noise=0.3)
        for ta, tb in zip(a.trajectories, b.trajectories):
            np.testing.assert_array_equal(ta.states, tb.states)

    def test_default_split_matches_demonstration_protocol(self):
        ds = synth_handwriting_like()
        assert len(ds.train) == 5 and len(ds.val) == 2

    def test_desk_scale_and_duration(self):
        ds = synth_handwriting_like(seed=11)
        t = ds.trajectories[0]
        peak = np.abs(t.states).max()
        assert 5.0 < peak < 100.0  # tens of mm
        assert t.duration == pytest.approx(8.0)

    def test_trajectories_vary_across_demonstrations(self):
        ds = synth_handwriting_like(seed=12)
        a, b = ds.trajectories[0].states, ds.trajectories[1].states
        assert np.abs(a - b).max() > 1e-3


class TestDataset:
    def test_split_must_cover_all(self):
        t = make_traj(np.zeros((3, 2)) + 1.0)
        with pytest.raises(DimensionError):
            Dataset(trajectories=(t,), split=())

    def test_unknown_label_rejected(self):
        t = make_traj(np.ones((3, 2)))
        with pytest.raises(ContractError):
            Dataset(trajectories=(t,), split=("test",))

    def test_mixed_dims_rejected(self):
        a = make_traj(np.ones((3, 2)))
        b = make_traj(np.ones((3, 3)))
        with pytest.raises(DimensionError):
            Dataset(trajectories=(a, b), split=("train", "val"))

    def test_empty_dataset_has_no_dimension(self):
        with pytest.raises(DataError, match="empty dataset has no dimension"):
            Dataset(trajectories=(), split=()).dim
