"""Trainer tests: Adam mechanics, safety invariants, determinism, evaluation."""

import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import koopstab
from koopstab import trainer
from koopstab.data import Dataset, Trajectory, synth_stable_spiral
from koopstab.errors import ContractError, DataError, DegenerateDataError, NumericError
from koopstab.metrics import nmse
from koopstab.model import KoopmanModel, LossWeights, MlpParams, check_tape_fits
from koopstab.stability import barrier_values, certify_stable, spectral_radius
from koopstab.trainer import (
    AdamState,
    IterationRecord,
    TrainConfig,
    TrainHistory,
    adam_step,
    evaluate,
    train,
)

from helpers import (
    PlainAdamState,
    adam_step_reference,
    min_margins,
    same_bits,
    with_mlp_dtype,
)


def small_config(**over):
    base = dict(lr=1e-2, epochs=30, weights=LossWeights(horizon=3), seed=1)
    base.update(over)
    return TrainConfig(**base)


def small_dataset(seed=20, n_traj=3, length=20):
    return synth_stable_spiral(n_traj=n_traj, length=length, dt=0.1, decay=0.95,
                               angular_rate=1.2, noise=0.005, seed=seed, n_val=1)


def small_model(seed=21, dtype=np.float32, **over):
    kwargs = dict(n=2, d=3, hidden=(8,), seed=seed)
    kwargs.update(over)
    return with_mlp_dtype(KoopmanModel.init(**kwargs), dtype)


def _raising(exc):
    def call(*args):
        raise exc
    return call


class TestKeepHeap:
    def test_calling_twice_sets_the_same_thresholds(self, monkeypatch):
        calls = []
        monkeypatch.setattr(trainer, "_find_mallopt",
                            lambda: lambda param, value: calls.append((param, value)))
        trainer.keep_heap()
        trainer.keep_heap()
        assert len(calls) == 4 and calls[:2] == calls[2:]
        # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD as glibc's malloc.h numbers them
        assert dict(calls) == {-3: 32 << 20, -1: 512 << 20}

    def test_real_call_twice_is_harmless(self):
        assert trainer.keep_heap() is None
        assert trainer.keep_heap() is None

    @pytest.mark.parametrize("module, name, replacement", [
        ("os", "confstr", lambda name: "musl 1.2"),
        ("os", "confstr", _raising(ValueError("unknown name"))),
        ("ctypes", "CDLL", lambda name: object()),
        ("ctypes", "CDLL", _raising(OSError("no C library"))),
    ], ids=["not_glibc", "no_confstr", "no_symbol", "no_library"])
    def test_returns_silently_when_mallopt_is_not_found(self, monkeypatch, module,
                                                         name, replacement):
        monkeypatch.setattr(getattr(trainer, module), name, replacement)
        assert trainer._find_mallopt() is None
        assert trainer.keep_heap() is None

    def test_train_calls_it_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(trainer, "keep_heap", lambda: calls.append("keep_heap"))
        train(small_model(), small_dataset(), small_config(epochs=2))
        assert calls == ["keep_heap"]


class TestTrainConfig:
    def test_reference_defaults(self):
        c = TrainConfig()
        assert c.lr == 1e-3 and c.alpha == 1.0 and c.epochs == 3000
        assert c.weights == LossWeights(1.0, 0.1, 1.0, horizon=10)

    @pytest.mark.parametrize("bad", [
        dict(lr=0.0), dict(epochs=0), dict(batch_size=-1), dict(alpha=0.0),
        dict(alpha=1.5), dict(mode="spectral"), dict(margin=-0.1), dict(patience=0),
        dict(lr=float("nan")), dict(lr=float("inf")), dict(margin=1.0), dict(margin=1.5),
        dict(alpha=float("nan")), dict(alpha=float("inf")), dict(alpha=float("-inf")),
        dict(margin=float("inf")), dict(margin=float("-inf")),
        dict(margin=float("nan")), dict(seed=-1)])
    def test_invalid_fields_rejected(self, bad):
        with pytest.raises(ContractError):
            TrainConfig(**bad)


def moments(state, params):
    """Each parameter's m and v, read from the Adam state's per-dtype buffers."""
    m, v = {}, {}
    for names, m_buf, v_buf in state.groups:
        m.update(trainer._flat_views(m_buf, names, params))
        v.update(trainer._flat_views(v_buf, names, params))
    return m, v


class TestAdamStep:
    def test_zero_gradient_is_exact_noop(self):
        params = {"w": np.array([[1.0, -2.0]])}
        grads = {"w": np.zeros((1, 2))}
        state = AdamState.init(params)
        assert adam_step(params, grads, state, TrainConfig()) is None
        np.testing.assert_array_equal(params["w"], [[1.0, -2.0]])

    def test_first_step_magnitude_is_learning_rate(self):
        config = TrainConfig(lr=1e-3)
        params = {"w": np.array([[0.5]])}
        grads = {"w": np.array([[7.0]])}
        adam_step(params, grads, AdamState.init(params), config)
        step = float(0.5 - params["w"][0, 0])
        assert step == pytest.approx(1e-3, rel=1e-6)
        assert np.sign(step) == np.sign(7.0)

    def test_quadratic_bowl_converges(self):
        target = np.array([[0.3, -1.2], [2.0, 0.1]])
        params = {"w": np.zeros((2, 2))}
        state = AdamState.init(params)
        config = TrainConfig(lr=1e-2)
        for _ in range(5000):
            grads = {"w": 2.0 * (params["w"] - target)}
            adam_step(params, grads, state, config)
            if np.abs(params["w"] - target).max() <= 1e-6:
                break
        assert np.abs(params["w"] - target).max() <= 1e-6

    def test_nan_gradient_rejected(self):
        params = {"w": np.zeros((2, 2))}
        grads = {"w": np.full((2, 2), np.nan)}
        with pytest.raises(NumericError):
            adam_step(params, grads, AdamState.init(params), TrainConfig())

    @pytest.mark.parametrize("p, g", [
        (1.5e308, -1.0),  # the update itself overflows
        (0.0, 1e200),     # the second moment overflows
    ])
    def test_overflowing_update_rejected_naming_parameter(self, p, g):
        params = {"w": np.array([[0.0, p]])}
        grads = {"w": np.array([[0.0, g]])}
        # an overflow warning would fail here too: pytest turns it into an error
        with pytest.raises(NumericError, match="'w'"):
            adam_step(params, grads, AdamState.init(params), TrainConfig(lr=1e308))

    def test_matches_the_plain_update_bit_for_bit(self):
        rng = np.random.default_rng(60)
        shapes = {"w": (4, 3), "b": (4, 1)}
        # parameters far below the step keep its rounding in their bits
        params = {k: rng.standard_normal(s) * 10.0 ** rng.integers(-12, 1, s)
                  for k, s in shapes.items()}
        fast_params = {k: p.copy() for k, p in params.items()}
        slow_params = params
        fast, slow = AdamState.init(params), PlainAdamState.init(params)
        config = TrainConfig(lr=3e-2)
        for _ in range(6):
            grads = {k: rng.standard_normal(s) * 10.0 ** rng.integers(-9, 9, s)
                     for k, s in shapes.items()}
            grads["w"][0] = -0.0
            assert adam_step(fast_params, grads, fast, config) is None
            slow_params = adam_step_reference(slow_params, grads, slow, config)
            assert fast.step == slow.step
            m, v = moments(fast, params)
            for k in shapes:
                # the arrays passed in now hold the reference's new values
                assert same_bits(fast_params[k], slow_params[k])
                assert same_bits(m[k], slow.m[k])
                assert same_bits(v[k], slow.v[k])

    def test_matches_the_plain_update_bit_for_bit_on_mixed_dtypes(self):
        """float32 and float64 parameters interleaved, as no model orders them."""
        rng = np.random.default_rng(61)
        shapes = {"w": ((4, 3), np.float32), "K": ((3, 3), np.float64),
                  "b": ((4, 1), np.float32), "S": ((3, 3), np.float64)}
        params = {k: (rng.standard_normal(s) * 10.0 ** rng.integers(-12, 1, s)).astype(dt)
                  for k, (s, dt) in shapes.items()}
        fast_params = {k: p.copy() for k, p in params.items()}
        slow_params = params
        fast, slow = AdamState.init(params), PlainAdamState.init(params)
        config = TrainConfig(lr=3e-2)

        def same(a, b):
            return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

        for _ in range(6):
            grads = {k: (rng.standard_normal(s) * 10.0 ** rng.integers(-9, 9, s)).astype(dt)
                     for k, (s, dt) in shapes.items()}
            grads["K"][0] = -0.0
            assert adam_step(fast_params, grads, fast, config) is None
            slow_params = adam_step_reference(slow_params, grads, slow, config)
            m, v = moments(fast, params)
            for k in shapes:
                assert same(fast_params[k], slow_params[k]), k
                assert same(m[k], slow.m[k]) and same(v[k], slow.v[k]), k

    def test_moments_are_one_buffer_pair_per_dtype(self):
        params = small_model().get_params()
        state = AdamState.init(params)
        mlp = tuple(name for name in params if name not in ("K", "S"))
        assert [(names, m.dtype, v.dtype) for names, m, v in state.groups] == [
            (mlp, np.float32, np.float32), (("K", "S"), np.float64, np.float64)]
        for names, m_buf, v_buf in state.groups:
            assert m_buf.size == v_buf.size == sum(params[name].size for name in names)
        adam_step(params, {name: np.ones_like(p) for name, p in params.items()}, state,
                  small_config())
        for _, m_buf, v_buf in state.groups:
            assert np.all(m_buf != 0.0) and np.all(v_buf != 0.0)

    @pytest.mark.parametrize("bad, grad, lr, message", [
        # float32 b overflows; the dtype's parameters are left as they were
        ("b", [[0.0, -1.0]], 1e38, "left parameter 'b'"),
        # float64 K's second moment overflows
        ("K", [[0.0, 1e200]], 1e-3, "left parameter 'K'"),
        ("S", [[0.0, np.nan]], 1e-3, "non-finite gradient in parameter 'S'"),
    ])
    def test_errors_name_the_parameter_in_a_mixed_dict(self, bad, grad, lr, message):
        params = {"a": np.zeros((2, 2), np.float32), "b": np.array([[0.0, 3e38]], np.float32),
                  "K": np.zeros((1, 2)), "S": np.zeros((1, 2))}
        before = {name: p.copy() for name, p in params.items()}
        grads = {name: np.zeros_like(p) for name, p in params.items()}
        grads[bad] = np.array(grad, params[bad].dtype)
        with pytest.raises(NumericError, match=message):
            adam_step(params, grads, AdamState.init(params), TrainConfig(lr=lr))
        assert all(np.array_equal(params[name], before[name]) for name in ("a", "b"))

    def test_gradient_that_overflows_its_parameters_dtype_is_named(self):
        # a float64 gradient beyond float32's range is non-finite in the update
        params = {"a": np.zeros((1, 2), np.float32), "b": np.zeros((1, 2), np.float32)}
        grads = {"a": np.zeros((1, 2)), "b": np.array([[0.0, 1e300]])}
        with pytest.raises(NumericError, match="non-finite gradient in parameter 'b'"):
            adam_step(params, grads, AdamState.init(params), TrainConfig())

    def test_name_mismatch_rejected(self):
        params = {"w": np.zeros(2)}
        with pytest.raises(ContractError):
            adam_step(params, {"q": np.zeros(2)}, AdamState.init(params),
                      TrainConfig())

    def test_gradient_shape_mismatch_rejected(self):
        # a (1, 1) gradient would broadcast into the moments without the check
        params = {"w": np.zeros((2, 2))}
        with pytest.raises(ContractError, match="gradient shape"):
            adam_step(params, {"w": np.ones((1, 1))}, AdamState.init(params),
                      TrainConfig())
        # among parameters of two dtypes, the message names the one at fault
        params = {"a": np.zeros((2, 1), np.float32), "K": np.zeros((2, 2))}
        with pytest.raises(ContractError, match="^K: gradient shape"):
            adam_step(params, {"a": np.zeros((2, 1), np.float32), "K": np.zeros((2, 1))},
                      AdamState.init(params), TrainConfig())

    def test_parameters_the_state_was_not_built_for_rejected(self):
        params = {"w": np.zeros(2)}
        with pytest.raises(ContractError, match="Adam state"):
            adam_step(params, {"w": np.ones(2)}, AdamState.init({"q": np.zeros(2)}),
                      TrainConfig())


class TestTrainHistory:
    def _record(self, h_pre, h_post, it=0):
        return IterationRecord(
            iteration=it, epoch=0, total=1.0, pred=1.0, lin=0.0, rec=0.0,
            h_pre=np.asarray(h_pre, dtype=float),
            h_unprojected=np.asarray(h_pre, dtype=float),
            h_post=np.asarray(h_post, dtype=float),
            displacement=0.0, val_nmse=float("nan"), wall_time=0.0)

    def test_contract_violation_rejected(self):
        history = TrainHistory(alpha=0.5)
        with pytest.raises(ContractError):
            history.append(self._record(h_pre=[-0.4], h_post=[-0.3]))

    def test_contract_satisfied_accepted(self):
        history = TrainHistory(alpha=0.5)
        history.append(self._record(h_pre=[-0.4], h_post=[-0.2]))
        history.append(self._record(h_pre=[0.3], h_post=[0.0], it=1))
        assert len(history) == 2

    def test_csv_has_stable_header_and_no_wall_clock(self):
        history = TrainHistory(alpha=1.0)
        history.append(self._record(h_pre=[0.1], h_post=[0.1]))
        lines = history.to_csv().splitlines()
        assert lines[0] == ("iteration,epoch,total,pred,lin,rec,margin_pre,"
                            "margin_unprojected,margin_post,displacement,val_nmse")
        assert "wall" not in lines[0]
        assert len(lines) == 2


class TestTrainLoop:
    def test_loss_decreases_and_stays_certified(self):
        model = small_model()
        dataset = small_dataset()
        history = train(model, dataset, small_config())
        assert len(history) == 30
        totals = [r.total for r in history.records]
        assert totals[-1] < totals[0]
        # certified from step zero means certified at tolerance 0 throughout
        assert np.all(min_margins(history) >= 0.0)
        assert certify_stable(model.K, margin_tol=0.0).certified

    def test_bitwise_deterministic_under_seed(self):
        a_model, b_model = small_model(), small_model()
        dataset = small_dataset()
        a_hist = train(a_model, dataset, small_config())
        b_hist = train(b_model, dataset, small_config())
        assert a_hist.to_csv() == b_hist.to_csv()
        for name, arr in a_model.get_params().items():
            np.testing.assert_array_equal(b_model.get_params()[name], arr)

    def test_seed_changes_the_run(self):
        dataset = small_dataset()
        a, b = small_model(), small_model()
        train(a, dataset, small_config(batch_size=1, seed=1, epochs=5))
        train(b, dataset, small_config(batch_size=1, seed=2, epochs=5))
        assert np.any(a.K != b.K)

    def test_infeasible_start_recovers_geometrically(self):
        model = small_model(k_init="infeasible")
        dataset = small_dataset()
        config = small_config(alpha=0.5, epochs=40)
        h0 = barrier_values(model.K).margin
        assert h0 < 0.0
        history = train(model, dataset, config)
        margins = min_margins(history)
        for prev, cur in zip(margins[:-1], margins[1:]):
            if prev < 0.0:
                assert cur >= prev - 1e-12  # never regresses while infeasible
            else:
                assert cur >= -1e-15  # never falls back out of the set
        # alpha^t h0 is the guaranteed approach rate
        assert margins[-1] >= 0.5 ** len(margins) * h0 - 1e-12
        assert margins[-1] >= -1e-9

    def test_mini_batching_runs_every_trajectory(self):
        model = small_model()
        dataset = small_dataset(n_traj=4)
        history = train(model, dataset, small_config(batch_size=1, epochs=3))
        # 3 train trajectories (one is validation), one iteration each
        assert len(history) == 9
        assert [r.epoch for r in history.records] == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_displacement_zero_when_update_feasible(self):
        model = small_model()
        dataset = small_dataset()
        # tiny learning rate keeps K deep inside the feasible set
        history = train(model, dataset, small_config(lr=1e-6, epochs=3))
        assert all(r.displacement == 0.0 for r in history.records)

    def test_early_stopping_halts_before_budget(self):
        model = small_model()
        dataset = small_dataset()
        # a learning rate below float resolution pins every parameter, so
        # validation NMSE is exactly constant and the plateau must trigger
        config = small_config(epochs=300, early_stop=True, patience=3, lr=1e-300)
        history = train(model, dataset, config)
        assert len(history) < 300
        assert np.isfinite(history.records[-1].val_nmse)

    def test_early_stopping_counts_epochs_since_the_last_real_improvement(self,
                                                                          monkeypatch):
        # epochs 0 and 1 improve; epoch 2 scores exactly 1e-12 below the
        # best, which is no improvement, so at patience 3 training stops
        # after epoch 4, three epochs past epoch 1
        scripted = iter([1.0, 0.5, 0.5 - 1e-12])
        monkeypatch.setattr(trainer, "nmse", lambda preds, truths: next(scripted, 0.5))
        history = train(small_model(), small_dataset(),
                        small_config(epochs=20, early_stop=True, patience=3))
        assert [r.val_nmse for r in history.records] == [1.0, 0.5, 0.5 - 1e-12, 0.5, 0.5]

    def test_after_epoch_follows_each_epochs_last_step_and_the_stopping_epoch(
            self, monkeypatch):
        steps, seen = [], []
        original = trainer.adam_step
        monkeypatch.setattr(trainer, "adam_step",
                            lambda *args: steps.append(1) or original(*args))
        train(small_model(), small_dataset(), small_config(epochs=3, batch_size=1),
              lambda epoch: seen.append((epoch, len(steps))))
        assert seen == [(0, 2), (1, 4), (2, 6)]  # two train trajectories, one per step
        # early stopping ends this run after epoch 4 of 20 (see the test above)
        scripted = iter([1.0, 0.5, 0.5 - 1e-12])
        monkeypatch.setattr(trainer, "nmse", lambda preds, truths: next(scripted, 0.5))
        seen.clear()
        train(small_model(), small_dataset(),
              small_config(epochs=20, early_stop=True, patience=3), seen.append)
        assert seen == [0, 1, 2, 3, 4]

    def test_iteration_counts_steps_and_wall_time_measures_each(self):
        started = time.perf_counter()
        history = train(small_model(), small_dataset(),
                        small_config(epochs=3, batch_size=1))
        elapsed = time.perf_counter() - started
        assert [r.iteration for r in history.records] == list(range(len(history)))
        walls = [r.wall_time for r in history.records]
        assert all(w > 0.0 for w in walls)
        assert sum(walls) <= elapsed

    def test_validation_forms_the_effective_matrix_once_per_pass(self, monkeypatch):
        # validation takes S^-1 K S from the next step's tape, so training
        # never asks the model to form it
        calls = []
        original = KoopmanModel.effective_matrix

        def counting(model):
            calls.append(1)
            return original(model)

        monkeypatch.setattr(KoopmanModel, "effective_matrix", counting)
        dataset = synth_stable_spiral(n_traj=5, length=20, seed=20, n_val=3)
        history = train(small_model(), dataset, small_config(epochs=4, early_stop=True))
        assert len(calls) == 0
        assert all(np.isfinite(r.val_nmse) for r in history.records)

    def test_early_stop_run_inverts_s_once_per_step_plus_one(self, monkeypatch):
        # validation inverts the updated S on the next step's tape, and that
        # step's loss reuses the inverse
        calls = []
        original = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(1) or original(a))
        history = train(small_model(), small_dataset(),
                        small_config(epochs=4, batch_size=1, early_stop=True))
        assert len(history) == 8
        assert len(calls) == len(history) + 1

    @pytest.mark.parametrize("d, batch_size", [(20, 0), (200, 2)])
    def test_val_nmse_is_the_untaped_models_score(self, d, batch_size):
        # validation scores with S^-1 K S from the next step's tape; the model
        # that training leaves behind forms the same matrix and the same score
        dataset = small_dataset(n_traj=5)
        model = small_model(d=d)
        history = train(model, dataset, small_config(epochs=4, batch_size=batch_size,
                                                     early_stop=True))
        Keff = model.effective_matrix()
        preds = [model.predict_states(t.states[0], t.n_samples - 1, Keff=Keff)
                 for t in dataset.val]
        score = nmse(preds, [t.states[1:] for t in dataset.val])
        assert np.isfinite(score)
        assert repr(history.records[-1].val_nmse) == repr(score)

    def test_refusing_a_batch_over_the_tape_limit_allocates_nothing(self):
        # three 8-s spirals of 160,001 samples at dt = 5e-5 in one batch:
        # 479,973 windows at H = 10, 1.87 GiB of tape, whose window indices
        # alone would take 44 MB
        trajectory = Trajectory(times=5e-5 * np.arange(160001),
                                states=np.zeros((160001, 2)))
        dataset = Dataset(trajectories=(trajectory,) * 3, split=("train",) * 3)
        model = KoopmanModel.init(n=2, d=20, hidden=(50, 50, 50))
        for refuse in (lambda: check_tape_fits(model, [160001] * 3, 10),
                       lambda: train(model, dataset, TrainConfig(epochs=1))):
            tracemalloc.start()
            try:
                with pytest.raises(DataError, match="479973 windows of 3 trajectories"):
                    refuse()
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20 and held < 1 << 16

    def test_zero_variance_validation_trajectory_raises(self):
        dataset = small_dataset()
        flat = Trajectory(times=np.arange(20) * 0.1, states=np.zeros((20, 2)))
        degenerate = type(dataset)(trajectories=dataset.trajectories + (flat,),
                                   split=dataset.split + ("val",),
                                   preprocessing=dataset.preprocessing)
        with pytest.raises(DegenerateDataError):
            train(small_model(), degenerate, small_config(epochs=2, early_stop=True))

    def test_divergent_forward_raises_numeric_error(self):
        # identity activations let a huge weight overflow the loss to inf;
        # each weight fits its dtype (1e200 would overflow in the cast to
        # float32), and the forward's loss check names the overflow before
        # any gradient exists
        dataset = small_dataset()
        for dtype, weight in ((np.float64, 1e200), (np.float32, 1e30)):
            model = with_mlp_dtype(KoopmanModel.init(n=2, d=3, hidden=(4,), seed=3,
                                                     activation="identity"), dtype)
            model.encoder.weights[0][:] = weight
            with np.errstate(over="ignore"), pytest.raises(
                    NumericError, match="loss became non-finite"):
                train(model, dataset, small_config(epochs=2))

    def test_empty_train_split_rejected(self):
        dataset = small_dataset()
        empty = type(dataset)(trajectories=dataset.trajectories,
                              split=("val",) * len(dataset.trajectories),
                              preprocessing=dataset.preprocessing)
        with pytest.raises(DataError):
            train(small_model(), empty, small_config())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_keeps_each_parameters_dtype(self, dtype):
        model = small_model(dtype=dtype)
        params = model.get_params()
        state = AdamState.init(params)
        grads = {name: np.ones_like(p) for name, p in params.items()}
        adam_step(params, grads, state, small_config())
        m, v = moments(state, params)
        for name, p in model.get_params().items():
            want = np.float64 if name in ("K", "S") else dtype
            assert p.dtype == m[name].dtype == v[name].dtype == want, name

    def test_training_writes_the_models_own_arrays(self):
        model = small_model()
        before = {name: (arr, arr.copy()) for name, arr in model.get_params().items()}
        train(model, small_dataset(), small_config(epochs=2))
        for name, arr in model.get_params().items():
            passed, values = before[name]
            assert arr is passed, name
            assert not np.array_equal(arr, values), name

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ContractError):
            train(KoopmanModel.init(n=3, d=4, hidden=(4,)), small_dataset(),
                  small_config())


class TestEvaluate:
    def test_perfect_linear_model_scores_zero(self):
        theta = 1.2 * 0.1
        A = 0.95 * np.array([[np.cos(theta), -np.sin(theta)],
                             [np.sin(theta), np.cos(theta)]])
        def eye():
            return MlpParams(weights=[np.eye(2)], biases=[np.zeros((2, 1))],
                             activation="identity")
        model = KoopmanModel(encoder=eye(), decoder=eye(), K=A, S=np.eye(2))
        clean = synth_stable_spiral(n_traj=3, length=20, dt=0.1, decay=0.95,
                                    angular_rate=1.2, noise=0.0, seed=22, n_val=1)
        report = evaluate(model, clean, split="val")
        assert report.nmse <= 1e-16
        assert report.norm_std <= 1e-8
        assert report.spectral_radius == pytest.approx(0.95, abs=1e-10)

    def test_report_covers_each_validation_trajectory(self):
        model = small_model(seed=23)
        dataset = small_dataset(n_traj=5)
        report = evaluate(model, dataset, split="val")
        assert len(report.per_trajectory) == 1
        report_train = evaluate(model, dataset, split="train")
        assert len(report_train.per_trajectory) == 4

    def test_empty_split_rejected(self):
        model = small_model(seed=24)
        dataset = synth_stable_spiral(n_traj=2, length=10, n_val=0, seed=25)
        with pytest.raises(DataError):
            evaluate(model, dataset, split="val")

    def test_barrier_margin_matches_certificate(self):
        model = small_model(seed=26)
        dataset = small_dataset()
        report = evaluate(model, dataset, split="train")
        assert report.barrier_margin == pytest.approx(
            certify_stable(model.K).report.margin)

    def test_one_spectral_radius_per_evaluation(self, monkeypatch):
        model = small_model(seed=26)
        dataset = small_dataset()
        calls = []

        def counting(K):
            calls.append(K)
            return spectral_radius(K)

        # the trainer's own import and the one certify_stable looks up
        monkeypatch.setattr("koopstab.trainer.spectral_radius", counting)
        monkeypatch.setattr("koopstab.stability.spectral_radius", counting)
        report = evaluate(model, dataset, split="val")
        assert len(calls) == 1
        assert report.spectral_radius == spectral_radius(model.effective_matrix())
        assert report.barrier_margin == certify_stable(model.K).report.margin

    def test_evaluation_inverts_s_once(self, monkeypatch):
        # the predictions and the spectral radius share one S^-1 K S
        calls = []
        original = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(1) or original(a))
        evaluate(small_model(seed=26), small_dataset(), split="val")
        assert len(calls) == 1


def test_training_loads_no_scipy_module():
    """A fresh interpreter that imports koopstab and trains one epoch of the
    criterion-09 shape loads no scipy module: importing scipy.linalg alone
    takes about as long as the whole set-up of a run."""
    code = (
        "import sys, koopstab\n"
        "from koopstab.data import center_to_equilibrium, normalize, "
        "synth_handwriting_like\n"
        "dataset = normalize(center_to_equilibrium(synth_handwriting_like(seed=7)))\n"
        "model = koopstab.KoopmanModel.init(n=2, d=20, hidden=(50, 50, 50), seed=7)\n"
        "koopstab.train(model, dataset, koopstab.TrainConfig(epochs=1, seed=7))\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(koopstab.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    assert done.stdout == "\n"
