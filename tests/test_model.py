"""Model tests: MLP mechanics, similarity, losses, gradients, checkpoints."""

import numpy as np
import pytest

from koopstab.autodiff import Tape
from koopstab.data import Preprocessing, synth_handwriting_like
from koopstab.errors import (
    ContractError,
    DataError,
    DimensionError,
    ParseError,
    SingularMatrixError,
)
from koopstab.model import (
    BoundModel,
    KoopmanModel,
    LossWeights,
    MlpParams,
    load_checkpoint,
    save_checkpoint,
    sliding_window_loss,
)
from koopstab.stability import certify_stable
from helpers import (
    eig_match_distance,
    loss_lin,
    loss_pred,
    loss_rec,
    matrix_with_condition,
    rel_err,
    total_loss,
)


def tiny_model(seed=0, n=2, d=3, hidden=(4,), k_init="certified"):
    return KoopmanModel.init(n=n, d=d, hidden=hidden, seed=seed, k_init=k_init)


def linear_identity_model(A):
    """n = d model where encode/decode are the identity and K = A, S = I."""
    d = A.shape[0]
    eye_layer = lambda: MlpParams(weights=[np.eye(d)], biases=[np.zeros((d, 1))],
                                  activation="identity")
    return KoopmanModel(encoder=eye_layer(), decoder=eye_layer(),
                        K=A.copy(), S=np.eye(d))


def loss_value(model, batch, weights):
    bound = BoundModel(Tape(), model)
    return float(total_loss(bound, batch, weights).value[0, 0])


def analytic_grad(model, batch, weights, name):
    tape = Tape()
    bound = BoundModel(tape, model)
    tape.backward(total_loss(bound, batch, weights))
    return bound.leaves[name].grad


def fd_param_grad(model, batch, weights, name, h=1e-6):
    arr = model.get_params()[name]  # write-through view
    grad = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        orig = arr[idx]
        arr[idx] = orig + h
        hi = loss_value(model, batch, weights)
        arr[idx] = orig - h
        lo = loss_value(model, batch, weights)
        arr[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * h)
    return grad


class TestMlpParams:
    def test_full_scale_layer_sizes(self):
        m = KoopmanModel.init(n=2, d=20)
        assert m.encoder.layer_sizes == [2, 50, 50, 50, 20]
        assert m.decoder.layer_sizes == [20, 50, 50, 50, 2]

    def test_zero_weights_output_final_bias(self):
        b = np.array([[0.7], [-0.2]])
        mlp = MlpParams(weights=[np.zeros((3, 2)), np.zeros((2, 3))],
                        biases=[np.ones((3, 1)), b])
        out = mlp.forward(np.array([[5.0], [6.0]]))
        np.testing.assert_allclose(out, b, atol=1e-15)

    def test_broken_chain_rejected(self):
        with pytest.raises(DimensionError):
            MlpParams(weights=[np.zeros((3, 2)), np.zeros((2, 4))],
                      biases=[np.zeros((3, 1)), np.zeros((2, 1))])

    def test_bias_shape_rejected(self):
        with pytest.raises(DimensionError):
            MlpParams(weights=[np.zeros((3, 2))], biases=[np.zeros((3,))])

    def test_unknown_activation_rejected(self):
        with pytest.raises(ContractError):
            MlpParams(weights=[np.zeros((2, 2))], biases=[np.zeros((2, 1))],
                      activation="softsign")

    def test_xavier_init_is_seeded(self):
        a = MlpParams.init([2, 5, 3], rng=np.random.default_rng(4))
        b = MlpParams.init([2, 5, 3], rng=np.random.default_rng(4))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert all(np.all(bb == 0.0) for bb in a.biases)


class TestEncodeDecode:
    def test_vector_and_batch_agree(self):
        m = tiny_model()
        x = np.array([0.3, -0.4])
        single = m.encode(x)
        batch = m.encode(np.column_stack([x, 2.0 * x]))
        assert single.shape == (3,) and batch.shape == (3, 2)
        np.testing.assert_allclose(batch[:, 0], single, atol=1e-15)

    def test_wrong_input_length_rejected(self):
        with pytest.raises(DimensionError):
            tiny_model().encode(np.zeros(5))
        with pytest.raises(DimensionError):
            tiny_model().decode(np.zeros(2))


class TestEffectiveMatrix:
    def test_identity_basis_returns_K(self):
        m = tiny_model()
        m.S = np.eye(3)
        np.testing.assert_allclose(m.effective_matrix(), m.K, atol=1e-14)

    def test_similarity_preserves_spectrum(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            d = int(rng.integers(2, 8))
            K = rng.normal(0.0, 0.5, size=(d, d))
            S = matrix_with_condition(rng, d, 10.0 ** rng.uniform(0.0, 4.0))
            Keff = np.linalg.inv(S) @ K @ S
            assert eig_match_distance(K, Keff) <= 1e-8

    def test_feasibility_is_basis_dependent_but_spectrum_is_not(self):
        K = np.diag([0.9, 0.5])
        S = np.array([[1.0, 2.0], [0.0, 1.0]])
        Keff = np.linalg.inv(S) @ K @ S
        np.testing.assert_allclose(Keff, [[0.9, 0.8], [0.0, 0.5]], atol=1e-12)
        assert certify_stable(K).certified
        assert not certify_stable(Keff).certified
        assert eig_match_distance(K, Keff) <= 1e-12

    def test_singular_basis_rejected(self):
        m = tiny_model()
        m.S = np.zeros((3, 3))
        with pytest.raises(SingularMatrixError):
            m.effective_matrix()

    def test_ill_conditioned_basis_rejected(self):
        m = tiny_model()
        m.S = np.diag([1.0, 1.0, 1e-10])
        with pytest.raises(SingularMatrixError) as err:
            m.effective_matrix()
        assert err.value.cond_estimate > 1e8

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_rejected(self, bad):
        m = tiny_model()
        m.S = np.eye(3)
        m.S[1, 2] = bad
        with pytest.raises(SingularMatrixError):
            m.effective_matrix()


class TestRollout:
    def test_zero_matrix_rolls_to_zero(self):
        m = linear_identity_model(np.zeros((2, 2)))
        out = m.rollout(np.array([1.0, 2.0]), 5)
        np.testing.assert_array_equal(out, np.zeros((5, 2)))

    def test_identity_matrix_holds_state(self):
        m = linear_identity_model(np.eye(2))
        out = m.rollout(np.array([1.0, -2.0]), 4)
        np.testing.assert_allclose(out, np.tile([1.0, -2.0], (4, 1)), atol=1e-14)

    def test_certified_matrix_contracts_sup_norm(self):
        rng = np.random.default_rng(51)
        K = rng.normal(size=(4, 4))
        K /= 1.01 * np.abs(K).sum(axis=1, keepdims=True)
        assert certify_stable(K).certified
        m = linear_identity_model(K)
        seq = m.rollout(rng.uniform(-1.0, 1.0, size=4), 10_000)
        sup = np.abs(seq).max(axis=1)
        assert np.all(np.diff(sup) <= 1e-12)

    def test_prediction_matches_true_linear_system(self):
        rng = np.random.default_rng(52)
        A = 0.8 * np.eye(3) + 0.05 * rng.normal(size=(3, 3))
        m = linear_identity_model(A)
        x0 = rng.normal(size=3)
        pred = m.predict_states(x0, 3)
        expected = np.array([A @ x0, A @ A @ x0, A @ A @ A @ x0])
        np.testing.assert_allclose(pred, expected, atol=1e-12)

    def test_stacked_initial_states_match_single_predictions(self):
        rng = np.random.default_rng(53)
        m = tiny_model(seed=5)
        starts = rng.normal(size=(3, 2))
        stacked = m.predict_states(starts, [4, 1, 6])
        assert len(stacked) == 3
        for x0, count, pred in zip(starts, [4, 1, 6], stacked):
            np.testing.assert_array_equal(pred, m.predict_states(x0, count))
        with pytest.raises(DimensionError):
            m.predict_states(starts, [4, 1])
        with pytest.raises(DimensionError):
            m.predict_states(starts, 4)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ContractError):
            tiny_model().rollout(np.zeros(3), 0)


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.pred, w.lin, w.rec, w.horizon) == (1.0, 0.1, 1.0, 10)

    def test_negative_rejected(self):
        with pytest.raises(ContractError):
            LossWeights(pred=-1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ContractError):
            LossWeights(pred=0.0, lin=0.0, rec=0.0)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ContractError):
            LossWeights(horizon=0)


class TestLosses:
    def _linear_data(self, A, x0, steps):
        states = [np.asarray(x0)]
        for _ in range(steps):
            states.append(A @ states[-1])
        return np.array(states)

    def test_perfect_model_zero_pred_loss(self):
        rng = np.random.default_rng(60)
        A = 0.7 * np.eye(2) + 0.1 * rng.normal(size=(2, 2))
        m = linear_identity_model(A)
        states = self._linear_data(A, rng.normal(size=2), 6)
        bound = BoundModel(Tape(), m)
        assert float(loss_pred(bound, states, 5).value[0, 0]) <= 1e-20
        assert float(loss_lin(bound, states, 5).value[0, 0]) <= 1e-20
        assert float(loss_rec(bound, states).value[0, 0]) <= 1e-20

    def test_horizon_one_is_one_step_error(self):
        rng = np.random.default_rng(61)
        m = tiny_model(seed=3)
        states = rng.normal(size=(3, 2))
        bound = BoundModel(Tape(), m)
        got = float(loss_pred(bound, states, 1).value[0, 0])
        pred1 = m.decode(m.effective_matrix() @ m.encode(states[0]))
        assert got == pytest.approx(np.sum((states[1] - pred1) ** 2), rel=1e-12)

    def test_rec_supports_single_sample(self):
        m = tiny_model(seed=4)
        states = np.array([[0.5, -0.5]])
        bound = BoundModel(Tape(), m)
        rec = float(loss_rec(bound, states).value[0, 0])
        manual = np.sum((states[0] - m.decode(m.encode(states[0]))) ** 2)
        assert rec == pytest.approx(manual, rel=1e-12)

    def test_short_trajectory_rejected(self):
        bound = BoundModel(Tape(), tiny_model())
        with pytest.raises(DataError):
            loss_pred(bound, np.zeros((3, 2)), 3)

    def test_total_loss_reduces_to_mean_pred(self):
        rng = np.random.default_rng(62)
        m = tiny_model(seed=5)
        batch = [rng.normal(size=(5, 2)) for _ in range(3)]
        w = LossWeights(pred=1.0, lin=0.0, rec=0.0, horizon=2)
        total = loss_value(m, batch, w)
        singles = []
        for states in batch:
            bound = BoundModel(Tape(), m)
            singles.append(float(loss_pred(bound, states, 2).value[0, 0]))
        assert total == pytest.approx(np.mean(singles), rel=1e-12)

    def test_weights_scale_linearly(self):
        rng = np.random.default_rng(63)
        m = tiny_model(seed=6)
        batch = [rng.normal(size=(6, 2))]
        base = loss_value(m, batch, LossWeights(1.0, 0.1, 1.0, horizon=3))
        doubled = loss_value(m, batch, LossWeights(2.0, 0.2, 2.0, horizon=3))
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)

    def test_batch_permutation_invariant(self):
        rng = np.random.default_rng(64)
        m = tiny_model(seed=7)
        batch = [rng.normal(size=(5, 2)) for _ in range(4)]
        w = LossWeights(horizon=2)
        a = loss_value(m, batch, w)
        b = loss_value(m, batch[::-1], w)
        assert a == pytest.approx(b, rel=1e-12)

    def test_empty_batch_rejected(self):
        bound = BoundModel(Tape(), tiny_model())
        with pytest.raises(DataError):
            total_loss(bound, [], LossWeights())


class TestSlidingWindowLoss:
    def test_matches_explicit_window_batch(self):
        rng = np.random.default_rng(70)
        m = tiny_model(seed=8)
        trajs = [rng.normal(size=(7, 2)), rng.normal(size=(6, 2))]
        w = LossWeights(pred=1.0, lin=0.1, rec=1.0, horizon=2)
        fast = float(sliding_window_loss(BoundModel(Tape(), m), trajs,
                                         w).value[0, 0])
        windows = [traj[t:t + w.horizon + 1]
                   for traj in trajs for t in range(traj.shape[0] - w.horizon)]
        slow = loss_value(m, windows, w)
        assert fast == pytest.approx(slow, rel=1e-10)

    def test_gradients_match_explicit_window_batch(self):
        rng = np.random.default_rng(71)
        m = tiny_model(seed=9)
        trajs = [rng.normal(size=(6, 2))]
        w = LossWeights(pred=1.0, lin=0.5, rec=0.3, horizon=2)
        tape_fast = Tape()
        bound_fast = BoundModel(tape_fast, m)
        tape_fast.backward(sliding_window_loss(bound_fast, trajs, w))
        windows = [trajs[0][t:t + 3] for t in range(4)]
        tape_slow = Tape()
        bound_slow = BoundModel(tape_slow, m)
        tape_slow.backward(total_loss(bound_slow, windows, w))
        for name in ("encoder.w0", "decoder.w0", "K", "S"):
            assert rel_err(bound_fast.leaves[name].grad,
                           bound_slow.leaves[name].grad) <= 1e-9

    def test_criterion_09_shape_records_one_node_per_layer(self):
        """Each MLP layer is one node: 4 encoder and 11 x 4 decoder layers of 139."""
        dataset = synth_handwriting_like(seed=7)
        m = KoopmanModel.init(n=dataset.dim, d=20, hidden=(50, 50, 50), seed=7)
        tape = Tape()
        sliding_window_loss(BoundModel(tape, m), [t.states for t in dataset.train],
                            LossWeights(horizon=10))
        assert len(tape) == 139

    def test_effective_matrix_is_computed_once_per_tape(self):
        m = tiny_model()
        bound = BoundModel(Tape(), m)
        first = bound.effective()
        assert bound.effective() is first


class TestGradientChecks:
    @pytest.mark.parametrize("name", ["encoder.w0", "encoder.b1", "decoder.w1",
                                      "decoder.b0", "K", "S"])
    def test_total_loss_gradient_matches_fd(self, name):
        rng = np.random.default_rng(72)
        m = tiny_model(seed=10)
        # a non-scalar K makes the loss genuinely depend on S
        m.K = 0.5 * np.eye(3) + 0.1 * rng.normal(size=(3, 3))
        batch = [rng.normal(size=(5, 2)), rng.normal(size=(4, 2))]
        w = LossWeights(pred=1.0, lin=0.1, rec=1.0, horizon=2)
        exact = analytic_grad(m, batch, w, name)
        approx = fd_param_grad(m, batch, w, name)
        assert rel_err(approx, exact) <= 1e-4


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        m = tiny_model(seed=11)
        m.K += 1e-3 * np.random.default_rng(1).normal(size=m.K.shape)
        pre = Preprocessing(dt=0.1, offset=np.array([0.25, -3.5]),
                            scale=np.array([30.0, 17.0]))
        cfg = {"alpha": "1.0", "note": "two words"}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, preprocessing=pre, config=cfg)
        loaded, pre2, cfg2 = load_checkpoint(path)
        for name, arr in m.get_params().items():
            np.testing.assert_array_equal(loaded.get_params()[name], arr)
        assert pre2.dt == pre.dt
        np.testing.assert_array_equal(pre2.offset, pre.offset)
        np.testing.assert_array_equal(pre2.scale, pre.scale)
        assert cfg2 == cfg

    def test_save_twice_identical_bytes(self, tmp_path):
        m = tiny_model(seed=12)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, m)
        save_checkpoint(b, m)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_preprocessing_round_trip(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(seed=13))
        _, pre, cfg = load_checkpoint(path)
        assert pre.dt is None and pre.offset is None and pre.scale is None
        assert cfg == {}

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_missing_matrix_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(seed=14))
        text = path.read_text().replace("matrix K 3 3", "matrix K2 3 3")
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        # a fault of the whole file names no line
        assert err.value.line is None
        assert str(err.value) == f"{path}: missing matrix K"

    @pytest.mark.parametrize("key", ["encoder-layers", "decoder-layers",
                                     "encoder-activation", "decoder-activation"])
    def test_missing_key_named_as_key(self, tmp_path, key):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(seed=14))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(l for l in lines if not l.startswith(key + " ")))
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: missing key {key}"

    @pytest.mark.parametrize("old, new", [
        ("encoder-layers 2", "encoder-layers x"),
        ("decoder-layers 2", "decoder-layers -1"),
        ("matrix K 3 3", "matrix K three 3"),
    ])
    def test_bad_count_rejected(self, tmp_path, old, new):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(seed=16))
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(ParseError):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new", [
        ("preproc-dt 0.1", "preproc-dt x"),
        ("matrix preproc.offset 1 2\n0.25 -3.5", "matrix preproc.offset 0 2"),
    ])
    def test_bad_preprocessing_rejected(self, tmp_path, old, new):
        path = tmp_path / "m.ckpt"
        pre = Preprocessing(dt=0.1, offset=np.array([0.25, -3.5]))
        save_checkpoint(path, tiny_model(seed=16), preprocessing=pre)
        assert old in path.read_text()
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(ParseError, match="preproc"):
            load_checkpoint(path)

    def test_truncated_matrix_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(seed=15))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]))
        with pytest.raises(ParseError):
            load_checkpoint(path)


class TestParams:
    def test_get_set_round_trip(self):
        m = tiny_model(seed=16)
        params = {k: v.copy() for k, v in m.get_params().items()}
        m2 = tiny_model(seed=99)
        m2.set_params(params)
        for name, arr in params.items():
            np.testing.assert_array_equal(m2.get_params()[name], arr)

    def test_name_mismatch_rejected(self):
        m = tiny_model()
        with pytest.raises(ContractError):
            m.set_params({"K": m.K})

    def test_copy_is_deep(self):
        m = tiny_model(seed=17)
        c = m.copy()
        c.K[0, 0] = 123.0
        c.encoder.weights[0][0, 0] = 123.0
        assert m.K[0, 0] != 123.0
        assert m.encoder.weights[0][0, 0] != 123.0

    def test_infeasible_init_violates_condition(self):
        m = tiny_model(k_init="infeasible")
        assert not certify_stable(m.K).certified
        assert certify_stable(tiny_model(k_init="certified").K).certified
