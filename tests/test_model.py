"""Model tests: MLP mechanics, similarity, losses, gradients, checkpoints."""

import tracemalloc

import numpy as np
import pytest

from koopstab import autodiff as ad
from koopstab import model as model_module
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
    check_tape_fits,
    load_checkpoint,
    save_checkpoint,
    sliding_window_loss,
    tape_bytes,
)
from koopstab.stability import certify_stable
from helpers import (
    eig_match_distance,
    loss_lin,
    loss_pred,
    loss_rec,
    matrix_with_condition,
    rel_err,
    rollout_reference,
    same_bits,
    total_loss,
    with_mlp_dtype,
)


def tiny_model(seed=0, n=2, d=3, hidden=(4,), k_init="certified", dtype=np.float32):
    return with_mlp_dtype(KoopmanModel.init(n=n, d=d, hidden=hidden, seed=seed,
                                            k_init=k_init), dtype)


def model_shape(m):
    """The encoder sizes, decoder sizes and MLP dtype that ``tape_bytes`` reads."""
    return m.encoder.layer_sizes, m.decoder.layer_sizes, m.dtype


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

    @pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
    def test_forward_equals_the_tape_dense_chain_bit_for_bit(self, activation):
        rng = np.random.default_rng(57)
        mlp = MlpParams.init([3, 7, 5, 2], activation, rng)
        for b in mlp.biases:
            b += rng.normal(size=b.shape)
        X = rng.normal(size=(3, 9))
        tape = Tape()
        h = tape.leaf(X)
        for w, b, fn in zip(mlp.weights, mlp.biases, [activation] * 2 + ["identity"]):
            h = ad.dense(tape.leaf(w), h, tape.leaf(b), fn)
        assert same_bits(mlp.forward(X), h.value)

    def test_broken_chain_rejected(self):
        with pytest.raises(DimensionError):
            MlpParams(weights=[np.zeros((3, 2)), np.zeros((2, 4))],
                      biases=[np.zeros((3, 1)), np.zeros((2, 1))])

    @pytest.mark.parametrize("weights, biases", [
        ([], []),
        ([np.zeros((3, 2))], []),
    ])
    def test_one_bias_per_weight_required(self, weights, biases):
        with pytest.raises(DimensionError, match="one bias per weight matrix"):
            MlpParams(weights=weights, biases=biases)

    def test_init_needs_input_and_output_sizes(self):
        with pytest.raises(DimensionError, match="at least input and output sizes"):
            MlpParams.init([3])

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


class TestKoopmanModelShapes:
    def test_decoder_must_invert_encoder(self):
        m = tiny_model()
        decoder = MlpParams.init([3, 4, 5])
        with pytest.raises(DimensionError, match="do not invert encoder sizes"):
            KoopmanModel(encoder=m.encoder, decoder=decoder, K=m.K, S=m.S)

    @pytest.mark.parametrize("name", ["K", "S"])
    def test_k_and_s_must_match_the_encoder(self, name):
        m = tiny_model()
        mats = {"K": m.K, "S": m.S, name: np.eye(2)}
        with pytest.raises(DimensionError, match=r"K and S must be \(3, 3\)"):
            KoopmanModel(encoder=m.encoder, decoder=m.decoder, **mats)

    @pytest.mark.parametrize("first, rest", [(np.float64, np.float32),
                                             (np.float32, np.float64),
                                             (np.int64, np.int64),
                                             (np.float16, np.float16)])
    def test_mlp_arrays_must_share_one_float_dtype(self, first, rest):
        m = tiny_model()
        ew, eb, dw, db = ([a.astype(rest) for a in arrays] for arrays in (
            m.encoder.weights, m.encoder.biases, m.decoder.weights, m.decoder.biases))
        ew[0] = ew[0].astype(first)
        with pytest.raises(ContractError, match="must all be float32 or all float64"):
            KoopmanModel(encoder=MlpParams(ew, eb), decoder=MlpParams(dw, db),
                         K=m.K, S=m.S)


class TestEncodeDecode:
    def test_vector_and_batch_agree(self):
        m = tiny_model(dtype=np.float64)
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
    # identity encoder and decoder: predict_states returns the lifted iterates
    def test_zero_matrix_rolls_to_zero(self):
        m = linear_identity_model(np.zeros((2, 2)))
        out = m.predict_states(np.array([1.0, 2.0]), 5)
        np.testing.assert_array_equal(out, np.zeros((5, 2)))

    def test_identity_matrix_holds_state(self):
        m = linear_identity_model(np.eye(2))
        out = m.predict_states(np.array([1.0, -2.0]), 4)
        np.testing.assert_allclose(out, np.tile([1.0, -2.0], (4, 1)), atol=1e-14)

    def test_certified_matrix_contracts_sup_norm(self):
        rng = np.random.default_rng(51)
        K = rng.normal(size=(4, 4))
        K /= 1.01 * np.abs(K).sum(axis=1, keepdims=True)
        assert certify_stable(K).certified
        m = linear_identity_model(K)
        seq = m.predict_states(rng.uniform(-1.0, 1.0, size=4), 10_000)
        sup = np.abs(seq).max(axis=1)
        assert np.all(np.diff(sup) <= 1e-12)

    def test_rollout_matches_one_new_vector_per_step_bit_for_bit(self):
        rng = np.random.default_rng(53)
        m = linear_identity_model(rng.normal(size=(6, 6)) / 3.0)
        Keff = m.effective_matrix()
        z0 = rng.normal(size=6)
        assert same_bits(m.predict_states(z0, 12, Keff=Keff),
                         rollout_reference(Keff, z0, 12))

    def test_prediction_matches_true_linear_system(self):
        rng = np.random.default_rng(52)
        A = 0.8 * np.eye(3) + 0.05 * rng.normal(size=(3, 3))
        m = linear_identity_model(A)
        x0 = rng.normal(size=3)
        pred = m.predict_states(x0, 3)
        expected = np.array([A @ x0, A @ A @ x0, A @ A @ A @ x0])
        np.testing.assert_allclose(pred, expected, atol=1e-12)

    @pytest.mark.parametrize("x0, n_steps", [
        (np.zeros((3, 2)), [4, 1, 6]),
        (np.zeros((3, 2)), 4),
        (np.zeros((1, 2)), 4),
        (np.zeros(2), [4]),
        (np.zeros(2), 4.0),
    ], ids=["stack-with-counts", "stack", "one-row-stack", "count-list", "float-count"])
    def test_only_one_state_and_an_int_count_accepted(self, x0, n_steps):
        with pytest.raises(DimensionError, match="one initial state"):
            tiny_model().predict_states(x0, n_steps)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ContractError):
            tiny_model().predict_states(np.zeros(2), 0)


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

    @pytest.mark.parametrize("name", ["pred", "lin", "rec"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, name, value):
        # NaN passes every comparison-based check, so it needs its own
        with pytest.raises(ContractError, match=name):
            LossWeights(**{name: value})

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
        m = tiny_model(seed=3, dtype=np.float64)
        states = rng.normal(size=(3, 2))
        bound = BoundModel(Tape(), m)
        got = float(loss_pred(bound, states, 1).value[0, 0])
        pred1 = m.decode(m.effective_matrix() @ m.encode(states[0]))
        assert got == pytest.approx(np.sum((states[1] - pred1) ** 2), rel=1e-12)

    def test_rec_supports_single_sample(self):
        m = tiny_model(seed=4, dtype=np.float64)
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
        m = tiny_model(seed=8, dtype=np.float64)
        trajs = [rng.normal(size=(7, 2)), rng.normal(size=(6, 2))]
        w = LossWeights(pred=1.0, lin=0.1, rec=1.0, horizon=2)
        fast = float(sliding_window_loss(BoundModel(Tape(), m), trajs,
                                         w)[0].value[0, 0])
        windows = [traj[t:t + w.horizon + 1]
                   for traj in trajs for t in range(traj.shape[0] - w.horizon)]
        slow = loss_value(m, windows, w)
        assert fast == pytest.approx(slow, rel=1e-10)

    @pytest.mark.parametrize("lin", [0.1, 0.0])
    def test_terms_are_per_window_means_and_zero_when_unweighted(self, lin):
        rng = np.random.default_rng(76)
        m = tiny_model(seed=8, dtype=np.float64)
        trajs = [rng.normal(size=(7, 2)), rng.normal(size=(6, 2))]
        w = LossWeights(pred=2.0, lin=lin, rec=0.5, horizon=2)
        loss, terms = sliding_window_loss(BoundModel(Tape(), m), trajs, w)
        windows = [traj[t:t + 3] for traj in trajs for t in range(traj.shape[0] - 2)]
        bound = BoundModel(Tape(), m)
        means = {name: np.mean([float(f(window).value[0, 0]) for window in windows])
                 for name, f in (("pred", lambda x: loss_pred(bound, x, 2)),
                                 ("lin", lambda x: loss_lin(bound, x, 2)),
                                 ("rec", lambda x: loss_rec(bound, x)))}
        assert list(terms) == ["pred", "lin", "rec"]
        for name in ("pred", "rec"):
            assert terms[name] == pytest.approx(means[name], rel=1e-10), name
        if lin:
            assert terms["lin"] == pytest.approx(means["lin"], rel=1e-10)
        else:
            assert terms["lin"] == 0.0
        weighted = sum(getattr(w, name) * value for name, value in terms.items())
        assert float(loss.value[0, 0]) == pytest.approx(weighted, rel=1e-12)

    def test_gradients_match_explicit_window_batch(self):
        rng = np.random.default_rng(71)
        m = tiny_model(seed=9, dtype=np.float64)
        trajs = [rng.normal(size=(6, 2))]
        w = LossWeights(pred=1.0, lin=0.5, rec=0.3, horizon=2)
        tape_fast = Tape()
        bound_fast = BoundModel(tape_fast, m)
        tape_fast.backward(sliding_window_loss(bound_fast, trajs, w)[0])
        windows = [trajs[0][t:t + 3] for t in range(4)]
        tape_slow = Tape()
        bound_slow = BoundModel(tape_slow, m)
        tape_slow.backward(total_loss(bound_slow, windows, w))
        for name in ("encoder.w0", "decoder.w0", "K", "S"):
            assert rel_err(bound_fast.leaves[name].grad,
                           bound_slow.leaves[name].grad) <= 1e-9

    def test_matches_explicit_windows_as_batch_shapes_change(self):
        """Each batch is new data, and its lengths differ from the last batch's."""
        rng = np.random.default_rng(74)
        m = tiny_model(seed=13, dtype=np.float64)
        for horizon in (3, 4):
            w = LossWeights(pred=1.0, lin=0.1, rec=1.0, horizon=horizon)
            for lengths in ((7, 6), (6, 7), (7, 6)):
                trajs = [rng.normal(size=(T, 2)) for T in lengths]
                fast = float(sliding_window_loss(BoundModel(Tape(), m), trajs,
                                                 w)[0].value[0, 0])
                windows = [traj[t:t + horizon + 1]
                           for traj in trajs for t in range(traj.shape[0] - horizon)]
                assert fast == pytest.approx(loss_value(m, windows, w), rel=1e-10), \
                    (horizon, lengths)

    def test_a_step_scatters_twice_and_gives_its_data_no_gradient(self, monkeypatch):
        """The initial gather and the lin term scatter into the encoding, each
        with one walk over its index runs. The states are a constant, which
        the pred, rec and lin terms compare with: the pred and rec terms and
        the first encoder layer form nothing for it, and it holds no gradient
        array after the pass."""
        calls = []
        runs = ad._column_runs
        monkeypatch.setattr(ad, "_column_runs",
                            lambda *args: calls.append(args) or runs(*args))
        rng = np.random.default_rng(75)
        tape = Tape()
        bound = BoundModel(tape, tiny_model(seed=14))
        loss, _ = sliding_window_loss(bound, [rng.normal(size=(9, 2)),
                                              rng.normal(size=(8, 2))], LossWeights(horizon=3))
        data = list({id(v): v for node in tape._nodes for v in node.parents
                     if not v.needs_grad}.values())
        tape.backward(loss)
        assert len(calls) == 2
        assert [v.value.shape for v in data] == [(2, 17)]
        assert all(v._grad is None for v in data)
        assert all(leaf._grad is not None for leaf in bound.leaves.values())

    def test_criterion_09_shape_records_one_node_per_layer(self):
        """Each encoder layer is one node: 4 of them of 16.

        S^-1 K S is one ``similarity`` node in either dtype, the H steps of
        every window one ``rollout`` node, the lin term one ``gather_sq_dist``
        node, and the pred and rec terms, decoder and all, one ``mlp_sq_dist``
        node each; the rest are the initial gather, three weights, two sums
        and the mean.
        """
        dataset = synth_handwriting_like(seed=7)
        for dtype in (np.float32, np.float64):
            m = with_mlp_dtype(KoopmanModel.init(n=dataset.dim, d=20, hidden=(50, 50, 50),
                                                 seed=7), dtype)
            tape = Tape()
            sliding_window_loss(BoundModel(tape, m), [t.states for t in dataset.train],
                                LossWeights(horizon=10))
            assert len(tape) == 16, dtype

    def test_wide_step_tape_holds_what_tape_bytes_counts(self):
        """d=200, two trajectories, H=10: 9.7 MB live in float64 while every
        term kept its residual and its gathered lin targets, 5.5 MB since,
        5.1 MB since S^-1 K S is one node, 4.8 MB since the pred term keeps
        no decoder activations, and 3.2 MB in float32."""
        dataset = synth_handwriting_like(n_traj=12, noise=0.5, seed=3, n_val=2)
        batch = [t.states for t in dataset.train][:2]
        n_samples = sum(len(states) for states in batch)
        for dtype in (np.float32, np.float64):
            m = with_mlp_dtype(KoopmanModel.init(n=dataset.dim, d=200, hidden=(32, 32),
                                                 seed=3, k_init="infeasible"), dtype)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                bound = BoundModel(Tape(), m)
                bound_at = tracemalloc.get_traced_memory()[0]
                loss, _ = sliding_window_loss(bound, batch, LossWeights(horizon=10))
                live = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert len(bound.tape) == 15
            assert live - bound_at < 6e6
            estimate = tape_bytes(*model_shape(m), n_samples, n_samples - 2 * 10, 10)
            assert 0.9 < estimate / (live - start) < 1.1, dtype
            assert loss.value.shape == (1, 1)

    @pytest.mark.parametrize("dtype, hidden, lengths", [
        (np.float32, (4,), (7, 6)), (np.float64, (4,), (7, 6)),
        (np.float32, (5,), (7, 6, 5)), (np.float64, (5,), (7, 6, 5))],
        ids=["float32", "float64", "float32-hidden5", "float64-hidden5"])
    def test_tape_bytes_counts_every_array_the_tape_records(self, dtype, hidden, lengths):
        """Every recorded value and leaf but the (1, 1) loss scalars, and every
        array an adjoint keeps, alone or in a tuple or list (S^-1, the float64
        S^-1 K S, the pred and rec terms' decoder gradients and first-layer
        gradients, and the index arrays), each at its own itemsize; a view
        counts as the whole array it views. The second shape tells the rec
        term's per-sample first-layer gradient from a per-sample count of
        every decoder layer, which the first shape's 13 samples of 2 states
        cannot: their 26 floats equal the decoder's 26 parameters."""
        rng = np.random.default_rng(73)
        m = tiny_model(seed=12, hidden=hidden, dtype=dtype)
        tape = Tape()
        sliding_window_loss(BoundModel(tape, m), [rng.normal(size=(T, 2)) for T in lengths],
                            LossWeights(horizon=2))
        arrays = {}
        for node in tape._nodes:
            kept = []
            for cell in node.backward_fn.__closure__ or ():
                held = cell.cell_contents
                kept.extend(held if isinstance(held, (tuple, list)) else [held])
            for arr in [v.value for v in (node.out, *node.parents)] + kept:
                if isinstance(arr, np.ndarray):
                    arr = arr if arr.base is None else arr.base
                    arrays[id(arr)] = arr
        held = sum(arr.nbytes for arr in arrays.values() if arr.shape != (1, 1))
        n_samples = sum(lengths)
        assert held == tape_bytes(*model_shape(m), n_samples, n_samples - 2 * len(lengths), 2)

    def test_batch_over_the_tape_limit_is_refused_before_recording(self, monkeypatch):
        rng = np.random.default_rng(73)
        m = tiny_model(seed=12)
        trajs = [rng.normal(size=(7, 2)), rng.normal(size=(6, 2))]
        w = LossWeights(horizon=2)
        needed = tape_bytes(*model_shape(m), 13, 9, 2)
        assert check_tape_fits(m, [7, 6], 2) == 9
        monkeypatch.setattr(model_module, "MAX_TAPE_BYTES", needed - 1)
        tape = Tape()
        with pytest.raises(DataError, match="9 windows of 2 trajectories.*batch_size"):
            sliding_window_loss(BoundModel(tape, m), trajs, w)
        assert len(tape) == 0
        monkeypatch.setattr(model_module, "MAX_TAPE_BYTES", needed)
        sliding_window_loss(BoundModel(Tape(), m), trajs, w)

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError, match="empty batch"):
            sliding_window_loss(BoundModel(Tape(), tiny_model()), [], LossWeights())

    def test_one_dimensional_trajectory_rejected(self):
        with pytest.raises(DimensionError, match=r"expected \(T, n\) states"):
            sliding_window_loss(BoundModel(Tape(), tiny_model()), [np.zeros(12)],
                                LossWeights(horizon=2))

    def test_effective_matrix_is_computed_once_per_tape(self):
        m = tiny_model()
        bound = BoundModel(Tape(), m)
        first = bound.effective()
        assert bound.effective() is first


def _cast_up(m):
    """The same model with its encoder and decoder arrays cast to float64."""
    def up(mlp):
        return MlpParams([w.astype(np.float64) for w in mlp.weights],
                         [b.astype(np.float64) for b in mlp.biases], mlp.activation)
    return KoopmanModel(encoder=up(m.encoder), decoder=up(m.decoder),
                        K=m.K.copy(), S=m.S.copy())


class TestPrecision:
    def test_float32_is_the_default_and_k_and_s_stay_float64(self):
        m = KoopmanModel.init(n=2, d=3, hidden=(4,))
        assert m.dtype == np.float32
        assert all(p.dtype == (np.float64 if name in ("K", "S") else np.float32)
                   for name, p in m.get_params().items())

    def test_encode_and_predict_run_in_the_models_dtype(self):
        m = tiny_model(seed=2)
        x = np.array([0.3, -0.4])
        assert m.encode(x).dtype == np.float32
        assert m.decode(np.zeros((3, 2))).dtype == np.float32
        assert m.predict_states(x, 4).dtype == np.float32
        # the rollout uses S^-1 K S rounded to float32, as the tape's does
        Keff = m.effective_matrix()
        assert same_bits(m.predict_states(x, 6, Keff=Keff).astype(np.float64),
                         m.predict_states(x, 6, Keff=Keff.astype(np.float32))
                         .astype(np.float64))
        assert tiny_model(seed=2, dtype=np.float64).predict_states(x, 4).dtype == np.float64

    @pytest.mark.parametrize("shape, horizon", [
        (dict(n=2, d=20, hidden=(50, 50, 50)), 10),
        (dict(n=2, d=3, hidden=(4,)), 3),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_gradients_match_the_float64_tape(self, shape, horizon, seed):
        """Each float32 parameter gradient is within 1e-5 (rel_err) of the float64
        tape's on the same parameters cast up, and the loss within 1e-6.

        float32's machine epsilon is 1.19e-7; these cases reach 1.5e-6.
        """
        rng = np.random.default_rng(seed)
        m32 = KoopmanModel.init(seed=seed, **shape)
        # a non-scalar K makes the loss depend on S
        m32.K[...] = 0.5 * np.eye(m32.d) + 0.1 * rng.normal(size=m32.K.shape)
        batch = [rng.normal(scale=0.6, size=(2 * horizon + 1, 2)),
                 rng.normal(scale=0.6, size=(horizon + 3, 2))]
        results = []
        for m in (m32, _cast_up(m32)):
            tape = Tape()
            bound = BoundModel(tape, m)
            loss, _ = sliding_window_loss(bound, batch, LossWeights(horizon=horizon))
            tape.backward(loss)
            results.append((float(loss.value[0, 0]), bound.gradients()))
        (loss32, grads32), (loss64, grads64) = results
        assert loss32 == pytest.approx(loss64, rel=1e-6)
        for name, g in grads32.items():
            assert g.dtype == m32.get_params()[name].dtype, name
            assert rel_err(g.astype(np.float64), grads64[name]) <= 1e-5, name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_step_keeps_every_value_and_gradient_in_its_precision(self, dtype):
        """MLP values and gradients in the model's dtype; K, S and the loss
        scalars in float64, with their gradients. The one node that forms
        S^-1 K S in float64 hands it over in the model's dtype."""
        rng = np.random.default_rng(5)
        m = tiny_model(seed=5, d=5, hidden=(7,), dtype=dtype)
        tape = Tape()
        bound = BoundModel(tape, m)
        loss, _ = sliding_window_loss(bound, [rng.normal(size=(9, 2)),
                                              rng.normal(size=(8, 2))], LossWeights(horizon=3))
        outs = [node.out for node in tape._nodes]
        tape.backward(loss)
        for name, leaf in bound.leaves.items():
            want = np.float64 if name in ("K", "S") else dtype
            assert leaf.value.dtype == want and leaf.grad.dtype == want, name
        square = [v for v in outs if v.value.shape == (5, 5)]
        assert len(square) == 1 and square[0] is bound.effective()
        for v in outs:
            assert v.grad.dtype == v.value.dtype
            want = np.float64 if v.value.shape == (1, 1) else dtype
            assert v.value.dtype == want, v.value.shape
        assert loss.value.dtype == np.float64


class TestGradientChecks:
    @pytest.mark.parametrize("name", ["encoder.w0", "encoder.b1", "decoder.w1",
                                      "decoder.b0", "K", "S"])
    def test_total_loss_gradient_matches_fd(self, name):
        rng = np.random.default_rng(72)
        m = tiny_model(seed=10, dtype=np.float64)
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

    def test_float32_round_trip_is_bit_exact(self, tmp_path):
        m = tiny_model(seed=11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m)
        assert "mlp-dtype float32" in path.read_text().splitlines()
        loaded, _, _ = load_checkpoint(path)
        assert loaded.dtype == np.float32
        for name, arr in m.get_params().items():
            assert same_bits(loaded.get_params()[name].astype(np.float64),
                             arr.astype(np.float64)), name
            assert loaded.get_params()[name].dtype == arr.dtype, name

    def test_float32_entries_are_written_in_their_shortest_repr(self, tmp_path):
        """Entries from every float32 binade, subnormals and signed zeros read
        back bit for bit; each is written as numpy's shortest float32 repr,
        which makes the file smaller than 17-digit float64 reprs would."""
        rng = np.random.default_rng(15)
        m = KoopmanModel.init(n=2, d=20, hidden=(50, 50, 50), seed=7)
        bits = rng.integers(0, 0x7F800000, size=m.encoder.weights[1].size, dtype=np.uint32)
        bits[:4] = [0, 1, 0x007FFFFF, 0x7F7FFFFF]  # 0, subnormals, the largest float32
        bits[::2] |= np.uint32(0x80000000)
        m.encoder.weights[1][...] = bits.view(np.float32).reshape(50, 50)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m)
        loaded, _, _ = load_checkpoint(path)
        for name, arr in m.get_params().items():
            assert loaded.get_params()[name].tobytes() == arr.tobytes(), name
        lines = path.read_text().splitlines()
        for name in ("encoder.w1", "decoder.w2"):
            arr = m.get_params()[name]
            first = lines.index(f"matrix {name} {arr.shape[0]} {arr.shape[1]}") + 1
            rows = lines[first:first + arr.shape[0]]
            assert rows == [" ".join(str(v) for v in row) for row in arr]
            long = sum(len(" ".join(repr(float(v)) for v in row)) for row in arr)
            assert sum(map(len, rows)) < 0.7 * long, name

    def test_checkpoint_without_a_dtype_line_is_float64(self, tmp_path):
        m = tiny_model(seed=11, dtype=np.float64)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(l for l in lines if l != "mlp-dtype float64") + "\n")
        loaded, _, _ = load_checkpoint(path)
        assert loaded.dtype == np.float64
        for name, arr in m.get_params().items():
            assert same_bits(loaded.get_params()[name], arr), name

    @pytest.mark.parametrize("value", ["float16", "int64", "float", "nan", ""])
    def test_bad_dtype_line_rejected(self, tmp_path, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(seed=14))
        path.write_text(path.read_text().replace("mlp-dtype float32",
                                                 f"mlp-dtype {value}"))
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"{path}: mlp-dtype must be float32 or float64, "
                                  f"got {value!r}")

    def test_value_beyond_float32_rejected(self, tmp_path):
        m = tiny_model(seed=14)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m)
        lines = path.read_text().splitlines()
        row = lines.index("matrix decoder.b0 4 1") + 2
        lines[row] = "1e39"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: matrix decoder.b0 overflows float32"

    def test_blank_lines_between_entries_are_skipped(self, tmp_path):
        m = tiny_model(seed=11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m, Preprocessing(dt=0.1), config={"seed": "3"})
        spaced = [("\n" + line) if line.split()[0] in ("matrix", "config") else line
                  for line in path.read_text().splitlines()]
        path.write_text("\n".join(spaced) + "\n\n  \n")
        loaded, pre, cfg = load_checkpoint(path)
        for name, arr in m.get_params().items():
            np.testing.assert_array_equal(loaded.get_params()[name], arr)
        assert pre.dt == 0.1 and cfg == {"seed": "3"}

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

    @pytest.mark.parametrize("new", ["matrix K 3", "matrix K 3 3 3", "matrix"])
    def test_matrix_line_needs_name_rows_and_cols(self, tmp_path, new):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(seed=16))
        lines = path.read_text().splitlines()
        at = lines.index("matrix K 3 3")
        lines[at] = new
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}:{at + 1}: matrix line needs name, rows, cols"

    @pytest.mark.parametrize("old, new", [
        ("preproc-dt 0.1", "preproc-dt x"),
        ("matrix preproc.offset 1 2\n0.25 -3.5", "matrix preproc.offset 0 2"),
        ("preproc-dt 0.1", "preproc-dt nan"),
        ("preproc-dt 0.1", "preproc-dt -0.1"),
        ("preproc-dt 0.1", "preproc-dt 0"),
    ])
    def test_bad_preprocessing_rejected(self, tmp_path, old, new):
        path = tmp_path / "m.ckpt"
        pre = Preprocessing(dt=0.1, offset=np.array([0.25, -3.5]))
        save_checkpoint(path, tiny_model(seed=16), preprocessing=pre)
        assert old in path.read_text()
        path.write_text(path.read_text().replace(old, new))
        with pytest.raises(ParseError, match="preproc"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra, entry", [
        (["matrix K 3 3", "1 0 0", "0 1 0", "0 0 1"], "matrix K"),
        (["config seed 1"], "config seed"),
        (["encoder-activation relu"], "encoder-activation"),
        (["preproc-dt 0.2"], "preproc-dt"),
    ])
    def test_repeated_entry_rejected_at_its_line(self, tmp_path, extra, entry):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(seed=17), Preprocessing(dt=0.1),
                        config={"seed": "0"})
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + extra) + "\n")
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}:{len(lines) + 1}: repeated entry {entry!r}"

    def test_unknown_entry_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(seed=17))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + ["note two words"] + lines[1:]))
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}:2: unknown entry 'note'"

    def test_unused_matrix_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(seed=17))
        path.write_text(path.read_text() + "matrix Kold 1 2\n0.5 0.25\n")
        with pytest.raises(ParseError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: unused matrix Kold"

    def test_truncated_matrix_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, tiny_model(seed=15))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]))
        with pytest.raises(ParseError):
            load_checkpoint(path)


class TestParams:
    def test_init_refuses_a_model_whose_empty_tape_is_over_the_limit(self, monkeypatch):
        sizes = [2, 4, 3]
        needed = tape_bytes(sizes, sizes[::-1], np.float32, 0, 0, 0)
        assert needed == tape_bytes(*model_shape(tiny_model()), 0, 0, 0)
        monkeypatch.setattr(model_module, "MAX_TAPE_BYTES", needed - 1)
        with monkeypatch.context() as patch:
            def allocate(*args, **kwargs):
                raise AssertionError("the model was allocated")
            patch.setattr(MlpParams, "init", allocate)
            with pytest.raises(ContractError, match=r"\[2, 4, 3\] would hold .* GiB on a "
                                                     r"step's tape.*lower lift_dim or hidden"):
                KoopmanModel.init(n=2, d=3, hidden=(4,))
        monkeypatch.setattr(model_module, "MAX_TAPE_BYTES", needed)
        assert KoopmanModel.init(n=2, d=3, hidden=(4,)).encoder.layer_sizes == sizes

    def test_infeasible_init_violates_condition(self):
        m = tiny_model(k_init="infeasible")
        assert not certify_stable(m.K).certified
        assert certify_stable(tiny_model(k_init="certified").K).certified
