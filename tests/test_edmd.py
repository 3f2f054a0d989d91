"""EDMD tests: exact recovery, optimality, dictionary shapes, failure modes."""

import numpy as np
import pytest

from koopstab.edmd import (
    SnapshotPair,
    edmd_fit,
    lift_dataset,
    monomial_features,
)
from koopstab.errors import (
    ContractError,
    DataError,
    DegenerateDataError,
    DimensionError,
)
from koopstab.projection import pgd_project
from koopstab.stability import certify_stable, spectral_radius
from helpers import rotation


def simulate_linear(A, x0, steps, rng=None, noise=0.0):
    states = [np.asarray(x0, dtype=np.float64)]
    for _ in range(steps):
        x = A @ states[-1]
        if noise:
            x = x + rng.normal(0.0, noise, size=x.shape)
        states.append(x)
    return np.array(states)


class TestLiftDataset:
    def test_single_trajectory_column_layout(self):
        traj = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 2.0]])
        pair = lift_dataset([traj], "identity")
        np.testing.assert_array_equal(pair.Psi, [[1.0, 2.0], [0.0, 1.0]])
        np.testing.assert_array_equal(pair.Psi_plus, [[2.0, 3.0], [1.0, 2.0]])

    def test_identity_dictionary_row_count(self):
        traj = np.zeros((5, 2))
        traj[:, 0] = np.arange(5)
        assert lift_dataset([traj], "identity").Psi.shape == (2, 4)

    def test_degree_two_monomials_on_plane(self):
        pair = lift_dataset([np.array([[2.0, 3.0], [1.0, 1.0]])], "monomials:2")
        assert pair.Psi.shape == (5, 1)
        # graded lex: x1, x2, x1^2, x1*x2, x2^2
        np.testing.assert_allclose(pair.Psi[:, 0], [2.0, 3.0, 4.0, 6.0, 9.0])

    def test_multiple_trajectories_concatenate(self):
        t1 = np.arange(6.0).reshape(3, 2)
        t2 = np.arange(8.0).reshape(4, 2)
        pair = lift_dataset([t1, t2], "identity")
        assert pair.n_pairs == 2 + 3

    def test_short_trajectory_rejected(self):
        with pytest.raises(DataError):
            lift_dataset([np.zeros((1, 3))], "identity")

    def test_one_dimensional_trajectory_rejected(self):
        with pytest.raises(DimensionError, match="trajectory 0 must be 2-D, got 1-D"):
            lift_dataset([np.arange(4.0)], "identity")

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            lift_dataset([], "identity")

    def test_unknown_dictionary_rejected(self):
        with pytest.raises(ContractError):
            lift_dataset([np.zeros((3, 2))], "fourier")


class TestMonomialFeatures:
    def test_degree_one_is_identity(self):
        X = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(monomial_features(X, 1), X)

    def test_count_matches_stars_and_bars(self):
        X = np.ones((3, 1))
        # sum over deg 1..3 of C(3+deg-1, deg) = 3 + 6 + 10
        assert monomial_features(X, 3).shape[0] == 19

    def test_degree_zero_rejected(self):
        with pytest.raises(ContractError):
            monomial_features(np.ones((2, 1)), 0)


class TestEdmdFit:
    def test_identity_dynamics_full_rank(self):
        rng = np.random.default_rng(40)
        Psi = rng.normal(size=(3, 10))
        K = edmd_fit(SnapshotPair(Psi=Psi, Psi_plus=Psi))
        np.testing.assert_allclose(K, np.eye(3), atol=1e-12)

    def test_recovers_linear_generator(self):
        rng = np.random.default_rng(41)
        A = np.array([[0.9, 0.1, 0.0],
                      [-0.2, 0.8, 0.05],
                      [0.0, 0.1, 0.7]])
        trajs = [simulate_linear(A, rng.normal(size=3), 15) for _ in range(3)]
        K = edmd_fit(lift_dataset(trajs, "identity"))
        assert np.abs(K - A).max() <= 1e-8

    def test_column_permutation_invariant(self):
        rng = np.random.default_rng(42)
        Psi = rng.normal(size=(4, 12))
        Psi_plus = rng.normal(size=(4, 12))
        perm = rng.permutation(12)
        K1 = edmd_fit(SnapshotPair(Psi=Psi, Psi_plus=Psi_plus))
        K2 = edmd_fit(SnapshotPair(Psi=Psi[:, perm], Psi_plus=Psi_plus[:, perm]))
        np.testing.assert_allclose(K1, K2, atol=1e-10)

    def test_local_optimality_probe(self):
        rng = np.random.default_rng(43)
        Psi = rng.normal(size=(3, 20))
        Psi_plus = rng.normal(size=(3, 20))
        K = edmd_fit(SnapshotPair(Psi=Psi, Psi_plus=Psi_plus))
        base = np.linalg.norm(Psi_plus - K @ Psi)
        for _ in range(100):
            delta = rng.normal(0.0, 1e-3, size=K.shape)
            assert base <= np.linalg.norm(Psi_plus - (K + delta) @ Psi) + 1e-12

    def test_rank_deficient_data_still_consistent(self):
        # all snapshots lie on a line; pinv picks the min-norm solution and
        # the fit still reproduces the observed transitions exactly
        v = np.array([[1.0], [2.0]])
        Psi = v @ np.array([[1.0, 2.0, 3.0]])
        Psi_plus = 0.5 * Psi
        K = edmd_fit(SnapshotPair(Psi=Psi, Psi_plus=Psi_plus))
        np.testing.assert_allclose(K @ Psi, Psi_plus, atol=1e-12)

    def test_zero_snapshots_rejected(self):
        with pytest.raises(DegenerateDataError):
            edmd_fit(SnapshotPair(Psi=np.zeros((2, 3)), Psi_plus=np.ones((2, 3))))

    def test_empty_pair_rejected(self):
        with pytest.raises(ContractError):
            edmd_fit(SnapshotPair(Psi=np.zeros((2, 0)), Psi_plus=np.zeros((2, 0))))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DimensionError):
            SnapshotPair(Psi=np.zeros((2, 3)), Psi_plus=np.zeros((2, 4)))

    def test_snapshot_matrices_must_be_2d(self):
        with pytest.raises(DimensionError, match="snapshot matrices must be 2-D"):
            SnapshotPair(Psi=np.zeros(3), Psi_plus=np.zeros(3))


class TestStabilityContrast:
    def test_edmd_can_return_unstable_fit_where_projection_certifies(self):
        # expanding spiral: the least-squares fit faithfully reproduces the
        # unstable generator, while a projected matrix is certified stable
        rng = np.random.default_rng(44)
        A = 1.05 * rotation(0.4)
        trajs = [simulate_linear(A, rng.normal(size=2), 30, rng, noise=1e-4)
                 for _ in range(4)]
        K_edmd = edmd_fit(lift_dataset(trajs, "identity"))
        assert spectral_radius(K_edmd) > 1.0
        assert not certify_stable(K_edmd).certified
        K_proj = pgd_project(K_edmd, np.zeros((2, 2)), alpha=1.0)
        assert certify_stable(K_proj, margin_tol=1e-9).certified
