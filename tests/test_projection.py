"""Row projection tests: hand-solved cases, invariants, oracle equivalence."""

import numpy as np
import pytest

from koopstab.errors import ContractError, DimensionError
from koopstab.projection import barrier_threshold, pgd_project, project_row
from koopstab.stability import barrier_values, certify_stable

from helpers import brute_force_row_qp


class TestBarrierThreshold:
    def test_positive_barrier_clamps_to_zero(self):
        assert barrier_threshold(0.4, 1.0) == 0.0

    def test_negative_barrier_passes_through_at_alpha_one(self):
        assert barrier_threshold(-0.6, 1.0) == -0.6

    def test_alpha_scales_negative_barrier(self):
        assert barrier_threshold(-0.6, 0.5) == pytest.approx(-0.3)

    def test_array_of_barriers(self):
        np.testing.assert_array_equal(
            barrier_threshold(np.array([0.4, -0.6, 0.0]), 0.5), [0.0, -0.3, 0.0])

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ContractError):
            barrier_threshold(0.0, alpha)


class TestSymmetricRow:
    def test_interior_point_unchanged(self):
        y = np.array([0.2, -0.3, 0.1])
        out = project_row(y, 0, 0.0, "symmetric")
        np.testing.assert_array_equal(out, y)

    def test_axis_point(self):
        out = project_row(np.array([2.0, 0.0]), 0, 0.0, "symmetric")
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_diagonal_point(self):
        out = project_row(np.array([1.0, 1.0]), 0, 0.0, "symmetric")
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)

    def test_tied_magnitudes_share_shrinkage(self):
        out = project_row(np.array([1.5, -1.5, 1.5]), 1, 0.0, "symmetric")
        np.testing.assert_allclose(out, [1 / 3, -1 / 3, 1 / 3], atol=1e-12)

    def test_negative_tau_grows_radius(self):
        out = project_row(np.array([4.0, 0.0]), 0, -1.0, "symmetric")
        np.testing.assert_allclose(out, [2.0, 0.0], atol=1e-12)

    def test_entry_that_dwarfs_the_radius(self):
        # 2**53 + 4 - 1 rounds back to 2**53 + 4, hiding the first sort index
        out = project_row(np.array([2.0 ** 53 + 4.0]), 0, 0.0, "symmetric")
        assert np.abs(out).sum() <= 1.0

    def test_empty_interior_rejected(self):
        with pytest.raises(ContractError):
            project_row(np.array([1.0, 0.0]), 0, 1.0, "symmetric")

    def test_bad_index_rejected(self):
        with pytest.raises(DimensionError):
            project_row(np.array([1.0, 0.0]), 2, 0.0, "symmetric")


class TestAsymmetricRow:
    def test_feasible_point_unchanged(self):
        y = np.array([5.0, 0.2])  # 0.2 - 5.0 is far below 1
        np.testing.assert_array_equal(project_row(y, 0, 0.0, "asymmetric"), y)

    def test_negative_diagonal_lifted(self):
        out = project_row(np.array([-2.0, 0.0]), 0, 0.0, "asymmetric")
        np.testing.assert_allclose(out, [-1.0, 0.0], atol=1e-12)

    def test_offdiagonal_split_with_diagonal(self):
        # KKT by hand: lam = 1, x_i = y_i + 1, x_j soft-thresholded by 1
        out = project_row(np.array([0.0, 3.0]), 0, 0.0, "asymmetric")
        np.testing.assert_allclose(out, [1.0, 2.0], atol=1e-12)

    def test_unbounded_diagonal_direction_stays_feasible(self):
        y = np.array([10.0, 0.5, -0.5])
        np.testing.assert_array_equal(project_row(y, 0, 0.0, "asymmetric"), y)


class TestBruteForceOracle:
    def test_feasible_passthrough(self):
        y = np.array([0.1, 0.2, -0.3])
        np.testing.assert_array_equal(brute_force_row_qp(y, 0, 0.0, "symmetric"), y)
        np.testing.assert_array_equal(brute_force_row_qp(y, 0, 0.0, "asymmetric"), y)

    def test_agrees_with_hand_cases(self):
        np.testing.assert_allclose(
            brute_force_row_qp(np.array([2.0, 0.0]), 0, 0.0, "symmetric"),
            [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(
            brute_force_row_qp(np.array([-2.0, 0.0]), 0, 0.0, "asymmetric"),
            [-1.0, 0.0], atol=1e-12)

    def test_bad_mode_rejected(self):
        with pytest.raises(ContractError):
            brute_force_row_qp(np.array([1.0, 0.0]), 0, 0.0, "both")


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
class TestOracleEquivalence:
    def test_random_instances_match(self, mode):
        rng = np.random.default_rng(1234 if mode == "symmetric" else 5678)
        for _ in range(150):
            d = int(rng.integers(2, 7))
            i = int(rng.integers(0, d))
            scale = rng.choice([0.3, 1.0, 3.0])
            y = rng.normal(0.0, scale, size=d)
            tau = float(rng.uniform(-1.0, 0.0))
            fast = project_row(y, i, tau, mode)
            slow = brute_force_row_qp(y, i, tau, mode)
            assert np.linalg.norm(fast - slow) <= 1e-6

    def test_sparse_and_tied_inputs_match(self, mode):
        rng = np.random.default_rng(99)
        for _ in range(60):
            d = int(rng.integers(2, 7))
            i = int(rng.integers(0, d))
            y = rng.choice([-1.5, -0.5, 0.0, 0.5, 1.5], size=d)
            tau = float(rng.choice([0.0, -0.5, -1.0]))
            fast = project_row(y, i, tau, mode)
            slow = brute_force_row_qp(y, i, tau, mode)
            assert np.linalg.norm(fast - slow) <= 1e-6


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
class TestRowInvariants:
    def _random_instance(self, rng):
        d = int(rng.integers(2, 8))
        i = int(rng.integers(0, d))
        y = rng.normal(0.0, 2.0, size=d)
        tau = float(rng.uniform(-1.0, 0.0))
        return y, i, tau

    def test_idempotent(self, mode):
        rng = np.random.default_rng(7)
        for _ in range(100):
            y, i, tau = self._random_instance(rng)
            once = project_row(y, i, tau, mode)
            twice = project_row(once, i, tau, mode)
            np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_non_expansive(self, mode):
        rng = np.random.default_rng(8)
        for _ in range(100):
            y1, i, tau = self._random_instance(rng)
            y2 = y1 + rng.normal(0.0, 1.0, size=y1.size)
            p1 = project_row(y1, i, tau, mode)
            p2 = project_row(y2, i, tau, mode)
            assert np.linalg.norm(p1 - p2) <= np.linalg.norm(y1 - y2) + 1e-12

    def test_output_feasible(self, mode):
        rng = np.random.default_rng(9)
        for _ in range(200):
            y, i, tau = self._random_instance(rng)
            x = project_row(y, i, tau, mode)
            if mode == "symmetric":
                assert np.abs(x).sum() <= (1.0 - tau) + 1e-12
            else:
                slack = np.abs(np.delete(x, i)).sum() - x[i]
                assert slack <= (1.0 - tau) + 1e-12


class TestPgdProject:
    def test_certified_reference_passes_through(self):
        K = np.array([[0.5, 0.2], [-0.1, 0.6]])
        assert certify_stable(K).certified
        out = pgd_project(K, K, alpha=1.0)
        np.testing.assert_array_equal(out, K)

    def test_hand_two_by_two(self):
        K_tilde = np.array([[2.0, 0.0], [0.0, 0.5]])
        out = pgd_project(K_tilde, np.zeros((2, 2)), alpha=1.0)
        np.testing.assert_allclose(out, [[1.0, 0.0], [0.0, 0.5]], atol=1e-12)

    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    def test_relaxed_constraint_holds_on_random_instances(self, mode):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            alpha = float(rng.uniform(0.05, 1.0))
            K_prev = rng.normal(0.0, 1.0, size=(d, d))
            K_tilde = K_prev + rng.normal(0.0, 0.5, size=(d, d))
            out = pgd_project(K_tilde, K_prev, alpha, mode=mode)
            h_prev = barrier_values(K_prev).rows(mode)
            h_new = barrier_values(out).rows(mode)
            floor = np.minimum(0.0, alpha * h_prev)
            assert np.all(h_new >= floor - 1e-9)

    def test_block_diagonal_decouples(self):
        rng = np.random.default_rng(32)
        A_prev, B_prev = rng.normal(size=(3, 3)), rng.normal(size=(4, 4))
        A_ref, B_ref = rng.normal(size=(3, 3)), rng.normal(size=(4, 4))
        joint_prev = np.zeros((7, 7))
        joint_prev[:3, :3], joint_prev[3:, 3:] = A_prev, B_prev
        joint_ref = np.zeros((7, 7))
        joint_ref[:3, :3], joint_ref[3:, 3:] = A_ref, B_ref
        joint = pgd_project(joint_ref, joint_prev, alpha=0.7)
        np.testing.assert_allclose(joint[:3, :3], pgd_project(A_ref, A_prev, 0.7),
                                   atol=1e-12)
        np.testing.assert_allclose(joint[3:, 3:], pgd_project(B_ref, B_prev, 0.7),
                                   atol=1e-12)
        assert np.all(joint[:3, 3:] == 0.0) and np.all(joint[3:, :3] == 0.0)

    def test_infeasible_rows_approach_geometrically(self):
        # with the reference equal to the previous matrix, an infeasible
        # row's barrier value is lifted from h to at least alpha * h
        rng = np.random.default_rng(33)
        alpha = 0.5
        for _ in range(50):
            d = int(rng.integers(2, 6))
            K = rng.normal(0.0, 2.0, size=(d, d))
            h_prev = barrier_values(K).h
            if np.all(h_prev >= 0.0):
                continue
            out = pgd_project(K, K, alpha)
            h_new = barrier_values(out).h
            bad = h_prev < 0.0
            assert np.all(h_new[bad] >= alpha * h_prev[bad] - 1e-12)
            assert np.all(h_new[bad] > h_prev[bad])

    def test_margin_shrinks_radius(self):
        K_tilde = np.array([[2.0, 0.0], [0.0, 0.5]])
        out = pgd_project(K_tilde, np.zeros((2, 2)), alpha=1.0, margin=0.25)
        np.testing.assert_allclose(out, [[0.75, 0.0], [0.0, 0.5]], atol=1e-12)
        assert certify_stable(out).report.margin >= 0.25 - 1e-12

    def test_projection_certifies_any_matrix_at_zero_threshold(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            d = int(rng.integers(2, 10))
            K = rng.normal(0.0, 1.5, size=(d, d))
            # a certified previous matrix pins every threshold at zero
            out = pgd_project(K, np.zeros((d, d)), alpha=1.0)
            cert = certify_stable(out, margin_tol=1e-9)
            assert cert.certified
            assert np.abs(out).sum(axis=1).max() <= 1.0 + 1e-9

    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    def test_constraint_holds_at_tolerance_zero(self, mode):
        # the verification nudge makes the contract exact, not epsilon-close
        rng = np.random.default_rng(35)
        for _ in range(500):
            d = int(rng.integers(2, 21))
            alpha = float(rng.uniform(0.05, 1.0))
            K_prev = rng.normal(0.0, rng.choice([0.05, 0.5, 2.0]), size=(d, d))
            K_tilde = K_prev + rng.normal(0.0, 0.3, size=(d, d))
            out = pgd_project(K_tilde, K_prev, alpha, mode=mode)
            floor = np.minimum(0.0, alpha * barrier_values(K_prev).rows(mode))
            assert np.all(barrier_values(out).rows(mode) >= floor)

    def test_certified_previous_matrix_gives_certified_output_exactly(self):
        rng = np.random.default_rng(36)
        for _ in range(300):
            d = int(rng.integers(2, 21))
            K = rng.normal(0.0, 1.0, size=(d, d))
            out = pgd_project(K, 0.5 * np.eye(d), alpha=1.0)
            assert certify_stable(out, margin_tol=0.0).certified

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            pgd_project(np.zeros((2, 2)), np.zeros((3, 3)), alpha=1.0)
        with pytest.raises(DimensionError):
            pgd_project(np.zeros((2, 3)), np.zeros((2, 3)), alpha=1.0)

    def test_bad_margin_rejected(self):
        with pytest.raises(ContractError):
            pgd_project(np.zeros((2, 2)), np.zeros((2, 2)), alpha=1.0, margin=1.0)
        with pytest.raises(ContractError):
            pgd_project(np.zeros((2, 2)), np.zeros((2, 2)), alpha=1.0, margin=-0.1)

    def test_bad_mode_rejected(self):
        with pytest.raises(ContractError):
            pgd_project(np.zeros((2, 2)), np.zeros((2, 2)), alpha=1.0, mode="spectral")

    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    def test_transposed_input_certifies_at_tolerance_zero(self, mode):
        # a transposed matrix is Fortran-ordered; the output must still pass
        # the certificate's own row test, and come back C-ordered
        rng = np.random.default_rng(37)
        for d in (20, 50, 100, 200):
            K = rng.normal(0.0, 0.3, size=(d, d))
            out = pgd_project(K.T, np.zeros((d, d)), alpha=1.0, mode=mode)
            assert out.flags.c_contiguous
            assert barrier_values(out).rows(mode).min() >= 0.0
            if mode == "symmetric":
                assert certify_stable(out, margin_tol=0.0).certified

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["K_tilde", "K_prev"])
    def test_non_finite_input_rejected(self, bad, which):
        mats = {"K_tilde": np.eye(3), "K_prev": np.eye(3)}
        mats[which][1, 2] = bad
        with pytest.raises(ContractError, match="finite"):
            pgd_project(mats["K_tilde"], mats["K_prev"], alpha=1.0)
