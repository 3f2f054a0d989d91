"""Row projection tests: hand-solved cases, invariants, oracle equivalence."""

import numpy as np
import pytest

from koopstab import projection
from koopstab.errors import ContractError, DimensionError, NumericError
from koopstab.projection import barrier_threshold, displacement, pgd_project
from koopstab.stability import barrier_values, certify_stable

from helpers import (
    _asym_project,
    brute_force_row_qp,
    l1_project_row,
    pgd_project_rowwise,
    project_row,
)


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

    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("which", ["K_tilde", "K_prev"])
    def test_overflowing_row_sum_is_a_numeric_failure(self, mode, which):
        mats = {"K_tilde": np.eye(3), "K_prev": np.eye(3)}
        mats[which][1] = [1e308, -1e308, 1e308]
        with pytest.raises(NumericError, match=rf"{which} rows \[1\]: non-finite row barrier"):
            pgd_project(mats["K_tilde"], mats["K_prev"], alpha=1.0, mode=mode)


class TestBlockKernel:
    """The block L1 kernel gives every row the bits of the one-row projection."""

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
    @pytest.mark.parametrize("margin", [0.0, 1e-3, 0.3])
    def test_pgd_project_matches_row_by_row(self, alpha, margin):
        rng = np.random.default_rng(int(alpha * 1000 + margin * 1e4))
        for d in (1, 2, 3, 5, 8, 9, 16, 17, 20, 33, 64, 100, 128, 129, 200, 220):
            for scale in (0.05, 0.3, 1.5):
                K_prev = rng.normal(0.0, scale, size=(d, d))
                K_tilde = K_prev + rng.normal(0.0, 0.3 * scale, size=(d, d))
                fast = pgd_project(K_tilde, K_prev, alpha, margin=margin)
                slow = pgd_project_rowwise(K_tilde, K_prev, alpha, margin=margin)
                assert np.array_equal(fast, slow), (d, scale)

    def test_random_sizes_match_row_by_row(self):
        rng = np.random.default_rng(52)
        for _ in range(60):
            d = int(rng.integers(1, 221))
            alpha = float(rng.choice([1.0, 0.5, 0.1]))
            margin = float(rng.choice([0.0, 1e-3, 0.3]))
            K_prev = rng.normal(0.0, rng.choice([0.01, 0.2, 1.0]), size=(d, d))
            K_tilde = rng.normal(0.0, rng.choice([0.01, 0.2, 1.0]), size=(d, d))
            assert np.array_equal(pgd_project(K_tilde, K_prev, alpha, margin=margin),
                                  pgd_project_rowwise(K_tilde, K_prev, alpha, margin=margin))

    def test_project_row_matches_one_row_projection(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            d = int(rng.integers(1, 221))
            y = rng.normal(0.0, rng.choice([0.01, 0.3, 3.0]), size=d)
            tau = float(rng.uniform(-1.0, 0.5))
            assert np.array_equal(project_row(y, 0, tau, "symmetric"),
                                  l1_project_row(y, 1.0 - tau))

    def test_selected_rows_within_the_radius_are_copied(self):
        # the barrier's arithmetic (1 - |K_ii| - (sum|row| - |K_ii|)) can read
        # a row as short of its target whose plain L1 sum is within the
        # radius; the kernel copies such a row and the nudge lifts it
        rng = np.random.default_rng(54)
        margin = 1e-3
        radius = 1.0 - margin
        found = 0
        for _ in range(400):
            d = int(rng.integers(2, 8))
            K = rng.normal(size=(d, d)) * 10.0 ** rng.uniform(-3, 0, size=(d, d))
            K *= (radius / np.abs(K).sum(axis=1))[:, None]
            selected = barrier_values(K).h < margin
            within = np.abs(K).sum(axis=1) <= radius
            if not (selected & within).any():
                continue
            found += 1
            rows = K[selected & within]
            assert np.array_equal(
                projection._l1_project(rows, np.full(len(rows), radius))[0], rows)
            assert np.array_equal(
                pgd_project(K, np.zeros_like(K), 1.0, margin=margin),
                pgd_project_rowwise(K, np.zeros_like(K), 1.0, margin=margin))
        assert found >= 20

    def test_rows_that_dwarf_the_radius_fall_back_to_rho_zero(self):
        # 2**53 + 4 - 1 rounds back to 2**53 + 4, so no sort index qualifies
        big = 2.0 ** 53 + 4.0
        Y = np.array([[big, 0.0, 0.0], [0.5, -2.0, 1.0], [-big, big, 3.0],
                      [0.1, 0.1, 0.1]])
        radii = np.array([1.0, 1.0, 0.5, 1.0])
        out, _ = projection._l1_project(Y, radii)
        for row, radius, got in zip(Y, radii, out):
            assert np.array_equal(got, l1_project_row(row, radius))
        assert np.all(np.abs(out).sum(axis=1) <= radii)


def _agree(fast, slow, y, rel):
    """Every entry within ``rel`` of the input's scale, max(1, max |y|)."""
    return np.abs(fast - slow).max(initial=0.0) <= rel * max(1.0, np.abs(y).max(initial=0.0))


class TestAsymmetricBlockKernel:
    """Asymmetric rows through the block kernel agree with the breakpoint walk.

    A row from the kernel is within 1e-14 of the input's scale of the
    breakpoint reference: the two round the multiplier differently, and an
    output entry |y_j| - lam can cancel most of its input. ``pgd_project``
    then scales a row short of its target by 1 - 1e-12 up to 8 times, and
    the two sides may nudge a row a different number of times, so whole
    matrices agree within 1e-11 of the input's scale.
    """

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.1])
    @pytest.mark.parametrize("margin", [0.0, 1e-3, 0.3])
    def test_pgd_project_matches_row_by_row(self, alpha, margin):
        rng = np.random.default_rng(int(alpha * 1000 + margin * 1e4) + 7)
        for d in (1, 2, 3, 5, 8, 9, 16, 17, 20, 33, 64, 100, 128, 129, 200, 220):
            for scale in (0.05, 0.3, 1.5):
                K_prev = rng.normal(0.0, scale, size=(d, d))
                K_tilde = K_prev + rng.normal(0.0, 0.3 * scale, size=(d, d))
                fast = pgd_project(K_tilde, K_prev, alpha, "asymmetric", margin)
                slow = pgd_project_rowwise(K_tilde, K_prev, alpha, "asymmetric", margin)
                assert _agree(fast, slow, K_tilde, 1e-11), (d, scale)

    def test_random_sizes_match_row_by_row(self):
        rng = np.random.default_rng(55)
        for _ in range(60):
            d = int(rng.integers(1, 221))
            alpha = float(rng.choice([1.0, 0.5, 0.1]))
            margin = float(rng.choice([0.0, 1e-3, 0.3]))
            K_prev = rng.normal(0.0, rng.choice([0.01, 0.2, 1.0]), size=(d, d))
            K_tilde = rng.normal(0.0, rng.choice([0.01, 0.2, 1.0]), size=(d, d))
            fast = pgd_project(K_tilde, K_prev, alpha, "asymmetric", margin)
            slow = pgd_project_rowwise(K_tilde, K_prev, alpha, "asymmetric", margin)
            assert _agree(fast, slow, K_tilde, 1e-11), d

    def test_project_row_matches_breakpoint_reference(self):
        rng = np.random.default_rng(56)
        for _ in range(3000):
            d = int(rng.integers(1, 221))
            i = int(rng.integers(0, d))
            y = rng.normal(0.0, rng.choice([0.01, 0.3, 3.0, 100.0]), size=d)
            tau = float(rng.uniform(-1.0, 0.5))
            assert _agree(project_row(y, i, tau, "asymmetric"),
                          _asym_project(y, i, 1.0 - tau), y, 1e-14)

    def test_kernel_threshold_balances_each_row(self):
        # a row over its radius R gets the theta > 0 that solves
        # sum_j max(|y_j| - theta, 0) = R + theta, also with no entries
        # (d = 1) and with none left above theta (k = 0); other rows keep theta 0
        rng = np.random.default_rng(58)
        for width in (0, 1, 2, 5, 40):
            Y = rng.normal(0.0, 1.0, size=(50, width))
            radii = rng.uniform(-3.0, 1.0, size=50)
            out, theta = projection._l1_project(Y, radii, active=1)
            over = ~(np.abs(Y).sum(axis=1) <= radii)
            assert over.any() and np.all(theta[over] > 0.0) and np.all(theta[~over] == 0.0)
            assert np.array_equal(out, np.sign(Y) * np.maximum(np.abs(Y) - theta[:, None], 0.0))
            residual = np.abs(out).sum(axis=1) - radii - theta
            scale = 1.0 + np.abs(radii) + np.abs(Y).sum(axis=1)
            assert np.all(np.abs(residual[over]) <= 1e-14 * scale[over]), width

    def test_rows_without_room_zero_every_off_diagonal(self):
        # with 1 - tau + y_ii <= -max|y_j| the multiplier is -(1 - tau + y_ii)
        # and no off-diagonal entry survives the threshold (k = 0)
        rng = np.random.default_rng(57)
        for _ in range(200):
            d = int(rng.integers(1, 7))
            i = int(rng.integers(0, d))
            tau = float(rng.uniform(-1.0, 0.0))
            y = rng.normal(0.0, 1.0, size=d)
            y[i] = -(1.0 - tau) - np.abs(np.delete(y, i)).max(initial=0.0) \
                - float(rng.uniform(0.0, 2.0))
            x = project_row(y, i, tau, "asymmetric")
            assert np.all(np.delete(x, i) == 0.0)
            assert x[i] == pytest.approx(-(1.0 - tau), abs=1e-14)
            assert _agree(x, _asym_project(y, i, 1.0 - tau), y, 1e-14)
            assert _agree(x, brute_force_row_qp(y, i, tau, "asymmetric"), y, 1e-12)

    def test_rows_that_dwarf_the_radius(self):
        # 2**53 + 4 - 1 rounds back to 2**53 + 4; the diagonal still counts
        # as active, so the first off-diagonal entry qualifies
        big = 2.0 ** 53 + 4.0
        for y, i in (([big, 0.0], 1), ([0.0, big], 0), ([-big, big, 3.0], 2),
                     ([big, -big, 0.5], 0), ([-big], 0)):
            y = np.array(y)
            x = project_row(y, i, 0.0, "asymmetric")
            assert _agree(x, _asym_project(y, i, 1.0), y, 1e-14), y
            assert np.abs(np.delete(x, i)).sum() - x[i] <= 1.0

    def test_one_by_one_matrix(self):
        # the row has no off-diagonal entry: the diagonal takes the excess
        for K_tilde, K_prev, alpha, expected in (([[-3.0]], [[0.5]], 1.0, -1.0),
                                                 ([[-3.0]], [[-2.0]], 0.5, -1.5),
                                                 ([[4.0]], [[0.5]], 1.0, 4.0)):
            K_tilde, K_prev = np.array(K_tilde), np.array(K_prev)
            out = pgd_project(K_tilde, K_prev, alpha, mode="asymmetric")
            assert out[0, 0] == expected
            assert np.array_equal(
                out, pgd_project_rowwise(K_tilde, K_prev, alpha, "asymmetric"))

class TestDisplacement:
    def test_equals_numpy_norm_bit_for_bit(self):
        rng = np.random.default_rng(41)
        for trial in range(300):
            d = int(rng.integers(1, 30))
            scale = 10.0 ** rng.uniform(-8, 8, size=(d, d))
            K = rng.normal(size=(d, d)) * scale
            P = rng.normal(size=(d, d)) * scale
            assert displacement(K, P) == float(np.linalg.norm(K - P)), trial

    def test_entries_near_1e200_give_a_finite_distance(self):
        K = np.array([[1e200, -3e200], [2e200, 0.5]])
        moved = displacement(K, np.zeros((2, 2)))
        assert np.isfinite(moved)
        assert moved == pytest.approx(np.sqrt(14.0) * 1e200, rel=1e-12)

    def test_zero_distance(self):
        K = np.eye(3)
        assert displacement(K, K) == 0.0
