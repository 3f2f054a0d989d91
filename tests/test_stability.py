import numpy as np
import pytest
from scipy.spatial import ConvexHull

from koopstab.errors import ContractError, DimensionError
from koopstab.stability import barrier_values, certify_stable, spectral_radius

from helpers import (
    Polyhedron,
    inward_pointing_check,
    random_orthogonal,
    rotation,
    scale_set,
    unit_hypercube,
)


def random_certified(rng, d, slack=0.0):
    """Random matrix with every row absolute sum <= 1 - slack."""
    K = rng.standard_normal((d, d))
    row_sums = np.sum(np.abs(K), axis=1)
    shrink = (1.0 - slack) / (row_sums * (1.0 + rng.uniform(0.0, 1.0, size=d)))
    return K * shrink[:, None]


def random_polytope(rng, dim, n_points=24):
    """Bounded random polytope containing the origin, with vertex list."""
    points = rng.standard_normal((n_points, dim))
    points -= points.mean(axis=0)
    hull = ConvexHull(points)
    A = hull.equations[:, :-1]
    b = -hull.equations[:, -1]
    return Polyhedron(A, b, vertices=points[hull.vertices])


# ------------------------------------------------------------ barrier rows

def test_barrier_values_ignore_memory_layout():
    # a row sum over a strided (Fortran-ordered) row adds in another order
    K = np.random.default_rng(4).normal(size=(100, 100))
    fortran = barrier_values(np.asfortranarray(K))
    c_order = barrier_values(K)
    assert fortran.h_plus.tobytes() == c_order.h_plus.tobytes()
    assert fortran.h_minus.tobytes() == c_order.h_minus.tobytes()


def test_barrier_values_zero_matrix():
    rep = barrier_values(np.zeros((3, 3)))
    np.testing.assert_array_equal(rep.h_plus, np.ones(3))
    np.testing.assert_array_equal(rep.h_minus, np.ones(3))
    assert rep.margin == 1.0


def test_barrier_values_identity():
    rep = barrier_values(np.eye(3))
    np.testing.assert_array_equal(rep.h_plus, np.full(3, 2.0))
    np.testing.assert_array_equal(rep.h_minus, np.zeros(3))
    assert rep.margin == 0.0


def test_barrier_values_hand_row():
    K = np.zeros((3, 3))
    K[0] = [0.5, 0.2, -0.1]
    rep = barrier_values(K)
    assert rep.h_plus[0] == pytest.approx(1.2)
    assert rep.h_minus[0] == pytest.approx(0.2)
    assert rep.h[0] == pytest.approx(0.2)


def test_overflowing_row_sum_reads_minus_inf():
    # finite entries whose absolute sum overflows: no RuntimeWarning (the
    # suite makes one an error), and both branches refuse the row
    rep = barrier_values(np.array([[1e308, 1e308], [0.0, 0.5]]))
    np.testing.assert_array_equal(rep.h_plus, [-np.inf, 1.5])
    np.testing.assert_array_equal(rep.h_minus, [-np.inf, 0.5])
    assert not certify_stable(np.array([[1e308, -1e308], [0.0, 0.5]])).certified


def test_barrier_values_requires_square():
    with pytest.raises(DimensionError):
        barrier_values(np.ones((2, 3)))


def test_mode_selection():
    rep = barrier_values(np.diag([0.8, -0.2]))
    np.testing.assert_array_equal(rep.rows("symmetric"), rep.h)
    np.testing.assert_array_equal(rep.rows("asymmetric"), rep.h_plus)
    with pytest.raises(ContractError):
        rep.rows("both")


# ---------------------------------------------------------- certification

def test_certify_simple_diagonal():
    cert = certify_stable(np.diag([0.9, 0.5]))
    assert cert.certified
    assert cert.report.margin == pytest.approx(0.1)


def test_certify_refuses_expanding_row():
    cert = certify_stable(np.array([[1.5, 0.0], [0.0, 0.5]]))
    assert not cert.certified
    assert cert.report.h_minus[0] == pytest.approx(-0.5)


def test_certify_identity_boundary():
    assert certify_stable(np.eye(4), margin_tol=0.0).certified


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
def test_certify_rejects_non_finite_margin_tolerance(tol):
    # inf would certify any matrix, nan would refuse every one
    with pytest.raises(ContractError, match="finite"):
        certify_stable(np.array([[3.0, 0.2], [0.1, 0.3]]), margin_tol=tol)
    with pytest.raises(ContractError, match="finite"):
        certify_stable(np.eye(2), margin_tol=tol)


def test_certificate_text_mentions_rows_and_radius():
    text = certify_stable(np.eye(2)).text()
    assert "CERTIFIED" in text
    assert "margin" in text
    assert "spectral radius" in text


def test_certified_implies_infnorm_contraction():
    rng = np.random.default_rng(10)
    for _ in range(100):
        d = rng.integers(2, 9)
        K = random_certified(rng, d)
        assert certify_stable(K).certified
        x = rng.standard_normal(d)
        assert np.linalg.norm(K @ x, np.inf) <= np.linalg.norm(x, np.inf) + 1e-12


def test_certified_implies_spectral_radius_at_most_one():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        K = random_certified(rng, int(rng.integers(2, 9)))
        assert spectral_radius(K) <= 1.0 + 1e-9


def test_sufficient_but_not_necessary_nilpotent_witness():
    K = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert spectral_radius(K) == 0.0  # Schur stable, in fact nilpotent
    assert not certify_stable(K, margin_tol=0.0).certified


# --------------------------------------------------------- spectral radius

def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([0.3, -0.7])) == pytest.approx(0.7)


def test_spectral_radius_scaled_rotation():
    assert spectral_radius(0.9 * rotation(0.77)) == pytest.approx(0.9, abs=1e-10)


def test_spectral_radius_iterative_path_large_matrix():
    rng = np.random.default_rng(12)
    d = 80
    blocks = np.diag(rng.uniform(-0.5, 0.5, size=d))
    blocks[:2, :2] = 0.95 * rotation(0.7)  # dominant complex pair
    Q = random_orthogonal(rng, d)
    K = Q @ blocks @ Q.T
    assert spectral_radius(K) == pytest.approx(0.95, abs=1e-8)


@pytest.mark.parametrize("d", [3, 100])
def test_spectral_radius_of_entries_near_the_float_limit_is_inf(d):
    # an overflow inside the eigensolver is the answer, not a warning (which
    # this suite turns into an error)
    assert spectral_radius(np.full((d, d), 1e308)) == np.inf


# -------------------------------------------------------------- scaled sets

def test_scale_set_identity_and_hypercube():
    C = unit_hypercube(3)
    same = scale_set(C, 1.0)
    np.testing.assert_array_equal(same.b, C.b)
    np.testing.assert_array_equal(same.vertices, C.vertices)
    doubled = scale_set(C, 2.0)
    np.testing.assert_array_equal(doubled.b, 2.0 * np.ones(6))
    np.testing.assert_array_equal(doubled.vertices, 2.0 * C.vertices)


def test_scale_set_rejects_negative_scale():
    with pytest.raises(ContractError):
        scale_set(unit_hypercube(2), -0.5)


def test_scaled_sets_nest():
    rng = np.random.default_rng(13)
    for _ in range(20):
        C = random_polytope(rng, int(rng.integers(2, 5)))
        s = rng.uniform(0.5, 3.0)
        s_prime = s * rng.uniform(0.0, 1.0)
        inner = scale_set(C, s_prime)
        outer = scale_set(C, s)
        for v in inner.vertices:
            assert outer.contains(v)


# --------------------------------------------------------- inward pointing

def test_zero_field_always_inward():
    rng = np.random.default_rng(14)
    for dim in (2, 3, 4):
        C = random_polytope(rng, dim)
        assert inward_pointing_check(C, np.zeros((dim, dim))).ok


def test_inward_pointing_counterexample_with_witness():
    C = unit_hypercube(2)
    A = np.diag([2.0, 0.5])
    result = inward_pointing_check(C, A)
    assert not result.ok
    image = A @ result.vertex
    # the reported constraint row really is violated by the vertex image
    assert C.A[result.constraint_index] @ image > C.b[result.constraint_index]
    assert not C.contains(image)


def test_inward_pointing_requires_vertices():
    C = Polyhedron(np.eye(2), np.ones(2))
    with pytest.raises(ContractError):
        inward_pointing_check(C, np.eye(2))


def test_vertex_list_validated_against_constraints():
    with pytest.raises(ContractError):
        Polyhedron(np.eye(2), np.ones(2), vertices=[[2.0, 0.0]])


def test_hypercube_check_agrees_with_barrier_margin():
    rng = np.random.default_rng(15)
    C = unit_hypercube(4)
    tested = 0
    while tested < 500:
        K = rng.standard_normal((4, 4)) * rng.uniform(0.1, 0.6)
        margin = barrier_values(K).margin
        if abs(margin) < 1e-6:
            continue  # membership tolerance would make the comparison moot
        assert inward_pointing_check(C, K).ok == (margin >= 0.0)
        tested += 1


def test_certified_maps_keep_hypercube_forward_invariant():
    rng = np.random.default_rng(16)
    d = 6
    K = random_certified(rng, d)
    states = rng.uniform(-1.0, 1.0, size=(d, 50))
    for _ in range(1000):
        states = K @ states
        assert np.max(np.abs(states)) <= 1.0 + 1e-9
