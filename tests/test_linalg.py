import numpy as np
import pytest

from collapsekit.errors import SingularMatrixError
from collapsekit.linalg import (
    make_rng,
    pseudo_inverse,
    solve_linear,
    spectral_radius_bound,
)


def _penrose_ok(m, p, tol=1e-9):
    scale = max(np.linalg.norm(m), 1.0)
    checks = [
        np.linalg.norm(m @ p @ m - m) / scale,
        np.linalg.norm(p @ m @ p - p) / max(np.linalg.norm(p), 1.0),
        np.linalg.norm((m @ p).T - m @ p) / scale,
        np.linalg.norm((p @ m).T - p @ m) / scale,
    ]
    return max(checks) < tol


def _reference_pinv(m, rel_cutoff):
    # the one-matrix arithmetic the stacked kernel must reproduce
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]))
    reciprocal = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
    inv = np.where(s >= rel_cutoff * s[0], reciprocal, 0.0)
    return (vt.T * inv) @ u.T


class TestPseudoInverse:
    def test_diagonal(self):
        np.testing.assert_allclose(
            pseudo_inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25])
        )

    def test_rank_deficient_diagonal(self):
        np.testing.assert_allclose(
            pseudo_inverse(np.diag([1.0, 0.0]), rel_cutoff=1e-12), np.diag([1.0, 0.0])
        )

    def test_penrose_conditions_rank2(self):
        rng = make_rng(11)
        m = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
        assert _penrose_ok(m, pseudo_inverse(m))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_penrose_conditions_all_ranks(self, rank):
        rng = make_rng(100 + rank)
        m = rng.standard_normal((5, rank)) @ rng.standard_normal((rank, 4))
        assert _penrose_ok(m, pseudo_inverse(m))

    def test_zero_matrix(self):
        np.testing.assert_array_equal(pseudo_inverse(np.zeros((3, 2))), np.zeros((2, 3)))

    def test_stack_matches_per_matrix_calls_bit_for_bit(self):
        rng = make_rng(21)
        stack = rng.standard_normal((2, 4, 5, 4)) * 10.0 ** rng.uniform(-3, 3, (2, 4, 1, 1))
        stack[0, 1] = 0.0
        stack[1, 2] = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))
        stacked = pseudo_inverse(stack)
        assert stacked.shape == (2, 4, 4, 5)
        for index in np.ndindex(2, 4):
            alone = pseudo_inverse(stack[index])
            assert stacked[index].tobytes() == alone.tobytes()
            assert alone.tobytes() == _reference_pinv(stack[index], 1e-10).tobytes()
        # +0.0 throughout, not a -0.0 from a product with a zero reciprocal
        assert stacked[0, 1].tobytes() == np.zeros((4, 5)).tobytes()

    def test_rejects_bad_stacks(self):
        with pytest.raises(ValueError, match="non-finite"):
            pseudo_inverse(np.full((2, 3, 3), np.inf))
        with pytest.raises(ValueError, match="at least 2-D"):
            pseudo_inverse(np.ones(3))
        with pytest.raises(ValueError, match="at least one row and column"):
            pseudo_inverse(np.ones((2, 0, 3)))

    def test_cutoff_bounds(self):
        with pytest.raises(ValueError, match="rel_cutoff"):
            pseudo_inverse(np.eye(2), rel_cutoff=0.0)
        with pytest.raises(ValueError, match="rel_cutoff"):
            pseudo_inverse(np.eye(2), rel_cutoff=1.0)


class TestSpectralRadiusBound:
    def test_zero(self):
        assert spectral_radius_bound(np.zeros((3, 3))) == 0.0

    def test_scaled_identity(self):
        assert spectral_radius_bound(0.5 * np.eye(3)) == pytest.approx(0.5, abs=1e-14)

    def test_nilpotent_is_conservative(self):
        # spectral radius of this matrix is 0; sigma_max is 1
        assert spectral_radius_bound(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            spectral_radius_bound(np.ones((2, 3)))


class TestSolveLinear:
    def test_identity(self):
        rng = make_rng(0)
        b = rng.standard_normal((3, 2))
        np.testing.assert_array_equal(solve_linear(np.eye(3), b), b)

    def test_scaled_identity(self):
        np.testing.assert_allclose(solve_linear(2.0 * np.eye(2), np.eye(2)), 0.5 * np.eye(2))

    def test_geometric_series(self):
        a = np.eye(3) - 0.5 * np.eye(3)
        b = np.ones((3, 1))
        np.testing.assert_allclose(solve_linear(a, b), np.full((3, 1), 2.0))

    def test_residual_tolerance(self):
        rng = make_rng(5)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 3))
        x = solve_linear(a, b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-10

    def test_singular_raises(self):
        a = np.ones((2, 2))
        with pytest.raises(SingularMatrixError):
            solve_linear(a, np.eye(2))

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="square"):
            solve_linear(np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(ValueError, match="rows"):
            solve_linear(np.eye(2), np.ones((3, 1)))
        with pytest.raises(ValueError, match="b must be 2-D"):
            solve_linear(np.eye(3), np.ones(3))


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(12345).standard_normal(10**6)
        b = make_rng(12345).standard_normal(10**6)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert make_rng(1).standard_normal() != make_rng(2).standard_normal()
