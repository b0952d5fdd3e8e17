import numpy as np
import pytest

from collapsekit.deq import (
    FixedPointResult,
    SolverPolicy,
    fixed_point_closed_form,
    fixed_point_iterate,
    head_gradient,
    resolvent,
)
from collapsekit.errors import DivergenceError, SolverConvergenceError
from collapsekit.linalg import make_rng, spectral_radius_bound
from collapsekit.lpm import DeqHead


def _random_contraction(rng, d, norm):
    w = rng.standard_normal((d, d))
    w *= norm / np.linalg.norm(w)
    return w


@pytest.mark.parametrize("build", [
    resolvent,
    lambda w: fixed_point_closed_form(w, np.ones((2, 1))),
    lambda w: fixed_point_iterate(w, np.ones((2, 1)), SolverPolicy()),
    lambda w: head_gradient(w, np.ones((2, 1)), np.ones((2, 1))),
    lambda w: DeqHead(weight=w),
], ids=["resolvent", "fixed_point_closed_form", "fixed_point_iterate", "head_gradient",
        "DeqHead"])
def test_square_weight_required(build):
    with pytest.raises(ValueError, match="square"):
        build(np.zeros((2, 3)))


class TestSolverPolicy:
    def test_defaults(self):
        policy = SolverPolicy()
        assert policy.epsilon == 1e-3
        assert policy.t_max == 20
        assert policy.on_failure == "skip"

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverPolicy(epsilon=0.0)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            SolverPolicy(epsilon=float("nan"))
        with pytest.raises(ValueError):
            SolverPolicy(t_max=0)
        with pytest.raises(ValueError):
            SolverPolicy(on_failure="explode")


class TestClosedForm:
    def test_zero_weight_is_passthrough(self):
        rng = make_rng(0)
        h0 = rng.standard_normal((4, 7))
        w = np.zeros((4, 4))
        np.testing.assert_allclose(fixed_point_closed_form(w, h0), h0, atol=1e-14)

    def test_geometric(self):
        w = 0.5 * np.eye(3)
        h0 = np.ones((3, 1))
        np.testing.assert_allclose(
            fixed_point_closed_form(w, h0), np.full((3, 1), 2.0), atol=1e-12
        )

    def test_matches_truncated_neumann(self):
        rng = make_rng(5)
        w = _random_contraction(rng, 6, 0.3)
        h0 = rng.standard_normal((6, 4))
        acc = np.zeros_like(h0)
        term = h0.copy()
        for _ in range(61):
            acc += term
            term = w @ term
        z = fixed_point_closed_form(w, h0)
        assert np.linalg.norm(z - acc) / np.linalg.norm(acc) < 1e-10

    @pytest.mark.parametrize("solve", [
        lambda w: fixed_point_closed_form(w, np.ones((2, 1))),
        resolvent,
        lambda w: head_gradient(w, np.ones((2, 1)), np.ones((2, 1))),
    ], ids=["fixed_point_closed_form", "resolvent", "head_gradient"])
    def test_divergence_error(self, solve):
        # any square weight is accepted; no equilibrium exists at sigma_max >= 1
        w = 1.5 * np.eye(2)
        with pytest.raises(DivergenceError):
            solve(w)

    def test_shape_check(self):
        w = np.zeros((3, 3))
        with pytest.raises(ValueError, match="rows"):
            fixed_point_closed_form(w, np.ones((4, 1)))


class TestIterate:
    def test_zero_weight_converges_first_iteration(self):
        rng = make_rng(1)
        h0 = rng.standard_normal((3, 5))
        w = np.zeros((3, 3))
        result = fixed_point_iterate(w, h0, SolverPolicy())
        assert result.converged
        assert result.iterations == 1
        np.testing.assert_array_equal(result.z_star, h0)

    def test_halving_residuals(self):
        w = np.array([[0.5]])
        result = fixed_point_iterate(w, np.array([[1.0]]), SolverPolicy(epsilon=1e-3))
        assert result.converged
        assert result.iterations <= 12
        assert abs(result.z_star[0, 0] - 2.0) < 2e-3

    def test_slow_contraction_does_not_converge(self):
        w = 0.99 * np.eye(3)
        result = fixed_point_iterate(
            w, np.ones((3, 1)), SolverPolicy(epsilon=1e-3, t_max=20)
        )
        assert not result.converged
        assert result.iterations == 20
        assert result.residual > 1e-3

    def test_error_policy_raises(self):
        w = 0.99 * np.eye(3)
        with pytest.raises(SolverConvergenceError):
            fixed_point_iterate(
                w, np.ones((3, 1)), SolverPolicy(epsilon=1e-3, t_max=5, on_failure="error")
            )

    def test_skip_policy_returns_column_residuals(self):
        w = 0.99 * np.eye(2)
        result = fixed_point_iterate(
            w, np.ones((2, 3)), SolverPolicy(epsilon=1e-3, t_max=5, on_failure="skip")
        )
        assert not result.converged
        assert result.column_residuals.shape == (3,)
        assert np.all(result.column_residuals > 0)

    @pytest.mark.parametrize("t_max", [1, 3, 200])
    def test_column_residuals_are_the_last_update_norms(self, t_max):
        rng = make_rng(5)
        w = _random_contraction(rng, 4, 0.8)
        h0 = rng.standard_normal((4, 6))
        policy = SolverPolicy(epsilon=1e-6, t_max=t_max)
        result = fixed_point_iterate(w, h0, policy)
        z = h0.copy()
        for _ in range(result.iterations):
            z_next = w @ z + h0
            delta, z = z_next - z, z_next
        assert result.converged == (t_max == 200)
        assert result.column_residuals.tobytes() == np.linalg.norm(delta, axis=0).tobytes()
        assert result.z_star.tobytes() == z.tobytes()

    def test_oracle_equivalence(self):
        rng = make_rng(7)
        policy = SolverPolicy(epsilon=1e-12, t_max=10_000, on_failure="error")
        for _ in range(20):
            d = int(rng.integers(2, 8))
            w = _random_contraction(rng, d, 0.85)
            sigma = spectral_radius_bound(w)
            if sigma > 0.9:
                continue
            h0 = rng.standard_normal((d, int(rng.integers(1, 6))))
            z_iter = fixed_point_iterate(w, h0, policy).z_star
            z_exact = fixed_point_closed_form(w, h0)
            assert np.linalg.norm(z_iter - z_exact) < 1e-8

    def test_equilibrium_residual_bound(self):
        rng = make_rng(8)
        w = _random_contraction(rng, 5, 0.6)
        h0 = rng.standard_normal((5, 3))
        policy = SolverPolicy(epsilon=1e-6, t_max=200)
        result = fixed_point_iterate(w, h0, policy)
        assert result.converged
        eq_residual = np.linalg.norm(w @ result.z_star + h0 - result.z_star)
        assert eq_residual <= policy.epsilon * (1.0 + spectral_radius_bound(w))

    def test_monotone_residual(self):
        rng = make_rng(9)
        w = _random_contraction(rng, 4, 0.7)
        sigma = spectral_radius_bound(w)
        h0 = rng.standard_normal((4, 2))
        z = h0.copy()
        prev = None
        for _ in range(30):
            z_next = w @ z + h0
            residual = np.linalg.norm(z_next - z)
            if prev is not None:
                assert residual <= sigma * prev + 1e-15
            prev = residual
            z = z_next


class TestHeadGradient:
    def test_zero_weight(self):
        rng = make_rng(2)
        h0 = rng.standard_normal((3, 4))
        upstream = rng.standard_normal((3, 4))
        w = np.zeros((3, 3))
        grad_w, grad_h0 = head_gradient(w, h0, upstream)
        np.testing.assert_allclose(grad_h0, upstream, atol=1e-14)
        np.testing.assert_allclose(grad_w, upstream @ h0.T, atol=1e-14)

    def test_scalar_case(self):
        w = np.array([[0.5]])
        grad_w, grad_h0 = head_gradient(w, np.array([[1.0]]), np.array([[1.0]]))
        assert grad_h0[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert grad_w[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_finite_difference_match(self):
        rng = make_rng(9)
        w = _random_contraction(rng, 4, 0.4)
        h0 = rng.standard_normal((4, 3))
        upstream = rng.standard_normal((4, 3))
        grad_w, grad_h0 = head_gradient(w, h0, upstream)

        def loss(w_mat, h_mat):
            z = np.linalg.solve(np.eye(4) - w_mat, h_mat)
            return float(np.sum(upstream * z))

        eps = 1e-6
        fd_w = np.zeros_like(w)
        for i in range(4):
            for j in range(4):
                delta = np.zeros((4, 4))
                delta[i, j] = eps
                fd_w[i, j] = (loss(w + delta, h0) - loss(w - delta, h0)) / (2 * eps)
        assert np.linalg.norm(fd_w - grad_w) / np.linalg.norm(grad_w) < 1e-5

        fd_h = np.zeros_like(h0)
        for i in range(4):
            for j in range(3):
                delta = np.zeros((4, 3))
                delta[i, j] = eps
                fd_h[i, j] = (loss(w, h0 + delta) - loss(w, h0 - delta)) / (2 * eps)
        assert np.linalg.norm(fd_h - grad_h0) / np.linalg.norm(grad_h0) < 1e-5

    def test_gradient_check_many_draws(self):
        rng = make_rng(10)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            w = _random_contraction(rng, d, float(rng.uniform(0.05, 0.8)))
            if spectral_radius_bound(w) > 0.8:
                continue
            h0 = rng.standard_normal((d, 2))
            upstream = rng.standard_normal((d, 2))
            grad_w, _ = head_gradient(w, h0, upstream)
            # directional finite difference against a random direction
            direction = rng.standard_normal((d, d))
            eps = 1e-6

            def loss_at(w_mat):
                z = np.linalg.solve(np.eye(d) - w_mat, h0)
                return float(np.sum(upstream * z))

            fd = (loss_at(w + eps * direction) - loss_at(w - eps * direction)) / (2 * eps)
            analytic = float(np.sum(grad_w * direction))
            assert abs(fd - analytic) / max(abs(analytic), 1e-8) < 1e-5


def test_resolvent_matches_inverse():
    rng = make_rng(11)
    w = _random_contraction(rng, 5, 0.5)
    np.testing.assert_allclose(
        resolvent(w), np.linalg.inv(np.eye(5) - w), atol=1e-12
    )


def test_result_invariants():
    rng = make_rng(12)
    w = _random_contraction(rng, 3, 0.4)
    policy = SolverPolicy(epsilon=1e-9, t_max=500)
    result = fixed_point_iterate(w, rng.standard_normal((3, 2)), policy)
    assert isinstance(result, FixedPointResult)
    assert result.converged == (result.residual <= policy.epsilon)
    assert result.iterations <= policy.t_max
