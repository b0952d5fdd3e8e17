from dataclasses import replace

import numpy as np
import pytest

from collapsekit.deq import (
    FixedPointResult,
    SolverPolicy,
    fixed_point_closed_form,
    fixed_point_iterate,
    fixed_point_iterate_blocks,
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
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            SolverPolicy(epsilon=float("inf"))
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
        with pytest.raises(ValueError, match="h0 has 4 rows, head expects 3"):
            fixed_point_iterate(w, np.ones((4, 1)), SolverPolicy())
        with pytest.raises(ValueError, match=r"upstream has shape \(3, 1\), equilibrium has"):
            head_gradient(w, np.ones((3, 2)), np.ones((3, 1)))


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


class TestIterateBlocks:
    """One Picard loop over a stack of blocks: each block stops at its own
    iteration with the bits of fixed_point_iterate on it alone."""

    T_MAX = 15

    @classmethod
    def _stack(cls):
        rng = make_rng(13)
        w = _random_contraction(rng, 5, 0.6)
        # block scales from 1e-8 to 1e4 stop after 1 to 12 iterations; the
        # last block's huge columns cannot converge in T_MAX, its tiny ones
        # converge at once
        scales = np.array([1.0, 1e-8, 1e4, 1e-3, 1.0, 1.0])[:, None, None]
        h0 = scales * rng.standard_normal((6, 5, 7))
        h0[-1, :, :3] *= 1e12
        h0[-1, :, 3:] *= 1e-12
        return w, h0

    @staticmethod
    def _run(w, h0, policy):
        # work arrays with room for more blocks than the stack holds, as a
        # chunk's remainder has
        z, z_next = np.empty((2, h0.shape[0] + 2) + h0.shape[1:])
        return fixed_point_iterate_blocks(w, h0.copy(), policy, z, z_next)

    @staticmethod
    def _plain_solve(w, h0, policy):
        # the 2-D Picard loop written out, independent of deq's
        z = h0.copy()
        for iterations in range(1, policy.t_max + 1):
            z_next = w @ z + h0
            delta, z = z_next - z, z_next
            residual = np.linalg.norm(delta)
            if residual <= policy.epsilon:
                break
        return iterations, residual, np.linalg.norm(delta, axis=0)

    def test_each_block_matches_its_own_solve(self):
        w, h0 = self._stack()
        policy = SolverPolicy(epsilon=1e-6, t_max=self.T_MAX)
        iterations, residuals, column_residuals, _ = self._run(w, h0, policy)
        for b in range(h0.shape[0]):
            alone = fixed_point_iterate(w, h0[b], policy)
            assert iterations[b] == alone.iterations
            assert residuals[b].tobytes() == np.float64(alone.residual).tobytes()
            assert column_residuals[b].tobytes() == alone.column_residuals.tobytes()
            plain = self._plain_solve(w, h0[b], policy)
            assert (iterations[b], residuals[b].tobytes(), column_residuals[b].tobytes()) == (
                plain[0], plain[1].tobytes(), plain[2].tobytes()
            )
        assert len(set(iterations.tolist())) >= 4
        assert iterations[-1] == self.T_MAX
        skipped = np.count_nonzero(column_residuals[-1] > policy.epsilon)
        assert skipped == 3

    def test_error_names_the_first_unconverged_block(self):
        w, h0 = self._stack()
        h0 = h0[1:]  # a converging block first
        policy = SolverPolicy(epsilon=1e-6, t_max=3, on_failure="error")
        residuals = [
            fixed_point_iterate(w, block, replace(policy, on_failure="skip")).residual
            for block in h0
        ]
        unconverged = [b for b, residual in enumerate(residuals) if residual > policy.epsilon]
        # the first unconverged block is neither the first block nor the worst one
        assert unconverged[0] == 1 and np.argmax(residuals) != 1
        with pytest.raises(SolverConvergenceError) as alone:
            fixed_point_iterate(w, h0[unconverged[0]], policy)
        with pytest.raises(SolverConvergenceError) as stacked:
            self._run(w, h0, policy)
        assert str(stacked.value) == str(alone.value)

    def test_read_only_stack_in_exact_work_arrays(self):
        # blocks that stop apart keep their slots: h0 is only read, and work
        # arrays of exactly B blocks suffice
        w, h0 = self._stack()
        h0.setflags(write=False)
        before = h0.copy()
        policy = SolverPolicy(epsilon=1e-6, t_max=self.T_MAX)
        z, z_next = np.empty((2,) + h0.shape)
        iterations, residuals, column_residuals, _ = fixed_point_iterate_blocks(
            w, h0, policy, z, z_next
        )
        assert h0.tobytes() == before.tobytes()
        assert len(set(iterations.tolist())) >= 4
        for b in range(h0.shape[0]):
            alone = fixed_point_iterate(w, h0[b], policy)
            assert iterations[b] == alone.iterations
            assert residuals[b].tobytes() == np.float64(alone.residual).tobytes()
            assert column_residuals[b].tobytes() == alone.column_residuals.tobytes()


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
