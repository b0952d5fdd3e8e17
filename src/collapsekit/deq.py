"""Linear equilibrium head: fixed point, iterative solver, exact gradient.

The head maps backbone features h0 to the equilibrium of z = W z + h0, which
for a contraction (sigma_max(W) < 1) is the Neumann sum over W^i h0, i >= 0,
i.e. z* = (I - W)^{-1} h0. The solver is plain Picard iteration with an
epsilon / max-iteration early-stop policy; the linear case contracts
geometrically so nothing fancier is needed, and the backward pass has a
closed form instead of a Jacobian approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, SolverConvergenceError
from .linalg import as_matrix, solve_linear, spectral_radius_bound

ON_FAILURE_CHOICES = ("skip", "error")


@dataclass(frozen=True)
class DeqWeights:
    """Square head weight with its Frobenius-ball budget ||w||_F <= e_h."""

    w: np.ndarray
    e_h: float

    def __post_init__(self):
        w = as_matrix(self.w, "w_deq")
        if w.shape[0] != w.shape[1]:
            raise ValueError(f"equilibrium weight must be square, got {w.shape}")
        if self.e_h <= 0.0:
            raise ValueError(f"e_h must be positive, got {self.e_h}")
        if np.linalg.norm(w) > self.e_h * (1.0 + 1e-9):
            raise ValueError(
                f"||w||_F = {np.linalg.norm(w):.6g} exceeds budget e_h = {self.e_h:.6g}"
            )
        object.__setattr__(self, "w", w)

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def sigma_max(self) -> float:
        return spectral_radius_bound(self.w)


@dataclass(frozen=True)
class SolverPolicy:
    """Early-stop policy for the fixed-point iteration.

    Defaults follow the reference training recipe: threshold 1e-3 and a cap
    of 20 iterations. In training the policy governs the Picard diagnostic
    of each snapshot (the forward solves in closed form): "skip" records an
    unconverged solve, its unconverged columns counted in solver_skip_count,
    and "error" raises SolverConvergenceError.
    """

    epsilon: float = 1e-3
    t_max: int = 20
    on_failure: str = "skip"

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be at least 1, got {self.t_max}")
        if self.on_failure not in ON_FAILURE_CHOICES:
            raise ValueError(
                f"on_failure must be one of {ON_FAILURE_CHOICES}, got {self.on_failure!r}"
            )


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of one Picard solve over a D x N block of samples.

    converged is True exactly when the final update norm is <= epsilon;
    column_residuals holds the per-sample update norms so callers can count
    individual non-converged samples.
    """

    z_star: np.ndarray
    iterations: int
    residual: float
    converged: bool
    column_residuals: np.ndarray = field(repr=False, default=None)


def _check_contraction(weights: DeqWeights) -> float:
    sigma = weights.sigma_max()
    if sigma >= 1.0:
        raise DivergenceError(
            f"equilibrium does not exist: sigma_max = {sigma:.6g} >= 1"
        )
    return sigma


def resolvent(weights: DeqWeights) -> np.ndarray:
    """(I - W)^{-1}, the exact linear map from input to equilibrium."""
    _check_contraction(weights)
    return solve_linear(np.eye(weights.dim) - weights.w, np.eye(weights.dim))


def fixed_point_closed_form(weights: DeqWeights, h0) -> np.ndarray:
    """Exact equilibrium (I - W)^{-1} h0 of z = W z + h0."""
    h0 = as_matrix(h0, "h0")
    if h0.shape[0] != weights.dim:
        raise ValueError(f"h0 has {h0.shape[0]} rows, head expects {weights.dim}")
    _check_contraction(weights)
    return solve_linear(np.eye(weights.dim) - weights.w, h0)


def fixed_point_iterate(weights: DeqWeights, h0, policy: SolverPolicy) -> FixedPointResult:
    """Picard iteration z_{t+1} = W z_t + h0 from z_0 = h0.

    Stops when the update norm drops to policy.epsilon or after t_max
    iterations; the convergence flag and residual are reported honestly
    either way. With on_failure="error" a non-converged solve raises;
    "skip" leaves the handling to the caller, which can consult
    column_residuals for individual samples.
    """
    h0 = as_matrix(h0, "h0")
    if h0.shape[0] != weights.dim:
        raise ValueError(f"h0 has {h0.shape[0]} rows, head expects {weights.dim}")
    z = h0.copy()
    residual = np.inf
    delta = np.full_like(h0, np.inf)
    iterations = 0
    for iterations in range(1, policy.t_max + 1):
        z_next = weights.w @ z + h0
        delta = z_next - z
        residual = float(np.linalg.norm(delta))
        z = z_next
        if residual <= policy.epsilon:
            break
    # the last update's column norms; all inf when no iteration ran
    column_residuals = np.linalg.norm(delta, axis=0)
    converged = residual <= policy.epsilon
    if not converged and policy.on_failure == "error":
        raise SolverConvergenceError(
            f"fixed point not reached: residual {residual:.3e} > {policy.epsilon:.3e} "
            f"after {iterations} iterations"
        )
    return FixedPointResult(
        z_star=z,
        iterations=iterations,
        residual=residual,
        converged=converged,
        column_residuals=column_residuals,
    )


def head_gradient(weights: DeqWeights, h0, upstream):
    """Exact gradient of the linear fixed point.

    For L = <upstream, z*> with z* = (I - W)^{-1} h0 and A = (I - W)^{-1}:
        grad_h0 = A^T upstream
        grad_w  = (A^T upstream) z*^T
    """
    h0 = as_matrix(h0, "h0")
    upstream = as_matrix(upstream, "upstream")
    a = resolvent(weights)
    z_star = a @ h0
    if upstream.shape != z_star.shape:
        raise ValueError(
            f"upstream has shape {upstream.shape}, equilibrium has {z_star.shape}"
        )
    grad_h0 = a.T @ upstream
    grad_w = grad_h0 @ z_star.T
    return grad_w, grad_h0
