"""Linear equilibrium head: fixed point, iterative solver, exact gradient.

The head maps backbone features h0 to the equilibrium of z = W z + h0, which
for a contraction (sigma_max(W) < 1) is the Neumann sum over W^i h0, i >= 0,
i.e. z* = (I - W)^{-1} h0. The solver is plain Picard iteration with an
epsilon / max-iteration early-stop policy; the linear case contracts
geometrically so nothing fancier is needed, and the backward pass has a
closed form instead of a Jacobian approximation.

Every function takes W as a plain array, validated by square_weight;
lpm.DeqHead holds that array with the SolverPolicy of its diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, SolverConvergenceError
from .linalg import as_matrix, solve_linear, spectral_radius_bound

ON_FAILURE_CHOICES = ("skip", "error")


def square_weight(w) -> np.ndarray:
    """The head weight W of z = W z + h0 as a finite square float64 matrix.
    Any square W is accepted; the equilibrium exists only for
    sigma_max(W) < 1, which resolvent, fixed_point_closed_form and
    head_gradient check."""
    w = as_matrix(w, "w_deq")
    if w.shape[0] != w.shape[1]:
        raise ValueError(f"equilibrium weight must be square, got {w.shape}")
    return w


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


def _check_contraction(w: np.ndarray) -> None:
    sigma = spectral_radius_bound(w)
    if sigma >= 1.0:
        raise DivergenceError(
            f"equilibrium does not exist: sigma_max = {sigma:.6g} >= 1"
        )


def resolvent(w) -> np.ndarray:
    """(I - W)^{-1}, the exact linear map from input to equilibrium."""
    w = square_weight(w)
    _check_contraction(w)
    return solve_linear(np.eye(w.shape[0]) - w, np.eye(w.shape[0]))


def fixed_point_closed_form(w, h0) -> np.ndarray:
    """Exact equilibrium (I - W)^{-1} h0 of z = W z + h0."""
    w, h0 = square_weight(w), as_matrix(h0, "h0")
    if h0.shape[0] != w.shape[0]:
        raise ValueError(f"h0 has {h0.shape[0]} rows, head expects {w.shape[0]}")
    _check_contraction(w)
    return solve_linear(np.eye(w.shape[0]) - w, h0)


def fixed_point_iterate(w, h0, policy: SolverPolicy) -> FixedPointResult:
    """Picard iteration z_{t+1} = W z_t + h0 from z_0 = h0.

    Stops when the update norm drops to policy.epsilon or after t_max
    iterations; the convergence flag and residual are reported honestly
    either way. With on_failure="error" a non-converged solve raises;
    "skip" leaves the handling to the caller, which can consult
    column_residuals for individual samples.
    """
    w, h0 = square_weight(w), as_matrix(h0, "h0")
    if h0.shape[0] != w.shape[0]:
        raise ValueError(f"h0 has {h0.shape[0]} rows, head expects {w.shape[0]}")
    z = h0.copy()
    for iterations in range(1, policy.t_max + 1):
        z_next = w @ z + h0
        delta = z_next - z
        residual = float(np.linalg.norm(delta))
        z = z_next
        if residual <= policy.epsilon:
            break
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


def head_gradient(w, h0, upstream):
    """Exact gradient of the linear fixed point.

    For L = <upstream, z*> with z* = (I - W)^{-1} h0 and A = (I - W)^{-1}:
        grad_h0 = A^T upstream
        grad_w  = (A^T upstream) z*^T
    """
    h0 = as_matrix(h0, "h0")
    upstream = as_matrix(upstream, "upstream")
    a = resolvent(w)
    z_star = a @ h0
    if upstream.shape != z_star.shape:
        raise ValueError(
            f"upstream has shape {upstream.shape}, equilibrium has {z_star.shape}"
        )
    grad_h0 = a.T @ upstream
    grad_w = grad_h0 @ z_star.T
    return grad_w, grad_h0
