"""Linear equilibrium head: fixed point, iterative solver, exact gradient.

The head maps backbone features h0 to the equilibrium of z = W z + h0, which
for a contraction (sigma_max(W) < 1) is the Neumann sum over W^i h0, i >= 0,
i.e. z* = (I - W)^{-1} h0. The solver is plain Picard iteration with an
epsilon / max-iteration early-stop policy; the linear case contracts
geometrically so nothing fancier is needed, and the backward pass has a
closed form instead of a Jacobian approximation.

Every function takes W as a plain array, validated by square_weight;
lpm.DeqHead holds that array with the SolverPolicy of its diagnostic.
There is one Picard loop, fixed_point_iterate_blocks: it iterates a stack
of D x N blocks in fixed slots, each block stopping at its own iteration
with the bits of its own solve. fixed_point_iterate runs it on one block,
and the deq head's training diagnostic on each chunk of snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, SolverConvergenceError
from .linalg import as_matrix, frobenius_norms, solve_linear, spectral_radius_bound

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
        if not 0.0 < self.epsilon < math.inf:  # NaN fails too
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
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
    column_residuals for individual samples. It runs
    fixed_point_iterate_blocks on a stack of this one block.
    """
    w, h0 = square_weight(w), as_matrix(h0, "h0")
    if h0.shape[0] != w.shape[0]:
        raise ValueError(f"h0 has {h0.shape[0]} rows, head expects {w.shape[0]}")
    z, z_next = np.empty((2, 1) + h0.shape)
    iterations, residuals, column_residuals, z = fixed_point_iterate_blocks(
        w, h0[None], policy, z, z_next
    )
    residual = float(residuals[0])
    return FixedPointResult(
        z_star=z[0],
        iterations=int(iterations[0]),
        residual=residual,
        converged=residual <= policy.epsilon,
        column_residuals=column_residuals[0],
    )


def fixed_point_iterate_blocks(w, h0: np.ndarray, policy: SolverPolicy,
                               z: np.ndarray, z_next: np.ndarray):
    """fixed_point_iterate on every D x N block of a (B, D, N) stack h0 in
    one loop, each block stopping at its own iteration.

    Every pass multiplies the whole stack, each block in its own slot. A
    block's iterations, residual and column residuals are recorded on the
    pass where it stops, bit for bit those of its own 2-D solve, and the
    loop ends once every block has stopped. The loop runs in the caller's
    float64 work arrays z and z_next, which hold at least B blocks; h0 is
    only read. With on_failure="error", the first unconverged block in
    stack order raises with the message of its own solve.

    Returns (iterations, residuals, column_residuals, z_last): B ints, B
    floats, a B x N array, and the last pass's B iterates (the last iterate
    of its own solve for a one-block stack).
    """
    w = square_weight(w)
    count = h0.shape[0]
    iterations = np.zeros(count, dtype=np.int64)
    residuals = np.empty(count)
    column_residuals = np.empty((count, h0.shape[2]))
    z, z_next = z[:count], z_next[:count]
    z[...] = h0
    for t in range(1, policy.t_max + 1):
        z_new = np.matmul(w, z, out=z_next)
        z_new += h0
        delta = np.subtract(z_new, z, out=z)
        norms = frobenius_norms(delta)
        stops = ((norms <= policy.epsilon) | (t == policy.t_max)) & (iterations == 0)
        for b in np.flatnonzero(stops):
            iterations[b] = t
            residuals[b] = norms[b]
            column_residuals[b] = np.linalg.norm(delta[b], axis=0)
        z, z_next = z_next, z
        if iterations.all():
            break
    unconverged = np.flatnonzero(~(residuals <= policy.epsilon))
    if unconverged.size and policy.on_failure == "error":
        block = unconverged[0]
        raise SolverConvergenceError(
            f"fixed point not reached: residual {residuals[block]:.3e} > "
            f"{policy.epsilon:.3e} after {iterations[block]} iterations"
        )
    return iterations, residuals, column_residuals, z


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
