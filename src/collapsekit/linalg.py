"""Dense linear-algebra primitives and seeded randomness.

Everything downstream funnels its numerically delicate steps through here:
pseudo-inverse cutoffs, the spectral-norm convergence guard for equilibrium
heads, and linear solves with an explicit conditioning check. All arrays are
64-bit floats; the collapse metrics approach zero over thousands of steps and
a 32-bit noise floor would mask that.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

# Relative singular-value cutoff for pseudo-inversion. The between-class
# scatter is K x D with K <= D and is often numerically rank-deficient early
# in training, so the cutoff must be generous enough to drop noise directions.
DEFAULT_PINV_CUTOFF = 1e-10

# sigma_min / sigma_max below this means "singular" for solve_linear.
SOLVE_COND_FLOOR = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array, validating shape and entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    return as_stack(m, name)


def as_stack(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 array of one matrix or a (..., M, N)
    stack of them, validating shape and entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim < 2:
        raise ValueError(f"{name} must be at least 2-D, got ndim={m.ndim}")
    if m.shape[-2] < 1 or m.shape[-1] < 1:
        raise ValueError(f"{name} must have at least one row and column, got {m.shape}")
    check_finite(m, name)
    return m


def check_finite(m: np.ndarray, name: str = "matrix") -> None:
    """Raise ValueError when the array m has a NaN or infinite entry."""
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")


def frobenius_norms(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a B x M x N stack: the square root of
    one (1 x MN) @ (MN x 1) product per matrix. On a C-contiguous matrix
    this has the bits of np.linalg.norm on that matrix alone."""
    flat = m.reshape(m.shape[0], 1, -1)
    return np.sqrt((flat @ flat.swapaxes(-1, -2))[:, 0, 0])


def pseudo_inverse(m, rel_cutoff: float = DEFAULT_PINV_CUTOFF) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD, of one M x N matrix or of every
    matrix in a (..., M, N) stack.

    Singular values below rel_cutoff * sigma_max of their own matrix are
    treated as exactly zero, and an all-zero matrix maps to zeros. A stack
    takes one batched SVD and batched products, and each of its matrices
    gets the bits of its own 2-D call.
    """
    if not (0.0 < rel_cutoff < 1.0):
        raise ValueError(f"rel_cutoff must lie in (0, 1), got {rel_cutoff}")
    u, s, vt = np.linalg.svd(as_stack(m), full_matrices=False)
    s_max = s[..., :1]
    reciprocal = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
    inv = np.where(s >= rel_cutoff * s_max, reciprocal, 0.0)
    pinv = (vt.swapaxes(-1, -2) * inv[..., None, :]) @ u.swapaxes(-1, -2)
    pinv[s_max[..., 0] == 0.0] = 0.0
    return pinv


def spectral_radius_bound(m) -> float:
    """Largest singular value of a square matrix.

    sigma_max upper-bounds the spectral radius, which is all the equilibrium
    head needs as a convergence guard; the bound is conservative (e.g. a
    nilpotent matrix can have sigma_max = 1 and spectral radius 0).
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"spectral_radius_bound needs a square matrix, got {m.shape}")
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[0])


def solve_linear(a, b) -> np.ndarray:
    """Solve a @ x = b with an explicit conditioning check.

    Raises SingularMatrixError when the singular values of the square a
    give sigma_min / sigma_max < SOLVE_COND_FLOOR (or a is all zeros),
    before any solve.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"a must be square, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"b has {b.shape[0]} rows, expected {a.shape[0]}")
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0 or s[-1] / s[0] < SOLVE_COND_FLOOR:
        raise SingularMatrixError(
            f"matrix is singular to working precision (cond ~ {s[0] / max(s[-1], 1e-300):.3e})"
        )
    return np.linalg.solve(a, b)


def random_orthonormal(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """A rows x cols matrix with orthonormal columns (rows >= cols): the Q
    factor of a seeded Gaussian with column signs fixed by the R diagonal,
    which makes the draw Haar-distributed and reproducible under a seed."""
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator: identical seed, identical draw sequence.

    One generator per experiment run; never share an instance across runs.
    """
    return np.random.Generator(np.random.PCG64(int(seed)))
