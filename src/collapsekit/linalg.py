"""Dense linear-algebra primitives and seeded randomness.

Everything downstream funnels its numerically delicate steps through here:
pseudo-inverse cutoffs, the spectral-norm convergence guard for equilibrium
heads, and linear solves with an explicit conditioning check. All arrays are
64-bit floats; the collapse metrics approach zero over thousands of steps and
a 32-bit noise floor would mask that.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD: u has orthonormal columns, vt orthonormal rows,
    singular_values sorted descending and non-negative."""

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.singular_values) @ self.vt


def svd(m) -> SvdResult:
    """Thin SVD of a finite matrix.

    Rank-deficient inputs yield trailing zero singular values. LAPACK's
    iteration-failure error (LinAlgError) propagates on the rare
    non-converging input.
    """
    m = as_matrix(m)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return SvdResult(u=u, singular_values=s, vt=vt)


def pseudo_inverse(m, rel_cutoff: float = DEFAULT_PINV_CUTOFF) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values below rel_cutoff * sigma_max are treated as exactly zero.
    """
    if not (0.0 < rel_cutoff < 1.0):
        raise ValueError(f"rel_cutoff must lie in (0, 1), got {rel_cutoff}")
    result = svd(m)
    s = result.singular_values
    s_max = s[0] if s.size else 0.0
    if s_max == 0.0:
        return np.zeros((result.vt.shape[1], result.u.shape[0]))
    reciprocal = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
    inv = np.where(s >= rel_cutoff * s_max, reciprocal, 0.0)
    return (result.vt.T * inv) @ result.u.T


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

    Raises SingularMatrixError when sigma_min / sigma_max < SOLVE_COND_FLOOR.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"a must be square, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"b has {b.shape[0]} rows, expected {a.shape[0]}")
    check_conditioning(a)
    return np.linalg.solve(a, b)


def check_conditioning(a: np.ndarray) -> None:
    """Raise SingularMatrixError when the square matrix a has
    sigma_min / sigma_max < SOLVE_COND_FLOOR."""
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0 or s[-1] / s[0] < SOLVE_COND_FLOOR:
        raise SingularMatrixError(
            f"matrix is singular to working precision (cond ~ {s[0] / max(s[-1], 1e-300):.3e})"
        )


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator: identical seed, identical draw sequence.

    One generator per experiment run; never share an instance across runs.
    """
    return np.random.Generator(np.random.PCG64(int(seed)))
