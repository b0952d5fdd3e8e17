"""Simplex equiangular tight frames and Gram-space distances to them.

A K-class simplex ETF in D >= K dimensions is
    S = alpha * sqrt(K/(K-1)) * P @ (I_K - (1/K) 1 1^T)
with P a D x K partial-orthogonal matrix (P^T P = I_K). Its columns have
equal norm |alpha| and every pairwise cosine equals -1/(K-1); collapsed
class means are expected to land on such a frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, frobenius_norms, random_orthonormal


def centering_matrix(k: int) -> np.ndarray:
    """I_K - (1/K) 1 1^T, the projector that removes the all-ones direction."""
    return np.eye(k) - np.ones((k, k)) / k


def etf_gram(k: int, alpha: float = 1.0) -> np.ndarray:
    """Raw Gram S^T S of a K-class ETF with scale alpha:
    alpha^2 on the diagonal, -alpha^2/(K-1) off it."""
    return alpha**2 * (k / (k - 1)) * centering_matrix(k)


def normalized_etf_gram(k: int) -> np.ndarray:
    """The ETF Gram rescaled to unit Frobenius norm: (I - 11^T/K)/sqrt(K-1).

    This is the canonical target every normalized Gram is measured against;
    it is the unique unit-norm matrix proportional to the ETF Gram, so the
    distance below vanishes exactly on ETF Grams of any scale.
    """
    return centering_matrix(k) / math.sqrt(k - 1)


@dataclass(frozen=True, eq=False)
class EtfFrame:
    """A concrete D x K simplex ETF together with its partial-orthogonal
    factor P."""

    s: np.ndarray
    p: np.ndarray

    def gram(self) -> np.ndarray:
        return self.s.T @ self.s


def make_etf(k: int, d: int, alpha: float, rng: np.random.Generator) -> EtfFrame:
    """Construct a simplex ETF with a uniformly random partial-orthogonal P.

    P is drawn by random_orthonormal: Haar-distributed and reproducible
    under a seed.
    """
    if k < 2:
        raise ValueError(f"need at least two classes, got k={k}")
    if d < k:
        raise ValueError(f"frame dimension d={d} must be at least k={k}")
    if alpha == 0.0 or not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite and non-zero, got {alpha}")
    q = random_orthonormal(d, k, rng)
    s = alpha * math.sqrt(k / (k - 1)) * (q @ centering_matrix(k))
    return EtfFrame(s=s, p=q)


def gram_distance_to_etf(gram, k: int) -> float:
    """Frobenius distance from a unit-normalized K x K Gram matrix to the
    canonical ETF Gram.

    Invariant under positive rescaling of the input; zero exactly when the
    input is a positive multiple of an ETF Gram.
    """
    gram = as_matrix(gram, "gram")
    if gram.shape != (k, k):
        raise ValueError(f"gram must be {k}x{k}, got {gram.shape}")
    if not np.allclose(gram, gram.T, rtol=1e-8, atol=1e-8 * max(1.0, np.abs(gram).max())):
        raise ValueError("gram must be symmetric")
    return float(normalized_gram_distance(gram[None], normalized_etf_gram(k))[0])


def normalized_gram_distance(grams: np.ndarray, target: np.ndarray) -> np.ndarray:
    """|| G / ||G||_F - target ||_F for each validated gram G of a B x K x K
    stack and a precomputed target (see normalized_etf_gram)."""
    norms = frobenius_norms(grams)
    if np.any(norms == 0.0):
        raise ValueError("gram has zero Frobenius norm")
    return frobenius_norms(grams / norms[:, None, None] - target)


def gram_distance_to_etf_raw(gram, k: int, alpha: float) -> float:
    """Unnormalized Frobenius distance || gram - S^T S || against the ETF Gram
    at a caller-supplied scale.

    The imbalanced-regime head comparison is stated on raw Grams at a fixed
    scale, which the normalized metric would erase; keep the two forms apart.
    """
    gram = as_matrix(gram, "gram")
    if gram.shape != (k, k):
        raise ValueError(f"gram must be {k}x{k}, got {gram.shape}")
    return float(np.linalg.norm(gram - etf_gram(k, alpha)))
