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

from .linalg import as_matrix


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


@dataclass(frozen=True)
class EtfFrame:
    """A concrete D x K simplex ETF together with its generating factors."""

    s: np.ndarray
    alpha: float
    p: np.ndarray
    k: int
    d: int

    def gram(self) -> np.ndarray:
        return self.s.T @ self.s


def make_etf(k: int, d: int, alpha: float, rng: np.random.Generator) -> EtfFrame:
    """Construct a simplex ETF with a uniformly random partial-orthogonal P.

    P is drawn as the Q factor of a Gaussian D x K matrix with column signs
    fixed by the R diagonal, which makes the draw Haar-distributed and
    reproducible under a seed.
    """
    if k < 2:
        raise ValueError(f"need at least two classes, got k={k}")
    if d < k:
        raise ValueError(f"frame dimension d={d} must be at least k={k}")
    if alpha == 0.0:
        raise ValueError("alpha must be non-zero")
    g = rng.standard_normal((d, k))
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    s = alpha * math.sqrt(k / (k - 1)) * (q @ centering_matrix(k))
    return EtfFrame(s=s, alpha=float(alpha), p=q, k=k, d=d)


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
    return normalized_gram_distance(gram, normalized_etf_gram(k))


def normalized_gram_distance(gram: np.ndarray, target: np.ndarray) -> float:
    """|| gram / ||gram||_F - target ||_F for a validated gram and a
    precomputed target (see normalized_etf_gram)."""
    norm = np.linalg.norm(gram)
    if norm == 0.0:
        raise ValueError("gram has zero Frobenius norm")
    return float(np.linalg.norm(gram / norm - target))


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
