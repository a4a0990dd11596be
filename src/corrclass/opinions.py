"""Linear opinion model.

Each individual carries a hidden taste vector and each product a hidden
feature vector; an expressed opinion is their scalar product times a
normalization factor.  Row correlations of the opinion table track the
hidden taste overlaps, which makes any single opinion predictable from the
correlation-weighted opinions of the whole population.  This module builds
the table, the correlation matrix, and the predictions, and provides the
closed-form estimate of the prediction error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import _check_seed, stream

__all__ = [
    "ModelConfig",
    "Population",
    "CorrelationMatrix",
    "generate_population",
    "opinion_matrix",
    "row_correlation",
    "predict",
    "predict_matrix",
    "choose_k",
    "empirical_error",
    "theoretical_error",
    "gamma_factor",
    "reconstruction_thresholds",
]


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and distribution parameters of the linear opinion model.

    ``normalization`` defaults to ``1 / n_components`` so opinion magnitudes
    stay O(1) regardless of the hidden dimensionality.  Taste and feature
    components are drawn i.i.d. uniform on
    ``[-component_range, +component_range]``.
    """

    n_individuals: int
    n_products: int
    n_components: int
    normalization: float | None = None
    component_range: float = 1.0
    base_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_individuals", "n_products", "n_components"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.normalization is None:
            object.__setattr__(self, "normalization", 1.0 / self.n_components)
        if not self.normalization > 0:
            raise ValueError(f"normalization must be positive, got {self.normalization!r}")
        if not self.component_range > 0:
            raise ValueError(f"component_range must be positive, got {self.component_range!r}")
        object.__setattr__(self, "base_seed", _check_seed(self.base_seed))


@dataclass(frozen=True)
class Population:
    """Hidden vectors: one taste row per individual, one feature row per product."""

    tastes: np.ndarray
    features: np.ndarray

    def __post_init__(self) -> None:
        tastes = np.asarray(self.tastes, dtype=float)
        features = np.asarray(self.features, dtype=float)
        if tastes.ndim != 2 or features.ndim != 2:
            raise ValueError("tastes and features must be 2-D arrays")
        if tastes.shape[0] < 1 or features.shape[0] < 1:
            raise ValueError("population needs at least one taste and one feature vector")
        if tastes.shape[1] != features.shape[1]:
            raise ValueError(
                f"taste vectors have {tastes.shape[1]} components, "
                f"feature vectors have {features.shape[1]}"
            )
        object.__setattr__(self, "tastes", tastes)
        object.__setattr__(self, "features", features)


def generate_population(config: ModelConfig) -> Population:
    """Draw the hidden vectors deterministically from ``config.base_seed``.

    Tastes and features come from independently derived streams, so either
    set alone is reproducible regardless of evaluation order.
    """
    r = config.component_range
    tastes = stream(config.base_seed, "tastes").uniform(
        -r, r, size=(config.n_individuals, config.n_components)
    )
    features = stream(config.base_seed, "features").uniform(
        -r, r, size=(config.n_products, config.n_components)
    )
    return Population(tastes=tastes, features=features)


def opinion_matrix(population, normalization: float) -> np.ndarray:
    """Expressed opinions ``normalization * tastes @ features.T``, checked as a Population."""
    population = Population(population.tastes, population.features)
    return normalization * (population.tastes @ population.features.T)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pearson correlations between the rows of a matrix.

    A constant row, or one whose centered norm underflows to zero, has no
    correlation; the policy is to zero all of its entries (diagonal
    included) and report the row index in ``degenerate_rows``.  Zero is
    neutral for downstream correlation-weighted sums.
    """

    values: np.ndarray
    degenerate_rows: tuple[int, ...] = ()

    def __array__(self, dtype=None, copy=None):
        # numpy 1.x passes no copy and copies np.array's result itself
        return (np.array if copy else np.asarray)(self.values, dtype=dtype)


def row_correlation(matrix) -> CorrelationMatrix:
    """Correlate every pair of rows, centering each row by its own mean.

    The result is exactly symmetric, has unit diagonal for non-degenerate
    rows, and is clipped to [-1, 1] to absorb rounding.  A constant row is
    degenerate even if its rounded mean leaves it a nonzero centered norm.
    The input is read in C order, so its memory layout never changes the
    summation order, and so the bits, of the product.
    """
    data = np.ascontiguousarray(matrix, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={data.ndim}")
    if data.shape[1] < 2:
        raise ValueError(f"row correlation needs at least 2 columns, got {data.shape[1]}")
    degenerate = data.max(axis=1) == data.min(axis=1)
    centered = data - data.mean(axis=1, keepdims=True)
    del data
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered))
    degenerate |= norms == 0.0
    safe = np.where(degenerate, 1.0, norms)
    values = centered @ centered.T
    del centered
    # in place, so at most two N x N tables live beside the input.  numpy
    # computes a product with its own transpose by BLAS syrk and mirrors the
    # triangle, and the outer product of the norms is symmetric too, so the
    # quotient is exactly symmetric without averaging it with its transpose
    values /= np.outer(safe, safe)
    np.clip(values, -1.0, 1.0, out=values)
    np.fill_diagonal(values, 1.0)
    if not degenerate.any():
        return CorrelationMatrix(values=values, degenerate_rows=())
    values[degenerate, :] = 0.0
    values[:, degenerate] = 0.0
    return CorrelationMatrix(
        values=values,
        degenerate_rows=tuple(int(i) for i in np.flatnonzero(degenerate)),
    )


def _operands(correlations, opinions) -> tuple[np.ndarray, np.ndarray]:
    """Float ``(M, M)`` correlations and ``(M, N)`` opinions, or ValueError."""
    c = np.asarray(correlations, dtype=float)
    s = np.asarray(opinions, dtype=float)
    if s.ndim != 2 or c.shape != (s.shape[0], s.shape[0]):
        raise ValueError(f"correlation shape {c.shape} does not match opinions shape {s.shape}")
    return c, s


def predict(correlations, opinions, individual: int, product: int, k: float) -> float:
    """Predict one opinion from everybody else's, weighted by correlation.

    Returns ``(k / n_individuals) * sum_i C[individual, i] * S[i, product]``.
    """
    c, s = _operands(correlations, opinions)
    n_individuals = s.shape[0]
    if not 0 <= individual < n_individuals:
        raise IndexError(f"individual index {individual} out of range [0, {n_individuals})")
    if not 0 <= product < s.shape[1]:
        raise IndexError(f"product index {product} out of range [0, {s.shape[1]})")
    return float((k / n_individuals) * (c[individual] @ s[:, product]))


def predict_matrix(correlations, opinions, k: float) -> np.ndarray:
    """All predictions at once: ``(k / n_individuals) * C @ S``."""
    c, s = _operands(correlations, opinions)
    return (k / s.shape[0]) * (c @ s)


def choose_k(config: ModelConfig) -> float:
    """The prediction gain ``k``: the hidden dimensionality."""
    return float(config.n_components)


def empirical_error(observed, predicted) -> float:
    """Root-mean-square difference between two opinion tables."""
    a = np.asarray(observed, dtype=float)
    b = np.asarray(predicted, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((b - a) ** 2)))


def theoretical_error(n_components: int, n_individuals: int, n_products: int, gamma: float) -> float:
    """Closed-form estimate of the RMS prediction error.

    ``gamma * L**1.5 * (sqrt(M) + sqrt(N)) / sqrt(M * N)`` with L the hidden
    dimensionality and M, N the table dimensions.  It is an
    order-of-magnitude estimate: error grows as the 3/2 power of the hidden
    dimensionality and shrinks with the amount of observed data.
    """
    if n_components < 1 or n_individuals < 1 or n_products < 1:
        raise ValueError("all counts must be positive")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    # L * sqrt(L): sqrt keeps the exact 8x ratio between L and 4L
    dimensionality_factor = n_components * math.sqrt(n_components)
    size_factor = (math.sqrt(n_individuals) + math.sqrt(n_products)) / math.sqrt(
        n_individuals * n_products
    )
    return gamma * dimensionality_factor * size_factor


def gamma_factor(config: ModelConfig) -> float:
    """Error-law prefactor: normalization times the component second moment.

    Generally ``normalization * sqrt(<a^2><b^2>)``; with both taste and
    feature components uniform on [-r, r] the second moments are ``r**2 / 3``
    each, so this reduces to ``normalization * r**2 / 3``.
    """
    return config.normalization * config.component_range**2 / 3.0


def reconstruction_thresholds(n_individuals: int, n_components: int) -> tuple[float, float]:
    """Percolation and rigidity bounds for partially observed overlap graphs.

    With only a fraction of pairwise overlaps known, ``1 / (M - 1)`` of them
    must be present before the similarity graph connects at all, and about
    ``2 * L / M`` before the mutual orientation of every hidden vector is
    pinned down (one known overlap removes a single degree of freedom).
    """
    if n_individuals < 2:
        raise ValueError(f"need at least 2 individuals, got {n_individuals}")
    if n_components < 1:
        raise ValueError(f"n_components must be positive, got {n_components}")
    percolation = 1.0 / (n_individuals - 1)
    rigidity = 2.0 * n_components / n_individuals
    return percolation, rigidity
