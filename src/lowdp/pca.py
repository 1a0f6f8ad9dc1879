"""Centered covariance, its privatized version, and the noisy projection.

A ``Dataset`` computes its mean and its centered Gram matrix once, on first
use, and every stage of a run reads them from there.  The covariance path
privatizes the (1/(n-1))-normalized centered covariance by adding a
symmetric Laplace matrix at per-entry scale 3 d^2 / (eps n); the
projection path shifts the data by a privatized mean and projects onto the
top eigenvectors of the noisy covariance.  Eigenvalues are ordered
algebraically (the noise can make the matrix indefinite) and eigenvectors
carry a deterministic sign convention so repeated runs are identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidBudgetError,
    InvalidDimensionError,
    InvalidParameterError,
)
from .noise import NoiseScale, SeededGenerator, sample_laplace, sample_symmetric_laplace_matrix

__all__ = [
    "Dataset",
    "CenteredCovariance",
    "PrivateCovariance",
    "ProjectedDataset",
    "centered_covariance",
    "private_covariance",
    "top_eigenvectors",
    "select_dimension",
    "noisy_projection",
]

_SIGN_TOL = 1e-12


@dataclass(frozen=True)
class Dataset:
    """n points in [0, 1]^d stored column-major: points[:, i] is the i-th point.

    ``mean`` and ``gram`` are computed on first use and then kept, so the
    points must not be changed in place afterwards.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2:
            raise InvalidParameterError(f"points must be a d x n matrix, got shape {pts.shape}")
        d, n = pts.shape
        if d < 1:
            raise InvalidParameterError("dataset must have at least one coordinate")
        if n < 2:
            raise InsufficientDataError(f"dataset needs n >= 2 points, got {n}")
        if not np.isfinite(pts).all():
            raise InvalidParameterError("dataset contains non-finite entries")
        if pts.min() < 0.0 or pts.max() > 1.0:
            raise InvalidParameterError("dataset entries must lie in [0, 1]")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[0]

    @property
    def size(self) -> int:
        return self.points.shape[1]

    @cached_property
    def mean(self) -> np.ndarray:
        """Per-coordinate mean of the points."""
        return self.points.mean(axis=1)

    @cached_property
    def gram(self) -> np.ndarray:
        """Centered Gram matrix Z Z^T, Z the points minus their mean (not symmetrized)."""
        centered = self.points - self.mean[:, None]
        return centered @ centered.T


def _as_dataset(data) -> Dataset:
    return data if isinstance(data, Dataset) else Dataset(data)


@dataclass(frozen=True)
class CenteredCovariance:
    """Centered covariance M = (1/(n-1)) sum (X_i - mean)(X_i - mean)^T."""

    matrix: np.ndarray
    mean: np.ndarray

    def spectrum(self) -> np.ndarray:
        """Eigenvalues sorted non-increasing; rounding negatives above -1e-12
        are clamped to zero in this report only (the matrix is untouched)."""
        w = np.linalg.eigvalsh(self.matrix)[::-1]
        w[(w < 0.0) & (w > -1e-12)] = 0.0
        return w


@dataclass(frozen=True)
class PrivateCovariance:
    """Noisy covariance with its precomputed eigendecomposition.

    ``spectrum`` is sorted non-increasing (algebraic order; the matrix may be
    indefinite) and ``eigenvectors[:, k]`` matches ``spectrum[k]``.
    ``non_private`` marks zero-noise test output that must not be released.
    """

    matrix: np.ndarray
    noise_scale: NoiseScale
    spectrum: np.ndarray
    eigenvectors: np.ndarray
    non_private: bool = False


@dataclass(frozen=True)
class ProjectedDataset:
    """Private basis, per-point coordinates, and the radius bound.

    ``coords[:, i] = basis^T (X_i - private_mean)``; every coordinate column
    has l2 norm at most ``radius = sqrt(d) + ||private_mean||_2``.
    """

    basis: np.ndarray
    coords: np.ndarray
    radius: float
    private_mean: np.ndarray
    non_private: bool = False


def centered_covariance(data) -> CenteredCovariance:
    """The mean and the centered covariance matrix of the data."""
    dataset = _as_dataset(data)
    m = dataset.gram / (dataset.size - 1)
    m = (m + m.T) / 2.0  # BLAS matmul is not exactly symmetric
    return CenteredCovariance(matrix=m, mean=dataset.mean)


def _eigh_descending(matrix: np.ndarray):
    """Symmetric eigendecomposition, algebraically descending, stable ties."""
    w, v = np.linalg.eigh(matrix)
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def private_covariance(data, epsilon: float, gen: SeededGenerator, *, zero_noise: bool = False) -> PrivateCovariance:
    """Add a symmetric Laplace matrix at scale 3 d^2 / (eps n) to the covariance.

    ``zero_noise=True`` skips the perturbation for oracle comparisons; the
    output is then flagged non-private.
    """
    dataset = _as_dataset(data)
    d, n = dataset.points.shape
    if not epsilon > 0:
        raise InvalidBudgetError(f"epsilon must be positive, got {epsilon}")
    cov = centered_covariance(dataset)
    sigma = NoiseScale(3.0 * d * d / (epsilon * n))
    if zero_noise:
        noisy = cov.matrix.copy()
    else:
        noisy = cov.matrix + sample_symmetric_laplace_matrix(d, sigma, gen)
    spectrum, vecs = _eigh_descending(noisy)
    return PrivateCovariance(
        matrix=noisy,
        noise_scale=sigma,
        spectrum=spectrum,
        eigenvectors=vecs,
        non_private=zero_noise,
    )


def top_eigenvectors(cov: PrivateCovariance, d_prime: int) -> np.ndarray:
    """Orthonormal eigenvectors of the d' algebraically largest eigenvalues.

    Sign convention: the first component of each eigenvector larger than
    1e-12 in magnitude is made positive.  Eigenvalue ties keep the
    eigensolver's original order.
    """
    d = cov.matrix.shape[0]
    d_prime = int(d_prime)
    if not 1 <= d_prime <= d:
        raise InvalidDimensionError(f"d' must be in [1, {d}], got {d_prime}")
    basis = cov.eigenvectors[:, :d_prime].copy()
    for k in range(d_prime):
        col = basis[:, k]
        nonzero = np.nonzero(np.abs(col) > _SIGN_TOL)[0]
        if nonzero.size and col[nonzero[0]] < 0.0:
            basis[:, k] = -col
    return basis


def select_dimension(cov: PrivateCovariance, tau: float, d_max: int) -> int:
    """Smallest d' in [1, d_max - 1] whose spectrum drops by a factor tau.

    Returns the first d' with spectrum[d'] <= tau * max(spectrum[d'-1], 1e-12)
    (0-based indexing), else d_max.  Pure post-processing of the private
    spectrum, so it costs no extra budget.
    """
    if not 0.0 < tau < 1.0:
        raise InvalidParameterError(f"tau must be in (0, 1), got {tau}")
    d = cov.spectrum.shape[0]
    d_max = int(d_max)
    if not 1 <= d_max <= d:
        raise InvalidDimensionError(f"d_max must be in [1, {d}], got {d_max}")
    s = cov.spectrum
    for dp in range(1, d_max):
        if s[dp] <= tau * max(s[dp - 1], 1e-12):
            return dp
    return d_max


def noisy_projection(
    data,
    cov: PrivateCovariance,
    d_prime: int,
    epsilon: float,
    gen: SeededGenerator,
    *,
    zero_noise: bool = False,
) -> ProjectedDataset:
    """Shift by a privatized mean and project onto the private subspace.

    The mean is perturbed with i.i.d. Laplace(d / (eps n)) coordinates (the
    l1 sensitivity of the mean is d/n).  Coordinates are the inner products
    against the sign-fixed top-d' eigenvectors of the private covariance.
    """
    dataset = _as_dataset(data)
    d, n = dataset.points.shape
    if not epsilon > 0:
        raise InvalidBudgetError(f"epsilon must be positive, got {epsilon}")
    basis = top_eigenvectors(cov, d_prime)
    if zero_noise:
        lam = np.zeros(d)
    else:
        lam = np.asarray(sample_laplace(NoiseScale(d / (epsilon * n)), gen, size=d))
    private_mean = dataset.mean + lam
    coords = basis.T @ (dataset.points - private_mean[:, None])
    radius = float(np.sqrt(d) + np.linalg.norm(private_mean))
    return ProjectedDataset(
        basis=basis,
        coords=coords,
        radius=radius,
        private_mean=private_mean,
        non_private=zero_noise or cov.non_private,
    )
