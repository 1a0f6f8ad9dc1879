"""Centered covariance, its privatized version, and the noisy projection.

A ``Dataset`` computes its mean and its centered Gram matrix once, on first
use, and every stage of a run reads them from there.  ``centered_covariance``
is the symmetric d x d matrix (1/(n-1)) Z Z^T; ``private_covariance`` adds a
symmetric Laplace matrix at per-entry scale 3 d^2 / (eps n) and decomposes
the result once, fixing each eigenvector's sign there.  ``top_eigenvectors``
slices those vectors, and ``select_dimension(cov, tau)`` reads d' off the
spectrum.  The projection path shifts the data by a privatized mean and
projects onto the top eigenvectors.
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
from .noise import SeededGenerator, sample_laplace, sample_symmetric_laplace_matrix

__all__ = [
    "Dataset",
    "PrivateCovariance",
    "ProjectedDataset",
    "centered_covariance",
    "private_covariance",
    "top_eigenvectors",
    "select_dimension",
    "noisy_projection",
]

_SIGN_TOL = 1e-12
# Columns per block of every blocked pass over a d x n array: each pass's
# temporaries stay d x BLOCK.  The other blocked passes (CSV rows, the
# sampled-W1 jitter and matched pairs) take blocks of about BLOCK items.
BLOCK = 4096


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
        if not (pts.min() >= 0.0 and pts.max() <= 1.0):  # false on NaN and +-inf too
            if not np.isfinite(pts).all():
                raise InvalidParameterError("dataset contains non-finite entries")
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
class PrivateCovariance:
    """Noisy covariance with its precomputed eigendecomposition.

    ``spectrum`` is sorted non-increasing (algebraic order; the matrix may be
    indefinite) and ``eigenvectors[:, k]`` matches ``spectrum[k]``.  The
    first component of each eigenvector larger than 1e-12 in magnitude is
    positive; eigenvalue ties keep the eigensolver's original order.
    ``noise_scale`` is the per-entry Laplace scale of the added matrix.
    """

    matrix: np.ndarray
    noise_scale: float
    spectrum: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class ProjectedDataset:
    """Private basis, per-point coordinates, and the radius bound.

    ``coords[:, i] = basis^T (X_i - private_mean)``; every coordinate column
    has l2 norm at most ``radius = sqrt(d) + ||private_mean||_2``.
    ``noise_scale`` is the per-coordinate Laplace scale of the mean's noise.
    """

    basis: np.ndarray
    coords: np.ndarray
    radius: float
    private_mean: np.ndarray
    noise_scale: float


def centered_covariance(data) -> np.ndarray:
    """The symmetric centered covariance (1/(n-1)) sum (X_i - mean)(X_i - mean)^T."""
    dataset = _as_dataset(data)
    m = dataset.gram / (dataset.size - 1)
    return (m + m.T) / 2.0  # BLAS matmul is not exactly symmetric


def private_covariance(data, epsilon: float, gen: SeededGenerator) -> PrivateCovariance:
    """Add a symmetric Laplace matrix at scale 3 d^2 / (eps n) to the covariance.

    The noise is always drawn; the eigendecomposition is of the noisy matrix,
    and each eigenvector's sign is fixed here, once.
    """
    dataset = _as_dataset(data)
    d, n = dataset.points.shape
    if not epsilon > 0:
        raise InvalidBudgetError(f"epsilon must be positive, got {epsilon}")
    sigma = 3.0 * d * d / (epsilon * n)
    noisy = centered_covariance(dataset) + sample_symmetric_laplace_matrix(d, sigma, gen)
    w, v = np.linalg.eigh(noisy)
    order = np.argsort(-w, kind="stable")
    vecs = v[:, order]
    # the first entry above the tolerance in magnitude becomes positive; a column without one keeps its sign
    first = np.argmax(np.abs(vecs) > _SIGN_TOL, axis=0)
    vecs *= np.where(vecs[first, np.arange(d)] < -_SIGN_TOL, -1.0, 1.0)
    return PrivateCovariance(matrix=noisy, noise_scale=sigma, spectrum=w[order], eigenvectors=vecs)


def top_eigenvectors(cov: PrivateCovariance, d_prime: int) -> np.ndarray:
    """Orthonormal, sign-fixed eigenvectors of the d' algebraically largest eigenvalues."""
    d = cov.matrix.shape[0]
    d_prime = int(d_prime)
    if not 1 <= d_prime <= d:
        raise InvalidDimensionError(f"d' must be in [1, {d}], got {d_prime}")
    return cov.eigenvectors[:, :d_prime].copy()


def select_dimension(cov: PrivateCovariance, tau: float) -> int:
    """Smallest d' in [1, d - 1] whose spectrum drops by a factor tau.

    Returns the first d' with spectrum[d'] <= tau * max(spectrum[d'-1], 1e-12)
    (0-based indexing), else d.  Pure post-processing of the private
    spectrum, so it costs no extra budget.
    """
    if not 0.0 < tau < 1.0:
        raise InvalidParameterError(f"tau must be in (0, 1), got {tau}")
    s = cov.spectrum
    for dp in range(1, s.size):
        if s[dp] <= tau * max(s[dp - 1], 1e-12):
            return dp
    return s.size


def noisy_projection(
    data,
    cov: PrivateCovariance,
    d_prime: int,
    epsilon: float,
    gen: SeededGenerator,
) -> ProjectedDataset:
    """Shift by a privatized mean and project onto the private subspace.

    The mean is perturbed with i.i.d. Laplace(d / (eps n)) coordinates (the
    l1 sensitivity of the mean is d/n).  Coordinates are the inner products
    against the sign-fixed top-d' eigenvectors of the private covariance,
    taken BLOCK columns at a time through one reused d x BLOCK buffer, so
    the only n-sized array this allocates is the d' x n coordinates.
    """
    dataset = _as_dataset(data)
    d, n = dataset.points.shape
    if not epsilon > 0:
        raise InvalidBudgetError(f"epsilon must be positive, got {epsilon}")
    basis = top_eigenvectors(cov, d_prime)
    sigma = d / (epsilon * n)
    private_mean = dataset.mean + sample_laplace(sigma, gen, size=d)
    coords = np.empty((basis.shape[1], n))
    shifted = np.empty((d, min(n, BLOCK)))
    for start in range(0, n, BLOCK):
        cols = dataset.points[:, start : start + BLOCK]
        block = shifted[:, : cols.shape[1]]
        np.subtract(cols, private_mean[:, None], out=block)
        np.matmul(basis.T, block, out=coords[:, start : start + BLOCK])
    radius = float(np.sqrt(d) + np.linalg.norm(private_mean))
    return ProjectedDataset(
        basis=basis,
        coords=coords,
        radius=radius,
        private_mean=private_mean,
        noise_scale=sigma,
    )
