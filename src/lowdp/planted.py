"""Synthetic benchmark data: points planted on a random affine subspace.

Drawn by ``lowdp.cli._planted_trial`` (``lowdp sweep`` and criteria 1-2)
and the demos: the points lie exactly on a random d'-dimensional affine
patch through the cube center, so the covariance tail is exactly zero and
the accuracy of a run is driven by the private mechanism alone.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .noise import SeededGenerator
from .pca import BLOCK, Dataset

__all__ = ["planted_subspace_dataset"]


def planted_subspace_dataset(n: int, d: int, d_prime: int, gen: SeededGenerator):
    """n points on a random d'-dimensional affine section of [0,1]^d.

    A random orthonormal basis B through the cube center c defines the
    subspace.  The points are c + B t, with t uniform (by rejection) on the
    part of the box |t_j| <= extent_j = 0.5 / max_i |B_ij| that maps into
    the cube; extent_j is where a step along direction j alone first hits a
    cube face.  Where the other coordinates are nonzero the section reaches
    further than extent_j along direction j, so the points do not cover the
    whole section.  Returns (Dataset, info) with the basis, center and the
    per-direction extents.

    Each rejection batch's t is drawn whole; the candidates c + B t are
    formed BLOCK columns at a time, and the accepted ones are written
    straight into the one d x n output.
    """
    if d_prime < 1 or d_prime > d:
        raise InvalidParameterError(f"need 1 <= d' <= d, got d'={d_prime}, d={d}")
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got {n}")
    basis, _ = np.linalg.qr(gen.standard_normal((d, d_prime)))
    center = np.full(d, 0.5)
    # along direction j alone, |t_j| is capped by the first cube face hit
    extent = 0.5 / np.abs(basis).max(axis=0)
    points = np.empty((d, n))
    filled = 0
    while filled < n:
        batch = max(2 * (n - filled), 128)
        t = gen.random((d_prime, batch))
        t *= 2.0
        t -= 1.0
        t *= extent[:, None]
        for start in range(0, batch, BLOCK):
            cand = basis @ t[:, start : start + BLOCK]
            cand += center[:, None]
            accepted = cand[:, ((cand >= 0.0) & (cand <= 1.0)).all(axis=0)][:, : n - filled]
            points[:, filled : filled + accepted.shape[1]] = accepted
            filled += accepted.shape[1]
            if filled == n:
                break
        del t  # before the next batch's draw
    info = {"basis": basis, "center": center, "extent": extent}
    return Dataset(points), info
