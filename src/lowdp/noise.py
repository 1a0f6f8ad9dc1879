"""Seeded sampling of the Laplace-family noise used throughout the library.

All randomness flows through :class:`SeededGenerator`, a counter-based
(Philox) stream with named, independently derived sub-streams.  Samplers are
pure functions of (parameters, generator state): a fixed seed reproduces the
same draws bit-for-bit, and splitting a sub-stream for one pipeline stage
never perturbs the draws of another.  A noise scale is a plain float, which
every sampler checks to be finite and strictly positive.  The Laplace
samplers read their uniforms only through ``open_uniform``, and each maps
u = 1/2 to exactly 0.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "SeededGenerator",
    "laplace_inverse_cdf",
    "sample_laplace",
    "sample_integer_laplace",
    "sample_symmetric_laplace_matrix",
]

_U53 = float(1 << 53)


def _check_sigma(sigma) -> float:
    """The scale as a float; it must be finite and strictly positive."""
    value = float(sigma)
    if not np.isfinite(value) or value <= 0.0:
        raise InvalidParameterError(f"noise scale must be positive, got {value!r}")
    return value


class SeededGenerator:
    """Counter-based 64-bit random stream with splittable sub-streams.

    Each generator is identified by a 64-bit seed and a path of string
    labels.  ``split(label)`` derives a child stream whose draws are
    independent of (and do not advance) the parent's.  Derivation hashes
    (seed, path) with BLAKE2b into a Philox key, so the mapping is stable
    across platforms and numpy versions.
    """

    def __init__(self, seed: int, _path: tuple[str, ...] = ()):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.path = tuple(str(p) for p in _path)
        token = ("%d/" % self.seed) + "/".join(self.path)
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=16).digest()
        self._key = int.from_bytes(digest, "little")
        self._rng = np.random.Generator(np.random.Philox(key=self._key))

    def split(self, label) -> "SeededGenerator":
        """Derive the named child stream; the parent's state is untouched."""
        return SeededGenerator(self.seed, self.path + (str(label),))

    def open_uniform(self, size=None):
        """Uniform draws on the open interval (0, 1)."""
        return self._rng.integers(1, 1 << 53, size=size) / _U53

    def random(self, size=None):
        return self._rng.random(size)

    def choice(self, n, size):
        """size distinct integers drawn from range(n)."""
        return self._rng.choice(n, size=size, replace=False)

    def standard_normal(self, size=None):
        return self._rng.standard_normal(size)

    def __repr__(self):
        return f"SeededGenerator(seed={self.seed}, path={'/'.join(self.path) or '<root>'})"


def laplace_inverse_cdf(u, sigma):
    """Map uniform u in (0, 1) to Laplace(sigma) via the inverse CDF.

    x = -sigma * sign(u - 1/2) * log(1 - 2|u - 1/2|); the median u = 1/2 maps
    to exactly 0 and u -> 1 - u flips the sign of the output bit-for-bit.
    """
    u = np.asarray(u, dtype=np.float64)
    shifted = u - 0.5
    x = -sigma * np.sign(shifted) * np.log1p(-2.0 * np.abs(shifted))
    return x if x.ndim else float(x)


def sample_laplace(sigma: float, gen: SeededGenerator, size=None):
    """Draw from the continuous Laplace distribution with the given scale.

    Density (1/(2 sigma)) exp(-|x| / sigma); implemented by inverse CDF on a
    uniform draw from the open unit interval, so the output is finite and
    exactly reproducible for a fixed stream.
    """
    sigma = _check_sigma(sigma)
    u = gen.open_uniform(size=size)
    return laplace_inverse_cdf(u, sigma)


def sample_integer_laplace(sigma: float, gen: SeededGenerator, size=None):
    """Draw from the integer Laplace distribution on Z.

    P(Z = z) = ((1-p)/(1+p)) * exp(-|z|/sigma) with p = exp(-1/sigma),
    realized exactly as the difference of two i.i.d. geometric variables
    with success probability 1 - p.
    """
    sigma = _check_sigma(sigma)
    log_p = -1.0 / sigma
    u1 = gen.open_uniform(size=size)
    u2 = gen.open_uniform(size=size)
    g1 = np.floor(np.log(u1) / log_p).astype(np.int64)
    g2 = np.floor(np.log(u2) / log_p).astype(np.int64)
    z = g1 - g2
    return z if np.ndim(z) else int(z)


def sample_symmetric_laplace_matrix(d: int, sigma: float, gen: SeededGenerator) -> np.ndarray:
    """Symmetric d x d matrix with Laplace(sigma) upper triangle.

    Off-diagonal entries A_ij = A_ji are a single Laplace draw each; the
    diagonal is 2x a Laplace draw.  Exactly d(d+1)/2 draws are consumed in
    row-major upper-triangular order, and the result is bitwise symmetric.
    """
    d = int(d)
    if d < 1:
        raise InvalidParameterError(f"matrix dimension must be >= 1, got {d}")
    draws = sample_laplace(sigma, gen, size=d * (d + 1) // 2)
    upper = np.zeros((d, d))
    upper[np.triu_indices(d)] = draws
    return upper + upper.T
