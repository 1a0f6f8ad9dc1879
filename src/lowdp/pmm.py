"""Synthetic measure on a box via a noisy binary hierarchical partition.

The cube [-R, R]^d' is split r times, cycling through the axes at box
midpoints, giving the binary tree of regions indexed by bit strings theta.
Counts at every node of every level receive independent integer Laplace
noise with the level-dependent scales sigma_j = (1/eps) 2^{(1/2)(1-1/d')(r-j)},
are clipped at zero, and are then repaired top-down into a consistent
nonnegative integer tree whose leaves define the output measure.

All cell geometry (node and leaf boxes, point classification, the largest
leaf side) is read from one set of per-axis edges: the 1-D (lo + hi)/2
bisection of [-R, R], once per split on that axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InvalidBudgetError,
    InvalidParameterError,
    InvalidRegimeError,
    OutOfDomainError,
)
from .noise import NoiseScale, SeededGenerator, sample_integer_laplace

__all__ = [
    "CountTree",
    "build_partition",
    "depth_and_scales",
    "noisy_counts",
    "enforce_consistency",
    "sample_synthetic",
    "repair_children",
    "max_leaf_side",
    "run_pmm",
]


@dataclass(frozen=True)
class CountTree:
    """Binary hierarchical partition of [-R, R]^d' with per-level count arrays.

    Level k holds 2^k nodes in theta-lexicographic order; node theta at level
    k has array index int(theta, 2).  ``raw``, ``noisy`` and ``consistent``
    are lists of per-level int64 arrays (None until the corresponding stage
    has run).
    """

    radius: float
    d_prime: int
    depth: int
    raw: list = None
    noisy: list = None
    consistent: list = None
    scales: np.ndarray = None

    def cell_edges(self) -> list:
        """Per-axis cell edges: the one place the partition's midpoints are computed.

        Axis a is split at levels a, a + d', a + 2d', ...; each split halves
        every current interval at (lo + hi) / 2.  Only those levels move a
        box's bounds on axis a, so ``edges[a]`` (the 2^k + 1 sorted bounds of
        the k-fold bisection of [-R, R]) holds every node's bounds on axis a.
        """
        edges = []
        for axis in range(self.d_prime):
            edge = np.array([-self.radius, self.radius])
            for _ in range(axis, self.depth, self.d_prime):
                finer = np.empty(2 * edge.size - 1)
                finer[0::2] = edge
                finer[1::2] = (edge[:-1] + edge[1:]) / 2.0
                edge = finer
            edges.append(edge)
        return edges

    def _leaf_bounds(self, leaves) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) of the given leaf indices, gathered from the cell edges."""
        edges = self.cell_edges()
        leaves = np.asarray(leaves)
        cells = [np.zeros_like(leaves) for _ in edges]
        for level in range(self.depth):  # a leaf's bit at each level extends its cell on that axis
            axis = level % self.d_prime
            cells[axis] = (cells[axis] << 1) | ((leaves >> (self.depth - 1 - level)) & 1)
        lo = np.stack([edge[cell] for edge, cell in zip(edges, cells)], axis=-1)
        hi = np.stack([edge[cell + 1] for edge, cell in zip(edges, cells)], axis=-1)
        return lo, hi

    def box(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) bounds of node theta, a sequence of 0/1 bits.

        The node spans its first leaf (theta 0...0) to its last (theta 1...1).
        """
        bits = [int(b) for b in theta]
        if len(bits) > self.depth or any(b not in (0, 1) for b in bits):
            raise InvalidParameterError(f"invalid node index {theta!r} for depth {self.depth}")
        below = self.depth - len(bits)
        first = int("".join(map(str, bits)) or "0", 2) << below
        lo, hi = self._leaf_bounds([first, first + (1 << below) - 1])
        return lo[0], hi[1]

    def leaf_boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounds of all 2^depth leaves, theta-lexicographic, shape (m, d')."""
        return self._leaf_bounds(np.arange(1 << self.depth))

    @property
    def total(self) -> int:
        """Root consistent count (the output size m)."""
        if self.consistent is None:
            raise InvalidParameterError("consistency has not been enforced yet")
        return int(self.consistent[0][0])


def build_partition(radius: float, d_prime: int, depth: int) -> CountTree:
    """Binary hierarchical partition of [-R, R]^d' of the given depth.

    Level k splits along axis (k mod d') at the box midpoint; child 0 takes
    the lower half-open half, child 1 the upper, with the global upper face
    closed.
    """
    if not radius > 0:
        raise InvalidParameterError(f"radius must be positive, got {radius}")
    if int(d_prime) < 1:
        raise InvalidParameterError(f"d' must be >= 1, got {d_prime}")
    if int(depth) < 0:
        raise InvalidParameterError(f"depth must be >= 0, got {depth}")
    return CountTree(radius=float(radius), d_prime=int(d_prime), depth=int(depth))


def depth_and_scales(epsilon: float, n: int, d_prime: int) -> tuple[int, np.ndarray]:
    """Depth r = ceil(log2(eps n)) and the per-level noise scales sigma_0..sigma_r."""
    if not epsilon > 0:
        raise InvalidBudgetError(f"epsilon must be positive, got {epsilon}")
    en = epsilon * n
    if not en > 1.0:
        raise InvalidRegimeError(f"the mechanism requires eps * n > 1, got {en}")
    r = int(math.ceil(math.log2(en)))
    return r, _level_scales(epsilon, r, int(d_prime))


def _level_scales(epsilon: float, depth: int, d_prime: int) -> np.ndarray:
    j = np.arange(depth + 1)
    exponent = 0.5 * (1.0 - 1.0 / d_prime) * (depth - j)
    return (1.0 / epsilon) * np.exp2(exponent)


def _classify(tree: CountTree, coords: np.ndarray) -> np.ndarray:
    """Leaf index of each coordinate column.

    Per axis, the cell is the number of interior edges <= x: x below a
    midpoint goes to child 0, x at or above it to child 1 (which closes the
    global upper face).  The leaf index interleaves the per-axis cell bits
    level by level.
    """
    cells = [np.searchsorted(edge[1:-1], x, side="right") for edge, x in zip(tree.cell_edges(), coords)]
    idx = np.zeros(coords.shape[1], dtype=np.int64)
    for level in reversed(range(tree.depth)):  # the deepest split on an axis holds its cell's last bit
        axis = level % tree.d_prime
        idx |= (cells[axis] & 1) << (tree.depth - 1 - level)
        cells[axis] >>= 1
    return idx


def noisy_counts(
    tree: CountTree,
    coords: np.ndarray,
    epsilon: float,
    gen: SeededGenerator,
    *,
    zero_noise: bool = False,
) -> CountTree:
    """Fill raw counts by point membership and perturb every node's count.

    Noise at level j is integer Laplace at scale sigma_j, independent across
    all nodes of all levels (the root included); perturbed counts are
    clipped at zero.  Points outside the root box, or with a NaN coordinate,
    raise OutOfDomainError.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[0] != tree.d_prime:
        raise InvalidParameterError(f"coords must be {tree.d_prime} x n, got {coords.shape}")
    if not epsilon > 0:
        raise InvalidBudgetError(f"epsilon must be positive, got {epsilon}")
    outside = np.nonzero(~(np.abs(coords) <= tree.radius).all(axis=0))[0]  # NaN counts as outside
    if outside.size:
        raise OutOfDomainError(
            f"point {int(outside[0])} lies outside the root box [-R, R]^d', R={tree.radius}"
        )
    leaf_idx = _classify(tree, coords)
    raw = [None] * (tree.depth + 1)
    raw[tree.depth] = np.bincount(leaf_idx, minlength=1 << tree.depth).astype(np.int64)
    for level in range(tree.depth - 1, -1, -1):
        child = raw[level + 1]
        raw[level] = child[0::2] + child[1::2]
    scales = _level_scales(epsilon, tree.depth, tree.d_prime)
    noisy = []
    for level in range(tree.depth + 1):
        if zero_noise:
            lam = np.zeros(1 << level, dtype=np.int64)
        else:
            lam = np.atleast_1d(
                sample_integer_laplace(NoiseScale(scales[level]), gen.split(f"level-{level}"), size=1 << level)
            )
        noisy.append(np.maximum(raw[level] + lam, 0))
    return replace(tree, raw=raw, noisy=noisy, scales=scales)


def repair_children(parent: np.ndarray, child0: np.ndarray, child1: np.ndarray):
    """Adjust sibling counts to nonnegative integers summing to their parent.

    While the children exceed the parent, the currently larger child is
    decremented (ties go to child 1); while they fall short, the smaller is
    incremented (ties to child 0).  Vectorized closed form of that loop.
    """
    a = child0.astype(np.int64).copy()
    b = child1.astype(np.int64).copy()
    excess = a + b - parent

    over = excess > 0
    if over.any():
        e = excess[over]
        a_o, b_o = a[over], b[over]
        # phase 1 drains only the strictly larger child until the pair ties
        t = np.minimum(e, np.abs(a_o - b_o))
        larger_is_a = a_o > b_o
        a_o = a_o - np.where(larger_is_a, t, 0)
        b_o = b_o - np.where(larger_is_a, 0, t)
        # phase 2 alternates on the tied pair, starting with child 1
        rest = e - t
        a_o = a_o - rest // 2
        b_o = b_o - (rest - rest // 2)
        a[over], b[over] = a_o, b_o

    under = excess < 0
    if under.any():
        f = -excess[under]
        a_u, b_u = a[under], b[under]
        t = np.minimum(f, np.abs(a_u - b_u))
        smaller_is_a = a_u < b_u
        a_u = a_u + np.where(smaller_is_a, t, 0)
        b_u = b_u + np.where(smaller_is_a, 0, t)
        # alternate on the tied pair, starting with child 0
        rest = f - t
        a_u = a_u + (rest - rest // 2)
        b_u = b_u + rest // 2
        a[under], b[under] = a_u, b_u
    return a, b


def enforce_consistency(tree: CountTree) -> CountTree:
    """Top-down repair: the root keeps its noisy count, every sibling pair is
    adjusted to sum to its (already consistent) parent."""
    if tree.noisy is None:
        raise InvalidParameterError("noisy counts must be computed before consistency")
    consistent = [tree.noisy[0].copy()]
    for level in range(tree.depth):
        parent = consistent[level]
        child = tree.noisy[level + 1]
        a, b = repair_children(parent, child[0::2], child[1::2])
        merged = np.empty(2 << level, dtype=np.int64)
        merged[0::2] = a
        merged[1::2] = b
        consistent.append(merged)
    return replace(tree, consistent=consistent)


def sample_synthetic(tree: CountTree, gen: SeededGenerator, *, mode: str = "uniform") -> np.ndarray:
    """Emit each leaf's consistent count of points from that leaf's box.

    Leaves are visited in theta-lexicographic order.  ``mode='uniform'``
    draws points independently and uniformly inside the leaf;
    ``mode='leaf-center'`` places them deterministically at the center.
    Returns a d' x m matrix (empty when the total count is zero).
    """
    if tree.consistent is None:
        raise InvalidParameterError("consistency must be enforced before sampling")
    if mode not in ("uniform", "leaf-center"):
        raise InvalidParameterError(f"unknown sampling mode {mode!r}")
    counts = tree.consistent[tree.depth]
    total = int(counts.sum())
    if total == 0:
        return np.empty((tree.d_prime, 0))
    lo, hi = tree.leaf_boxes()
    lo_rep = np.repeat(lo, counts, axis=0)
    hi_rep = np.repeat(hi, counts, axis=0)
    if mode == "leaf-center":
        points = (lo_rep + hi_rep) / 2.0
    else:
        u = gen.split("sample").random((total, tree.d_prime))
        points = lo_rep + u * (hi_rep - lo_rep)
    return points.T


def max_leaf_side(tree: CountTree) -> float:
    """Largest leaf side length (the leaf diameter in the sup metric)."""
    return max(float(np.diff(edge).max()) for edge in tree.cell_edges())


def run_pmm(
    coords: np.ndarray,
    radius: float,
    epsilon: float,
    n: int,
    gen: SeededGenerator,
    *,
    zero_noise: bool = False,
    mode: str = "uniform",
) -> tuple[np.ndarray, dict]:
    """Full subroutine: partition, noisy counts, consistency, sampling."""
    d_prime = int(np.asarray(coords).shape[0])
    depth, scales = depth_and_scales(epsilon, n, d_prime)
    tree = build_partition(radius, d_prime, depth)
    tree = noisy_counts(tree, coords, epsilon, gen, zero_noise=zero_noise)
    tree = enforce_consistency(tree)
    points = sample_synthetic(tree, gen, mode=mode)
    info = {
        "depth": depth,
        "level_scales": scales.tolist(),
        "synthetic_size": points.shape[1],
        "max_leaf_side": max_leaf_side(tree),
    }
    return points, info
