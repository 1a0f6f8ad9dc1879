"""Synthetic measure on a box via a noisy binary hierarchical partition.

The cube [-R, R]^d' is split r times, cycling through the axes at box
midpoints, giving the binary tree of regions indexed by bit strings theta.
Counts at every node of every level receive independent integer Laplace
noise with the level-dependent scales sigma_j = (1/eps) 2^{(1/2)(1-1/d')(r-j)},
are clipped at zero, and are then repaired top-down into a consistent
nonnegative integer tree whose leaves define the output measure.

All cell geometry (leaf bounds for sampling, point classification, the
largest leaf side) is read from one set of per-axis edges: the 1-D (lo + hi)/2
bisection of [-R, R], once per split on that axis.  A point's cell on an
axis is guessed arithmetically from its coordinate, then corrected by one
comparison each way against those edges; its leaf index is the OR of one
lookup per axis in a table from cell to leaf-index bits.
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
    SizeOverflowError,
)
from .noise import SeededGenerator, sample_integer_laplace

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

# Largest tree depth: run_pmm at n = 1000, d' = 2 took 0.4 s and 215 MB at depth
# 20 and 2.1-2.4 s and 575 MB at depth 22 (2-core VM); each further level doubles the tree.
MAX_DEPTH = 22


@dataclass(frozen=True)
class CountTree:
    """Binary hierarchical partition of [-R, R]^d' with per-level count arrays.

    Level k holds 2^k nodes in theta-lexicographic order; node theta at level
    k has array index int(theta, 2).  ``noisy`` and ``consistent`` are
    lists of per-level int64 arrays (None until the corresponding stage has
    run); the raw counts stay inside ``noisy_counts``.
    """

    radius: float
    d_prime: int
    depth: int
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
    """Depth r = ceil(log2(eps n)) and the per-level noise scales sigma_0..sigma_r.

    Refuses r > MAX_DEPTH with SizeOverflowError, before any tree is built.
    """
    if not epsilon > 0:
        raise InvalidBudgetError(f"epsilon must be positive, got {epsilon}")
    en = epsilon * n
    if not en > 1.0:
        raise InvalidRegimeError(f"the mechanism requires eps * n > 1, got {en}")
    if en > 2.0**MAX_DEPTH:
        depth = math.ceil(math.log2(en)) if en < math.inf else math.inf
        raise SizeOverflowError(
            f"eps * n = {en:.4g} needs a PMM tree of depth {depth}, above the cap of depth {MAX_DEPTH} "
            f"(2^{MAX_DEPTH} leaves); lower epsilon or use the psmm subroutine"
        )
    r = int(math.ceil(math.log2(en)))
    return r, _level_scales(epsilon, r, int(d_prime))


def _level_scales(epsilon: float, depth: int, d_prime: int) -> np.ndarray:
    j = np.arange(depth + 1)
    exponent = 0.5 * (1.0 - 1.0 / d_prime) * (depth - j)
    return (1.0 / epsilon) * np.exp2(exponent)


def _classify(tree: CountTree, coords: np.ndarray) -> np.ndarray:
    """Leaf index of each coordinate column (points inside [-R, R]^d').

    Per axis, the cell is the number of interior edges <= x: x below a
    midpoint goes to child 0, x at or above it to child 1 (which closes the
    global upper face).  With K = 2^(splits on the axis), the cell is first
    guessed as floor((x + R) K / 2R), capped at K - 1 (x >= -R keeps it
    nonnegative), then moved by one comparison each way against
    ``cell_edges()``.  One step suffices: every bisection edge differs from
    -R + k 2R/K by a few ulps of R at most (one rounding per split), and a
    cell of a tree at most MAX_DEPTH deep is at least 2R / 2^MAX_DEPTH
    wide, about 2^30 times wider, so the guess is off by at most one cell.

    The leaf index interleaves the per-axis cell bits level by level.  Each
    axis's bits land on fixed leaf-index positions, so a per-axis table of
    2^(splits) entries maps a cell to its share of the index, and the leaf
    index is the OR of one table lookup per axis.
    """
    idx = np.zeros(coords.shape[1], dtype=np.int64)
    for axis, (edge, x) in enumerate(zip(tree.cell_edges(), coords)):
        cells = edge.size - 1
        cell = ((x + tree.radius) * (cells / (2.0 * tree.radius))).astype(np.int64)
        np.minimum(cell, cells - 1, out=cell)
        edge[0], edge[-1] = -np.inf, np.inf  # the outer cells take everything beyond their inner edge
        cell -= x < edge[:-1][cell]
        cell += x >= edge[1:][cell]
        table = np.zeros(1, dtype=np.int64)
        for level in reversed(range(axis, tree.depth, tree.d_prime)):  # the deepest split holds the cell's last bit
            table = np.concatenate([table, table | (1 << (tree.depth - 1 - level))])
        idx |= table[cell]
    return idx


def noisy_counts(
    tree: CountTree,
    coords: np.ndarray,
    epsilon: float,
    gen: SeededGenerator,
) -> CountTree:
    """Count the points in every node and release the counts perturbed.

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
        lam = sample_integer_laplace(scales[level], gen.split(f"level-{level}"), size=1 << level)
        noisy.append(np.maximum(raw[level] + lam, 0))
    return replace(tree, noisy=noisy, scales=scales)


def repair_children(parent: np.ndarray, child0: np.ndarray, child1: np.ndarray):
    """Adjust sibling counts to nonnegative integers summing to their parent.

    The closed form of a unit-step loop: while the children exceed the
    parent, the currently larger child is decremented (ties go to child 1);
    while they fall short, the smaller is incremented (ties to child 0).
    With gap = parent - child0 - child1, the loop ends in one of two places.
    If |gap| <= |child0 - child1|, the pair never ties, so the larger child
    (on an excess) or the smaller (on a shortfall) absorbs the whole gap.
    Otherwise the pair ties and then alternates, ending at
    (parent - parent // 2, parent // 2).
    """
    a = child0.astype(np.int64)
    b = child1.astype(np.int64)
    gap = parent - a - b
    one_sided = np.abs(gap) <= np.abs(a - b)
    to_a = (a > b) == (gap < 0)  # child 0 absorbs as the larger on an excess, the smaller on a shortfall
    a_out = np.where(one_sided, a + np.where(to_a, gap, 0), parent - parent // 2)
    b_out = np.where(one_sided, b + np.where(to_a, 0, gap), parent // 2)
    return a_out, b_out


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


def sample_synthetic(tree: CountTree, gen: SeededGenerator) -> np.ndarray:
    """Emit each leaf's consistent count of points from that leaf's box.

    Leaves are visited in theta-lexicographic order, and each point is drawn
    independently and uniformly inside its leaf.  Returns a d' x m matrix
    (empty when the total count is zero).
    """
    if tree.consistent is None:
        raise InvalidParameterError("consistency must be enforced before sampling")
    counts = tree.consistent[tree.depth]
    total = int(counts.sum())
    if total == 0:
        return np.empty((tree.d_prime, 0))
    # bounds of the nonempty leaves only: at depth ~log2(eps n) most are empty
    leaves = np.flatnonzero(counts)
    lo, hi = tree._leaf_bounds(leaves)
    lo_rep = np.repeat(lo, counts[leaves], axis=0)
    span = np.repeat(hi, counts[leaves], axis=0)
    span -= lo_rep
    points = gen.split("sample").random((total, tree.d_prime))
    points *= span
    points += lo_rep  # lo + u (hi - lo), in place
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
) -> tuple[np.ndarray, dict]:
    """Full subroutine: partition, noisy counts, consistency, sampling."""
    d_prime = int(np.asarray(coords).shape[0])
    depth, _ = depth_and_scales(epsilon, n, d_prime)
    tree = build_partition(radius, d_prime, depth)
    tree = noisy_counts(tree, coords, epsilon, gen)
    tree = enforce_consistency(tree)
    points = sample_synthetic(tree, gen)
    info = {
        "depth": depth,
        "level_scales": tree.scales.tolist(),
        "synthetic_size": points.shape[1],
        "max_leaf_side": max_leaf_side(tree),
    }
    return points, info
