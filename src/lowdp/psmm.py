"""Synthetic measure on a ball via a noisy lattice and an LP projection.

A delta-spaced lattice covers the l2 ball of radius R in d' coordinates.
Per-cell counts are perturbed with integer Laplace noise at scale 1/eps,
giving a signed measure nu.  The closest probability measure mu to nu under
the bounded-Lipschitz distance is found by linear programming and rounded
to a synthetic point multiset at the cell anchors.  Both measures are plain
weight vectors over ``Lattice.anchors``: nu may have negative entries and
any total mass, mu is nonnegative and sums to one.

The LP is min over (mu >= 0, sum mu = 1, flows gamma >= 0, slacks p, q >= 0)
of sum rho_ij gamma_ij + sum (p_i + q_i) subject to, at every anchor i,
sum_j (gamma_ij - gamma_ji) + p_i - q_i = nu_i - mu_i, where rho is the l1
anchor distance.  Under l1, rho is the shortest-path length on the lattice
grid graph, so the LP is solved through HiGHS as one min-cost flow over
unit grid steps (the Beckmann form of W1), with about 2 d' m arcs for m
anchors.  When delta >= 2 no step beats destroying plus creating mass, and
the projection has a closed form.  The projection post-processes nu, so it
spends no privacy; against the l2 metric its objective is larger by at most
a factor sqrt(d').
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import (
    InvalidBudgetError,
    InvalidParameterError,
    InvalidRegimeError,
    LatticeTooLargeError,
    SolverError,
)
from .noise import SeededGenerator, sample_integer_laplace

__all__ = [
    "DELTA_MODES",
    "Lattice",
    "lattice_delta",
    "build_lattice",
    "cell_counts",
    "perturb_to_signed_measure",
    "project_to_probability",
    "measure_to_points",
    "run_psmm",
]

DEFAULT_ANCHOR_CAP = 5_000_000
DELTA_MODES = ("alg5", "proof")


@dataclass(frozen=True)
class Lattice:
    """Cells [a, a + delta) anchored on delta Z^d' covering the radius-R ball.

    ``int_coords`` (m x d', lexicographically sorted) are the anchor
    coordinates in units of delta; ``anchors`` converts to coordinate units.
    """

    delta: float
    radius: float
    d_prime: int
    int_coords: np.ndarray

    @property
    def anchors(self) -> np.ndarray:
        return self.int_coords * self.delta

    @property
    def size(self) -> int:
        return self.int_coords.shape[0]


def lattice_delta(d: int, d_prime: int, epsilon: float, n: int, *, mode: str = "alg5", radius: float = None) -> float:
    """Lattice cell side: sqrt(d/d') (eps n)^(-1/d'), or, in 'proof' mode,
    (R / sqrt(d')) (eps n)^(-1/d')."""
    if not epsilon > 0:
        raise InvalidBudgetError(f"epsilon must be positive, got {epsilon}")
    en = epsilon * n
    if not en > 1.0:
        raise InvalidRegimeError(f"the mechanism requires eps * n > 1, got {en}")
    if mode == "alg5":
        return float(np.sqrt(d / d_prime) * en ** (-1.0 / d_prime))
    if mode == "proof":
        if radius is None or not radius > 0:
            raise InvalidParameterError("'proof' delta mode needs the positive ball radius")
        return float(radius / np.sqrt(d_prime) * en ** (-1.0 / d_prime))
    raise InvalidParameterError(f"unknown delta mode {mode!r}; choose from {DELTA_MODES}")


def build_lattice(radius: float, delta: float, d_prime: int, *, cap: int = DEFAULT_ANCHOR_CAP) -> Lattice:
    """All anchors a in delta Z^d' with ||a||_2 <= R + delta sqrt(d').

    The extension beyond R guarantees that the floor-anchor of every point
    of the radius-R ball is listed.
    """
    if not radius > 0:
        raise InvalidParameterError(f"radius must be positive, got {radius}")
    if not 0 < delta <= 2 * radius:
        raise InvalidParameterError(f"delta must be in (0, 2R], got {delta}")
    d_prime = int(d_prime)
    bound = radius + delta * np.sqrt(d_prime)
    k_max = int(np.floor(bound / delta))
    side = 2 * k_max + 1
    if side ** d_prime > 8 * cap:
        raise LatticeTooLargeError(
            f"lattice grid would enumerate about 10^{d_prime * math.log10(side):.1f} candidate anchors "
            f"(cap {cap}); raise delta_scale (--delta-scale) for a coarser lattice"
        )
    axes = [np.arange(-k_max, k_max + 1, dtype=np.int64)] * d_prime
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d_prime)
    norms = np.linalg.norm(grid * delta, axis=1)
    anchors = grid[norms <= bound]
    if anchors.shape[0] > cap:
        raise LatticeTooLargeError(
            f"lattice has {anchors.shape[0]} anchors (cap {cap}); "
            "raise delta_scale (--delta-scale) for a coarser lattice"
        )
    return Lattice(delta=float(delta), radius=float(radius), d_prime=d_prime, int_coords=anchors)


def _linear_keys(int_coords: np.ndarray, k: int) -> np.ndarray:
    """Mixed-radix keys of integer points in [-k, k]^d'; key order is lexicographic order."""
    side = 2 * k + 1
    shifted = int_coords + k
    if (shifted < 0).any() or (shifted >= side).any():
        raise AssertionError("lattice coverage violated: cell index outside the anchor grid")
    keys = np.zeros(int_coords.shape[0], dtype=np.int64)
    for axis in range(int_coords.shape[1]):
        keys = keys * side + shifted[:, axis]
    return keys


def cell_counts(coords: np.ndarray, lattice: Lattice) -> np.ndarray:
    """Count points per cell via the componentwise floor anchor.

    Every point must land in a listed cell; a miss is a coverage bug and is
    reported as an assertion failure, not a user error.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[0] != lattice.d_prime:
        raise InvalidParameterError(f"coords must be {lattice.d_prime} x n, got {coords.shape}")
    cells = np.floor(coords.T / lattice.delta).astype(np.int64)
    k_max = int(np.abs(lattice.int_coords).max(initial=0))
    anchor_keys = _linear_keys(lattice.int_coords, k_max)
    order = np.argsort(anchor_keys)
    sorted_keys = anchor_keys[order]
    point_keys = _linear_keys(cells, k_max)
    pos = np.searchsorted(sorted_keys, point_keys)
    pos = np.minimum(pos, sorted_keys.size - 1)
    if not (sorted_keys[pos] == point_keys).all():
        raise AssertionError("lattice coverage violated: point cell has no listed anchor")
    counts = np.zeros(lattice.size, dtype=np.int64)
    np.add.at(counts, order[pos], 1)
    return counts


def perturb_to_signed_measure(
    counts: np.ndarray,
    epsilon: float,
    n: int,
    gen: SeededGenerator,
) -> np.ndarray:
    """The signed measure nu: weights (count + integer Laplace(1/eps)) / n per anchor."""
    if not epsilon > 0:
        raise InvalidBudgetError(f"epsilon must be positive, got {epsilon}")
    counts = np.asarray(counts, dtype=np.int64)
    noisy = counts + sample_integer_laplace(1.0 / epsilon, gen.split("cells"), size=counts.shape[0])
    return noisy.astype(np.float64) / n


def _grid_graph(lattice: Lattice):
    """The unit-step grid graph on every z in Z^d' with ||z||_2 <= max anchor norm.

    Returns (node count, anchor node index per anchor, edge tails, edge
    heads); each undirected edge joins z and z + e_k.  For a
    ``build_lattice`` lattice the nodes are exactly its anchors; any other
    node is a zero-mass transit node.
    """
    ints = lattice.int_coords
    d_prime = lattice.d_prime
    r2 = int((ints**2).sum(axis=1).max(initial=0))
    k = math.isqrt(r2)
    axes = [np.arange(-k, k + 1, dtype=np.int64)] * d_prime
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d_prime)
    nodes = grid[(grid**2).sum(axis=1) <= r2]
    keys = _linear_keys(nodes, k)  # ascending: meshgrid order is lexicographic
    anchor_node = np.searchsorted(keys, _linear_keys(ints, k))
    tails, heads = [], []
    for axis, step in enumerate(np.eye(d_prime, dtype=np.int64)):
        inside = np.nonzero(nodes[:, axis] < k)[0]
        target = _linear_keys(nodes[inside] + step, k)
        head = np.minimum(np.searchsorted(keys, target), keys.size - 1)
        ok = keys[head] == target
        tails.append(inside[ok])
        heads.append(head[ok])
    return keys.size, anchor_node, np.concatenate(tails), np.concatenate(heads)


def _projection_without_transport(nu: np.ndarray):
    """Closed-form projection when no unit step beats destroy plus create.

    With delta >= 2 every transport path costs at least 2, so holes are
    filled by creation and the positive mass is kept, topped up or cut down
    to 1: the objective is sum(nu^-) + |sum(nu^+) - 1|.  An excess is taken
    from the smallest positive cells first, ties toward the lower index.
    """
    keep = np.maximum(nu, 0.0)
    total = keep.sum()
    objective = float(np.maximum(-nu, 0.0).sum() + abs(total - 1.0))
    if total > 1.0:
        order = np.lexsort((np.arange(nu.size), keep))
        before = np.cumsum(keep[order]) - keep[order]
        keep[order] -= np.clip(total - 1.0 - before, 0.0, keep[order])
    return keep, objective


def _bl_projection_grid_lp(nu: np.ndarray, lattice: Lattice):
    """The projection LP as one min-cost flow on the lattice grid graph, via HiGHS.

    Columns: unit steps both ways along every grid edge at cost delta;
    destroy and create slacks at cost 1 and a keep variable at every
    anchor; one extra-mass variable at cost 1.  Rows: flow balance at every
    node (nu at anchors, 0 at transit nodes) and the mass row
    sum(keep) + extra = 1.  Grid distance equals the l1 anchor distance: a
    monotone lattice path that first moves the coordinates heading toward 0
    and then the outward ones never leaves the ball of radius
    max(||a||, ||b||), so it stays among the nodes.  The extra mass is
    spread over the kept mass.
    """
    m = nu.size
    n_nodes, anchor_node, tails, heads = _grid_graph(lattice)
    n_arcs = 2 * tails.size
    n_vars = n_arcs + 3 * m + 1  # [arcs, destroy, create, keep, extra]
    cost = np.concatenate([np.full(n_arcs, lattice.delta), np.ones(2 * m), np.zeros(m), [1.0]])
    arcs = np.arange(n_arcs)
    slacks = n_arcs + np.arange(3 * m)
    rows = np.concatenate([tails, heads, heads, tails, np.tile(anchor_node, 3), np.full(m + 1, n_nodes)])
    cols = np.concatenate([arcs, arcs, slacks, slacks[2 * m :], [n_vars - 1]])
    vals = np.concatenate([np.ones(n_arcs), -np.ones(n_arcs), np.ones(m), -np.ones(m), np.ones(2 * m + 1)])
    a_eq = sparse.csc_matrix((vals, (rows, cols)), shape=(n_nodes + 1, n_vars))
    b_eq = np.zeros(n_nodes + 1)
    b_eq[anchor_node] = nu
    b_eq[n_nodes] = 1.0
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise SolverError(f"bounded-Lipschitz projection failed (status {res.status}): {res.message}")
    keep = res.x[n_arcs + 2 * m : -1]
    total = keep.sum()
    return (keep * (1.0 + res.x[-1] / total) if total > 0 else keep), float(res.fun)


def project_to_probability(nu: np.ndarray, lattice: Lattice) -> tuple[np.ndarray, float]:
    """Closest probability measure to nu in bounded-Lipschitz distance.

    nu and the returned mu are weight vectors over ``lattice.anchors``;
    mu is nonnegative and sums to one.  Returns mu together with the
    optimal objective value.  The distance uses the l1 metric between
    anchors, with test functions capped at 1 in sup norm, so the objective
    is always at least |sum(nu) - 1|.
    """
    nu = np.asarray(nu, dtype=np.float64)
    m = lattice.size
    if nu.shape != (m,):
        raise InvalidParameterError(f"measure has {nu.shape} weights for {m} anchors")
    if m < 1:
        raise InvalidParameterError("lattice must have at least one anchor")
    if lattice.delta >= 2.0:
        mu, objective = _projection_without_transport(nu)
    else:
        mu, objective = _bl_projection_grid_lp(nu, lattice)
    mu = np.maximum(mu, 0.0)
    if not mu.sum() > 0:
        mu = np.ones(m)  # nothing kept: all mass is created, spread evenly
    return mu / mu.sum(), objective


def measure_to_points(mu: np.ndarray, lattice: Lattice, m_target: int) -> np.ndarray:
    """Deterministic largest-remainder rounding of mu to anchor copies.

    mu is a nonnegative weight vector over ``lattice.anchors``.
    Cell counts are floor(m_target * mu_i) plus one for the largest
    remainders (ties broken toward the lower anchor index); each anchor is
    emitted count times.  Returns a d' x m_target matrix.
    """
    if int(m_target) < 1:
        raise InvalidParameterError(f"m_target must be >= 1, got {m_target}")
    m_target = int(m_target)
    w = np.maximum(np.asarray(mu, dtype=np.float64), 0.0)
    scaled = m_target * (w / w.sum())
    counts = np.floor(scaled).astype(np.int64)
    remaining = m_target - int(counts.sum())
    if remaining > 0:
        fractions = scaled - counts
        order = np.lexsort((np.arange(w.size), -fractions))
        counts[order[:remaining]] += 1
    return np.repeat(lattice.anchors, counts, axis=0).T


def run_psmm(
    coords: np.ndarray,
    radius: float,
    epsilon: float,
    n: int,
    d_ambient: int,
    gen: SeededGenerator,
    *,
    delta_mode: str = "alg5",
    delta_scale: float = 1.0,
    m_target: int = None,
) -> tuple[np.ndarray, dict]:
    """Full subroutine: lattice, noisy counts, LP projection, rounding."""
    d_prime = int(np.asarray(coords).shape[0])
    if not delta_scale > 0:
        raise InvalidParameterError(f"delta_scale must be positive, got {delta_scale}")
    delta = lattice_delta(d_ambient, d_prime, epsilon, n, mode=delta_mode, radius=radius) * delta_scale
    delta = min(delta, 2.0 * radius)
    try:
        lattice = build_lattice(radius, delta, d_prime)
    except LatticeTooLargeError as exc:
        raise LatticeTooLargeError(
            f"eps * n = {epsilon * n:.4g} and d' = {d_prime} set delta = {delta:.3g}, so the {exc}, "
            "or lower epsilon or d'"
        ) from exc
    counts = cell_counts(coords, lattice)
    nu = perturb_to_signed_measure(counts, epsilon, n, gen)
    mu, objective = project_to_probability(nu, lattice)
    size = int(m_target) if m_target is not None else int(n)
    points = measure_to_points(mu, lattice, size)
    info = {
        "delta": delta,
        "delta_mode": delta_mode,
        "delta_scale": delta_scale,
        "anchors": lattice.size,
        "signed_total_mass": float(nu.sum()),
        "projection_objective": objective,
        "synthetic_size": points.shape[1],
    }
    return points, info
