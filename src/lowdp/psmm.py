"""Synthetic measure on a ball via a noisy lattice and an exact projection.

A delta-spaced lattice covers the l2 ball of radius R in d' coordinates.
Per-cell counts get integer Laplace noise at scale 1/eps; the noisy counts
b over n are the signed measure nu = b / n.  The closest probability
measure mu to nu under the bounded-Lipschitz distance is found exactly and
rounded to a synthetic point multiset.  Both measures are vectors over
``Lattice.anchors``, the lower corners a of the cells [a, a + delta)^d'
that ``cell_counts`` fills; the release puts each cell's points at its
centre a + delta/2, at most delta sqrt(d') / 2 in l2 from any point
counted there.  Anchor distances do not change under that shift, so the
projection is the same for corners and centres, and the shift is
post-processing that spends no privacy.

The projection is the LP min over (mu >= 0, sum mu = 1, flows gamma >= 0,
slacks p, q >= 0) of sum rho_ij gamma_ij + sum (p_i + q_i) subject to, at
every anchor i, sum_j (gamma_ij - gamma_ji) + p_i - q_i = nu_i - mu_i,
where rho is the l1 anchor distance: the path length on the lattice grid
graph, delta per unit step.  It is solved in integer units, with
S+ = sum b^+:

- S+ <= n: b^+ is kept and the missing n - S+ is created in proportion to
  it; no graph is built.
- S+ > n: exactly E = S+ - n units leave the positive cells.  A unit moved
  l grid steps into a hole saves 2 - l delta over destroying it and
  creating one there, and no other move helps.  Up to E units move, at
  least total length, along paths of at most l_max = max{l : l delta < 2}
  steps: successive shortest paths on the grid graph in at most l_max
  primal-dual phases of one Dijkstra and one maximum flow each (Ahuja,
  Magnanti and Orlin, Network Flows, 1993, ch. 9; Dinic, 1970).  The units
  still to leave are destroyed from the smallest remaining positive cells
  first, ties toward the lower index, and unfilled holes are created.  With
  delta >= 2, l_max = 0: nothing moves and no graph is built.

Every optimum of the second case keeps mu <= nu^+ with total 1, so all of
them sit at the same l1 distance E / n from nu^+, and "the optimum nearest
nu^+" cannot choose among them; the smallest-first rule does, and makes
n mu integral.  A solve that builds the graph is certified by a dual
solution of the LP read from its final residual network
(``_certified_objective``).  The projection post-processes nu, so it
spends no privacy; against the l2 metric its objective is larger by at
most a factor sqrt(d').

scipy is imported on first use: a projection that builds the graph loads
``scipy.sparse`` and its ``csgraph`` for the Dijkstra and maximum-flow
phases, and nothing else here needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

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
    "noisy_cell_counts",
    "project_to_probability",
    "measure_to_points",
    "run_psmm",
]

# default alg5 PSMM, d = 10, d' = 3, on 2 cores: 337,987 anchors project in 47 s at 463 MB peak,
# 965,435 in 181 s at 1.15 GB
DEFAULT_ANCHOR_CAP = 338_000
DELTA_MODES = ("alg5", "proof")
_COARSER = "raise delta_scale (--delta-scale) for a coarser lattice"


def __getattr__(name):
    """``linprog`` is scipy's, resolved on request (PEP 562).  Not called
    here: perfbench/tracing.py wraps ``lowdp.psmm.linprog`` in a span, and
    the traced benchmark run fails if the attribute is missing; it goes
    with ROADMAP item 6."""
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    of the radius-R ball is listed.  A lattice over ``cap`` anchors is
    refused before any anchor is enumerated: first when its bounding grid
    is over 8 cap points, then when its anchor count, summed over the
    grid's first d' - 1 axes, is over cap.
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
            f"(cap {cap}); {_COARSER}"
        )
    axis = np.arange(-k_max, k_max + 1, dtype=np.int64)
    squares = np.zeros(1, dtype=np.int64)
    for _ in range(d_prime - 1):
        squares = np.add.outer(squares, axis**2).ravel()
    room = (bound / delta) ** 2 - squares
    count = int((2 * np.floor(np.sqrt(room[room >= 0])) + 1).sum())
    if count > cap:
        raise LatticeTooLargeError(
            f"lattice would have about {count} anchors (cap {cap}); {_COARSER}"
        )
    grid = np.stack(np.meshgrid(*[axis] * d_prime, indexing="ij"), axis=-1).reshape(-1, d_prime)
    norms = np.linalg.norm(grid * delta, axis=1)
    anchors = grid[norms <= bound]
    if anchors.shape[0] > cap:
        raise LatticeTooLargeError(
            f"lattice has {anchors.shape[0]} anchors (cap {cap}); {_COARSER}"
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


def noisy_cell_counts(counts: np.ndarray, epsilon: float, gen: SeededGenerator) -> np.ndarray:
    """Per-anchor counts plus integer Laplace(1/eps) noise: n times the signed measure nu."""
    if not epsilon > 0:
        raise InvalidBudgetError(f"epsilon must be positive, got {epsilon}")
    counts = np.asarray(counts, dtype=np.int64)
    return counts + sample_integer_laplace(1.0 / epsilon, gen.split("cells"), size=counts.shape[0])


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


def _saving_steps(delta: float) -> int:
    """max{l >= 0 : l delta < 2}: the longest grid path along which moving a
    unit into a hole beats destroying it and creating one there."""
    steps = max(math.ceil(2.0 / delta) - 1, 0)
    while (steps + 1) * delta < 2.0:
        steps += 1
    while steps and steps * delta >= 2.0:
        steps -= 1
    return steps


def _move_to_holes(supply: np.ndarray, graph, budget: int, max_steps: int):
    """Move at most ``budget`` units from positive to negative grid nodes, at
    least total length, along paths of at most ``max_steps`` unit steps.

    Successive shortest paths in primal-dual phases, searched from the
    holes' side: the search network runs every arc against the mass, from
    a super-source s into the holes, to a super-sink t out of the positive
    nodes.  Each phase runs Dijkstra from s on the reduced costs of the
    residual network, raises the node potentials by the distances (capped
    at the distance to t), and sends a maximum flow over the tight residual
    arcs from a budget node B, whose one arc B -> s carries the budget
    left.  Step costs are integers, so each phase's path length is at least
    one more than the last, and there are at most ``max_steps`` phases.  An
    edge that carries mass one way is crossed the other way by cancelling
    it, at cost -1.  Few holes are left open in the later phases, which
    makes the maximum flows from their side 2-3 times faster than from the
    positive side.  Each network is a subset of one arc list kept in
    (tail, head) order; the maximum-flow network holds the reverse of every
    arc it holds, so its result keeps that layout and is read back by arc
    position.  Returns (net units per grid edge, tail to head; supply left
    per node, negative at unfilled holes; budget left; phases).
    """
    from scipy import sparse  # loaded only by a run that moves mass
    from scipy.sparse import csgraph

    n_nodes, _, tails, heads = graph
    s, t, source_of_s = n_nodes, n_nodes + 1, n_nodes + 2
    holes, positive = np.flatnonzero(supply < 0), np.flatnonzero(supply > 0)
    n_edges, n_grid = tails.size, 2 * tails.size
    n_ends = holes.size + positive.size + 1
    # search arcs head -> tail (mass tail -> head), tail -> head, s -> holes,
    # positive -> t, B -> s; then the reverses of the last three
    at_s, at_t = np.full(holes.size, s), np.full(positive.size, t)
    arc_tail = np.concatenate([heads, tails, at_s, positive, [source_of_s], holes, at_t, [s]])
    arc_head = np.concatenate([tails, heads, holes, at_t, [s], at_s, positive, [source_of_s]])
    ends = n_grid + np.arange(n_ends)
    reverse = np.concatenate([np.arange(n_edges, n_grid), np.arange(n_edges), ends + n_ends, ends])
    order = np.lexsort((arc_head, arc_tail))

    def network(arcs, values):  # arcs: indices in (tail, head) order
        indptr = np.concatenate([[0], np.cumsum(np.bincount(arc_tail[arcs], minlength=n_nodes + 3))])
        return sparse.csr_matrix((values[arcs], arc_head[arcs], indptr), shape=(n_nodes + 3, n_nodes + 3))

    flow = np.zeros(n_edges, dtype=np.int64)
    left = supply.astype(np.int64)
    potential = np.zeros(n_nodes + 3, dtype=np.int64)
    raw = np.zeros(arc_tail.size, dtype=np.int64)
    cap = np.zeros(arc_tail.size, dtype=np.int64)
    phases = 0
    while budget > 0 and potential[t] < max_steps:
        against = np.concatenate([np.maximum(-flow, 0), np.maximum(flow, 0)])
        raw[:n_grid] = np.where(against > 0, -1, 1)
        cap[: n_grid + n_ends] = np.concatenate(
            [np.where(against > 0, against, budget), -left[holes], left[positive], [budget]]
        )
        reduced = raw + potential[arc_tail] - potential[arc_head]
        residual = cap > 0
        dist = csgraph.dijkstra(
            network(order[residual[order]], reduced.astype(np.float64)),
            indices=s,
            limit=float(max_steps - potential[t]),
        )
        if not np.isfinite(dist[t]):
            break
        potential[:source_of_s] += np.minimum(dist[:source_of_s], dist[t]).astype(np.int64)
        tight = residual & (raw + potential[arc_tail] - potential[arc_head] == 0)
        arcs = order[(tight | tight[reverse])[order]]
        capacities = np.where(tight, cap, 0).astype(np.int32)
        result = csgraph.maximum_flow(network(arcs, capacities), source_of_s, t, method="dinic")
        if result.flow_value < 1:
            raise SolverError("bounded-Lipschitz projection: a phase found a shortest path but moved nothing")
        sent = np.zeros(arc_tail.size, dtype=np.int64)
        sent[arcs] = result.flow.data
        flow += sent[:n_edges]
        left[holes] += sent[n_grid : n_grid + holes.size]
        left[positive] -= sent[n_grid + holes.size : n_grid + n_ends - 1]
        budget -= int(result.flow_value)
        phases += 1
    return flow, left, budget, phases


def _certified_objective(graph, counts, n, delta, flow, destroyed, created, kept):
    """Objective of a projection plan, certified optimal by a dual of the grid LP.

    The plan is (net units per grid edge, and per anchor the units
    destroyed, created and kept, in units of 1/n); ``n`` minus the kept
    total is the extra mass.  Its residual network has the grid nodes, an
    outside node O and a kept node K: unit steps at cost delta, destroy
    i -> O and create O -> i at cost 1, keep i -> K at cost 0, extra mass
    O -> K at cost 1, and each arc the plan uses also backward at minus its
    cost.  Vectorised Bellman-Ford distances d out of O give y = -d on the
    grid and z = d(K), a solution of the dual: max sum counts_i y_i + n z
    over |y_i - y_j| <= delta on grid edges, |y_i| <= 1 and y_i + z <= 0 at
    anchors, z <= 1.  Raises SolverError when the plan is not feasible, the
    distances do not settle within the node count (a negative cycle: the
    plan is not optimal), or the dual is infeasible or below the plan's
    cost by more than 1e-9.  Returns (objective, primal minus dual).
    """
    n_nodes, anchor_node, tails, heads = graph
    out, keep = n_nodes, n_nodes + 1
    extra = n - int(kept.sum())
    balance = np.bincount(tails, flow, n_nodes) - np.bincount(heads, flow, n_nodes)
    balance[anchor_node] += destroyed - created + kept - counts
    if extra < 0 or min(destroyed.min(), created.min(), kept.min()) < 0 or balance.any():
        raise SolverError("bounded-Lipschitz projection plan is not feasible")

    def arcs(tail, head, cost):
        tail, head = np.broadcast_arrays(np.atleast_1d(tail), np.atleast_1d(head))
        return tail, head, np.full(tail.shape, cost)

    forward, backward = flow > 0, flow < 0
    parts = [
        arcs(tails, heads, delta),
        arcs(heads, tails, delta),
        arcs(heads[forward], tails[forward], -delta),
        arcs(tails[backward], heads[backward], -delta),
        arcs(anchor_node, out, 1.0),
        arcs(out, anchor_node, 1.0),
        arcs(anchor_node, keep, 0.0),
        arcs(out, keep, 1.0),
        arcs(out, anchor_node[destroyed > 0], -1.0),
        arcs(anchor_node[created > 0], out, -1.0),
        arcs(keep, anchor_node[kept > 0], 0.0),
        arcs(keep, np.full(int(extra > 0), out), -1.0),
    ]
    tail, head, cost = (np.concatenate(column) for column in zip(*parts))
    order = np.argsort(tail, kind="stable")
    tail, head, cost = tail[order], head[order], cost[order]
    first = np.searchsorted(tail, np.arange(n_nodes + 3))
    dist = np.full(n_nodes + 2, np.inf)
    dist[out] = 0.0
    changed = np.array([out])
    for _ in range(n_nodes + 2):  # each round relaxes the arcs out of the nodes the last one lowered
        fanout = first[changed + 1] - first[changed]
        out_of = np.repeat(first[changed] - np.cumsum(fanout) + fanout, fanout) + np.arange(fanout.sum())
        best = dist.copy()
        np.minimum.at(best, head[out_of], dist[tail[out_of]] + cost[out_of])
        changed = np.flatnonzero(best < dist - 1e-12)
        if not changed.size:
            break
        dist[changed] = best[changed]
    else:
        raise SolverError("bounded-Lipschitz projection plan is not optimal: its residual network has a negative cycle")
    y, z = -dist[:n_nodes], dist[keep]
    y_anchor = y[anchor_node]
    violation = max(
        np.abs(y[tails] - y[heads]).max(initial=0.0) - delta,
        np.abs(y_anchor).max() - 1.0,
        (y_anchor + z).max(),
        z - 1.0,
    )
    primal = (delta * np.abs(flow).sum() + destroyed.sum() + created.sum() + extra) / n
    gap = primal - (counts @ y_anchor + n * z) / n
    if not violation <= 1e-9 or not abs(gap) <= 1e-9:
        raise SolverError(f"bounded-Lipschitz projection is {gap:.3e} from its dual (dual violation {violation:.3e})")
    return float(primal), float(gap)


class _ExcessPlan(NamedTuple):
    """An optimal projection plan when the positive mass exceeds n, in units of 1/n."""

    kept: np.ndarray
    destroyed: np.ndarray
    created: np.ndarray
    flow: Optional[np.ndarray]  # net units per grid edge, tail to head; None with no graph
    phases: int
    objective: float
    gap: Optional[float]  # certificate's primal minus dual; None with no graph


def _excess_projection(counts: np.ndarray, n: int, lattice: Lattice) -> _ExcessPlan:
    """The projection of counts / n when its positive mass S+ exceeds n.

    Exactly E = S+ - n units leave the positive cells.  A unit moved l grid
    steps into a hole saves 2 - l delta over destroying it and creating one
    there, so up to E units move along paths of at most max{l : l delta < 2}
    steps, shortest first (``_move_to_holes``).  The units still to leave
    are destroyed from the smallest remaining positive cells first, ties
    toward the lower index, and unfilled holes are created.  With delta >= 2
    nothing moves and no graph is built; otherwise the plan is certified by
    ``_certified_objective``.
    """
    kept = np.maximum(counts, 0)
    created = np.maximum(-counts, 0)
    excess = int(kept.sum()) - n
    max_steps = _saving_steps(lattice.delta)
    flow, phases, graph = None, 0, None
    if max_steps:
        graph = _grid_graph(lattice)
        supply = np.zeros(graph[0], dtype=np.int64)
        supply[graph[1]] = counts
        flow, left, excess, phases = _move_to_holes(supply, graph, excess, max_steps)
        kept, created = np.maximum(left[graph[1]], 0), np.maximum(-left[graph[1]], 0)
    order = np.lexsort((np.arange(kept.size), kept))
    before = np.cumsum(kept[order]) - kept[order]
    destroyed = np.zeros_like(kept)
    destroyed[order] = np.clip(excess - before, 0, kept[order])
    kept = kept - destroyed
    if graph is None:
        return _ExcessPlan(kept, destroyed, created, None, 0, int(destroyed.sum() + created.sum()) / n, None)
    objective, gap = _certified_objective(graph, counts, n, lattice.delta, flow, destroyed, created, kept)
    return _ExcessPlan(kept, destroyed, created, flow, phases, objective, gap)


def project_to_probability(noisy_counts: np.ndarray, n: int, lattice: Lattice) -> tuple[np.ndarray, float]:
    """Closest probability measure to nu = noisy_counts / n in bounded-Lipschitz distance.

    noisy_counts are integers (of any sign) over ``lattice.anchors``; the
    returned mu is a nonnegative weight vector over them that sums to one.
    Returns mu together with the optimal objective.  The distance uses the
    l1 metric between anchors, with test functions capped at 1 in sup norm,
    so the objective is always at least |sum(nu) - 1|.  When the positive
    mass S+ is at most n, nu^+ is kept and the missing n - S+ is spread in
    proportion to it (evenly when S+ = 0); otherwise see
    ``_excess_projection``, which makes n mu integral.
    """
    counts = np.asarray(noisy_counts)
    m = lattice.size
    if counts.shape != (m,):
        raise InvalidParameterError(f"measure has {counts.shape} weights for {m} anchors")
    if not np.issubdtype(counts.dtype, np.integer):
        raise InvalidParameterError(f"noisy counts must be integers, got dtype {counts.dtype}")
    if m < 1:
        raise InvalidParameterError("lattice must have at least one anchor")
    if int(n) < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    n = int(n)
    counts = counts.astype(np.int64)
    positive = np.maximum(counts, 0)
    excess = int(positive.sum()) - n
    if excess > 0:
        plan = _excess_projection(counts, n, lattice)
        return plan.kept / n, plan.objective
    objective = (int(np.maximum(-counts, 0).sum()) - excess) / n
    mu = positive / n if positive.any() else np.ones(m)
    return mu / mu.sum(), objective

def measure_to_points(mu: np.ndarray, lattice: Lattice, m_target: int) -> np.ndarray:
    """Deterministic largest-remainder rounding of mu to copies of cell centres.

    mu is a nonnegative weight vector over ``lattice.anchors``.
    Cell counts are floor(m_target * mu_i) plus one for the largest
    remainders (ties broken toward the lower anchor index); the centre
    a + delta/2 of each cell [a, a + delta)^d' is emitted count times, so
    ``cell_counts`` of the output gives the counts back.  Returns a
    d' x m_target matrix.
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
    return np.repeat((lattice.int_coords + 0.5) * lattice.delta, counts, axis=0).T


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
    noisy = noisy_cell_counts(counts, epsilon, gen)
    mu, objective = project_to_probability(noisy, n, lattice)
    size = int(m_target) if m_target is not None else int(n)
    points = measure_to_points(mu, lattice, size)
    info = {
        "delta": delta,
        "delta_mode": delta_mode,
        "delta_scale": delta_scale,
        "anchors": lattice.size,
        "signed_total_mass": float((noisy / n).sum()),
        "projection_objective": objective,
        "synthetic_size": points.shape[1],
    }
    return points, info
