"""Brute-force, vertex-enumeration, HiGHS dense- and grid-LP, recursive,
per-column and whole-array oracles the tests check the library against, and
a noiseless generator for runs whose release equals its input.

The literal projection LP is assembled once, by ``projection_lp``; HiGHS
and the vertex enumeration both solve that one assembly."""

import itertools
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from lowdp.metrics import _COLLAPSE_RATIO, _checked_atom_transport, _draw_atoms, ground_distances
from lowdp.noise import SeededGenerator
from lowdp.psmm import _grid_graph


def wasserstein1_bruteforce(p, q, metric: str = "linf") -> float:
    """Permutation-enumeration W1 between equal-size point sets (k <= 8)."""
    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    k = p.shape[1]
    assert q.shape[1] == k and k <= 8, "brute-force oracle needs equal support sizes <= 8"
    costs = ground_distances(p, q, metric)
    best = math.inf
    for perm in itertools.permutations(range(k)):
        best = min(best, costs[np.arange(k), perm].sum())
    return best / k


def anchor_distances(lattice, metric: str = "l1") -> np.ndarray:
    """Pairwise l1 or l2 distances between a lattice's anchors."""
    diff = lattice.anchors[:, None, :] - lattice.anchors[None, :, :]
    return np.abs(diff).sum(axis=2) if metric == "l1" else np.linalg.norm(diff, axis=2)


def projection_lp(nu: np.ndarray, rho: np.ndarray):
    """The literal projection LP over x = (mu, gamma, p, q) >= 0, as (cost, a_eq, b_eq).

    min sum rho_ij gamma_ij + sum (p_i + q_i) subject to, at every anchor i,
    mu_i + sum_j (gamma_ij - gamma_ji) + p_i - q_i = nu_i and sum mu = 1.
    """
    m = nu.shape[0]
    n_gamma = m * m
    n_vars = m + n_gamma + 2 * m
    cost = np.zeros(n_vars)
    cost[m : m + n_gamma] = rho.ravel()
    cost[m + n_gamma :] = 1.0
    a_eq = np.zeros((m + 1, n_vars))
    for i in range(m):
        a_eq[i, i] = 1.0                                   # mu_i
        a_eq[i, m + i * m : m + (i + 1) * m] += 1.0        # outflow gamma_i*
        a_eq[i, m + i : m + n_gamma : m] -= 1.0            # inflow gamma_*i
        a_eq[i, m + n_gamma + i] = 1.0                     # p_i
        a_eq[i, m + n_gamma + m + i] = -1.0                # q_i
    a_eq[m, :m] = 1.0
    b_eq = np.concatenate([nu, [1.0]])
    return cost, a_eq, b_eq


def bl_projection_lp_dense(nu: np.ndarray, rho: np.ndarray):
    """The literal projection LP, dense, by HiGHS.  Returns (mu, objective)."""
    cost, a_eq, b_eq = projection_lp(nu, rho)
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.x[: nu.shape[0]], float(res.fun)


def projection_lp_by_vertex_enumeration(nu: np.ndarray, rho: np.ndarray) -> float:
    """The literal projection LP's optimum over every basic feasible solution.

    Solves all (m + 1)-column bases at once, so it is for m <= 4 anchors.
    """
    cost, a, b = projection_lp(nu, rho)
    rows = a.shape[0]
    combos = np.array(list(itertools.combinations(range(a.shape[1]), rows)))
    bases = np.moveaxis(a[:, combos], 1, 0)  # (n_combos, m + 1, m + 1)
    ok = np.abs(np.linalg.det(bases)) > 1e-9
    solutions = np.full((combos.shape[0], rows), np.nan)
    rhs = np.broadcast_to(b, (int(ok.sum()), rows))[..., None]
    solutions[ok] = np.linalg.solve(bases[ok], rhs)[..., 0]
    feasible = ok & (np.nan_to_num(solutions, nan=-1.0) >= -1e-9).all(axis=1)
    objectives = np.einsum("ij,ij->i", cost[combos[feasible]], solutions[feasible])
    return float(objectives.min())


def bl_projection_grid_lp(noisy_counts, n, lattice):
    """The projection LP as one min-cost flow on the lattice grid graph, by HiGHS.

    Columns: unit steps both ways along every grid edge at cost delta;
    destroy and create slacks at cost 1 and a keep variable at every
    anchor; one extra-mass variable at cost 1.  Rows: flow balance at every
    node (nu = noisy_counts / n at anchors, 0 at transit nodes) and the mass
    row sum(keep) + extra = 1.  HiGHS returns some optimal vertex; the extra
    mass is spread over the kept mass.  Returns (mu, objective).
    """
    nu = np.asarray(noisy_counts, dtype=np.float64) / n
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
    assert res.status == 0, res.message
    keep = res.x[n_arcs + 2 * m : -1]
    total = keep.sum()
    mu = keep * (1.0 + res.x[-1] / total) if total > 0 else np.ones(m)
    return mu / mu.sum(), float(res.fun)


def leaf_boxes_by_recursion(tree):
    """Bounds of all 2^depth leaves by the n-D midpoint recursion, shape (m, d')."""
    n_leaves = 1 << tree.depth
    lo = np.full((n_leaves, tree.d_prime), -tree.radius)
    hi = np.full((n_leaves, tree.d_prime), tree.radius)
    idx = np.arange(n_leaves)
    for level in range(tree.depth):
        axis = level % tree.d_prime
        bit = (idx >> (tree.depth - 1 - level)) & 1
        mid = (lo[:, axis] + hi[:, axis]) / 2.0
        lo[:, axis] = np.where(bit, mid, lo[:, axis])
        hi[:, axis] = np.where(bit, hi[:, axis], mid)
    return lo, hi


def classify_by_recursion(tree, coords):
    """Leaf index of each column of coords (d' x n) by recursive midpoint comparison.

    x < mid goes to child 0 and x >= mid to child 1, with the same
    (lo + hi) / 2 arithmetic as the box bounds.
    """
    pts = coords.T
    n = pts.shape[0]
    lo = np.full((n, tree.d_prime), -tree.radius)
    hi = np.full((n, tree.d_prime), tree.radius)
    idx = np.zeros(n, dtype=np.int64)
    for level in range(tree.depth):
        axis = level % tree.d_prime
        mid = (lo[:, axis] + hi[:, axis]) / 2.0
        upper = pts[:, axis] >= mid
        idx = (idx << 1) | upper
        lo[:, axis] = np.where(upper, mid, lo[:, axis])
        hi[:, axis] = np.where(upper, hi[:, axis], mid)
    return idx


def eigenvectors_sign_fixed_by_loop(vecs):
    """One column at a time: the first entry above 1e-12 in magnitude is made positive."""
    vecs = vecs.copy()
    for k in range(vecs.shape[1]):
        nonzero = np.nonzero(np.abs(vecs[:, k]) > 1e-12)[0]
        if nonzero.size and vecs[nonzero[0], k] < 0.0:
            vecs[:, k] = -vecs[:, k]
    return vecs


class NoiselessGenerator(SeededGenerator):
    """A SeededGenerator whose open-interval uniforms are all exactly 1/2.

    Every Laplace sampler reads its uniforms only through ``open_uniform``
    and maps 1/2 to exactly 0 (the continuous one through sign(0) = 0, the
    integer one through two equal geometric draws), so each release returns
    its input unchanged.  ``random``, ``choice`` and ``standard_normal``
    are the seeded streams of a SeededGenerator on the same seed and path,
    and ``split`` derives another NoiselessGenerator.
    """

    def split(self, label) -> "NoiselessGenerator":
        return NoiselessGenerator(self.seed, self.path + (str(label),))

    def open_uniform(self, size=None):
        return np.full(size, 0.5) if size is not None else 0.5


def largest_remainder_counts(mu, m):
    """Hamilton's method: floor(m mu_i) per cell, then one more for each of
    the cells with the largest remainders, ties toward the lower index, until
    the counts sum to m."""
    w = np.asarray(mu, dtype=np.float64)
    scaled = m * (w / w.sum())
    counts = np.floor(scaled).astype(np.int64)
    by_remainder = sorted(range(w.size), key=lambda i: (counts[i] - scaled[i], i))
    for i in by_remainder[: m - int(counts.sum())]:
        counts[i] += 1
    return counts


def leaf_centers(tree):
    """Each leaf's consistent count of copies of its center, d' x m, leaves in theta order."""
    lo, hi = tree._leaf_bounds(np.arange(1 << tree.depth))
    return np.repeat((lo + hi) / 2.0, tree.consistent[tree.depth], axis=0).T


def planted_points_by_concatenation(n, d, d_prime, gen):
    """The planted sampler's points, each rejection batch's candidates formed
    whole and the accepted ones concatenated, then the first n clipped."""
    basis, _ = np.linalg.qr(gen.standard_normal((d, d_prime)))
    center = np.full(d, 0.5)
    extent = 0.5 / np.abs(basis).max(axis=0)
    points = np.empty((d, 0))
    while points.shape[1] < n:
        batch = max(2 * (n - points.shape[1]), 128)
        t = (gen.random((d_prime, batch)) * 2.0 - 1.0) * extent[:, None]
        cand = center[:, None] + basis @ t
        inside = ((cand >= 0.0) & (cand <= 1.0)).all(axis=0)
        points = np.concatenate([points, cand[:, inside]], axis=1)
    return np.clip(points[:, :n], 0.0, 1.0)


def wasserstein1_sampled_two_matrices(p, q, gen, metric="linf", *, k=1024, repeats=2):
    """The sampled W1 estimate one repeat at a time: the collapsed atom
    transport, or an assignment on a jittered copy of the k x k costs whose
    matched pairs are read from the unjittered costs."""
    values = []
    for rep in range(repeats):
        sub = gen.split(f"w1-sample-{rep}")
        xs = _draw_atoms(p, k, sub.split("p"))
        ys = _draw_atoms(q, k, sub.split("q"))
        ux, x_counts = np.unique(xs, axis=1, return_counts=True)
        uy, y_counts = np.unique(ys, axis=1, return_counts=True)
        units, atoms, counts = (ys, ux, x_counts) if ux.shape[1] < uy.shape[1] else (xs, uy, y_counts)
        if atoms.shape[1] * _COLLAPSE_RATIO <= k:
            values.append(_checked_atom_transport(ground_distances(units, atoms, metric), counts))
            continue
        costs = ground_distances(xs, ys, metric)
        jittered = costs + sub.split("jitter").random(costs.shape) * 1e-11
        rows, cols = linear_sum_assignment(jittered)
        values.append(costs[rows, cols].mean())
    return float(np.mean(values))
