"""Brute-force and dense-LP oracles the tests check the library against."""

import itertools
import math

import numpy as np

from lowdp.metrics import EmpiricalMeasure, ground_distances
from simplex import solve_dense_lp


def wasserstein1_bruteforce(p, q, metric: str = "linf") -> float:
    """Permutation-enumeration W1 for equal-size uniform measures (k <= 8)."""
    p = p if isinstance(p, EmpiricalMeasure) else EmpiricalMeasure.from_points(p)
    q = q if isinstance(q, EmpiricalMeasure) else EmpiricalMeasure.from_points(q)
    k = p.size
    assert q.size == k and k <= 8, "brute-force oracle needs equal support sizes <= 8"
    costs = ground_distances(p.support, q.support, metric)
    best = math.inf
    for perm in itertools.permutations(range(k)):
        best = min(best, costs[np.arange(k), perm].sum())
    return best / k


def anchor_distances(lattice, metric: str = "l1") -> np.ndarray:
    """Pairwise l1 or l2 distances between a lattice's anchors."""
    diff = lattice.anchors[:, None, :] - lattice.anchors[None, :, :]
    return np.abs(diff).sum(axis=2) if metric == "l1" else np.linalg.norm(diff, axis=2)


def bl_projection_lp_dense(nu: np.ndarray, rho: np.ndarray):
    """The literal projection LP over (mu, gamma, p, q), by the dense simplex.

    min sum rho_ij gamma_ij + sum (p_i + q_i) subject to, at every anchor i,
    mu_i + sum_j (gamma_ij - gamma_ji) + p_i - q_i = nu_i and sum mu = 1.
    Returns (mu, objective).
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
    x, objective = solve_dense_lp(cost, a_eq, b_eq)
    return x[:m], objective
