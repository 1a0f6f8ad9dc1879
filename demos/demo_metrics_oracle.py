"""The exact W1 solvers against brute force, and the LP's dual certificate."""

import itertools

import numpy as np

from lowdp import wasserstein1
from lowdp.metrics import ground_distances

rng = np.random.default_rng(0)
x = rng.random((2, 6))
y = rng.random((2, 6))

assignment_value = wasserstein1(x, y, "linf")
detailed = wasserstein1(x, y, "linf", detailed=True)
costs = ground_distances(x, y, "linf")
brute_value = min(costs[np.arange(6), perm].sum() for perm in itertools.permutations(range(6))) / 6
print(f"assignment:    {assignment_value:.12f}")
print(f"transport LP:  {detailed.value:.12f}")
print(f"all 720 perms: {brute_value:.12f}")
print(f"difference:    {max(abs(assignment_value - brute_value), abs(detailed.value - brute_value)):.2e}")

a = np.full(6, detailed.mass_scale // 6)
dual_value = (a @ detailed.potential_p + a @ detailed.potential_q) / detailed.mass_scale
print(f"dual potential value: {dual_value:.12f} (duality gap {abs(dual_value - detailed.value):.2e})")

slack = detailed.potential_p[:, None] + detailed.potential_q[None, :] - detailed.costs
print(f"dual feasibility (max violation of u_i + v_j <= c_ij): {slack.max():.2e}")
print(f"plan marginals in integer units: rows {detailed.plan_units.sum(1)}, cols {detailed.plan_units.sum(0)}")
