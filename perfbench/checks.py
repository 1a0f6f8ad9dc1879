"""Output checks of the benchmark.

Each check returns a list of failure messages (empty when the output
passes).  They test properties the method must have or compare with the
benchmark's own computation; none compares with stored earlier output.
Costs are computed here with scipy's cdist, independently of the library's
ground-distance code.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

RANK_TOL = 1e-6          # singular value / largest singular value counted as zero
PMM_SIZE_MULTIPLE = 12   # |m - n| <= this many root noise scales (P(exceed) ~ e^-12 per trial)
EQUAL_SIZE_TOL = 1e-12   # exact W1 vs assignment on the benchmark's own costs
DUALITY_TOL = 1e-9       # primal, dual and reported value agree to this
DUAL_FEAS_TOL = 1e-7     # u_i + v_j <= c_ij + this: HiGHS's own dual feasibility tolerance
OWN_SUBSAMPLES = 3       # independent subsamples averaged in the benchmark's sampled estimate
SAMPLED_REL_TOL = 0.03   # sampled W1 vs the benchmark's own estimate: |difference| <= 3% of
SAMPLED_ABS_TOL = 0.018  # the estimate + 0.018, over 6 sd of the difference's subsample noise


def own_costs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sup-metric cost matrix between the columns of x and y."""
    return cdist(x.T, y.T, "chebyshev")


def check_cube(points: np.ndarray) -> list:
    if not np.isfinite(points).all():
        return ["synthetic output has non-finite entries"]
    if points.size and (points.min() < 0.0 or points.max() > 1.0):
        return [f"synthetic point outside [0,1]^d (range {points.min()!r}..{points.max()!r})"]
    return []


def check_provenance(prov: dict, epsilon: float) -> list:
    failures = []
    checks = prov["checks"]
    if len(checks) != 5 or not all(checks.values()):
        failures.append(f"provenance checks not all true: {checks}")
    if prov["non_private"]:
        failures.append("output is flagged non-private")
    budgets = prov["stage_budgets"].values()
    if sum(Fraction(b["fraction"]) for b in budgets) != 1:
        failures.append("stage budget fractions do not sum to one")
    total = math.fsum(b["epsilon"] for b in budgets)
    if abs(total - epsilon) > 1e-12 * epsilon:
        failures.append(f"stage epsilons sum to {total!r}, configured {epsilon!r}")
    return failures


def untouched_rank(points: np.ndarray) -> int:
    """Affine dimension of the points no coordinate of which the clamp moved.

    A point the clamp left alone has every coordinate strictly inside (0, 1);
    points touching a face are left out, whether or not they were moved.
    """
    inside = points[:, ((points > 0.0) & (points < 1.0)).all(axis=0)]
    if inside.shape[1] < 2:
        return 0
    centered = inside - inside.mean(axis=1, keepdims=True)
    gram = centered @ centered.T
    sv = np.sqrt(np.clip(np.linalg.eigvalsh((gram + gram.T) / 2.0), 0.0, None))
    return int((sv > RANK_TOL * sv.max()).sum()) if sv.max() > 0 else 0


def check_subspace(points: np.ndarray, d_prime: int) -> list:
    rank = untouched_rank(points)
    return [] if rank <= d_prime else [f"unclamped points span {rank} > d'={d_prime} dimensions"]


def check_size(prov: dict, n: int) -> list:
    m = prov["m"]
    if prov["subroutine"] == "psmm":
        failures = [] if m == n else [f"PSMM output size {m} != n={n}"]
        info = prov["subroutine_info"]
        floor = abs(info["signed_total_mass"] - 1.0)
        if info["projection_objective"] < floor - 1e-9:
            failures.append(f"projection objective {info['projection_objective']!r} < |mass - 1| = {floor!r}")
        return failures
    sigma0 = prov["subroutine_info"]["level_scales"][0]
    if abs(m - n) > PMM_SIZE_MULTIPLE * sigma0:
        return [f"PMM output size {m} is {abs(m - n)} from n={n}, past {PMM_SIZE_MULTIPLE} x sigma_0={sigma0!r}"]
    return []


def check_assignment(x: np.ndarray, y: np.ndarray, value: float) -> list:
    """Equal sizes: W1 equals the optimal assignment on the benchmark's costs."""
    costs = own_costs(x, y)
    rows, cols = linear_sum_assignment(costs)
    expected = costs[rows, cols].sum() / x.shape[1]
    if abs(value - expected) > EQUAL_SIZE_TOL:
        return [f"exact W1 {value!r} != assignment {expected!r}"]
    return []


def check_duality(x: np.ndarray, y: np.ndarray, value: float, detailed) -> list:
    """Unequal sizes: a duality certificate that the reported value is optimal.

    The plan must have the exact integer marginals of the two uniform
    measures, the potentials must satisfy u_i + v_j <= c_ij up to
    DUAL_FEAS_TOL, and primal cost, dual value and the reported value must
    agree to DUALITY_TOL.  By weak duality the optimum is then at least
    dual - DUAL_FEAS_TOL (the plan has mass 1), so the value is within
    DUAL_FEAS_TOL + DUALITY_TOL of it.
    """
    failures = []
    n, m = x.shape[1], y.shape[1]
    costs = own_costs(x, y)
    scale = detailed.mass_scale
    units = np.asarray(detailed.plan_units)
    if scale % n or scale % m:
        return [f"mass scale {scale} is not a common multiple of {n} and {m}"]
    if units.shape != (n, m) or (units < 0).any():
        return ["transport plan has the wrong shape or negative entries"]
    if not ((units.sum(axis=1) == scale // n).all() and (units.sum(axis=0) == scale // m).all()):
        failures.append("transport plan marginals differ from the two measures")
    u, v = np.asarray(detailed.potential_p), np.asarray(detailed.potential_q)
    slack = float((u[:, None] + v[None, :] - costs).max())
    if slack > DUAL_FEAS_TOL:
        failures.append(f"potentials violate u_i + v_j <= c_ij by {slack!r}")
    primal = float((units * costs).sum()) / scale
    dual = (math.fsum(u) * (scale // n) + math.fsum(v) * (scale // m)) / scale
    for label, got in (("primal", primal), ("dual", dual), ("detailed", detailed.value)):
        if abs(got - value) > DUALITY_TOL:
            failures.append(f"{label} value {got!r} != reported W1 {value!r}")
    return failures


def own_sampled_w1(x: np.ndarray, y: np.ndarray, k: int, seed: int) -> float:
    """The benchmark's own estimate: the mean, over OWN_SUBSAMPLES independent
    subsamples of k uniform atoms per side, of their exact W1."""
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(OWN_SUBSAMPLES):
        xs = x[:, rng.choice(x.shape[1], size=k, replace=False)]
        ys = y[:, rng.choice(y.shape[1], size=k, replace=False)]
        costs = own_costs(xs, ys)
        # a 1e-11 jitter keeps the solver out of its worst case on tied costs
        rows, cols = linear_sum_assignment(costs + rng.random(costs.shape) * 1e-11)
        values.append(costs[rows, cols].mean())
    return float(np.mean(values))


def check_sampled(value: float, own: float) -> list:
    """Sampled W1 against the benchmark's own estimate (`own_sampled_w1`)."""
    if abs(value - own) > SAMPLED_REL_TOL * own + SAMPLED_ABS_TOL:
        return [f"sampled W1 {value!r} differs from the independent estimate {own!r} by more than the tolerance"]
    return []
