"""Exact Wasserstein distances between empirical measures, plus diagnostics.

Two exact solvers sit behind one value path.  When both measures are
uniform and of equal size k, the optimal plan can be taken to be a
permutation (Birkhoff), so W_p^p is the optimal linear assignment on the
k x k costs, divided by k; that is how a plain ``wasserstein1`` /
``wasserstein2`` call on such measures is solved.  Every other instance
(unequal sizes, non-uniform rational weights), and every call with
``detailed=True``, is solved as the transportation LP: rational weights
are scaled to a common integer denominator and HiGHS returns a basic
(vertex) optimum, which is integral for integral marginals.  Its node
potentials are replaced by their double c-transform, so they satisfy
u_i + v_j <= c_ij exactly on the reported costs and give a checkable dual
Lipschitz certificate.

For instances too large for the exact solvers there is a separate,
explicitly approximate subsample estimator.

``projection_diagnostics`` checks a run's projection-stability and
eigenvalue-shift bounds from the d x d second moment (1/n) Z Z^T alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from .errors import InvalidParameterError, SizeOverflowError, SolverError
from .noise import SeededGenerator

__all__ = [
    "EmpiricalMeasure",
    "TransportResult",
    "ProjectionReport",
    "ground_distances",
    "wasserstein1",
    "wasserstein2",
    "wasserstein1_sampled",
    "projection_diagnostics",
]

DEFAULT_MAX_CELLS = 4_000_000


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted point measure: support is d x k, weights are exact rationals.

    Weights default to the uniform 1/k and must be nonnegative rationals
    summing to exactly 1.  ``uniform`` records, once, whether every weight
    is 1/k.
    """

    support: np.ndarray
    weights: tuple = None
    uniform: bool = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.support, dtype=np.float64))
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise InvalidParameterError(f"support must be a nonempty d x k matrix, got {pts.shape}")
        k = pts.shape[1]
        if self.weights is None:
            w = tuple([Fraction(1, k)] * k)
            uniform = True
        else:
            w = tuple(Fraction(x) for x in self.weights)
            if len(w) != k:
                raise InvalidParameterError("weights length must match support size")
            if any(x < 0 for x in w):
                raise InvalidParameterError("weights must be nonnegative")
            if sum(w) != 1:
                raise InvalidParameterError("weights must sum to exactly 1")
            uniform = all(x == w[0] for x in w)
        object.__setattr__(self, "support", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "uniform", uniform)

    @classmethod
    def from_points(cls, points) -> "EmpiricalMeasure":
        return cls(support=np.asarray(points, dtype=np.float64))

    @property
    def size(self) -> int:
        return self.support.shape[1]


@dataclass(frozen=True)
class TransportResult:
    """Optimal transport value with its integral plan and dual potentials."""

    value: float
    plan: np.ndarray          # k_p x k_q, in probability-mass units
    plan_units: np.ndarray    # same plan in scaled integer units
    mass_scale: int           # common denominator the weights were scaled by
    potential_p: np.ndarray   # dual potential per P-atom (per unit mass)
    potential_q: np.ndarray   # dual potential per Q-atom
    costs: np.ndarray


def ground_distances(x: np.ndarray, y: np.ndarray, metric: str = "linf") -> np.ndarray:
    """Pairwise ground distances between columns of x (d x k1) and y (d x k2).

    Accumulates one coordinate at a time into a single k1 x k2 array, so no
    k1 x k2 x d temporary is built; ``l2`` sums the squares in coordinate
    order.
    """
    if metric not in ("linf", "l2"):
        raise InvalidParameterError(f"unknown ground metric {metric!r} (use 'linf' or 'l2')")
    if x.shape[0] != y.shape[0]:
        raise InvalidParameterError("measures live in different ambient dimensions")
    out = np.zeros((x.shape[1], y.shape[1]))
    step = np.empty_like(out)
    for xc, yc in zip(x, y):
        np.subtract(xc[:, None], yc[None, :], out=step)
        if metric == "linf":
            np.maximum(out, np.abs(step, out=step), out=out)
        else:
            out += np.multiply(step, step, out=step)
    return out if metric == "linf" else np.sqrt(out, out=out)


def _integer_masses(p: EmpiricalMeasure, q: EmpiricalMeasure):
    """Scale both weight vectors to a common integer denominator."""
    denom = 1
    for w in itertools.chain(p.weights, q.weights):
        denom = denom * w.denominator // math.gcd(denom, w.denominator)
    if denom > 10**15:
        raise SizeOverflowError(
            f"weight denominators scale to {denom}, past the exact-integer range; "
            "use wasserstein1_sampled (approximate)"
        )
    a = np.array([int(w * denom) for w in p.weights], dtype=np.int64)
    b = np.array([int(w * denom) for w in q.weights], dtype=np.int64)
    return a, b, denom


def _solve_transport(costs: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Exact transportation LP: min <c, x> with row sums a and column sums b.

    Returns the flow (a vertex solution, integral for integral marginals)
    and node potentials (u, v) with u_i + v_j <= c_ij exactly: HiGHS row
    duals are feasible only to its tolerance, so they are replaced by their
    double c-transform v_j = min_i (c_ij - u_i), u_i = min_j (c_ij - v_j).
    """
    kp, kq = costs.shape
    ncells = kp * kq
    row_i = np.repeat(np.arange(kp), kq)
    col_j = np.tile(np.arange(kp, kp + kq), kp)
    cols = np.arange(ncells)
    a_eq = sparse.coo_matrix(
        (
            np.ones(2 * ncells),
            (np.concatenate([row_i, col_j]), np.concatenate([cols, cols])),
        ),
        shape=(kp + kq, ncells),
    ).tocsr()
    b_eq = np.concatenate([a, b]).astype(np.float64)
    # HiGHS's default dual feasibility tolerance (1e-7) can stop at a vertex
    # whose value sits ~1e-10 above the optimum; 1e-10 closes that gap
    res = linprog(
        costs.ravel(),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options={"presolve": False, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise SolverError(f"transportation solve failed (status {res.status}): {res.message}")
    flow = res.x.reshape(kp, kq)
    u = res.eqlin.marginals[:kp]
    v = (costs - u[:, None]).min(axis=0)
    u = (costs - v[None, :]).min(axis=1)
    return flow, float(res.fun), u, v


def _transport(p, q, metric, power, max_cells, detailed):
    """W_power^power between two measures: a float, or a TransportResult.

    Uniform measures of equal size k take the assignment solver unless the
    plan and potentials are asked for; everything else takes the LP.
    """
    p = p if isinstance(p, EmpiricalMeasure) else EmpiricalMeasure.from_points(p)
    q = q if isinstance(q, EmpiricalMeasure) else EmpiricalMeasure.from_points(q)
    if p.size * q.size > max_cells:
        raise SizeOverflowError(
            f"exact transport on {p.size} x {q.size} supports exceeds the "
            f"{max_cells}-cell limit; use wasserstein1_sampled (approximate)"
        )
    costs = ground_distances(p.support, q.support, metric)
    if power != 1:
        costs = costs**power
    if not detailed and p.uniform and q.uniform and p.size == q.size:
        rows, cols = linear_sum_assignment(costs)
        return float(costs[rows, cols].sum()) / p.size
    a, b, denom = _integer_masses(p, q)
    flow, total, u, v = _solve_transport(costs, a, b)
    result = TransportResult(
        value=total / denom,
        plan=flow / denom,
        plan_units=np.rint(flow).astype(np.int64),
        mass_scale=denom,
        potential_p=u,
        potential_q=v,
        costs=costs,
    )
    return result if detailed else result.value


def wasserstein1(p, q, metric: str = "linf", *, max_cells: int = DEFAULT_MAX_CELLS, detailed: bool = False):
    """Exact 1-Wasserstein distance between two empirical measures.

    Uniform measures of equal size are solved as an assignment problem;
    unequal support sizes, non-uniform weights and ``detailed=True`` (plan and
    exactly feasible potentials) go through the integer-scaled transport
    LP.  The result does not depend on the ordering of either support.
    Raises SizeOverflowError when the instance is too large, in which case
    the sampled estimator is the documented fallback.
    """
    return _transport(p, q, metric, 1, max_cells, detailed)


def wasserstein2(p, q, metric: str = "l2", *, max_cells: int = DEFAULT_MAX_CELLS, detailed: bool = False):
    """Exact 2-Wasserstein distance (squared costs, square root reported).

    Takes the same solver paths as ``wasserstein1``.
    """
    result = _transport(p, q, metric, 2, max_cells, detailed)
    if not detailed:
        return math.sqrt(max(result, 0.0))
    return replace(result, value=math.sqrt(max(result.value, 0.0)))


def wasserstein1_sampled(
    p,
    q,
    gen: SeededGenerator,
    metric: str = "linf",
    *,
    k: int = 1024,
    repeats: int = 2,
) -> float:
    """APPROXIMATE W1 estimate for large instances.

    Draws k atoms i.i.d. from each measure (by weight) and averages the
    exact assignment cost over independent repeats.  Biased upward by the
    finite-sample floor; use only where the exact solver refuses.
    """
    p = p if isinstance(p, EmpiricalMeasure) else EmpiricalMeasure.from_points(p)
    q = q if isinstance(q, EmpiricalMeasure) else EmpiricalMeasure.from_points(q)
    values = []
    for rep in range(repeats):
        sub = gen.split(f"w1-sample-{rep}")
        xs = _draw_atoms(p, k, sub.split("p"))
        ys = _draw_atoms(q, k, sub.split("q"))
        costs = ground_distances(xs, ys, metric)
        # tiny deterministic jitter breaks cost ties, which can otherwise
        # push the assignment solver into its worst case on sup-metric costs
        jitter = sub.split("jitter").random(costs.shape) * 1e-11
        rows, cols = linear_sum_assignment(costs + jitter)
        values.append(costs[rows, cols].mean())
    return float(np.mean(values))


def _draw_atoms(measure: EmpiricalMeasure, k: int, gen: SeededGenerator) -> np.ndarray:
    if measure.uniform and k <= measure.size:
        idx = gen.choice(measure.size, size=k, replace=False)
    else:
        probs = np.array([float(w) for w in measure.weights])
        probs = probs / probs.sum()
        idx = gen.choice(measure.size, size=k, replace=True, p=probs)
    return measure.support[:, idx]


@dataclass(frozen=True)
class ProjectionReport:
    """Per-run stability diagnostics for a noisy-subspace projection.

    ``residual`` is (1/n) ||Z - VV^T Z||_F^2, ``tail`` the summed trailing
    eigenvalues of M = (1/n) Z Z^T, and ``noise_norm`` the spectral norm of the
    perturbation.  ``stability_ok`` asserts residual <= tail + 2 d' noise_norm
    and ``weyl_ok`` asserts the top-d' eigenvalue shifts are at most
    noise_norm, both up to the stated numerical slack.
    """

    residual: float
    tail: float
    noise_norm: float
    max_eigenvalue_shift: float
    stability_ok: bool
    weyl_ok: bool
    slack: float


def projection_diagnostics(
    second_moment: np.ndarray,
    noise: np.ndarray,
    basis: np.ndarray,
    d_prime: int,
    *,
    slack: float = 1e-9,
) -> ProjectionReport:
    """Check the projection-stability and eigenvalue-shift bounds on one run.

    ``second_moment`` is M = (1/n) Z Z^T of the (centered) d x n data Z,
    ``noise`` the symmetric perturbation applied to M, and ``basis`` the
    d x d' columns B taken from the perturbed matrix's top eigenvectors.
    Only d x d work is done: with P = B B^T, the residual
    (1/n) ||Z - P Z||_F^2 equals tr((I - P)^T (I - P) M) exactly.
    """
    m_z = np.asarray(second_moment, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    basis = np.asarray(basis, dtype=np.float64)
    d = m_z.shape[0]
    d_prime = int(d_prime)
    if m_z.shape != (d, d):
        raise InvalidParameterError(f"second moment must be a square matrix, got {m_z.shape}")
    if basis.shape != (d, d_prime):
        raise InvalidParameterError(f"basis must be {d} x {d_prime}, got {basis.shape}")
    m_z = (m_z + m_z.T) / 2.0
    eig_clean = np.sort(np.linalg.eigvalsh(m_z))[::-1]
    eig_noisy = np.sort(np.linalg.eigvalsh(m_z + noise))[::-1]
    noise_norm = float(np.linalg.norm(noise, 2)) if noise.size else 0.0
    off_subspace = np.eye(d) - basis @ basis.T
    residual = float(np.trace(off_subspace.T @ off_subspace @ m_z))
    tail = float(eig_clean[d_prime:].sum())
    shift = float(np.abs(eig_clean[:d_prime] - eig_noisy[:d_prime]).max())
    return ProjectionReport(
        residual=residual,
        tail=tail,
        noise_norm=noise_norm,
        max_eigenvalue_shift=shift,
        stability_ok=residual <= tail + 2.0 * d_prime * noise_norm + slack,
        weyl_ok=shift <= noise_norm + slack,
        slack=slack,
    )
