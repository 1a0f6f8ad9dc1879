"""Exact Wasserstein distances between point sets, plus diagnostics.

A point set is a d x k array (a 1-D array is one row of k points) standing
for the uniform measure on its k columns; a weight a_i / L is a_i copies of
atom i.  Two exact solvers sit behind one value path.  Sets of equal size k
are solved as the optimal linear assignment on the k x k costs, divided by
k: by Birkhoff, some optimal plan is a permutation.  Unequal sizes n and m,
and every call with ``detailed=True``, are solved as the transportation LP
with integer masses L/n and L/m, L = lcm(n, m); HiGHS returns a basic
(vertex) optimum, which is integral.  Its node potentials are replaced by
their double c-transform, so they satisfy u_i + v_j <= c_ij exactly on the
reported costs and give a checkable dual Lipschitz certificate.

For instances too large for the exact solvers there is a separate,
explicitly approximate subsample estimator.  It draws k atoms without
replacement from each point set, k at most the smaller set's size, and
solves each pair of draws exactly, on one of two paths.  When
the draw with fewer distinct atoms has K of them and 4 K <= k, as for PSMM
outputs at lattice cell centres, that draw is collapsed to K atoms with
integer multiplicities and the k x K transport is solved over the K atoms: a
vectorised price phase lowers the potentials of over-demanded atoms and
places most draws at once, then successive shortest paths insert the rest.
Its potentials are checked against the value on every call.  A draw whose
first coordinate alone takes more than k/4 values is not sorted by column.
Otherwise the k x k costs, with a 1e-11 tie-breaking jitter added in place,
go to the assignment solver, and the matched pairs' costs are recomputed
from the points, so each repeat holds one k x k matrix.
The calling thread draws and prepares the repeats in order; only their
assignment solves run in a thread pool, at most min(repeats, usable cores)
at once, and each repeat's value is stored by index and averaged in repeat
order, so the estimate does not depend on the core count.

Ground distances are one scipy ``cdist`` call (``chebyshev`` for ``linf``,
``euclidean`` for ``l2``), which rejects non-finite coordinates first; it
serves every exact path and the sampled k x k costs.  The sampled k x K
costs and matched-pair costs are folded one coordinate at a time in numpy,
in cdist's order, so they equal its entries to the bit; at these sizes the
fold is cheap, on a k x k matrix cdist is 3-4 times faster.

scipy is imported on first use, not with the module: ``ground_distances``
loads ``scipy.spatial``, the assignment solver and the HiGHS LP load
``scipy.optimize``, and the LP's constraint matrix ``scipy.sparse``.  A
sampled W1 whose every draw collapses loads no scipy.  The
solvers are called through the module attributes ``linear_sum_assignment``
and ``linprog``, which forward to scipy's functions, so a wrapper set on
either attribute sees every solve, on the pool threads too.

``projection_diagnostics`` checks a run's projection-stability and
eigenvalue-shift bounds from the d x d second moment (1/n) Z Z^T alone.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SizeOverflowError, SolverError
from .noise import SeededGenerator
from .pca import BLOCK

__all__ = [
    "METRICS",
    "TransportResult",
    "ProjectionReport",
    "ground_distances",
    "wasserstein1",
    "wasserstein2",
    "wasserstein1_sampled",
    "projection_diagnostics",
]

DEFAULT_MAX_CELLS = 4_000_000
# absolute slack of both inequalities ``projection_diagnostics`` checks
DIAGNOSTIC_SLACK = 1e-9
# the sampled estimator collapses a draw of k atoms with K distinct ones when
# K * _COLLAPSE_RATIO <= k.  Measured crossovers of the price-initialised
# solver (d = 8, sup metric, 2 cores; draws near a 3-D subspace against K
# lifted 3-D grid atoms; medians of 9 instances, 5 at k = 2048): at k = 1024
# the collapsed path is faster from k/K ~ 5 (at k/K = 4, 224 against 205 ms),
# at k = 2048 from k/K ~ 3 (at 4, 1.46 against 1.94 s); at k = 128 the
# assignment is faster at every k/K up to 12, by 1.3-5 ms
_COLLAPSE_RATIO = 4
_CDIST_METRICS = {"linf": "chebyshev", "l2": "euclidean"}
METRICS = tuple(_CDIST_METRICS)


def _as_points(points) -> np.ndarray:
    """A nonempty d x k float matrix; a 1-D array is one row of k points."""
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise InvalidParameterError(f"support must be a nonempty d x k matrix, got {pts.shape}")
    return pts


@dataclass(frozen=True)
class TransportResult:
    """Optimal transport value with its integral plan and dual potentials."""

    value: float
    plan_units: np.ndarray    # k_p x k_q integral plan; plan_units / mass_scale is probability mass
    mass_scale: int           # lcm of the two sizes: one atom of a size-k set is mass_scale / k units
    potential_p: np.ndarray   # dual potential per P-atom (per unit mass)
    potential_q: np.ndarray   # dual potential per Q-atom
    costs: np.ndarray


def _check_ground(x: np.ndarray, y: np.ndarray, metric: str) -> None:
    """Raise InvalidParameterError unless metric is known and x, y are finite
    points of one dimension."""
    if metric not in METRICS:
        raise InvalidParameterError(f"unknown ground metric {metric!r}; choose from {METRICS}")
    if x.shape[0] != y.shape[0]:
        raise InvalidParameterError("measures live in different ambient dimensions")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidParameterError("ground distances need finite coordinates")


def ground_distances(x: np.ndarray, y: np.ndarray, metric: str = "linf") -> np.ndarray:
    """Pairwise ground distances between columns of x (d x k1) and y (d x k2).

    One scipy ``cdist`` call on the transposed supports: ``chebyshev`` for
    ``linf``, ``euclidean`` for ``l2``.  Both kernels reduce over the
    coordinates in order, so ground_distances(y, x) is the transpose to the
    bit.  Coordinates must be finite: ``chebyshev`` would skip a NaN.
    """
    _check_ground(x, y, metric)
    from scipy.spatial.distance import cdist

    return cdist(x.T, y.T, _CDIST_METRICS[metric])


def _folded_distances(x: np.ndarray, y: np.ndarray, metric: str) -> np.ndarray:
    """Ground distances between x and y, d x ... arrays that broadcast, one
    coordinate at a time: |x_c - y_c| folded in by maximum for ``linf``, its
    square summed in coordinate order, then one square root, for ``l2``.

    cdist reduces each pair the same way from 0, so the bits are its own:
    x[:, :, None] against y[:, None, :] gives ground_distances(x, y), and two
    d x k arrays give the distance of each column pair.  The caller checks
    the metric and the coordinates.
    """
    out = np.zeros(np.broadcast_shapes(x.shape[1:], y.shape[1:]))
    diff = np.empty_like(out)
    for xc, yc in zip(x, y):
        np.subtract(xc, yc, out=diff)
        if metric == "linf":
            np.abs(diff, out=diff)
            np.maximum(out, diff, out=out)
        else:
            diff *= diff
            out += diff
    return out if metric == "linf" else np.sqrt(out, out=out)


def linear_sum_assignment(*args, **kwargs):
    """scipy's ``linear_sum_assignment``, imported on the first call."""
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(*args, **kwargs)


def linprog(*args, **kwargs):
    """scipy's ``linprog``, imported on the first call."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def _solve_transport(costs: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Exact transportation LP: min <c, x> with row sums a and column sums b.

    Returns the flow (a vertex solution, integral for integral marginals)
    and node potentials (u, v) with u_i + v_j <= c_ij exactly: HiGHS row
    duals are feasible only to its tolerance, so they are replaced by their
    double c-transform v_j = min_i (c_ij - u_i), u_i = min_j (c_ij - v_j).
    """
    from scipy import sparse

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
    """W_power^power between two point sets: a float, or a TransportResult.

    Sets of equal size take the assignment solver unless the plan and
    potentials are asked for; everything else takes the LP.
    """
    p, q = _as_points(p), _as_points(q)
    n, m = p.shape[1], q.shape[1]
    if n * m > max_cells:
        raise SizeOverflowError(
            f"exact transport on {n} x {m} supports exceeds the "
            f"{max_cells}-cell limit; use wasserstein1_sampled (approximate)"
        )
    costs = ground_distances(p, q, metric)
    if power != 1:
        costs = costs**power
    if not detailed and n == m:
        rows, cols = linear_sum_assignment(costs)
        return float(costs[rows, cols].sum()) / n
    denom = math.lcm(n, m)
    flow, total, u, v = _solve_transport(costs, np.full(n, denom // n), np.full(m, denom // m))
    result = TransportResult(
        value=total / denom,
        plan_units=np.rint(flow).astype(np.int64),
        mass_scale=denom,
        potential_p=u,
        potential_q=v,
        costs=costs,
    )
    return result if detailed else result.value


def wasserstein1(p, q, metric: str = "linf", *, max_cells: int = DEFAULT_MAX_CELLS, detailed: bool = False):
    """Exact 1-Wasserstein distance between the uniform measures on two point sets.

    p and q are d x k arrays of atoms.  Sets of equal size are solved as an
    assignment problem; unequal sizes and ``detailed=True`` (plan and
    exactly feasible potentials) go through the integer-scaled transport
    LP.  The result does not depend on the ordering of either support.
    Raises SizeOverflowError when the instance is too large, in which case
    the sampled estimator is the documented fallback.
    """
    return _transport(p, q, metric, 1, max_cells, detailed)


def wasserstein2(p, q, metric: str = "l2", *, max_cells: int = DEFAULT_MAX_CELLS) -> float:
    """Exact 2-Wasserstein distance (squared costs, square root reported).

    Takes the same solver paths as a plain ``wasserstein1`` call.
    """
    return math.sqrt(max(_transport(p, q, metric, 2, max_cells, False), 0.0))


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

    Draws k atoms without replacement from each point set, k capped at the
    smaller set's size, and averages, over independent repeats, the exact W1
    between the two draws.  So two sets of one size k or less give their
    exact W1, up to the jitter below.  A draw with K distinct atoms,
    4 K <= k, is collapsed to K weighted atoms and solved as
    a k x K transport by successive shortest paths, with a duality check
    that raises SolverError; other draws take the k x k assignment on
    jittered costs.  Both paths report the mean cost of the matched pairs;
    the assignment path reads them back from the matched point pairs, so
    each repeat keeps only its jittered k x k matrix.  Repeats are prepared
    in batches of at most w = min(repeats, usable cores), the CPU affinity
    of the process; the batch's assignment solves run side by side in w
    threads, which bounds the live k x k matrices to one per batch member.
    The result is the same bit for bit on any core count.  Biased upward by
    the finite-sample floor; use only where the exact solver refuses.  k
    and repeats must be positive integers.
    """
    for name, count in (("subsample size k", k), ("repeats", repeats)):
        if not isinstance(count, (int, np.integer)) or count < 1:
            raise InvalidParameterError(f"{name} must be a positive integer, got {count!r}")
    p, q = _as_points(p), _as_points(q)
    k = min(k, p.shape[1], q.shape[1])
    # the collapsed path computes its costs without ground_distances, so the
    # metric and the dimensions are checked before any draw, and the
    # coordinates of each collapsed pair of draws before its costs
    _check_ground(p[:, :0], q[:, :0], metric)
    values = [None] * repeats
    workers = min(repeats, _usable_cores())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # batches of at most `workers` repeats bound the k x k matrices alive at once
        for start in range(0, repeats, workers):
            solves = []
            for rep in range(start, min(start + workers, repeats)):
                sub = gen.split(f"w1-sample-{rep}")
                xs = _draw_atoms(p, k, sub.split("p"))
                ys = _draw_atoms(q, k, sub.split("q"))
                collapsed = _collapse(xs, ys, k)
                if collapsed is not None:
                    units, atoms, counts = collapsed
                    _check_ground(units, atoms, metric)
                    # ground distances are symmetric to the bit, so these k x K
                    # costs are columns of the k x k matrix whichever side was collapsed
                    costs = _folded_distances(units[:, :, None], atoms[:, None, :], metric)
                    values[rep] = _checked_atom_transport(costs, counts)
                    continue
                solve = pool.submit(linear_sum_assignment, _jittered_costs(xs, ys, metric, sub))
                solves.append((rep, xs, ys, solve))
            for rep, xs, ys, solve in solves:
                rows, cols = solve.result()
                values[rep] = _folded_distances(xs[:, rows], ys[:, cols], metric).mean()
    return float(np.mean(values))


def _jittered_costs(xs: np.ndarray, ys: np.ndarray, metric: str, gen: SeededGenerator) -> np.ndarray:
    """The k x k ground distances plus a 1e-11 tie-breaking jitter, in one array.

    Ties in the costs can push the assignment solver into its worst case on
    sup-metric costs.  The jitter is drawn and added in row blocks of at most
    max(BLOCK, k) entries; Philox fills in order, so the blocks draw what
    one k x k draw would.
    """
    costs = ground_distances(xs, ys, metric)
    noise = gen.split("jitter")
    step = max(1, BLOCK // costs.shape[1])
    for start in range(0, costs.shape[0], step):
        rows = costs[start : start + step]
        block = noise.random(rows.shape)
        block *= 1e-11
        rows += block
    return costs


def _collapse(xs: np.ndarray, ys: np.ndarray, k: int):
    """(units, atoms, counts) with the draw of fewer distinct atoms (ys on a
    tie) collapsed to its atoms and their counts, or None when that draw has
    more than k / _COLLAPSE_RATIO atoms.

    A draw whose first coordinate alone takes more values than that cannot
    be collapsed, and a 1-D sort of that coordinate spares it the column
    sort.
    """
    found = []
    for units, draw in ((xs, ys), (ys, xs)):
        if np.unique(draw[:1]).size * _COLLAPSE_RATIO > k:
            continue
        atoms, counts = np.unique(draw, axis=1, return_counts=True)
        if atoms.shape[1] * _COLLAPSE_RATIO <= k:
            found.append((units, atoms, counts))
    # min keeps the first of equal entries, and the first collapses ys
    return min(found, key=lambda side: side[1].shape[1], default=None)


def _checked_atom_transport(costs: np.ndarray, counts: np.ndarray) -> float:
    """Mean matched cost of the k x K atom transport, checked against its dual."""
    k = costs.shape[0]
    atom, v = _transport_to_atoms(costs, counts)
    primal = costs[np.arange(k), atom].mean()
    gap = primal - ((costs - v).min(axis=1).mean() + counts @ v / k)
    if gap > 1e-9:
        raise SolverError(f"atom transport is {gap:.3e} above its dual")
    return primal


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _transport_to_atoms(costs: np.ndarray, counts: np.ndarray):
    """Exact transport from k unit atoms (rows) to K atoms of multiplicity counts.

    Successive shortest paths with atom potentials v (Jonker-Volgenant
    updates).  Every placed draw i sits at an atom minimising c_ij - v_j, so
    u_i = min_j (c_ij - v_j) is dual-feasible and complementary.  The counts
    sum to k, so the problem is square once each atom is repeated by its
    count: any v is a valid start, every atom is full at the end, and a
    shortest path to the first atom with room that Dijkstra settles keeps
    the invariant.  A price phase sets v first, as auction prices for
    objects with multiplicities: each round, every atom j preferred by more
    than counts_j draws lowers v_j by the (counts_j + 1)-th largest regret
    (runner-up minus best reduced cost) among those draws, and the rounds
    stop at the first that does not lower the total over-demand.  Each draw
    whose reduced-cost argmin still has room then takes it, highest regret
    first; the rest are inserted one at a time, and one whose cheapest
    reduced-cost atom has room takes it at once.  The arc j -> j' (move one
    draw from j to j') costs min over draws at j of c_ij' - c_ij; that K x K
    table and its minimising draws are kept, and only the rows of atoms an
    augmentation touched are updated.  Returns (atom per draw, v).
    """
    k, n_atoms = costs.shape
    spare = np.array(counts, dtype=np.int64)
    v = np.zeros(n_atoms)
    atom = np.full(k, -1)
    arc = np.full((n_atoms, n_atoms), np.inf)
    arc_draw = np.zeros((n_atoms, n_atoms), dtype=np.int64)

    def rebuild(j):
        rows = np.flatnonzero(atom == j)
        moves = costs[rows] - costs[rows, j][:, None]
        best = moves.argmin(axis=0)
        arc[j] = moves[best, np.arange(n_atoms)]
        arc_draw[j] = rows[best]

    def gain(j, row):
        moves = costs[row] - costs[row, j]
        better = moves < arc[j]
        arc[j, better] = moves[better]
        arc_draw[j, better] = row

    def preferences(v):
        """Each draw's reduced-cost argmin and regret, the draws grouped by
        that atom in falling regret, each group's start, and the over-demand."""
        reduced = costs - v
        best = reduced.argmin(axis=1)
        regret = np.zeros(k)
        if n_atoms > 1:
            first, second = np.partition(reduced, 1, axis=1)[:, :2].T
            regret = second - first
        order = np.lexsort((-regret, best))
        demand = np.bincount(best, minlength=n_atoms)
        return best, regret, order, np.cumsum(demand) - demand, np.maximum(demand - spare, 0)

    # price phase: lowering v_j by that regret ties atom j's (counts_j + 1)-th
    # most regretful draw with its runner-up
    best, regret, order, start, excess = preferences(v)
    while excess.any():
        crowded = np.flatnonzero(excess)
        lowered = v.copy()
        lowered[crowded] -= regret[order[start[crowded] + spare[crowded]]]
        trial = preferences(lowered)
        if trial[-1].sum() >= excess.sum():
            break
        v = lowered
        best, regret, order, start, excess = trial
    # each draw whose reduced-cost argmin has room takes it, highest regret first
    rank = np.empty(k, dtype=np.int64)
    rank[order] = np.arange(k) - start[best[order]]
    taken = rank < spare[best]
    atom[taken] = best[taken]
    spare -= np.bincount(atom[taken], minlength=n_atoms)
    for j in np.flatnonzero(counts > spare):
        rebuild(j)
    dist = np.empty(n_atoms)
    for i in np.flatnonzero(~taken):
        # Dijkstra from draw i over reduced costs; settled atoms leave the frontier
        frontier = costs[i] - v
        pred = np.full(n_atoms, -1)
        settled = np.zeros(n_atoms, dtype=bool)
        while True:
            j = int(frontier.argmin())
            if spare[j] > 0:
                break
            dist[j], frontier[j], settled[j] = frontier[j], np.inf, True
            relaxed = arc[j] + (dist[j] + v[j]) - v
            np.putmask(relaxed, settled, np.inf)
            better = relaxed < frontier
            np.copyto(frontier, relaxed, where=better)
            np.copyto(pred, j, where=better)
        v[settled] += dist[settled] - frontier[j]
        spare[j] -= 1
        path = [j]
        while pred[path[-1]] >= 0:
            path.append(pred[path[-1]])
        # path runs sink -> first atom; each atom takes a draw from the next
        moved = [arc_draw[frm, to] for to, frm in zip(path, path[1:])] + [i]
        atom[moved] = path
        gain(path[0], moved[0])
        for j in path[1:]:
            rebuild(j)
    return atom, v


def _draw_atoms(points: np.ndarray, k: int, gen: SeededGenerator) -> np.ndarray:
    """k of the columns of points, drawn without replacement; k is at most their count."""
    return points[:, gen.choice(points.shape[1], k)]


@dataclass(frozen=True)
class ProjectionReport:
    """Per-run stability diagnostics for a noisy-subspace projection.

    ``residual`` is (1/n) ||Z - VV^T Z||_F^2, ``tail`` the summed trailing
    eigenvalues of M = (1/n) Z Z^T, and ``noise_norm`` the spectral norm of the
    perturbation.  ``stability_ok`` asserts residual <= tail + 2 d' noise_norm
    and ``weyl_ok`` asserts the top-d' eigenvalue shifts are at most
    noise_norm, both up to a numerical slack of ``DIAGNOSTIC_SLACK``.
    """

    residual: float
    tail: float
    noise_norm: float
    max_eigenvalue_shift: float
    stability_ok: bool
    weyl_ok: bool


def projection_diagnostics(
    second_moment: np.ndarray,
    noise: np.ndarray,
    basis: np.ndarray,
    d_prime: int,
) -> ProjectionReport:
    """Check the projection-stability and eigenvalue-shift bounds on one run.

    ``second_moment`` is M = (1/n) Z Z^T of the (centered) d x n data Z,
    ``noise`` the symmetric perturbation applied to M, and ``basis`` the
    d x d' columns B taken from the perturbed matrix's top eigenvectors.
    Only d x d work is done: with P = B B^T, the residual
    (1/n) ||Z - P Z||_F^2 equals tr((I - P)^T (I - P) M) exactly.  Both
    bounds are checked with the fixed absolute slack ``DIAGNOSTIC_SLACK``.
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
        stability_ok=residual <= tail + 2.0 * d_prime * noise_norm + DIAGNOSTIC_SLACK,
        weyl_ok=shift <= noise_norm + DIAGNOSTIC_SLACK,
    )
