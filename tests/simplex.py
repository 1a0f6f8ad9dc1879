"""Exact-pivot dense simplex for small standard-form LPs (test oracle).

Solves min c'x subject to A x = b, x >= 0 with a two-phase tableau.
Entering columns use Dantzig's rule until degeneracy stalls progress, then
switch to Bland's rule, which guarantees termination.  It is independent
of HiGHS, so the tests use it as the reference solver for the literal
projection LP on desk-scale instances (hundreds of columns).
"""

from __future__ import annotations

import numpy as np

from lowdp.errors import SolverError

__all__ = ["solve_dense_lp"]

_PIVOT_TOL = 1e-10
_COST_TOL = 1e-9


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= np.outer(column, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _iterate(tableau, basis, allowed, max_iter, max_degenerate=200):
    """Run simplex pivots until the reduced costs are nonnegative."""
    m = tableau.shape[0] - 1
    degenerate = 0
    use_bland = False
    for iteration in range(max_iter):
        costs = tableau[m, :-1]
        if use_bland:
            candidates = np.nonzero(allowed & (costs < -1e-12))[0]
            if candidates.size == 0:
                return
            col = int(candidates[0])
        else:
            masked = np.where(allowed, costs, np.inf)
            col = int(np.argmin(masked))
            if masked[col] >= -_COST_TOL:
                return
        ratios = np.full(m, np.inf)
        positive = tableau[:m, col] > _PIVOT_TOL
        ratios[positive] = tableau[:m, -1][positive] / tableau[:m, col][positive]
        best = ratios.min()
        if not np.isfinite(best):
            raise SolverError("LP is unbounded (no valid leaving row)")
        ties = np.nonzero(ratios <= best + 1e-12)[0]
        row = int(ties[np.argmin(basis[ties])])  # lowest basis index on ties
        if best <= 1e-12:
            degenerate += 1
            if degenerate >= max_degenerate:
                use_bland = True
        else:
            degenerate = 0
        _pivot(tableau, basis, row, col)
    raise SolverError(f"simplex did not converge within {max_iter} iterations")


def solve_dense_lp(c, a_eq, b_eq, *, max_iter=None):
    """Minimize c'x subject to a_eq x = b_eq, x >= 0.

    Returns (x, objective).  Raises SolverError on infeasible or unbounded
    instances and on iteration overrun.
    """
    c = np.asarray(c, dtype=np.float64)
    a = np.array(a_eq, dtype=np.float64)
    b = np.array(b_eq, dtype=np.float64)
    m, n = a.shape
    if b.shape != (m,) or c.shape != (n,):
        raise SolverError("inconsistent LP shapes")
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    if max_iter is None:
        max_iter = 200 * (m + n + 10)

    # phase 1: artificial basis, minimize total infeasibility
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, :n] = -a.sum(axis=0)
    tableau[m, -1] = -b.sum()
    basis = np.arange(n, n + m)
    allowed = np.ones(n + m, dtype=bool)
    _iterate(tableau, basis, allowed, max_iter)
    if -tableau[m, -1] > 1e-7:
        raise SolverError(f"LP infeasible (phase-1 objective {-tableau[m, -1]:.3e})")

    # drive out or drop any artificial still in the basis at value zero
    rows_to_keep = np.ones(m, dtype=bool)
    for row in range(m):
        if basis[row] >= n:
            pivot_cols = np.nonzero(np.abs(tableau[row, :n]) > _PIVOT_TOL)[0]
            if pivot_cols.size:
                _pivot(tableau, basis, row, int(pivot_cols[0]))
            else:
                rows_to_keep[row] = False  # redundant constraint
    if not rows_to_keep.all():
        keep = np.concatenate([rows_to_keep, [True]])
        tableau = tableau[keep]
        basis = basis[rows_to_keep]
        m = basis.shape[0]

    # phase 2: real costs over the original columns only
    tableau = np.concatenate([tableau[:, :n], tableau[:, -1:]], axis=1)
    tableau[m, :n] = c
    tableau[m, -1] = 0.0
    for row in range(m):
        coef = tableau[m, basis[row]]
        if coef != 0.0:
            tableau[m] -= coef * tableau[row]
    allowed = np.ones(n, dtype=bool)
    _iterate(tableau, basis, allowed, max_iter)

    x = np.zeros(n)
    x[basis] = tableau[:m, -1]
    return x, float(-tableau[m, -1])
