import numpy as np
import pytest
from scipy.optimize import linprog

from lowdp.errors import SolverError
from simplex import solve_dense_lp


def test_known_small_lp():
    # min x0 + 2 x1 s.t. x0 + x1 = 1, x >= 0 -> x = (1, 0)
    x, obj = solve_dense_lp([1.0, 2.0], [[1.0, 1.0]], [1.0])
    assert obj == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(x, [1.0, 0.0], atol=1e-10)


def test_negative_rhs_rows_are_handled():
    # -x0 - x1 = -1 is the same constraint with flipped sign
    x, obj = solve_dense_lp([1.0, 2.0], [[-1.0, -1.0]], [-1.0])
    assert obj == pytest.approx(1.0, abs=1e-10)


def test_infeasible_raises():
    # x0 = 1 and x0 = 2 cannot both hold
    with pytest.raises(SolverError, match="infeasible"):
        solve_dense_lp([1.0], [[1.0], [1.0]], [1.0, 2.0])


def test_redundant_constraints_are_tolerated():
    a = [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
    b = [1.0, 2.0, 0.5]
    x, obj = solve_dense_lp([1.0, 3.0, 1.0], a, b)
    assert obj == pytest.approx(1.5, abs=1e-10)


def test_matches_scipy_on_random_instances():
    rng = np.random.default_rng(0)
    for trial in range(60):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, 14))
        a = rng.standard_normal((m, n))
        x_feas = rng.random(n)
        b = a @ x_feas  # guarantees feasibility
        c = rng.standard_normal(n)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        if ref.status == 3:  # unbounded
            with pytest.raises(SolverError):
                solve_dense_lp(c, a, b)
            continue
        assert ref.status == 0
        x, obj = solve_dense_lp(c, a, b)
        assert obj == pytest.approx(ref.fun, abs=1e-7 * max(1.0, abs(ref.fun)))
        assert (x >= -1e-9).all()
        assert np.abs(a @ x - b).max() < 1e-7


def test_degenerate_transportation_instance():
    # highly degenerate assignment-style LP exercises the Bland fallback
    costs = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0], [3.0, 2.0, 1.0]])
    n = 3
    a = np.zeros((2 * n, n * n))
    for i in range(n):
        a[i, i * n : (i + 1) * n] = 1.0
        a[n + i, i::n] = 1.0
    b = np.ones(2 * n)
    x, obj = solve_dense_lp(costs.ravel(), a, b)
    assert obj == pytest.approx(3.0, abs=1e-9)
