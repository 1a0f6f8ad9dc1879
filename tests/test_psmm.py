import itertools
import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

from lowdp.errors import (
    InvalidParameterError,
    InvalidRegimeError,
    LatticeTooLargeError,
)
from lowdp.noise import SeededGenerator
from lowdp.psmm import (
    Lattice,
    ProbabilityLatticeMeasure,
    SignedLatticeMeasure,
    build_lattice,
    cell_counts,
    lattice_delta,
    measure_to_points,
    perturb_to_signed_measure,
    project_to_probability,
    run_psmm,
    _grid_graph,
)
from oracles import anchor_distances, bl_projection_lp_dense


def test_delta_formula_values():
    assert lattice_delta(10, 2, 1.0, 10_000) == pytest.approx(np.sqrt(5) / 100)
    assert lattice_delta(3, 3, 1.0, 1000) == pytest.approx(1000 ** (-1 / 3))
    assert lattice_delta(9, 3, 1.0, 1000, mode="proof", radius=3.0) == pytest.approx(3 / (np.sqrt(3) * 10))


def test_delta_regime_validation():
    with pytest.raises(InvalidRegimeError):
        lattice_delta(5, 2, 0.001, 100)
    with pytest.raises(InvalidParameterError):
        lattice_delta(5, 2, 1.0, 100, mode="proof")  # radius missing


def test_lattice_1d_coverage_extension():
    lat = build_lattice(1.0, 1.0, 1)
    assert sorted(lat.anchors.ravel().tolist()) == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_lattice_symmetric_under_negation():
    lat = build_lattice(1.3, 0.4, 2)
    keys = {tuple(row) for row in lat.int_coords}
    assert all(tuple(-np.array(row)) in keys for row in keys)


def test_lattice_covers_boundary_floor_anchor():
    lat = build_lattice(1.0, 0.3, 2)
    x = np.array([1.0, 0.0])  # norm exactly R
    anchor = np.floor(x / lat.delta).astype(np.int64)
    keys = {tuple(row) for row in lat.int_coords}
    assert tuple(anchor) in keys


def test_lattice_cap_enforced():
    with pytest.raises(LatticeTooLargeError, match="delta_scale"):
        build_lattice(1.0, 1e-4, 3, cap=1000)


def test_cell_counts_origin_and_boundaries():
    lat = build_lattice(2.0, 0.5, 2)
    pts = np.zeros((2, 4))
    counts = cell_counts(pts, lat)
    origin_idx = int(np.nonzero((lat.int_coords == 0).all(axis=1))[0][0])
    assert counts[origin_idx] == 4
    assert counts.sum() == 4
    # half-open cells: x = 0.999 delta stays at anchor 0, x = delta moves up
    pts = np.array([[0.999 * 0.5, 0.5], [0.0, 0.0]])
    counts = cell_counts(pts, lat)
    hit = lat.int_coords[np.nonzero(counts)[0]]
    assert {tuple(r) for r in hit} == {(0, 0), (1, 0)}


def test_cell_counts_partition_of_ball():
    gen = SeededGenerator(0)
    lat = build_lattice(1.5, 0.22, 2)
    raw = gen.random((2, 100)) * 2.0 - 1.0
    raw *= 1.5 / np.maximum(np.linalg.norm(raw, axis=0), 1.5)
    counts = cell_counts(raw, lat)
    assert counts.sum() == 100


def test_signed_measure_formula():
    nu = perturb_to_signed_measure(np.array([8, 2]), 1.0, 10, SeededGenerator(1), zero_noise=True)
    assert np.allclose(nu.weights, [0.8, 0.2])
    assert nu.total_mass == pytest.approx(1.0)


def test_signed_measure_mass_is_centered():
    gen = SeededGenerator(2)
    totals = []
    counts = np.array([5, 3, 2, 0, 0, 0])
    for t in range(400):
        nu = perturb_to_signed_measure(counts, 1.0, 10, gen.split(t))
        totals.append(nu.total_mass)
    assert abs(np.mean(totals) - 1.0) < 0.15  # noise is mean-zero


def _simplex_grid(m, step):
    ticks = np.arange(0, step + 1)
    for combo in itertools.product(ticks, repeat=m - 1):
        if sum(combo) <= step:
            rest = step - sum(combo)
            yield np.array(combo + (rest,)) / step


def _bl_distance_oracle(nu, mu, rho):
    """d_BL via its dual LP: max f (nu - mu), |f| <= 1, |f_i - f_j| <= rho_ij."""
    from scipy.optimize import linprog

    m = nu.size
    diff = nu - mu
    rows = []
    rhs = []
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            row = np.zeros(m)
            row[i], row[j] = 1.0, -1.0
            rows.append(row)
            rhs.append(rho[i, j])
    res = linprog(
        -diff,
        A_ub=np.array(rows) if rows else None,
        b_ub=np.array(rhs) if rhs else None,
        bounds=[(-1, 1)] * m,
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def _enumerate_vertices_objective(nu, rho):
    """Exhaustive basic-feasible-solution oracle for the full projection LP."""
    m = nu.size
    n_gamma = m * m
    n_vars = m + n_gamma + 2 * m
    cost = np.zeros(n_vars)
    cost[m : m + n_gamma] = rho.ravel()
    cost[m + n_gamma :] = 1.0
    a = np.zeros((m + 1, n_vars))
    for i in range(m):
        a[i, i] = 1.0
        a[i, m + i * m : m + (i + 1) * m] += 1.0
        a[i, m + i : m + n_gamma : m] -= 1.0
        a[i, m + n_gamma + i] = 1.0
        a[i, m + n_gamma + m + i] = -1.0
    a[m, :m] = 1.0
    b = np.concatenate([nu, [1.0]])
    best = np.inf
    cols = list(itertools.combinations(range(n_vars), m + 1))
    idx = np.array(cols)
    bases = a[:, idx.T].transpose(1, 0, 2) if False else np.stack([a[:, list(c)] for c in cols])
    dets = np.abs(np.linalg.det(bases))
    for basis_cols, mat, det in zip(cols, bases, dets):
        if det < 1e-10:
            continue
        x_b = np.linalg.solve(mat, b)
        if (x_b >= -1e-9).all():
            best = min(best, cost[list(basis_cols)] @ x_b)
    return best


def test_projection_identity_when_already_probability():
    lat = Lattice(delta=0.5, radius=1.0, d_prime=1, int_coords=np.array([[0], [1]]))
    nu = SignedLatticeMeasure(np.array([0.25, 0.75]))
    mu, obj = project_to_probability(nu, lat)
    assert obj == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(mu.weights, [0.25, 0.75], atol=1e-9)


def test_projection_mass_destruction_example():
    # two anchors at distance 0.5, nu = (0.7, 0.5): destroy 0.2 -> objective 0.2
    lat = Lattice(delta=0.5, radius=1.0, d_prime=1, int_coords=np.array([[0], [1]]))
    mu, obj = project_to_probability(SignedLatticeMeasure(np.array([0.7, 0.5])), lat)
    assert obj == pytest.approx(0.2, abs=1e-9)
    assert np.allclose(mu.weights.sum(), 1.0, atol=1e-9)


def test_projection_mass_creation_example():
    lat = Lattice(delta=0.5, radius=1.0, d_prime=1, int_coords=np.array([[0], [1]]))
    mu, obj = project_to_probability(SignedLatticeMeasure(np.array([0.4, 0.4])), lat)
    assert obj == pytest.approx(0.2, abs=1e-9)


def test_projection_objective_matches_bfs_enumeration_oracle():
    rng = np.random.default_rng(3)
    for trial in range(6):
        m = int(rng.integers(2, 4))
        ints = rng.choice(np.arange(-2, 3), size=(m, 1), replace=False)
        lat = Lattice(delta=0.8, radius=2.0, d_prime=1, int_coords=np.sort(ints, axis=0))
        nu = np.round(rng.normal(0.3, 0.5, m), 2)
        _, obj = project_to_probability(SignedLatticeMeasure(nu), lat)
        oracle = _enumerate_vertices_objective(nu, anchor_distances(lat))
        assert obj == pytest.approx(oracle, abs=1e-7)


def test_projection_objective_matches_grid_plus_dual_oracle():
    rng = np.random.default_rng(4)
    cand = np.stack(np.meshgrid(np.arange(-2, 3), np.arange(-2, 3), indexing="ij"), -1).reshape(-1, 2)
    for trial in range(4):
        m = 3
        ints = cand[rng.choice(cand.shape[0], m, replace=False)]
        lat = Lattice(delta=0.6, radius=2.0, d_prime=2, int_coords=ints)
        nu = np.round(rng.normal(0.3, 0.4, m), 2)
        rho = anchor_distances(lat)
        _, obj = project_to_probability(SignedLatticeMeasure(nu), lat)
        oracle = min(
            _bl_distance_oracle(nu, mu, rho) for mu in _simplex_grid(m, 40)
        )
        assert obj <= oracle + 1e-9
        assert obj >= oracle - 0.1  # grid resolution bound


def test_projection_flow_agrees_with_simplex():
    # the grid-graph flow (HiGHS) against the literal LP with l1 costs
    # (dense simplex); mu attains the objective
    rng = np.random.default_rng(5)
    for trial in range(20):
        m = int(rng.integers(2, 8))
        cand = np.stack(np.meshgrid(np.arange(-2, 3), np.arange(-2, 3), indexing="ij"), -1).reshape(-1, 2)
        lat = Lattice(
            delta=0.6,
            radius=2.0,
            d_prime=2,
            int_coords=cand[rng.choice(cand.shape[0], m, replace=False)],
        )
        nu = np.round(rng.normal(0.2, 0.5, m), 3)
        rho = anchor_distances(lat)
        _, o1 = bl_projection_lp_dense(nu, rho)
        mu, o2 = project_to_probability(SignedLatticeMeasure(nu), lat)
        assert o1 == pytest.approx(o2, abs=1e-7)
        assert _bl_distance_oracle(nu, mu.weights, rho) == pytest.approx(o2, abs=1e-7)


def test_projection_transit_nodes_stay_exact():
    # sparse hand-built lattices: most grid nodes on the shortest paths are
    # zero-mass transit nodes, which must neither change the distances nor
    # hold output mass
    rng = np.random.default_rng(6)
    for trial in range(8):
        m = int(rng.integers(6, 12))
        cand = np.stack(np.meshgrid(np.arange(-3, 4), np.arange(-3, 4), indexing="ij"), -1).reshape(-1, 2)
        lat = Lattice(
            delta=0.4,
            radius=1.6,
            d_prime=2,
            int_coords=cand[rng.choice(cand.shape[0], m, replace=False)],
        )
        nu = np.round(rng.normal(0.1, 0.5, m), 3)
        assert _grid_graph(lat)[0] > m
        _, dense_obj = bl_projection_lp_dense(nu, anchor_distances(lat))
        mu, grid_obj = project_to_probability(SignedLatticeMeasure(nu), lat)
        assert mu.weights.shape == (m,)
        assert dense_obj == pytest.approx(grid_obj, abs=1e-7)


@pytest.mark.parametrize("d_prime, delta", [(2, 0.3), (3, 0.4)])
def test_grid_graph_distance_is_l1(d_prime, delta):
    lat = build_lattice(1.0, delta, d_prime)
    n_nodes, anchor_node, tails, heads = _grid_graph(lat)
    assert n_nodes == lat.size  # a ball lattice has no transit nodes
    assert (anchor_node == np.arange(lat.size)).all()
    graph = coo_matrix((np.ones(tails.size), (tails, heads)), shape=(n_nodes, n_nodes))
    hops = shortest_path(graph, directed=False, unweighted=True)
    assert np.allclose(hops * lat.delta, anchor_distances(lat), rtol=0, atol=1e-12)


@pytest.mark.parametrize("d_prime", [2, 3])
def test_l1_objective_sandwiches_l2_objective(d_prime):
    # l2 <= l1 <= sqrt(d') l2 on every ground distance, slacks unchanged
    rng = np.random.default_rng(20 + d_prime)
    lat = build_lattice(1.0, 0.7, 2) if d_prime == 2 else build_lattice(0.5, 1.0, 3)
    assert 10 <= lat.size <= 40
    for trial in range(4):
        nu = np.round(rng.normal(1.0 / lat.size, 2.0 / lat.size, lat.size), 3)
        _, obj_l1 = project_to_probability(SignedLatticeMeasure(nu), lat)
        _, obj_l2 = bl_projection_lp_dense(nu, anchor_distances(lat, "l2"))
        assert obj_l2 <= obj_l1 + 1e-9
        assert obj_l1 <= math.sqrt(d_prime) * obj_l2 + 1e-9


def test_projection_closed_form_when_delta_at_least_two():
    rng = np.random.default_rng(12)
    for delta in (2.0, 2.5):
        lat = build_lattice(1.5, delta, 2)
        for trial in range(6):
            nu = np.round(rng.normal(0.15, 0.3, lat.size), 3)
            mu, obj = project_to_probability(SignedLatticeMeasure(nu), lat)
            rho = anchor_distances(lat)
            _, oracle = bl_projection_lp_dense(nu, rho)
            assert obj == pytest.approx(oracle, abs=1e-9)
            assert obj == pytest.approx(np.maximum(-nu, 0).sum() + abs(np.maximum(nu, 0).sum() - 1), abs=1e-12)
            assert _bl_distance_oracle(nu, mu.weights, rho) == pytest.approx(obj, abs=1e-7)


def test_closed_form_cuts_excess_from_smallest_cells():
    lat = Lattice(delta=2.0, radius=2.0, d_prime=1, int_coords=np.array([[-1], [0], [1], [2]]))
    mu, obj = project_to_probability(SignedLatticeMeasure(np.array([0.3, 0.6, 0.3, 0.2])), lat)
    # excess 0.4: all 0.2 of cell 3, then 0.2 of cell 0 (the lower index of the 0.3 tie)
    assert obj == pytest.approx(0.4, abs=1e-12)
    assert np.allclose(mu.weights, [0.1, 0.6, 0.3, 0.0], atol=1e-12)


def test_projection_output_is_probability_and_bounded_below():
    rng = np.random.default_rng(7)
    for trial in range(15):
        m = int(rng.integers(2, 5))
        ints = rng.choice(np.arange(-3, 4), size=(m, 1), replace=False)
        lat = Lattice(delta=0.5, radius=2.0, d_prime=1, int_coords=np.sort(ints, axis=0))
        nu = np.round(rng.normal(0.4, 0.7, m), 3)
        mu, obj = project_to_probability(SignedLatticeMeasure(nu), lat)
        assert (mu.weights >= -1e-12).all()
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert obj >= abs(nu.sum() - 1.0) - 1e-9  # constant test function bound


def test_measure_to_points_single_anchor():
    lat = Lattice(delta=0.5, radius=1.0, d_prime=1, int_coords=np.array([[1]]))
    pts = measure_to_points(ProbabilityLatticeMeasure(np.array([1.0])), lat, 5)
    assert pts.shape == (1, 5)
    assert (pts == 0.5).all()


def test_measure_to_points_tie_goes_to_lower_index():
    lat = Lattice(delta=0.5, radius=1.0, d_prime=1, int_coords=np.array([[0], [1]]))
    pts = measure_to_points(ProbabilityLatticeMeasure(np.array([0.5, 0.5])), lat, 3)
    assert pts.shape == (1, 3)
    assert (pts[0] == [0.0, 0.0, 0.5]).all()


def test_measure_to_points_total_is_target():
    rng = np.random.default_rng(8)
    lat = build_lattice(1.0, 0.4, 2)
    for trial in range(10):
        w = rng.random(lat.size)
        mu = ProbabilityLatticeMeasure(w / w.sum())
        pts = measure_to_points(mu, lat, 37)
        assert pts.shape == (2, 37)


def test_run_psmm_end_to_end_zero_noise_mass():
    gen = SeededGenerator(9)
    coords = (gen.random((2, 50)) - 0.5) * 1.2
    out, info = run_psmm(coords, 2.0, 1.0, 50, 6, gen.split("r"), zero_noise=True, delta_scale=2.0)
    assert out.shape[1] == 50
    assert info["projection_objective"] == pytest.approx(0.0, abs=1e-9)


def test_run_psmm_reproducible():
    gen_input = SeededGenerator(10)
    coords = (gen_input.random((2, 40)) - 0.5) * 1.0
    a, _ = run_psmm(coords, 1.5, 1.0, 40, 5, SeededGenerator(11), delta_scale=2.0)
    b, _ = run_psmm(coords, 1.5, 1.0, 40, 5, SeededGenerator(11), delta_scale=2.0)
    assert (a == b).all()
