import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

from lowdp.errors import (
    InvalidParameterError,
    InvalidRegimeError,
    LatticeTooLargeError,
    SolverError,
)
from lowdp.metrics import wasserstein1
from lowdp.noise import SeededGenerator
from lowdp.psmm import (
    Lattice,
    build_lattice,
    cell_counts,
    lattice_delta,
    measure_to_points,
    noisy_cell_counts,
    project_to_probability,
    run_psmm,
    _certified_objective,
    _excess_projection,
    _grid_graph,
    _saving_steps,
)
from oracles import (
    NoiselessGenerator,
    anchor_distances,
    bl_projection_grid_lp,
    bl_projection_lp_dense,
    largest_remainder_counts,
    projection_lp_by_vertex_enumeration,
)


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


@pytest.mark.parametrize("d_prime, delta", [(1, 0.05), (2, 0.3), (3, 0.25)])
def test_lattice_cap_refuses_before_enumerating(monkeypatch, d_prime, delta):
    lat = build_lattice(1.0, delta, d_prime)

    def enumerate_grid(*args, **kwargs):
        raise AssertionError("the anchors were enumerated")

    monkeypatch.setattr(np, "meshgrid", enumerate_grid)
    with pytest.raises(LatticeTooLargeError, match=f"about {lat.size} anchors"):
        build_lattice(1.0, delta, d_prime, cap=lat.size - 1)


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
    noisy = noisy_cell_counts(np.array([8, 2]), 1.0, NoiselessGenerator(1))
    assert noisy.dtype == np.int64
    assert np.allclose(noisy / 10, [0.8, 0.2])
    assert noisy.sum() / 10 == pytest.approx(1.0)


def test_signed_measure_mass_is_centered():
    gen = SeededGenerator(2)
    totals = []
    counts = np.array([5, 3, 2, 0, 0, 0])
    for t in range(400):
        totals.append(noisy_cell_counts(counts, 1.0, gen.split(t)).sum() / 10)
    assert abs(np.mean(totals) - 1.0) < 0.15  # noise is mean-zero


def _project(nu, lattice):
    """project_to_probability on a decimal nu (at most 3 places), as counts nu * 1000 of n = 1000."""
    return project_to_probability(np.rint(np.asarray(nu) * 1000).astype(np.int64), 1000, lattice)


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


def test_projection_identity_when_already_probability():
    lat = Lattice(delta=0.5, radius=1.0, d_prime=1, int_coords=np.array([[0], [1]]))
    nu = np.array([0.25, 0.75])
    mu, obj = _project(nu, lat)
    assert obj == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(mu, [0.25, 0.75], atol=1e-9)


def test_projection_mass_destruction_example():
    # two anchors at distance 0.5, nu = (0.7, 0.5): destroy 0.2 -> objective 0.2
    lat = Lattice(delta=0.5, radius=1.0, d_prime=1, int_coords=np.array([[0], [1]]))
    mu, obj = _project(np.array([0.7, 0.5]), lat)
    assert obj == pytest.approx(0.2, abs=1e-9)
    assert np.allclose(mu.sum(), 1.0, atol=1e-9)


def test_projection_mass_creation_example():
    lat = Lattice(delta=0.5, radius=1.0, d_prime=1, int_coords=np.array([[0], [1]]))
    mu, obj = _project(np.array([0.4, 0.4]), lat)
    assert obj == pytest.approx(0.2, abs=1e-9)


def test_projection_objective_matches_bfs_enumeration_oracle():
    rng = np.random.default_rng(3)
    for trial in range(6):
        m = int(rng.integers(2, 4))
        ints = rng.choice(np.arange(-2, 3), size=(m, 1), replace=False)
        lat = Lattice(delta=0.8, radius=2.0, d_prime=1, int_coords=np.sort(ints, axis=0))
        nu = np.round(rng.normal(0.3, 0.5, m), 2)
        _, obj = _project(nu, lat)
        rho = anchor_distances(lat)
        oracle = projection_lp_by_vertex_enumeration(nu, rho)
        assert obj == pytest.approx(oracle, abs=1e-7)
        assert bl_projection_lp_dense(nu, rho)[1] == pytest.approx(oracle, abs=1e-9)


def _dense_lp_instances():
    """(nu, lattice) pairs on a 5 x 5 grid: 20 with 2-7 anchors and 3-decimal nu,
    then 4 with 3 anchors and 2-decimal nu."""
    cand = np.stack(np.meshgrid(np.arange(-2, 3), np.arange(-2, 3), indexing="ij"), -1).reshape(-1, 2)
    rng = np.random.default_rng(5)
    for trial in range(20):
        m = int(rng.integers(2, 8))
        ints = cand[rng.choice(cand.shape[0], m, replace=False)]
        yield np.round(rng.normal(0.2, 0.5, m), 3), Lattice(delta=0.6, radius=2.0, d_prime=2, int_coords=ints)
    rng = np.random.default_rng(4)
    for trial in range(4):
        ints = cand[rng.choice(cand.shape[0], 3, replace=False)]
        yield np.round(rng.normal(0.3, 0.4, 3), 2), Lattice(delta=0.6, radius=2.0, d_prime=2, int_coords=ints)


def test_projection_flow_agrees_with_simplex():
    # the grid-graph flow phases against the literal LP with l1 costs
    # (dense, by HiGHS); mu attains the objective
    for nu, lat in _dense_lp_instances():
        rho = anchor_distances(lat)
        _, o1 = bl_projection_lp_dense(nu, rho)
        mu, o2 = _project(nu, lat)
        assert o1 == pytest.approx(o2, abs=1e-7)
        assert _bl_distance_oracle(nu, mu, rho) == pytest.approx(o2, abs=1e-7)


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
        mu, grid_obj = _project(nu, lat)
        assert mu.shape == (m,)
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
        _, obj_l1 = _project(nu, lat)
        _, obj_l2 = bl_projection_lp_dense(nu, anchor_distances(lat, "l2"))
        assert obj_l2 <= obj_l1 + 1e-9
        assert obj_l1 <= math.sqrt(d_prime) * obj_l2 + 1e-9


def test_projection_closed_form_when_delta_at_least_two():
    rng = np.random.default_rng(12)
    for delta in (2.0, 2.5):
        lat = build_lattice(1.5, delta, 2)
        for trial in range(6):
            nu = np.round(rng.normal(0.15, 0.3, lat.size), 3)
            mu, obj = _project(nu, lat)
            rho = anchor_distances(lat)
            _, oracle = bl_projection_lp_dense(nu, rho)
            assert obj == pytest.approx(oracle, abs=1e-9)
            assert obj == pytest.approx(np.maximum(-nu, 0).sum() + abs(np.maximum(nu, 0).sum() - 1), abs=1e-12)
            assert _bl_distance_oracle(nu, mu, rho) == pytest.approx(obj, abs=1e-7)


def test_closed_form_cuts_excess_from_smallest_cells():
    lat = Lattice(delta=2.0, radius=2.0, d_prime=1, int_coords=np.array([[-1], [0], [1], [2]]))
    mu, obj = _project(np.array([0.3, 0.6, 0.3, 0.2]), lat)
    # excess 0.4: all 0.2 of cell 3, then 0.2 of cell 0 (the lower index of the 0.3 tie)
    assert obj == pytest.approx(0.4, abs=1e-12)
    assert np.allclose(mu, [0.1, 0.6, 0.3, 0.0], atol=1e-12)


def _gate_instances():
    """100 seeded (counts, n, lattice) instances for the flow projection gate.

    Ball lattices with d' in {1, 2, 3} and delta from 0.15 to 2.5, including
    delta = 2 / l for l = 1..4; positive mass S+ below, at and above n, the
    last with a small excess (the move budget binds) and a large one; all
    counts <= 0; one anchor; sparse lattices with transit nodes; and the
    noisy counts of the golden PSMM configs.
    """
    rng = np.random.default_rng(13)
    deltas = [0.15, 0.25, 0.4, 0.5, 2 / 3, 0.8, 1.0, 1.3, 2.0, 2.5]
    instances = []
    for trial in range(84):
        d_prime, delta = 1 + trial % 3, deltas[trial % len(deltas)]
        reach = rng.uniform(1.0, 9.0 if d_prime == 1 else 3.5 if d_prime == 2 else 2.2)
        lat = build_lattice(max(delta * reach, delta / 2), delta, d_prime)
        counts = rng.integers(-4, 6, lat.size)
        positive = int(np.maximum(counts, 0).sum())
        mode = (trial // len(deltas)) % 5
        if mode == 4 or positive < 2:
            n = positive + int(rng.integers(0, 5)) + 1  # S+ < n
        elif mode == 3:
            n = positive  # S+ = n
        else:  # S+ > n: excess 1-2 (binding budget) or most of the mass
            n = positive - int(rng.integers(1, 3)) if mode < 2 else int(rng.integers(1, 3))
        instances.append((counts, n, lat))
    cand = np.stack(np.meshgrid(np.arange(-3, 4), np.arange(-3, 4), indexing="ij"), -1).reshape(-1, 2)
    for trial in range(10):  # transit nodes
        ints = cand[rng.choice(cand.shape[0], int(rng.integers(6, 12)), replace=False)]
        lat = Lattice(delta=0.4, radius=1.6, d_prime=2, int_coords=ints)
        counts = rng.integers(-5, 8, lat.size)
        instances.append((counts, max(int(np.maximum(counts, 0).sum()) - 3 * (trial % 3), 1), lat))
    lat = build_lattice(1.0, 0.5, 2)
    instances.append((-rng.integers(0, 4, lat.size), 7, lat))  # every nu <= 0
    for n in (3, 5, 9):
        instances.append((np.array([5]), n, Lattice(delta=0.5, radius=1.0, d_prime=1, int_coords=np.array([[1]]))))
    return instances


def _golden_psmm_instances(monkeypatch):
    """The (counts, n, lattice) that the golden PSMM configs project."""
    import test_golden
    from lowdp import psmm

    seen = []
    project = psmm.project_to_probability

    def record(counts, n, lattice):
        seen.append((counts, n, lattice))
        return project(counts, n, lattice)

    monkeypatch.setattr(psmm, "project_to_probability", record)
    for name in ("psmm-lp", "psmm-closed-form"):
        test_golden._run_pipeline(name)
    return seen


def test_flow_projection_matches_grid_lp_oracle(monkeypatch):
    instances = _gate_instances() + _golden_psmm_instances(monkeypatch)
    assert len(instances) == 100
    budget_binds = budget_free = 0
    for counts, n, lat in instances:
        mu, obj = project_to_probability(counts, n, lat)
        _, oracle = bl_projection_grid_lp(counts, n, lat)
        assert obj == pytest.approx(oracle, abs=1e-9)
        assert (mu >= 0).all() and mu.sum() == pytest.approx(1.0, abs=1e-12)
        if np.maximum(counts, 0).sum() < n:
            continue
        units = mu * n  # integral when S+ >= n
        assert np.abs(units - np.rint(units)).max() <= 1e-9 and np.rint(units).sum() == n
        if np.maximum(counts, 0).sum() == n:
            continue
        plan = _excess_projection(counts.astype(np.int64), n, lat)
        assert np.array_equal(plan.kept, np.rint(units)) and plan.objective == obj
        assert plan.phases <= _saving_steps(lat.delta)
        assert (plan.gap is None) == (_saving_steps(lat.delta) == 0)
        if plan.gap is not None:
            assert abs(plan.gap) <= 1e-9
            budget_binds += plan.destroyed.sum() == 0
            budget_free += plan.destroyed.sum() > 0 and np.abs(plan.flow).sum() > 0
    assert budget_binds >= 5 and budget_free >= 5


def test_saving_steps_at_exact_ratios():
    for steps in range(1, 5):
        assert _saving_steps(2.0 / steps) == steps - 1
    assert _saving_steps(0.15) == 13 and _saving_steps(2.5) == 0


def test_certificate_rejects_feasible_plans_that_are_not_optimal():
    # 3 units at the origin, a hole of 1 next to it, n = 1: one unit moves
    # one step, one is destroyed, one kept
    lat = build_lattice(1.0, 0.5, 2)
    graph = _grid_graph(lat)
    index = {tuple(z): i for i, z in enumerate(lat.int_coords)}
    counts = np.zeros(lat.size, dtype=np.int64)
    counts[index[(0, 0)]], counts[index[(1, 0)]] = 3, -1
    plan = _excess_projection(counts, 1, lat)
    assert plan.objective == pytest.approx(1.0 + lat.delta) and plan.phases == 1
    parts = (plan.destroyed, plan.created, plan.kept)
    edge = {(int(t), int(h)): e for e, (t, h) in enumerate(zip(graph[2], graph[3]))}

    def step(a, b):
        return edge[index[a], index[b]]

    # the same unit rerouted (0,0) -> (0,1) -> (1,1) -> (1,0): two steps longer
    detour = plan.flow.copy()
    detour[step((0, 0), (1, 0))] -= 1
    detour[step((0, 0), (0, 1))] += 1
    detour[step((0, 1), (1, 1))] += 1
    detour[step((1, 0), (1, 1))] -= 1
    with pytest.raises(SolverError, match="not optimal"):
        _certified_objective(graph, counts, 1, lat.delta, detour, *parts)
    # the unit destroyed and the hole created instead of the move
    destroyed, created = plan.destroyed.copy(), plan.created.copy()
    destroyed[index[(0, 0)]] += 1
    created[index[(1, 0)]] += 1
    with pytest.raises(SolverError, match="not optimal"):
        _certified_objective(graph, counts, 1, lat.delta, np.zeros_like(plan.flow), destroyed, created, plan.kept)
    # one unit more kept at the origin than it holds
    kept = plan.kept.copy()
    kept[index[(0, 0)]] += 1
    with pytest.raises(SolverError, match="not feasible"):
        _certified_objective(graph, counts, 1, lat.delta, plan.flow, plan.destroyed, plan.created, kept)


def test_projection_output_is_probability_and_bounded_below():
    rng = np.random.default_rng(7)
    for trial in range(15):
        m = int(rng.integers(2, 5))
        ints = rng.choice(np.arange(-3, 4), size=(m, 1), replace=False)
        lat = Lattice(delta=0.5, radius=2.0, d_prime=1, int_coords=np.sort(ints, axis=0))
        nu = np.round(rng.normal(0.4, 0.7, m), 3)
        mu, obj = _project(nu, lat)
        assert (mu >= -1e-12).all()
        assert mu.sum() == pytest.approx(1.0, abs=1e-9)
        assert obj >= abs(nu.sum() - 1.0) - 1e-9  # constant test function bound


def test_measure_to_points_single_anchor():
    lat = Lattice(delta=0.5, radius=1.0, d_prime=1, int_coords=np.array([[1]]))
    pts = measure_to_points(np.array([1.0]), lat, 5)
    assert pts.shape == (1, 5)
    assert (pts == 0.75).all()  # the centre of the cell [0.5, 1.0)


def test_measure_to_points_tie_goes_to_lower_index():
    lat = Lattice(delta=0.5, radius=1.0, d_prime=1, int_coords=np.array([[0], [1]]))
    pts = measure_to_points(np.array([0.5, 0.5]), lat, 3)
    assert pts.shape == (1, 3)
    assert (pts[0] == [0.25, 0.25, 0.75]).all()


def test_measure_to_points_recounts_to_its_own_cells():
    """A release counted again by ``cell_counts`` gives back the rounded
    counts: each point sits inside its cell, not on a face where the floor
    rounding of a lower corner can send it to the neighbouring cell or off
    the lattice."""
    rng = np.random.default_rng(21)
    for trial in range(300):
        d_prime = int(rng.integers(1, 4))
        radius = float(rng.uniform(0.3, 3.0))
        lat = build_lattice(radius, radius * float(rng.uniform(0.25, 2.0)), d_prime)
        w = rng.random(lat.size) * (rng.random(lat.size) < 0.5)
        w[rng.integers(lat.size)] += 0.1
        mu, m = w / w.sum(), int(rng.integers(1, 200))
        pts = measure_to_points(mu, lat, m)
        assert (cell_counts(pts, lat) == largest_remainder_counts(mu, m)).all(), trial


def test_measure_to_points_total_is_target():
    rng = np.random.default_rng(8)
    lat = build_lattice(1.0, 0.4, 2)
    for trial in range(10):
        w = rng.random(lat.size)
        mu = w / w.sum()
        pts = measure_to_points(mu, lat, 37)
        assert pts.shape == (2, 37)


def test_run_psmm_end_to_end_zero_noise_mass():
    coords = (SeededGenerator(9).random((2, 50)) - 0.5) * 1.2
    out, info = run_psmm(coords, 2.0, 1.0, 50, 6, NoiselessGenerator(9).split("r"), delta_scale=2.0)
    assert out.shape[1] == 50
    assert info["projection_objective"] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("d_prime", [1, 2, 3])
def test_noiseless_psmm_returns_points_at_a_cell_centre(d_prime):
    """With no noise, n points at the centre of one cell come back where
    they were: stage W1 0 (a lower-corner release is delta sqrt(d') / 2 off)."""
    n, radius, d = 50, 2.0, 6
    delta = lattice_delta(d, d_prime, 1.0, n) * 2.0
    cell = np.array([1, -2, 0][:d_prime])
    coords = np.repeat(((cell + 0.5) * delta)[:, None], n, axis=1)
    out, info = run_psmm(coords, radius, 1.0, n, d, NoiselessGenerator(12).split("r"), delta_scale=2.0)
    assert info["delta"] == delta
    assert out.shape == (d_prime, n)
    assert wasserstein1(coords, out, "l2") == pytest.approx(0.0, abs=1e-12)


def test_run_psmm_reproducible():
    gen_input = SeededGenerator(10)
    coords = (gen_input.random((2, 40)) - 0.5) * 1.0
    a, _ = run_psmm(coords, 1.5, 1.0, 40, 5, SeededGenerator(11), delta_scale=2.0)
    b, _ = run_psmm(coords, 1.5, 1.0, 40, 5, SeededGenerator(11), delta_scale=2.0)
    assert (a == b).all()
