import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import lowdp.metrics
from lowdp import PipelineConfig, generate, planted_subspace_dataset
from lowdp.cli import derive_seed
from lowdp.errors import InvalidParameterError, SizeOverflowError, SolverError
from lowdp.metrics import (
    DEFAULT_MAX_CELLS,
    DIAGNOSTIC_SLACK,
    ground_distances,
    projection_diagnostics,
    wasserstein1,
    wasserstein1_sampled,
    wasserstein2,
)
from lowdp.noise import SeededGenerator, sample_symmetric_laplace_matrix
from oracles import wasserstein1_bruteforce, wasserstein1_sampled_two_matrices


def test_identical_measures_have_zero_distance():
    pts = np.random.default_rng(0).random((3, 5))
    assert wasserstein1(pts, pts) == pytest.approx(0.0, abs=1e-12)
    assert wasserstein2(pts, pts) == pytest.approx(0.0, abs=1e-9)


def test_single_pair_transport_linf():
    p = np.array([[0.0], [0.0]])
    q = np.array([[0.3], [0.1]])
    assert wasserstein1(p, q, "linf") == pytest.approx(0.3, abs=1e-12)


def test_w2_two_point_masses():
    p = np.array([[0.0], [0.0]])
    q = np.array([[0.4], [0.0]])
    assert wasserstein2(p, q, "l2") == pytest.approx(0.4, abs=1e-12)


def test_flow_matches_permutation_oracle_6x6():
    # the default call (assignment) and detailed=True (transport LP) both
    # stay certified against brute force
    rng = np.random.default_rng(1)
    for _ in range(25):
        x = rng.random((2, 6))
        y = rng.random((2, 6))
        brute = wasserstein1_bruteforce(x, y, "linf")
        assert wasserstein1(x, y, "linf") == pytest.approx(brute, abs=1e-12)
        assert wasserstein1(x, y, "linf", detailed=True).value == pytest.approx(brute, abs=1e-12)


def test_flow_matches_oracle_unequal_weighted():
    # weights 3/4 and 1/4 on the atoms 0 and 1, as 3 copies of 0 and one of 1
    p = np.array([[0.0, 0.0, 0.0, 1.0]])
    q = np.array([[0.5]])
    # every unit must travel to 0.5: cost = 3/4 * 0.5 + 1/4 * 0.5 = 0.5
    assert wasserstein1(p, q, "l2") == pytest.approx(0.5, abs=1e-12)


def test_order_invariance():
    rng = np.random.default_rng(2)
    x = rng.random((3, 5))
    y = rng.random((3, 7))
    base = wasserstein1(x, y)
    for _ in range(3):
        px = rng.permutation(5)
        py = rng.permutation(7)
        assert wasserstein1(x[:, px], y[:, py]) == pytest.approx(base, abs=1e-12)


def test_plan_marginals_exact_in_scaled_integers():
    rng = np.random.default_rng(3)
    x = rng.random((2, 4))
    y = rng.random((2, 6))
    res = wasserstein1(x, y, detailed=True)
    a = np.array([int(Fraction(1, 4) * res.mass_scale)] * 4)
    b = np.array([int(Fraction(1, 6) * res.mass_scale)] * 6)
    assert (res.plan_units.sum(axis=1) == a).all()
    assert (res.plan_units.sum(axis=0) == b).all()


def test_kantorovich_duality_gap_vanishes():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.random((2, 5))
        y = rng.random((2, 8))
        res = wasserstein1(x, y, detailed=True)
        a = np.full(5, res.mass_scale // 5)
        b = np.full(8, res.mass_scale // 8)
        dual = (a @ res.potential_p + b @ res.potential_q) / res.mass_scale
        assert dual == pytest.approx(res.value, abs=1e-9)
        # dual feasibility: u_i + v_j <= c_ij (Lipschitz potential pair)
        slack = res.potential_p[:, None] + res.potential_q[None, :] - res.costs
        assert slack.max() <= 1e-9


def _exact_pmm_release(seed, trial):
    """Input and PMM release (n = 128, d = 10, m != n) of one exact-pmm benchmark trial."""
    gen = SeededGenerator(seed).split("perfbench").split("exact-pmm").split(f"input-{trial % 32}")
    x = planted_subspace_dataset(128, 10, 2, gen)[0].points
    config = PipelineConfig(
        epsilon=1.0, seed=derive_seed(seed, "exact-pmm", "trial", trial), d_prime=2, subroutine="pmm"
    )
    y = generate(x, config).points
    assert y.shape[1] != x.shape[1]
    return x, y


def _dual_value(res, x, y):
    a, b = res.mass_scale // x.shape[1], res.mass_scale // y.shape[1]
    return (a * res.potential_p.sum() + b * res.potential_q.sum()) / res.mass_scale


def test_potentials_exactly_feasible_on_tight_inputs():
    # two releases on which raw HiGHS row duals violated u_i + v_j <= c_ij
    # by 4.8e-8 and 5.7e-8
    for seed, trial in ((16, 64), (19, 44)):
        x, y = _exact_pmm_release(seed, trial)
        res = wasserstein1(x, y, "linf", detailed=True)
        slack = res.potential_p[:, None] + res.potential_q[None, :] - res.costs
        assert slack.max() <= 1e-12
        assert abs(_dual_value(res, x, y) - res.value) <= 1e-9


def test_transport_value_meets_its_dual_on_tight_input():
    # at HiGHS's default dual feasibility tolerance the LP stopped 4.47e-10
    # above the value of its exactly feasible dual on this release
    x, y = _exact_pmm_release(19, 44)
    res = wasserstein1(x, y, "linf", detailed=True)
    assert abs(_dual_value(res, x, y) - res.value) <= 1e-12


def _assignment_cases():
    rng = np.random.default_rng(14)
    yield rng.random((3, 40)), rng.random((3, 40))
    # tie-heavy: 40 atoms on at most 27 grid points against 40 on at most 8
    yield np.round(rng.random((3, 40)) * 2) / 2, np.round(rng.random((3, 40)))
    yield rng.random((1, 40)), rng.random((1, 40))


@pytest.mark.parametrize("metric", ["linf", "l2"])
def test_assignment_path_matches_lp(metric, monkeypatch):
    for x, y in _assignment_cases():
        lp_w1 = wasserstein1(x, y, metric, detailed=True).value
        # the transport LP on squared costs; wasserstein2 returns only the value
        lp_w2 = lowdp.metrics._transport(x, y, metric, 2, DEFAULT_MAX_CELLS, True).value ** 0.5
        with monkeypatch.context() as m:
            m.setattr(lowdp.metrics, "linprog", None)  # the default call must not reach the LP
            assert wasserstein1(x, y, metric) == pytest.approx(lp_w1, abs=1e-12)
            assert wasserstein2(x, y, metric) == pytest.approx(lp_w2, abs=1e-12)


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.random((2, 4))
        y = rng.random((2, 5))
        z = rng.random((2, 3))
        dxy = wasserstein1(x, y)
        dyx = wasserstein1(y, x)
        assert dxy == pytest.approx(dyx, abs=1e-10)
        assert dxy <= wasserstein1(x, z) + wasserstein1(z, y) + 1e-10
    x = rng.random((2, 4))
    assert wasserstein1(x, x[:, ::-1]) == pytest.approx(0.0, abs=1e-10)


def test_w1_not_greater_than_w2():
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = rng.random((2, 5))
        y = rng.random((2, 6))
        assert wasserstein1(x, y, "l2") <= wasserstein2(x, y, "l2") + 1e-10


def test_size_overflow_advises_sampled_mode():
    x = np.random.default_rng(7).random((2, 40))
    y = np.random.default_rng(8).random((2, 40))
    with pytest.raises(SizeOverflowError, match="sampled"):
        wasserstein1(x, y, max_cells=100)


def test_sampled_estimator_deterministic_and_close():
    rng = np.random.default_rng(9)
    x = rng.random((2, 400))
    y = rng.random((2, 400)) * 0.5
    a = wasserstein1_sampled(x, y, SeededGenerator(3), k=200, repeats=2)
    b = wasserstein1_sampled(x, y, SeededGenerator(3), k=200, repeats=2)
    assert a == b
    exact = wasserstein1(x, y)
    assert abs(a - exact) < 0.1 * max(exact, 1.0)


def test_sampled_estimator_pinned_value():
    # pinned bits: the estimate must not depend on how ground distances are summed
    rng = np.random.default_rng(13)
    x = rng.random((4, 700))
    y = np.round(rng.random((4, 500)) * 4) / 4
    value = wasserstein1_sampled(x, y, SeededGenerator(21), "linf", k=300, repeats=3)
    assert value.hex() == "0x1.4df4fa6b9d887p-3"


@pytest.mark.parametrize("collapses", [False, True], ids=["assignment", "collapsed"])
def test_sampled_estimator_past_the_set_size_is_exact(collapses, monkeypatch):
    # k is capped at the smaller set's size, and a draw of a whole set is a
    # permutation of it, so every repeat solves the exact instance
    rng = np.random.default_rng(35)
    x = rng.random((3, 40))
    y = np.repeat(rng.random((3, 5)), 8, axis=1) if collapses else rng.random((3, 40))
    exact = wasserstein1(x, y, "linf")
    if collapses:
        monkeypatch.setattr(lowdp.metrics, "linear_sum_assignment", _refuse)
    for k in (40, 41, 1024):
        value = wasserstein1_sampled(x, y, SeededGenerator(k), "linf", k=k, repeats=2)
        assert abs(value - exact) <= 1e-10


@pytest.mark.parametrize("bad", [{"k": 0}, {"k": -3}, {"repeats": 0}, {"k": 2.5}])
def test_sampled_estimator_rejects_nonpositive_sizes(bad):
    x = np.random.default_rng(17).random((2, 10))
    with pytest.raises(InvalidParameterError):
        wasserstein1_sampled(x, x, SeededGenerator(1), **bad)


@pytest.mark.parametrize("bad", [np.zeros((2, 0)), np.zeros((2, 3, 1))], ids=["empty", "3-D"])
@pytest.mark.parametrize(
    "distance",
    [wasserstein1, wasserstein2, lambda p, q: wasserstein1_sampled(p, q, SeededGenerator(0), k=2)],
    ids=["w1", "w2", "w1_sampled"],
)
def test_distances_reject_malformed_point_sets(distance, bad):
    good = np.zeros((2, 3))
    for p, q in ((bad, good), (good, bad)):
        with pytest.raises(InvalidParameterError, match="nonempty d x k matrix"):
            distance(p, q)


def test_sampled_estimator_rejects_non_finite_atoms():
    x = np.random.default_rng(17).random((2, 64))
    y = np.zeros((2, 64))
    y[0, :5] = np.nan
    with pytest.raises(InvalidParameterError, match="finite"):
        wasserstein1_sampled(x, y, SeededGenerator(1), k=64, repeats=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_rejected_on_every_path(bad):
    rng = np.random.default_rng(26)
    x, y = rng.random((2, 64)), rng.random((2, 64))
    y[1, 7] = bad
    tied = np.repeat(rng.random((2, 4)), 16, axis=1)
    tied[0, 0] = bad  # 5 distinct atoms in 64 draws: the collapsed path
    calls = [
        lambda: wasserstein1(x, y),  # assignment
        lambda: wasserstein1(x, y[:, :40]),  # transport LP
        lambda: wasserstein1(x, y, detailed=True),
        lambda: wasserstein2(x, y),
        lambda: wasserstein1_sampled(x, y, SeededGenerator(1), k=64, repeats=1),
        lambda: wasserstein1_sampled(x, tied, SeededGenerator(1), k=64, repeats=1),
    ]
    for call in calls:
        with pytest.raises(InvalidParameterError, match="finite"):
            call()


@pytest.mark.parametrize("metric", ["linf", "l2"])
@pytest.mark.parametrize("repeats", [2, 3, 5])
def test_concurrent_solves_equal_one_core_to_the_bit(metric, repeats, monkeypatch):
    rng = np.random.default_rng(27)
    distinct = (rng.random((3, 200)), rng.random((3, 200)))
    # one heavy atom plus 50 distinct ones: some k = 64 draws collapse, others do not
    heavy = np.concatenate([np.repeat(rng.random((3, 1)), 150, axis=1), rng.random((3, 50))], axis=1)
    mixed = (rng.random((3, 200)), heavy)
    calls = []

    def counting(costs):
        calls.append(costs.shape)
        return linear_sum_assignment(costs)

    monkeypatch.setattr(lowdp.metrics, "linear_sum_assignment", counting)
    for x, y in (distinct, mixed):
        calls.clear()
        value = wasserstein1_sampled(x, y, SeededGenerator(5), metric, k=64, repeats=repeats)
        solves = len(calls)
        with monkeypatch.context() as m:
            m.setattr(lowdp.metrics, "_usable_cores", lambda: 1)
            serial = wasserstein1_sampled(x, y, SeededGenerator(5), metric, k=64, repeats=repeats)
        assert value.hex() == serial.hex()
        assert len(calls) == 2 * solves
    # the last instance mixes collapsed repeats with assignment repeats
    assert 0 < solves < repeats


def _sampled_instances():
    """(x, y, k): distinct atoms (assignment), a 4-atom side (collapse), and a
    mix where some draws collapse and others do not."""
    rng = np.random.default_rng(30)
    yield rng.random((3, 700)), rng.random((3, 600)), 512
    yield rng.random((5, 300)), rng.random((5, 300)), 100  # partial jitter and pair blocks
    yield rng.random((2, 40)), rng.random((2, 50)), 1
    yield rng.random((3, 600)), np.repeat(rng.random((3, 4)), 150, axis=1), 256
    heavy = np.concatenate([np.repeat(rng.random((3, 1)), 150, axis=1), rng.random((3, 50))], axis=1)
    yield rng.random((3, 200)), heavy, 64


@pytest.mark.parametrize("metric", ["linf", "l2"])
def test_sampled_estimator_equals_the_two_matrix_path_to_the_bit(metric):
    repeats = lowdp.metrics._usable_cores() + 2
    for x, y, k in _sampled_instances():
        value = wasserstein1_sampled(x, y, SeededGenerator(k), metric, k=k, repeats=repeats)
        expected = wasserstein1_sampled_two_matrices(x, y, SeededGenerator(k), metric, k=k, repeats=repeats)
        assert value.hex() == expected.hex()


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_sampled_solves_in_flight_follow_the_core_count(cores, monkeypatch):
    rng = np.random.default_rng(28)
    x, y = rng.random((3, 200)), rng.random((3, 200))
    workers = min(5, cores)
    lock = threading.Lock()
    flight = {"now": 0, "peak": 0, "calls": 0}
    threads = set()
    # the first `workers` solves wait for one another: they can only all
    # return if each runs in its own thread at the same time
    barrier = threading.Barrier(workers, timeout=30)

    def recorder(costs):
        with lock:
            flight["now"] += 1
            flight["peak"] = max(flight["peak"], flight["now"])
            flight["calls"] += 1
            first = flight["calls"] <= workers
            threads.add(threading.get_ident())
        try:
            if first:
                barrier.wait()
            return linear_sum_assignment(costs)
        finally:
            with lock:
                flight["now"] -= 1

    monkeypatch.setattr(lowdp.metrics, "_usable_cores", lambda: cores)
    monkeypatch.setattr(lowdp.metrics, "linear_sum_assignment", recorder)
    wasserstein1_sampled(x, y, SeededGenerator(29), k=64, repeats=5)
    assert flight["calls"] == 5
    assert flight["peak"] == workers
    assert len(threads) == workers


def _tie_heavy_instances():
    """Seeded (units, atoms, counts, metric): k unit draws against K atoms."""
    rng = np.random.default_rng(18)
    for trial in range(120):
        k = int(rng.integers(1, 60))
        d = 1 if trial % 4 == 0 else int(rng.integers(2, 5))
        if trial % 10 == 0:
            n_atoms = 1
        elif trial % 10 == 1:
            n_atoms = k
        else:
            n_atoms = int(rng.integers(1, min(k, 12) + 1))
        # grid coordinates make many exact cost ties
        atoms = np.unique(np.round(rng.random((d, n_atoms)) * 3) / 3, axis=1)
        n_atoms = atoms.shape[1]
        if n_atoms > k:
            continue
        counts = np.bincount(np.concatenate([np.arange(n_atoms), rng.integers(0, n_atoms, k - n_atoms)]))
        units = np.round(rng.random((d, k)) * 4) / 4
        yield units, atoms, counts, "linf" if trial % 2 else "l2"


def _expanded_assignment(units, atoms, counts, metric):
    """W1 of the k draws against the atoms repeated by count, unjittered k x k assignment."""
    costs = ground_distances(units, np.repeat(atoms, counts, axis=1), metric)
    rows, cols = linear_sum_assignment(costs)
    return costs[rows, cols].mean()


def test_atom_transport_matches_expanded_assignment():
    sizes = []
    for units, atoms, counts, metric in _tie_heavy_instances():
        sizes.append((units.shape[1], counts.size))
        costs = ground_distances(units, atoms, metric)
        atom, v = lowdp.metrics._transport_to_atoms(costs, counts)
        k = units.shape[1]
        assert (np.bincount(atom, minlength=counts.size) == counts).all()
        primal = costs[np.arange(k), atom].mean()
        assert abs(primal - _expanded_assignment(units, atoms, counts, metric)) <= 1e-12
        # u is the c-transform of v, so u_i <= c_ij - v_j holds exactly
        u = (costs - v).min(axis=1)
        assert (u[:, None] <= costs - v).all()
        assert abs(primal - (u.mean() + counts @ v / k)) <= 1e-12
    assert len(sizes) >= 100
    assert any(n_atoms == 1 < k for k, n_atoms in sizes) and any(n_atoms == k > 1 for k, n_atoms in sizes)


def _psmm_sized_instances(k, metric):
    """Seeded (units, atoms, counts): k draws against a few dozen grid atoms, as
    PSMM releases give, plus one atom, k atoms and draws that all prefer one atom."""
    rng = np.random.default_rng(k)
    units = np.round(rng.random((3, k)) * 8) / 8
    for n_atoms in (20, 40, 64):
        atoms = np.unique(np.round(rng.random((3, n_atoms)) * 4) / 4, axis=1)
        counts = np.bincount(np.concatenate([np.arange(atoms.shape[1]), rng.integers(0, atoms.shape[1], k - atoms.shape[1])]))
        yield units, atoms, counts
    if k > 256:
        return
    yield units, units[:, :1], np.array([k])
    yield units, units, np.ones(k, dtype=np.int64)
    # every draw is nearest to the atom at the origin, which holds one of them
    atoms = np.unique(np.round(rng.random((3, 40)) * 4) / 4 + 0.25, axis=1)
    atoms = np.concatenate([np.zeros((3, 1)), atoms[:, atoms.min(axis=0) > 0]], axis=1)
    near = np.round(rng.random((3, k)) * 0.1, 2)
    counts = np.bincount(np.concatenate([np.arange(atoms.shape[1]), rng.integers(1, atoms.shape[1], k - atoms.shape[1])]))
    assert (ground_distances(near, atoms, metric).argmin(axis=1) == 0).all() and counts[0] == 1
    yield near, atoms, counts


@pytest.mark.parametrize("metric", ["linf", "l2"])
@pytest.mark.parametrize("k", [256, 1024])
def test_atom_transport_matches_expanded_assignment_at_psmm_size(k, metric):
    for units, atoms, counts in _psmm_sized_instances(k, metric):
        costs = ground_distances(units, atoms, metric)
        atom, v = lowdp.metrics._transport_to_atoms(costs, counts)
        assert (np.bincount(atom, minlength=counts.size) == counts).all()
        primal = costs[np.arange(k), atom].mean()
        assert abs(primal - _expanded_assignment(units, atoms, counts, metric)) <= 1e-12
        u = (costs - v).min(axis=1)
        assert (u[:, None] <= costs - v).all()
        assert abs(primal - (u.mean() + counts @ v / k)) <= 1e-12


def test_atom_transport_matches_permutation_oracle():
    rng = np.random.default_rng(19)
    for trial in range(60):
        k = int(rng.integers(1, 8))
        metric = "linf" if trial % 2 else "l2"
        units = np.round(rng.random((2, k)) * 2) / 2
        atoms, counts = np.unique(np.round(rng.random((2, k)) * 2) / 2, axis=1, return_counts=True)
        costs = ground_distances(units, atoms, metric)
        atom, _ = lowdp.metrics._transport_to_atoms(costs, counts)
        oracle = wasserstein1_bruteforce(units, np.repeat(atoms, counts, axis=1), metric)
        assert abs(costs[np.arange(k), atom].mean() - oracle) <= 1e-12


def _sampled_assignment_reference(x, y, seed, metric, k, repeats):
    """The estimator's own draws, each pair solved by the unjittered k x k assignment."""
    values = []
    for rep in range(repeats):
        sub = SeededGenerator(seed).split(f"w1-sample-{rep}")
        xs = lowdp.metrics._draw_atoms(x, k, sub.split("p"))
        ys = lowdp.metrics._draw_atoms(y, k, sub.split("q"))
        costs = ground_distances(xs, ys, metric)
        rows, cols = linear_sum_assignment(costs)
        values.append(costs[rows, cols].mean())
    return float(np.mean(values))


def _refuse(*args, **kwargs):
    raise AssertionError("the assignment solver must not run on collapsed draws")


@pytest.mark.parametrize("metric", ["linf", "l2"])
def test_sampled_estimator_collapses_tie_heavy_draws(metric, monkeypatch):
    rng = np.random.default_rng(20)
    x = rng.random((3, 600))
    y = np.repeat(rng.random((3, 4)), 150, axis=1)  # 4 distinct atoms
    # the collapsed side may be either measure
    for p, q in ((x, y), (y, x)):
        expected = _sampled_assignment_reference(p, q, 22, metric, 256, 2)
        with monkeypatch.context() as m:
            m.setattr(lowdp.metrics, "linear_sum_assignment", _refuse)
            value = wasserstein1_sampled(p, q, SeededGenerator(22), metric, k=256, repeats=2)
        assert abs(value - expected) <= 1e-12


def test_sampled_estimator_keeps_assignment_on_distinct_atoms(monkeypatch):
    rng = np.random.default_rng(21)
    x, y = rng.random((3, 300)), rng.random((3, 300))
    calls = []

    def counting(costs):
        calls.append(costs.shape)
        return linear_sum_assignment(costs)

    monkeypatch.setattr(lowdp.metrics, "linear_sum_assignment", counting)
    wasserstein1_sampled(x, y, SeededGenerator(23), k=128, repeats=3)
    assert calls == [(128, 128)] * 3


@pytest.mark.parametrize("collapses", [True, False], ids=["collapsed", "assignment"])
@pytest.mark.parametrize(
    "metric, y_dim, message",
    [("l1", 3, "unknown ground metric"), ("linf", 2, "different ambient dimensions")],
    ids=["metric", "dimension"],
)
def test_sampled_estimator_checks_metric_and_dimension_on_both_paths(collapses, metric, y_dim, message):
    rng = np.random.default_rng(32)
    x = rng.random((3, 64))
    y = np.repeat(rng.random((y_dim, 4)), 16, axis=1) if collapses else rng.random((y_dim, 64))
    with pytest.raises(InvalidParameterError, match=message):
        wasserstein1_sampled(x, y, SeededGenerator(2), metric, k=64, repeats=1)


@pytest.mark.parametrize("k", [2, 40])
def test_sampled_estimator_on_zero_dimensional_points(k):
    # every draw of 0-coordinate points is one atom: k = 2 takes the assignment, k = 40 collapses
    points = np.zeros((0, 50))
    for metric in ("linf", "l2"):
        assert wasserstein1_sampled(points, points, SeededGenerator(3), metric, k=k, repeats=2) == 0.0


def _draw_with_atoms(rng, k, n_atoms, shared_first):
    """k columns over n_atoms distinct atoms, shuffled; shared_first puts
    every atom on one first coordinate."""
    atoms = rng.random((3, n_atoms))
    if shared_first:
        atoms[0] = 0.5
    draw = np.concatenate([atoms, atoms[:, rng.integers(0, n_atoms, k - n_atoms)]], axis=1)
    return draw[:, rng.permutation(k)]


def _collapse_reference(xs, ys, k):
    """The path rule: the draw with fewer distinct atoms (ys on a tie) is
    collapsed when K * _COLLAPSE_RATIO <= k, else None."""
    ux, x_counts = np.unique(xs, axis=1, return_counts=True)
    uy, y_counts = np.unique(ys, axis=1, return_counts=True)
    units, atoms, counts = (ys, ux, x_counts) if ux.shape[1] < uy.shape[1] else (xs, uy, y_counts)
    return (units, atoms, counts) if atoms.shape[1] * lowdp.metrics._COLLAPSE_RATIO <= k else None


def test_collapse_choice_follows_the_path_rule():
    rng = np.random.default_rng(33)
    for k in (16, 64):
        sizes = (1, k // 8, k // 4, k // 4 + 1, k // 2, k)
        draws = [_draw_with_atoms(rng, k, size, shared) for size in sizes for shared in (False, True)]
        for xs in draws:
            for ys in draws:
                got, expected = lowdp.metrics._collapse(xs, ys, k), _collapse_reference(xs, ys, k)
                assert (got is None) == (expected is None)
                if got is not None:
                    assert got[0] is expected[0]
                    assert np.array_equal(got[1], expected[1]) and np.array_equal(got[2], expected[2])


def test_sampled_estimator_checks_the_atom_transport_dual(monkeypatch):
    # two atoms on each side: every draw of 16 collapses
    x = np.array([[0.0, 0.0, 1.0, 1.0] * 8])
    y = np.array([[0.0, 1.0, 0.0, 1.0] * 8])

    def crossed(costs, counts):
        # every draw sent to its farther atom: the plan costs 1, its dual 0
        return costs.argmax(axis=1), np.zeros(costs.shape[1])

    monkeypatch.setattr(lowdp.metrics, "_transport_to_atoms", crossed)
    with pytest.raises(SolverError, match="dual"):
        wasserstein1_sampled(x, y, SeededGenerator(24), k=16, repeats=1)


def test_ground_distances_match_broadcast_reference():
    rng = np.random.default_rng(16)
    x, y = rng.random((10, 30)), rng.random((10, 20))
    diff = x.T[:, None, :] - y.T[None, :, :]
    assert np.array_equal(ground_distances(x, y, "linf"), np.abs(diff).max(axis=2))
    ref = np.sqrt((diff * diff).sum(axis=2))
    assert (np.abs(ground_distances(x, y, "l2") - ref) <= 1e-15 * ref).all()
    with pytest.raises(InvalidParameterError):
        ground_distances(x, y[:9], "linf")


@pytest.mark.parametrize("metric", ["linf", "l2"])
def test_ground_distances_symmetric_to_the_bit(metric):
    rng = np.random.default_rng(30)
    for d in (1, 3, 10, 37):
        x, y = rng.standard_normal((d, 50)), np.round(rng.random((d, 40)) * 4) / 4
        assert np.array_equal(ground_distances(x, y, metric), ground_distances(y, x, metric).T)


def test_ground_distance_metrics():
    x = np.array([[0.0], [0.0]])
    y = np.array([[3.0], [4.0]])
    assert ground_distances(x, y, "linf")[0, 0] == 4.0
    assert ground_distances(x, y, "l2")[0, 0] == 5.0
    with pytest.raises(InvalidParameterError):
        ground_distances(x, y, "manhattan")


def _kernel_instances():
    """(x, y) pairs at d = 1 to 50: normal draws, draws spread over 10 orders
    of magnitude, and grid points with many exact ties and zero differences."""
    rng = np.random.default_rng(31)
    for d in (1, 2, 3, 8, 10, 50):
        yield rng.standard_normal((d, 40)), rng.standard_normal((d, 30))
        yield rng.standard_normal((d, 40)) * 10.0 ** rng.integers(-5, 6, (d, 1)), rng.random((d, 30))
        yield np.round(rng.random((d, 40)) * 4) / 4, np.round(rng.random((d, 30)) * 4) / 4


@pytest.mark.parametrize("metric", ["linf", "l2"])
def test_folded_distances_equal_cdist_to_the_bit(metric):
    for x, y in _kernel_instances():
        full = ground_distances(x, y, metric)
        folded = lowdp.metrics._folded_distances(x[:, :, None], y[:, None, :], metric)
        assert folded.shape == full.shape and np.array_equal(folded, full)
        pairs = lowdp.metrics._folded_distances(x[:, :30], y, metric)
        assert np.array_equal(pairs, np.diagonal(full))


def _top_eigenvectors_of(matrix, d_prime):
    w, v = np.linalg.eigh(matrix)
    return v[:, ::-1][:, :d_prime]


def test_diagnostics_zero_noise_exact_subspace():
    rng = np.random.default_rng(10)
    u, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    z = u @ rng.standard_normal((2, 40))
    basis = _top_eigenvectors_of(z @ z.T / 40, 2)
    report = projection_diagnostics(z @ z.T / 40, np.zeros((6, 6)), basis, 2)
    assert report.residual < 1e-12
    assert report.stability_ok and report.weyl_ok


def test_diagnostics_zero_noise_residual_equals_tail():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((5, 30))
    basis = _top_eigenvectors_of(z @ z.T / 30, 2)
    report = projection_diagnostics(z @ z.T / 30, np.zeros((5, 5)), basis, 2)
    assert report.residual == pytest.approx(report.tail, abs=1e-9)


def test_diagnostics_hold_on_random_noisy_instances():
    rng = np.random.default_rng(12)
    gen = SeededGenerator(77)
    for trial in range(30):
        d = int(rng.integers(3, 9))
        n = int(rng.integers(d + 1, 40))
        d_prime = int(rng.integers(1, d))
        z = rng.random((d, n)) - 0.5
        noise = sample_symmetric_laplace_matrix(d, 0.1, gen.split(f"a{trial}"))
        basis = _top_eigenvectors_of(z @ z.T / n + noise, d_prime)
        report = projection_diagnostics(z @ z.T / n, noise, basis, d_prime)
        assert report.stability_ok
        assert report.weyl_ok


def test_diagnostics_gram_residual_matches_direct_residual():
    # criterion-3-style instances: the d x d trace identity against the d x n residual
    rng = np.random.default_rng(34)
    gen = SeededGenerator(34)
    for trial in range(200):
        d = int(rng.integers(3, 13))
        d_prime = int(rng.integers(1, d))
        n = int(rng.integers(d + 2, 80))
        z = (rng.random((d, n)) - 0.5) * 10.0 ** rng.uniform(-1.5, 0.5)
        noise = sample_symmetric_laplace_matrix(d, 10.0 ** rng.uniform(-3.0, 0.0), gen.split(f"a{trial}"))
        perturbed = z @ z.T / n + noise
        basis = np.linalg.eigh((perturbed + perturbed.T) / 2)[1][:, ::-1][:, :d_prime]
        report = projection_diagnostics(z @ z.T / n, noise, basis, d_prime)
        direct = float(np.linalg.norm(z - basis @ (basis.T @ z)) ** 2 / n)
        assert report.residual == pytest.approx(direct, rel=1e-12, abs=0.0)
        bound = report.tail + 2.0 * d_prime * report.noise_norm + DIAGNOSTIC_SLACK
        assert report.stability_ok == (direct <= bound)
        clean = (z @ z.T / n + (z @ z.T / n).T) / 2.0
        shift = np.abs(np.linalg.eigvalsh(clean)[::-1] - np.linalg.eigvalsh(clean + noise)[::-1])[:d_prime].max()
        assert report.weyl_ok == (shift <= report.noise_norm + DIAGNOSTIC_SLACK)
