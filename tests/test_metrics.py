from fractions import Fraction

import numpy as np
import pytest

import lowdp.metrics
from lowdp import PipelineConfig, generate, planted_subspace_dataset
from lowdp.cli import derive_seed
from lowdp.errors import InvalidParameterError, SizeOverflowError
from lowdp.metrics import (
    EmpiricalMeasure,
    ground_distances,
    projection_diagnostics,
    wasserstein1,
    wasserstein1_sampled,
    wasserstein2,
)
from lowdp.noise import SeededGenerator, sample_symmetric_laplace_matrix
from oracles import wasserstein1_bruteforce


def test_measure_weight_validation():
    with pytest.raises(InvalidParameterError):
        EmpiricalMeasure(np.zeros((2, 2)), weights=(Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(InvalidParameterError):
        EmpiricalMeasure(np.zeros((2, 2)), weights=(Fraction(3, 2), Fraction(-1, 2)))
    m = EmpiricalMeasure(np.zeros((2, 3)))
    assert sum(m.weights) == 1


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
    # 2 x 1 instance solvable by hand: split mass to the cheaper target first
    p = EmpiricalMeasure(np.array([[0.0, 1.0]]), weights=(Fraction(3, 4), Fraction(1, 4)))
    q = EmpiricalMeasure(np.array([[0.5]]))
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
    assert np.abs(res.plan_units - res.plan * res.mass_scale).max() < 1e-6


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
        lp_w2 = wasserstein2(x, y, metric, detailed=True).value
        with monkeypatch.context() as m:
            m.setattr(lowdp.metrics, "linprog", None)  # the default call must not reach the LP
            assert wasserstein1(x, y, metric) == pytest.approx(lp_w1, abs=1e-12)
            assert wasserstein2(x, y, metric) == pytest.approx(lp_w2, abs=1e-12)


def test_explicit_equal_weights_take_uniform_path(monkeypatch):
    rng = np.random.default_rng(15)
    x, y = rng.random((2, 5)), rng.random((2, 5))
    p = EmpiricalMeasure(x, weights=[Fraction(1, 5)] * 5)
    q = EmpiricalMeasure(y, weights=["1/5"] * 5)
    assert p.uniform and q.uniform
    assert not EmpiricalMeasure(x, weights=[Fraction(1, 4)] * 3 + [Fraction(1, 8)] * 2).uniform
    expected = wasserstein1(x, y, detailed=True).value
    monkeypatch.setattr(lowdp.metrics, "linprog", None)
    assert wasserstein1(p, q) == pytest.approx(expected, abs=1e-12)


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


def test_ground_distances_match_broadcast_reference():
    rng = np.random.default_rng(16)
    x, y = rng.random((10, 30)), rng.random((10, 20))
    diff = x.T[:, None, :] - y.T[None, :, :]
    assert np.array_equal(ground_distances(x, y, "linf"), np.abs(diff).max(axis=2))
    ref = np.sqrt((diff * diff).sum(axis=2))
    assert (np.abs(ground_distances(x, y, "l2") - ref) <= 1e-15 * ref).all()
    with pytest.raises(InvalidParameterError):
        ground_distances(x, y[:9], "linf")


def test_ground_distance_metrics():
    x = np.array([[0.0], [0.0]])
    y = np.array([[3.0], [4.0]])
    assert ground_distances(x, y, "linf")[0, 0] == 4.0
    assert ground_distances(x, y, "l2")[0, 0] == 5.0
    with pytest.raises(InvalidParameterError):
        ground_distances(x, y, "manhattan")


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
        report = projection_diagnostics(z @ z.T / n, noise, basis, d_prime, slack=1e-9)
        direct = float(np.linalg.norm(z - basis @ (basis.T @ z)) ** 2 / n)
        assert report.residual == pytest.approx(direct, rel=1e-12, abs=0.0)
        bound = report.tail + 2.0 * d_prime * report.noise_norm + report.slack
        assert report.stability_ok == (direct <= bound)
        clean = (z @ z.T / n + (z @ z.T / n).T) / 2.0
        shift = np.abs(np.linalg.eigvalsh(clean)[::-1] - np.linalg.eigvalsh(clean + noise)[::-1])[:d_prime].max()
        assert report.weyl_ok == (shift <= report.noise_norm + report.slack)
