"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every test uses fixed seeds, so the whole suite is deterministic.  The two
scaling experiments (criteria 1 and 2) are the slow ones; everything else
runs in seconds.
"""

import json
import sys

import numpy as np
import pytest

from lowdp.audit import audit_mechanism
from lowdp.cli import _planted_trial, _summarize, write_points_csv
from lowdp.cli import main as cli_main
from lowdp.metrics import projection_diagnostics, wasserstein1
from lowdp.noise import SeededGenerator, sample_symmetric_laplace_matrix
from lowdp.pca import centered_covariance
from lowdp.pipeline import PipelineConfig, generate
from lowdp.planted import planted_subspace_dataset
from lowdp.pmm import build_partition, depth_and_scales, enforce_consistency, max_leaf_side, noisy_counts, run_pmm
from lowdp.psmm import Lattice, project_to_probability
from oracles import (
    NoiselessGenerator,
    anchor_distances,
    leaf_centers,
    projection_lp_by_vertex_enumeration,
    wasserstein1_bruteforce,
)


def _report(number, passed, detail):
    mark = "PASS" if passed else "FAIL"
    print(f"[{mark}] criterion {number}: {detail}", file=sys.stderr)
    return passed


def _scaling_experiment(sizes, trials, d, d_prime, subroutine, **cfg_kw):
    """Criteria 1-2's seeds on the sweep's protocol at eps = 1: returns the
    stage slope, the end-to-end slope (sup-metric, always sampled at k <= 1024)
    and the stage curve [(n, mean stage W1)]."""
    rows = [
        _planted_trial(
            n, d, d_prime,
            PipelineConfig(epsilon=1.0, d_prime=d_prime, subroutine=subroutine, seed=1000 + 7 * t + n, **cfg_kw),
            SeededGenerator(hash((n, t)) & 0xFFFF).split("data"), SeededGenerator(55 + t), SeededGenerator(5 + t),
            "linf", 1024, 2, max_cells=0,
        )
        for n in sizes
        for t in range(trials)
    ]
    summary = _summarize(rows)
    curve = [(group["n"], group["mean_stage_w1"]) for group in summary["groups"]]
    return summary["stage_slopes"][str(d_prime)], summary["slopes"][str(d_prime)], curve


@pytest.mark.slow
def test_criterion_1_pmm_scaling_law():
    """Planted d'=2 subspace of [0,1]^10, eps=1, n up to 2^16, 10 trials, PMM:
    fitted slope of log mean-W1 against log(eps n) within [-0.65, -0.35].

    The asserted W1 is the mechanism-stage quantity the protocol isolates
    (projected input coordinates vs synthetic coordinates); the end-to-end
    slope is shallower at these dimensions because the fixed-rate covariance
    noise saturates the projection over most of the grid, and is reported
    alongside for context.
    """
    slope, end_slope, curve = _scaling_experiment([2**10, 2**12, 2**14, 2**16], 10, 10, 2, "pmm")
    detail = (
        f"PMM scaling slope {slope:.3f} (band [-0.65, -0.35], target -1/2); "
        f"curve {[(n, round(w, 4)) for n, w in curve]}; end-to-end slope {end_slope:.3f}"
    )
    assert _report(1, -0.65 <= slope <= -0.35, detail)


@pytest.mark.slow
def test_criterion_2_psmm_scaling_law():
    """Same protocol with d'=3 and PSMM (d=8, n up to 2^14): slope within
    [-0.48, -0.20].

    The lattice uses the ball-radius spacing rule with a constant multiple
    (recorded in provenance); the spacing still scales exactly like
    (eps n)^(-1/3), and the literal spacing builds about 140,000 anchors at
    n = 2^14, 41 times the 3,407 that delta_scale=4 gives.
    """
    slope, end_slope, curve = _scaling_experiment(
        [2**10, 2**12, 2**14], 10, 8, 3, "psmm", delta_mode="proof", delta_scale=4.0
    )
    detail = (
        f"PSMM scaling slope {slope:.3f} (band [-0.48, -0.20], target -1/3); "
        f"curve {[(n, round(w, 4)) for n, w in curve]}; end-to-end slope {end_slope:.3f}"
    )
    assert _report(2, -0.48 <= slope <= -0.20, detail)


def test_criterion_3_projection_stability_invariants():
    """100 random (Z, A) instances: the projection-stability inequality and
    the eigenvalue-shift bound hold with 1e-9 slack."""
    rng = np.random.default_rng(33)
    gen = SeededGenerator(33)
    all_ok = True
    for trial in range(100):
        d = int(rng.integers(3, 13))
        d_prime = int(rng.integers(1, d))
        n = int(rng.integers(d + 2, 80))
        scale = 10.0 ** rng.uniform(-1.5, 0.5)
        z = (rng.random((d, n)) - 0.5) * scale
        sigma = 10.0 ** rng.uniform(-3.0, 0.0)
        noise = sample_symmetric_laplace_matrix(d, sigma, gen.split(f"a{trial}"))
        perturbed = z @ z.T / n + noise
        basis = np.linalg.eigh((perturbed + perturbed.T) / 2)[1][:, ::-1][:, :d_prime]
        report = projection_diagnostics(z @ z.T / n, noise, basis, d_prime, slack=1e-9)
        all_ok &= report.stability_ok and report.weyl_ok
    assert _report(3, all_ok, "stability + eigenvalue-shift bounds on 100 random instances")


def test_criterion_4_covariance_sensitivity():
    """200 random neighboring pairs: entrywise covariance change <= 6/n."""
    rng = np.random.default_rng(44)
    worst = 0.0
    for trial in range(200):
        d = int(rng.integers(2, 11))
        n = int(rng.integers(50, 400))
        if trial % 2 == 0:
            pts = rng.random((d, n))
            replacement = rng.random(d)
        else:
            # corner-heavy pairs push toward the worst-case sensitivity
            pts = rng.integers(0, 2, (d, n)).astype(np.float64)
            replacement = 1.0 - pts[:, 0]
        other = pts.copy()
        other[:, int(rng.integers(n))] = replacement
        diff = np.abs(centered_covariance(pts) - centered_covariance(other))
        worst = max(worst, float(diff.max()) * n)
    assert _report(4, worst <= 6.0 + 1e-9, f"max n * |M - M'|_inf = {worst:.4f} (bound 6)")


def test_criterion_5_w1_flow_equals_bruteforce():
    """100 random small instances: flow W1 equals the permutation oracle to 1e-12."""
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(100):
        k = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        metric = "linf" if trial % 2 == 0 else "l2"
        x = rng.random((d, k))
        y = rng.random((d, k))
        flow = wasserstein1(x, y, metric)
        brute = wasserstein1_bruteforce(x, y, metric)
        worst = max(worst, abs(flow - brute))
    assert _report(5, worst <= 1e-12, f"max |flow - permutation oracle| = {worst:.2e}")


def test_criterion_6_lp_projection_optimality():
    """50 random signed measures on <= 4 anchors: LP objective matches the
    brute-force oracle (l1 anchor distances) to 1e-7, output is a
    probability vector, and the objective dominates |sum(nu) - 1|."""
    rng = np.random.default_rng(66)
    worst_gap = 0.0
    all_ok = True
    for trial in range(50):
        m = int(rng.integers(2, 5))
        d_prime = int(rng.integers(1, 3))
        grid = np.stack(
            np.meshgrid(*([np.arange(-2, 3)] * d_prime), indexing="ij"), -1
        ).reshape(-1, d_prime)
        ints = grid[rng.choice(grid.shape[0], m, replace=False)]
        lattice = Lattice(delta=0.7, radius=2.2, d_prime=d_prime, int_coords=ints)
        nu = np.round(rng.normal(0.3, 0.6, m), 3)
        mu, objective = project_to_probability(np.rint(nu * 1000).astype(np.int64), 1000, lattice)
        oracle = projection_lp_by_vertex_enumeration(nu, anchor_distances(lattice))
        worst_gap = max(worst_gap, abs(objective - oracle))
        all_ok &= (mu >= -1e-9).all()
        all_ok &= abs(mu.sum() - 1.0) <= 1e-9
        all_ok &= objective >= abs(nu.sum() - 1.0) - 1e-9
    passed = all_ok and worst_gap <= 1e-7
    assert _report(6, passed, f"max |LP - oracle| = {worst_gap:.2e} over 50 instances")


def test_criterion_7_pmm_structure():
    """Consistency invariants on noisy runs; noiseless mass preservation and
    the within-leaf W1 bound."""
    gen = SeededGenerator(77)
    structure_ok = True
    for trial in range(20):
        n = int(64 + 37 * trial)
        coords = (gen.split(f"c{trial}").random((2, n)) - 0.5) * 2.4
        depth, _ = depth_and_scales(0.5, n, 2)
        tree = noisy_counts(build_partition(1.2, 2, depth), coords, 0.5, gen.split(f"n{trial}"))
        tree = enforce_consistency(tree)
        for level in range(tree.depth):
            parent = tree.consistent[level]
            child = tree.consistent[level + 1]
            structure_ok &= bool((parent == child[0::2] + child[1::2]).all())
            structure_ok &= bool((child >= 0).all())

    coords = (SeededGenerator(78).random((2, 200)) - 0.5) * 1.8
    depth, _ = depth_and_scales(1.0, 200, 2)
    tree = enforce_consistency(noisy_counts(build_partition(1.0, 2, depth), coords, 1.0, NoiselessGenerator(79)))
    out_center = leaf_centers(tree)
    leaf_side = max_leaf_side(tree)
    mass_ok = out_center.shape[1] == 200
    w1_center = wasserstein1(coords, out_center, "linf")
    radius_ok = w1_center <= leaf_side / 2.0 + 1e-12
    out_uniform, info_u = run_pmm(coords, 1.0, 1.0, 200, NoiselessGenerator(80))
    diameter_ok = wasserstein1(coords, out_uniform, "linf") <= info_u["max_leaf_side"] + 1e-12
    passed = structure_ok and mass_ok and radius_ok and diameter_ok
    assert _report(
        7,
        passed,
        f"consistency on 20 noisy runs; noiseless m=n, W1 {w1_center:.4f} <= leaf radius "
        f"{leaf_side / 2:.4f}",
    )


def test_criterion_8_clamp_contraction():
    """100 pipeline runs: W1(clamped, pre-clamp) <= W1(input, pre-clamp), exactly."""
    all_ok = True
    worst_margin = -np.inf
    for trial in range(100):
        data, _ = planted_subspace_dataset(40, 5, 2, SeededGenerator(8000 + trial))
        result = generate(
            data,
            PipelineConfig(epsilon=1.0, d_prime=2, subroutine="pmm", seed=trial),
            keep_intermediates=True,
        )
        pre = result.intermediates["pre_clamp"]
        if pre.shape[1] == 0:
            continue
        lhs = wasserstein1(result.points, pre, "linf")
        rhs = wasserstein1(data.points, pre, "linf")
        all_ok &= lhs <= rhs + 1e-10
        worst_margin = max(worst_margin, lhs - rhs)
    assert _report(8, all_ok, f"contraction on 100 runs (max lhs - rhs = {worst_margin:.2e})")


def test_criterion_9_dp_audit():
    """Monte-Carlo audit of integer Laplace counting at eps in {0.5, 1}."""
    all_ok = True
    details = []
    for eps, seed in ((0.5, 9001), (1.0, 9002)):
        report = audit_mechanism(
            "integer-laplace-count", eps, 1_000_000, SeededGenerator(seed).split("audit")
        )
        all_ok &= bool(report["within_bound"])
        details.append(f"eps={eps}: {report['max_log_ratio']:.4f} <= {eps} + 3*{report['standard_error']:.4f}")
    assert _report(9, all_ok, "; ".join(details))


def test_criterion_10_full_determinism(tmp_path):
    """Fixed seed, two CLI runs: byte-identical synthetic CSV and run record."""
    data, _ = planted_subspace_dataset(300, 5, 2, SeededGenerator(10101))
    inp = tmp_path / "input.csv"
    write_points_csv(inp, data.points)
    args = lambda out: [
        "generate", "--input", str(inp), "--out", str(out),
        "--epsilon", "1.5", "--dprime", "2", "--subroutine", "pmm", "--seed", "77",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(args(out1)) == 0
    assert cli_main(args(out2)) == 0
    same_csv = (out1 / "synthetic.csv").read_bytes() == (out2 / "synthetic.csv").read_bytes()
    same_record = (out1 / "run_record.json").read_bytes() == (out2 / "run_record.json").read_bytes()
    record = json.loads((out1 / "run_record.json").read_text())
    assert record["provenance"]["seed"] == 77
    assert _report(10, same_csv and same_record, "byte-identical synthetic.csv and run_record.json")
