import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import NoiselessGenerator, classify_by_recursion, leaf_boxes_by_recursion, leaf_centers

from lowdp.errors import InvalidParameterError, InvalidRegimeError, OutOfDomainError, SizeOverflowError
from lowdp.metrics import wasserstein1
from lowdp.noise import SeededGenerator
from lowdp.pmm import (
    MAX_DEPTH,
    _classify,
    build_partition,
    depth_and_scales,
    enforce_consistency,
    max_leaf_side,
    noisy_counts,
    repair_children,
    run_pmm,
    sample_synthetic,
)


def test_depth_formula():
    r, _ = depth_and_scales(1.0, 1000, 2)
    assert r == 10


def test_scale_schedule_endpoints():
    r, scales = depth_and_scales(1.0, 1024, 2)
    assert r == 10
    assert scales[10] == pytest.approx(1.0)
    assert scales[0] == pytest.approx(2.0**2.5)


def test_scale_schedule_flat_for_one_dimension():
    _, scales = depth_and_scales(0.5, 100, 1)
    assert np.allclose(scales, 2.0)  # 1/eps at every level


def test_regime_requires_eps_n_above_one():
    with pytest.raises(InvalidRegimeError):
        depth_and_scales(0.001, 100, 2)


def test_depth_cap_admits_the_cap_itself():
    r, scales = depth_and_scales(1.0, 2**MAX_DEPTH, 2)
    assert r == MAX_DEPTH and scales.size == MAX_DEPTH + 1


@pytest.mark.parametrize("epsilon, n", [(1.0, 2**MAX_DEPTH + 1), (1e308, 4), (1e308, 8)], ids=["cap+1", "1e308", "inf"])
def test_over_deep_tree_refused_before_allocation(epsilon, n):
    start = time.perf_counter()
    with pytest.raises(SizeOverflowError, match=f"cap of depth {MAX_DEPTH}"):
        run_pmm(np.zeros((1, 4)), 1.0, epsilon, n, SeededGenerator(0))
    assert time.perf_counter() - start < 0.1


def test_partition_depth_zero_single_leaf():
    tree = build_partition(1.0, 2, 0)
    lo, hi = tree._leaf_bounds(np.arange(1))
    assert lo.shape == (1, 2)
    assert (lo == [-1.0, -1.0]).all() and (hi == [1.0, 1.0]).all()


def test_partition_two_levels_quadrants():
    tree = build_partition(1.0, 2, 2)
    lo, hi = tree._leaf_bounds(np.arange(1 << tree.depth))
    assert lo.shape == (4, 2)
    sides = hi - lo
    assert np.allclose(sides, 1.0)  # four R x R quadrants of [-R, R]^2
    # theta-lexicographic: leaf 00 is the lower-left quadrant
    assert (lo[0] == [-1.0, -1.0]).all()
    assert (hi[3] == [1.0, 1.0]).all()


def test_partition_one_dimension_eighths():
    tree = build_partition(1.0, 1, 3)
    lo, hi = tree._leaf_bounds(np.arange(1 << tree.depth))
    assert lo.shape == (8, 1)
    assert np.allclose(hi - lo, 0.25)


def test_partition_covers_every_point_exactly_once():
    tree = build_partition(1.5, 2, 4)
    lo, hi = tree._leaf_bounds(np.arange(1 << tree.depth))
    rng = np.random.default_rng(0)
    pts = np.concatenate(
        [rng.uniform(-1.5, 1.5, (2, 200)), lo.T, hi.T - 1e-12], axis=1
    )
    pts = np.clip(pts, -1.5, 1.5)
    inside = (pts.T[:, None, :] >= lo[None, :, :]) & (
        (pts.T[:, None, :] < hi[None, :, :])
        | (np.isclose(hi[None, :, :], 1.5) & (pts.T[:, None, :] <= 1.5))
    )
    membership = inside.all(axis=2).sum(axis=1)
    assert (membership == 1).all()


def test_counts_raw_levels_sum_to_n():
    gen = SeededGenerator(1)
    coords = (gen.random((2, 64)) * 2.0 - 1.0) * 2.0
    tree = noisy_counts(build_partition(2.0, 2, 5), coords, 1.0, gen.split("n"))
    for level in range(tree.depth + 1):
        assert tree.raw[level].sum() == 64
    assert tree.raw[1][0] + tree.raw[1][1] == 64


def test_counts_out_of_domain_names_the_point():
    coords = np.array([[0.0, 3.0], [0.0, 0.0]])
    with pytest.raises(OutOfDomainError, match="point 1"):
        noisy_counts(build_partition(1.0, 2, 2), coords, 1.0, SeededGenerator(0))


def test_counts_reject_nan_coordinates():
    coords = np.array([[0.1, np.nan, 0.3], [0.2, 0.5, 0.4]])
    with pytest.raises(OutOfDomainError, match="point 1"):
        noisy_counts(build_partition(1.0, 2, 4), coords, 1.0, SeededGenerator(0))


def test_zero_noise_counts_pass_through():
    coords = (SeededGenerator(2).random((2, 40)) * 2.0 - 1.0)
    tree = noisy_counts(build_partition(1.0, 2, 4), coords, 1.0, NoiselessGenerator(2).split("z"))
    for level in range(tree.depth + 1):
        assert (tree.noisy[level] == tree.raw[level]).all()
    assert tree.noisy[0][0] == 40


def test_empty_input_counts_are_clipped_noise():
    coords = np.empty((2, 0))
    tree = noisy_counts(build_partition(1.0, 2, 3), coords, 1.0, SeededGenerator(3).split("e"))
    for level in range(tree.depth + 1):
        assert (tree.raw[level] == 0).all()
        assert (tree.noisy[level] >= 0).all()


@pytest.mark.parametrize(
    "parent, children, expected",
    [
        (5, (2, 4), (2, 3)),
        (4, (0, 0), (2, 2)),
        (1, (3, 0), (1, 0)),
    ],
)
def test_repair_examples(parent, children, expected):
    a, b = repair_children(np.array([parent]), np.array([children[0]]), np.array([children[1]]))
    assert (int(a[0]), int(b[0])) == expected


def _repair_reference(parent, a, b):
    """Literal statement of the repair rule, one unit at a time."""
    while a + b > parent:
        if a > b:
            a -= 1
        else:
            b -= 1  # tie decrements child 1
    while a + b < parent:
        if a < b:
            a += 1
        elif b < a:
            b += 1
        else:
            a += 1  # tie increments child 0
    return a, b


@settings(max_examples=300)
@given(
    parent=st.integers(min_value=0, max_value=60),
    a=st.integers(min_value=0, max_value=60),
    b=st.integers(min_value=0, max_value=60),
)
def test_repair_matches_unit_step_reference(parent, a, b):
    ra, rb = repair_children(np.array([parent]), np.array([a]), np.array([b]))
    assert (int(ra[0]), int(rb[0])) == _repair_reference(parent, a, b)


def test_consistency_holds_at_every_node():
    gen = SeededGenerator(4)
    coords = (gen.random((2, 128)) * 2.0 - 1.0) * 3.0
    tree = noisy_counts(build_partition(3.0, 2, 7), coords, 2.0, gen.split("c"))
    tree = enforce_consistency(tree)
    for level in range(tree.depth):
        parent = tree.consistent[level]
        child = tree.consistent[level + 1]
        assert (parent == child[0::2] + child[1::2]).all()
        assert (child >= 0).all()
    assert tree.consistent[tree.depth].sum() == tree.consistent[0][0]


def test_zero_noise_preserves_mass_and_w1_within_leaf_size():
    coords = (SeededGenerator(5).random((2, 64)) * 2.0 - 1.0)
    out, info = run_pmm(coords, 1.0, 1.0, 64, NoiselessGenerator(5).split("run"))
    assert out.shape[1] == 64
    w1 = wasserstein1(coords, out, "linf")
    assert w1 <= info["max_leaf_side"] + 1e-12


def test_zero_noise_leaf_center_within_leaf_radius():
    coords = (SeededGenerator(6).random((2, 64)) * 2.0 - 1.0)
    depth, _ = depth_and_scales(1.0, 64, 2)
    tree = noisy_counts(build_partition(1.0, 2, depth), coords, 1.0, NoiselessGenerator(6))
    out = leaf_centers(enforce_consistency(tree))
    w1 = wasserstein1(coords, out, "linf")
    assert w1 <= max_leaf_side(tree) / 2.0 + 1e-12


def test_sampling_empty_tree_returns_empty_matrix():
    tree = noisy_counts(build_partition(1.0, 2, 3), np.empty((2, 0)), 1.0, NoiselessGenerator(7))
    tree = enforce_consistency(tree)
    out = sample_synthetic(tree, SeededGenerator(8))
    assert out.shape == (2, 0)


def test_sampling_single_leaf_membership():
    tree = build_partition(1.0, 2, 3)
    coords = np.tile(np.array([[-0.9], [-0.9]]), (1, 3))
    tree = noisy_counts(tree, coords, 1.0, NoiselessGenerator(9))
    tree = enforce_consistency(tree)
    out = sample_synthetic(tree, SeededGenerator(10))
    assert out.shape == (2, 3)
    lo, hi = tree._leaf_bounds(np.arange(1 << tree.depth))
    assert (out.T >= lo[0]).all() and (out.T <= hi[0]).all()


def test_sampling_matches_all_leaf_boxes_on_a_sparse_tree():
    # 300 points in a 2^12-leaf tree: at most 300 leaves are nonempty
    coords = SeededGenerator(13).random((2, 300)) * 0.5 - 0.25
    tree = enforce_consistency(noisy_counts(build_partition(1.0, 2, 12), coords, 1.0, NoiselessGenerator(14)))
    counts = tree.consistent[tree.depth]
    assert np.count_nonzero(counts) <= 300 < counts.size // 10
    lo, hi = tree._leaf_bounds(np.arange(1 << tree.depth))
    lo_rep, hi_rep = np.repeat(lo, counts, axis=0), np.repeat(hi, counts, axis=0)
    u = SeededGenerator(15).split("sample").random((int(counts.sum()), 2))
    expected = (lo_rep + u * (hi_rep - lo_rep)).T
    out = sample_synthetic(tree, SeededGenerator(15))
    assert out.shape == expected.shape and (out == expected).all()


def test_sampling_reproducible():
    gen_input = SeededGenerator(11)
    coords = (gen_input.random((2, 50)) * 2.0 - 1.0)
    a, _ = run_pmm(coords, 1.0, 1.0, 50, SeededGenerator(12))
    b, _ = run_pmm(coords, 1.0, 1.0, 50, SeededGenerator(12))
    assert (a == b).all()


def test_build_partition_validation():
    with pytest.raises(InvalidParameterError):
        build_partition(0.0, 2, 3)
    with pytest.raises(InvalidParameterError):
        build_partition(1.0, 0, 3)
    with pytest.raises(InvalidParameterError):
        build_partition(1.0, 2, -1)


def test_max_leaf_side_shrinks_with_depth():
    shallow = max_leaf_side(build_partition(1.0, 2, 2))
    deep = max_leaf_side(build_partition(1.0, 2, 6))
    assert deep < shallow
    assert shallow == pytest.approx(1.0)
    assert deep == pytest.approx(0.25)


def _random_trees(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield build_partition(float(rng.uniform(0.5, 20.0)), int(rng.integers(1, 4)), int(rng.integers(0, 15))), rng


def _on_and_beside_edges(tree, edges_per_axis, rng, count):
    """count random points, then points on each given edge of each axis and one ulp either side of it."""
    r, dp = tree.radius, tree.d_prime
    blocks = [rng.uniform(-r, r, (dp, count))]
    for axis, edges in enumerate(edges_per_axis):
        for x in (edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)):
            block = rng.uniform(-r, r, (dp, edges.size))
            block[axis] = np.clip(x, -r, r)
            blocks.append(block)
    return np.concatenate(blocks, axis=1)


def _edge_and_face_points(tree, lo, hi, rng):
    """Random points, points on and one ulp beside every cell edge of each axis, and the corners of [-R, R]^d'."""
    r, dp = tree.radius, tree.d_prime
    edges = [np.unique(np.concatenate([lo[:, axis], hi[:, axis]])) for axis in range(dp)]
    corners = np.array(list(itertools.product((-r, r), repeat=dp))).T
    return np.concatenate([_on_and_beside_edges(tree, edges, rng, 500), corners], axis=1)


def test_cell_geometry_matches_midpoint_recursion_bitwise():
    for tree, rng in _random_trees(300, 40):
        lo, hi = leaf_boxes_by_recursion(tree)
        got_lo, got_hi = tree._leaf_bounds(np.arange(1 << tree.depth))
        assert got_lo.tobytes() == lo.tobytes() and got_hi.tobytes() == hi.tobytes()
        assert max_leaf_side(tree) == float((hi - lo).max())
        coords = _edge_and_face_points(tree, lo, hi, rng)
        assert np.array_equal(_classify(tree, coords), classify_by_recursion(tree, coords))
    # classification alone at the deepest allowed tree, on sampled edges: R = 4.7
    # makes the bisection edges round away from -R + k 2R/K
    rng = np.random.default_rng(41)
    for dp in (1, 2, 3):
        tree = build_partition(4.7, dp, MAX_DEPTH)
        edges = tree.cell_edges()
        k = np.arange(edges[0].size)
        assert (edges[0] != -tree.radius + k * (2.0 * tree.radius / (k.size - 1))).any()
        coords = _on_and_beside_edges(tree, [rng.choice(edge, 300) for edge in edges], rng, 1000)
        assert np.array_equal(_classify(tree, coords), classify_by_recursion(tree, coords))
