"""Pinned seeded outputs, so that a refactor can show it kept behaviour.

Three pipeline configs cover PMM and PSMM on both projection paths (the
grid-graph LP, and the closed form for delta >= 2).  Their output size,
PSMM anchor multiplicities, PMM ``max_leaf_side`` and check booleans are
pinned exactly, the synthetic points to 1e-12, and every other
provenance float to 1e-12 relative.  PMM consistent leaf counts are pinned
exactly on fixed coordinates, and ``run_pmm`` must emit that many points
inside each leaf.  The pinned values live in ``golden.json``; after an
intended output change, rewrite it with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from lowdp.noise import SeededGenerator
from lowdp.pipeline import PipelineConfig, generate
from lowdp.planted import planted_subspace_dataset
from lowdp.pmm import build_partition, depth_and_scales, enforce_consistency, noisy_counts, run_pmm

GOLDEN = Path(__file__).with_name("golden.json")

PSMM_PROOF_X4 = {"d_prime": 3, "subroutine": "psmm", "delta_mode": "proof", "delta_scale": 4.0}

# name: ((n, d, planted dimension, data seed), PipelineConfig keywords)
PIPELINE_CASES = {
    "pmm-three": ((128, 4, 2, 11), {"epsilon": 1.0, "d_prime": 2, "subroutine": "pmm", "seed": 5}),
    "psmm-lp": ((256, 4, 3, 13), {"epsilon": 1.0, "seed": 7, **PSMM_PROOF_X4}),
    "psmm-closed-form": ((48, 4, 3, 14), {"epsilon": 1.0, "seed": 8, **PSMM_PROOF_X4}),
}

# name: (d', radius, n, epsilon, seed) for run_pmm on fixed coordinates
PMM_TREE_CASES = {
    "tree-2d": (2, 1.7, 500, 1.0, 21),
    "tree-3d": (3, 2.3, 500, 1.0, 22),
}


def _provenance(result) -> dict:
    """JSON form of the provenance, without the config key PMM no longer reads."""
    prov = json.loads(json.dumps(result.provenance))
    prov["config"].pop("pmm_point_mode", None)
    return prov


def _run_pipeline(name):
    (n, d, planted, data_seed), config = PIPELINE_CASES[name]
    data, _ = planted_subspace_dataset(n, d, planted, SeededGenerator(data_seed))
    result = generate(data, PipelineConfig(**config), keep_intermediates=True)
    record = {"points": result.points.tolist(), "provenance": _provenance(result)}
    if result.provenance["subroutine"] == "psmm":
        delta = result.provenance["subroutine_info"]["delta"]
        cells = np.floor(result.intermediates["coords_out"] / delta).astype(np.int64)
        anchors, counts = np.unique(cells, axis=1, return_counts=True)
        record["anchors"] = anchors.tolist()
        record["multiplicities"] = counts.tolist()
    return record


def _pinned_coords(d_prime, radius, n, seed):
    return np.random.default_rng(seed).uniform(-radius, radius, (d_prime, n))


def _run_tree(name):
    d_prime, radius, n, epsilon, seed = PMM_TREE_CASES[name]
    coords = _pinned_coords(d_prime, radius, n, seed)
    points, info = run_pmm(coords, radius, epsilon, n, SeededGenerator(seed))
    depth, _ = depth_and_scales(epsilon, n, d_prime)
    tree = noisy_counts(build_partition(radius, d_prime, depth), coords, epsilon, SeededGenerator(seed))
    counts = enforce_consistency(tree).consistent[depth]
    lo, hi = tree._leaf_bounds(np.arange(1 << depth))
    # run_pmm emits each leaf's consistent count of points inside that leaf, leaf by leaf
    assert points.shape == (d_prime, counts.sum())
    assert (np.repeat(lo, counts, axis=0) <= points.T).all() and (points.T <= np.repeat(hi, counts, axis=0)).all()
    return {"leaf_counts": counts.tolist(), "max_leaf_side": info["max_leaf_side"], "depth": info["depth"]}


def _assert_close(actual, expected, path="provenance"):
    """Equal structure; floats to 1e-12 relative, everything else exactly."""
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), path
        for key in expected:
            _assert_close(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=1e-300), (path, actual, expected)
    else:
        assert type(actual) is type(expected) and actual == expected, (path, actual, expected)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(PIPELINE_CASES))
def test_pipeline_outputs_match_golden(golden, name):
    want = golden["pipeline"][name]
    got = _run_pipeline(name)
    prov, want_prov = got["provenance"], want["provenance"]
    assert prov["m"] == want_prov["m"]
    assert prov["checks"] == want_prov["checks"]
    assert len(prov["checks"]) == 5 and all(prov["checks"].values())
    info = prov["subroutine_info"]
    if prov["subroutine"] == "pmm":
        assert info["max_leaf_side"] == want_prov["subroutine_info"]["max_leaf_side"]
    else:
        assert got["anchors"] == want["anchors"]
        assert got["multiplicities"] == want["multiplicities"]
        # one config per projection path: the grid-graph LP, and the closed form
        assert (info["delta"] >= 2.0) == (name == "psmm-closed-form")
    points, want_points = np.array(got["points"]), np.array(want["points"])
    assert points.shape == want_points.shape
    assert np.abs(points - want_points).max(initial=0.0) <= 1e-12
    _assert_close(prov, want_prov)


@pytest.mark.parametrize("name", sorted(PMM_TREE_CASES))
def test_pmm_leaf_counts_match_golden(golden, name):
    want = golden["pmm_tree"][name]
    got = _run_tree(name)
    assert got["depth"] == want["depth"]
    assert got["leaf_counts"] == want["leaf_counts"]
    assert got["max_leaf_side"] == want["max_leaf_side"]


if __name__ == "__main__":
    record = {
        "pipeline": {name: _run_pipeline(name) for name in sorted(PIPELINE_CASES)},
        "pmm_tree": {name: _run_tree(name) for name in sorted(PMM_TREE_CASES)},
    }
    GOLDEN.write_text(json.dumps(record, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
