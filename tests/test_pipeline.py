from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from oracles import NoiselessGenerator

import lowdp.pipeline
from lowdp.errors import InvalidBudgetError, InvalidDimensionError, InvalidParameterError, InvalidRegimeError
from lowdp.metrics import wasserstein1
from lowdp.noise import SeededGenerator
from lowdp.pca import BLOCK
from lowdp.pipeline import STAGE_FRACTIONS, PipelineConfig, generate
from lowdp.planted import planted_subspace_dataset


def test_config_validation():
    with pytest.raises(InvalidBudgetError):
        PipelineConfig(epsilon=0.0)
    with pytest.raises(InvalidParameterError):
        PipelineConfig(epsilon=1.0, subroutine="magic")
    with pytest.raises(InvalidParameterError):
        PipelineConfig(epsilon=1.0, d_prime="auto", tau=2.0)


@pytest.mark.parametrize("d_prime", [2.5, "abc", None, 0, float("nan"), True, False])
def test_config_rejects_non_integral_d_prime(d_prime):
    with pytest.raises(InvalidDimensionError):
        PipelineConfig(epsilon=1.0, d_prime=d_prime)


@pytest.mark.parametrize("epsilon", [float("inf"), float("nan"), -float("inf")])
def test_config_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(InvalidBudgetError, match="finite"):
        PipelineConfig(epsilon=epsilon)


def test_config_keeps_whole_number_d_prime():
    assert PipelineConfig(epsilon=1.0, d_prime=3.0).d_prime == 3


@pytest.mark.parametrize("m_target", [2.5, True, False, "7", 0, -3, float("nan"), float("inf")])
def test_config_rejects_non_integral_m_target(m_target):
    with pytest.raises(InvalidParameterError, match="m_target"):
        PipelineConfig(epsilon=1.0, d_prime=3, subroutine="psmm", m_target=m_target)


def test_config_keeps_whole_number_m_target():
    config = PipelineConfig(epsilon=1.0, d_prime=3, subroutine="psmm", m_target=7.0)
    assert config.m_target == 7 and type(config.m_target) is int
    assert PipelineConfig(epsilon=1.0).m_target is None


def test_stage_fractions_sum_to_one_exactly():
    assert sum(STAGE_FRACTIONS.values()) == Fraction(1)


def test_three_way_budget_ledger():
    data, _ = planted_subspace_dataset(2000, 8, 2, SeededGenerator(0))
    result = generate(data, PipelineConfig(epsilon=2.0, d_prime=2, subroutine="pmm", seed=1))
    budgets = result.provenance["stage_budgets"]
    assert set(budgets) == {"covariance", "projection", "subroutine"}
    assert all(v["epsilon"] == pytest.approx(2.0 / 3.0) for v in budgets.values())
    total = sum(Fraction(v["fraction"]) for v in budgets.values())
    assert total == Fraction(1)


def test_output_always_inside_cube():
    data, _ = planted_subspace_dataset(300, 6, 2, SeededGenerator(2))
    for seed in range(3):
        result = generate(data, PipelineConfig(epsilon=1.0, d_prime=2, subroutine="pmm", seed=seed))
        assert result.points.min() >= 0.0
        assert result.points.max() <= 1.0


def test_pre_clamp_output_lies_on_private_affine_subspace():
    data, _ = planted_subspace_dataset(400, 7, 2, SeededGenerator(3))
    result = generate(
        data,
        PipelineConfig(epsilon=1.0, d_prime=2, subroutine="pmm", seed=9),
        keep_intermediates=True,
    )
    pre = result.intermediates["pre_clamp"]
    mean = result.intermediates["projected"].private_mean
    basis = result.intermediates["projected"].basis
    centered = pre - mean[:, None]
    residual = centered - basis @ (basis.T @ centered)
    assert np.linalg.norm(residual, axis=0).max() < 1e-10


@pytest.mark.parametrize(
    "n, d, config",
    [
        (2 * BLOCK + 9, 6, {"d_prime": 2, "subroutine": "pmm"}),
        (500, 4, {"d_prime": 1, "subroutine": "pmm"}),
        (600, 5, {"d_prime": 3, "subroutine": "psmm", "delta_mode": "proof", "delta_scale": 4.0}),
    ],
)
def test_in_place_lift_and_clamp_keep_the_intermediates_exact(n, d, config):
    data, _ = planted_subspace_dataset(n, d, 2, SeededGenerator(n))
    config = PipelineConfig(epsilon=2.0, seed=11, **config)
    kept = generate(data, config, keep_intermediates=True)
    plain = generate(data, config)
    inter = kept.intermediates
    lifted = inter["projected"].basis @ inter["coords_out"]
    assert inter["lifted"].tobytes() == lifted.tobytes()
    assert inter["pre_clamp"].tobytes() == (lifted + inter["projected"].private_mean[:, None]).tobytes()
    assert kept.points.tobytes() == np.clip(inter["pre_clamp"], 0.0, 1.0).tobytes()
    assert plain.intermediates is None
    assert plain.points.tobytes() == kept.points.tobytes()
    assert plain.provenance == kept.provenance


def test_on_subspace_check_reaches_the_last_partial_block():
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 2)))
    center = rng.uniform(size=6)
    points = basis @ rng.normal(size=(2, 2 * BLOCK + 5)) + center[:, None]
    assert lowdp.pipeline._on_subspace(points, center, basis)
    off = rng.normal(size=6)
    off -= basis @ (basis.T @ off)
    points[:, -1] += 1e-9 * off / np.linalg.norm(off)
    assert not lowdp.pipeline._on_subspace(points, center, basis)


def test_on_subspace_check_holds_on_empty_and_block_straddling_runs():
    empty = generate(
        np.array([[0.2, 0.8], [0.4, 0.6]]), PipelineConfig(epsilon=3.0, d_prime=1, subroutine="pmm", seed=2)
    )
    assert empty.size == 0 and empty.provenance["checks"]["pre_clamp_on_subspace"] is True
    data, _ = planted_subspace_dataset(6000, 4, 2, SeededGenerator(6))
    result = generate(data, PipelineConfig(epsilon=1.0, d_prime=2, subroutine="pmm", seed=1))
    assert result.size > BLOCK and result.size % BLOCK != 0
    assert result.provenance["checks"]["pre_clamp_on_subspace"] is True


def test_determinism_bitwise():
    data, _ = planted_subspace_dataset(256, 5, 2, SeededGenerator(4))
    cfg = PipelineConfig(epsilon=1.5, d_prime=2, subroutine="pmm", seed=123)
    a = generate(data, cfg)
    b = generate(data, cfg)
    assert np.array_equal(a.points, b.points)
    assert a.provenance == b.provenance


def test_provenance_config_is_the_full_config():
    data, _ = planted_subspace_dataset(200, 4, 2, SeededGenerator(7))
    for cfg in (
        PipelineConfig(epsilon=1.5, d_prime=2, subroutine="pmm", seed=3),
        PipelineConfig(epsilon=2.0, d_prime=2, subroutine="psmm", seed=4, delta_scale=3.0, m_target=50),
    ):
        assert generate(data, cfg).provenance["config"] == asdict(cfg)


def test_auto_dimension_and_subroutine_dispatch(monkeypatch):
    # a noiseless run keeps the spectrum exact, so the planted d' = 2 is found
    monkeypatch.setattr(lowdp.pipeline, "SeededGenerator", NoiselessGenerator)
    data, _ = planted_subspace_dataset(4000, 6, 2, SeededGenerator(5))
    result = generate(data, PipelineConfig(epsilon=3.0, seed=2, tau=0.2))
    assert result.provenance["d_prime_mode"] == "auto"
    assert result.provenance["d_prime"] == 2
    assert result.provenance["subroutine"] == "pmm"
    data3, _ = planted_subspace_dataset(500, 6, 3, SeededGenerator(6))
    result3 = generate(
        data3,
        PipelineConfig(epsilon=3.0, seed=2, tau=0.2, delta_scale=3.0),
    )
    assert result3.provenance["d_prime"] == 3
    assert result3.provenance["subroutine"] == "psmm"


def test_explicit_subroutine_override():
    data, _ = planted_subspace_dataset(300, 6, 2, SeededGenerator(6))
    result = generate(
        data,
        PipelineConfig(epsilon=2.0, d_prime=2, subroutine="psmm", seed=3, delta_scale=3.0),
    )
    assert result.provenance["subroutine"] == "psmm"
    assert result.size == 300  # psmm defaults to m = n


def test_d_prime_one_runs_through_pmm():
    data, _ = planted_subspace_dataset(300, 5, 1, SeededGenerator(7))
    result = generate(data, PipelineConfig(epsilon=2.0, d_prime=1, seed=4))
    assert result.provenance["subroutine"] == "pmm"
    assert result.size > 0


def test_zero_noise_planted_data_w1_bounded_by_leaf_size(monkeypatch):
    monkeypatch.setattr(lowdp.pipeline, "SeededGenerator", NoiselessGenerator)
    data, _ = planted_subspace_dataset(128, 6, 2, SeededGenerator(8))
    result = generate(data, PipelineConfig(epsilon=1.0, d_prime=2, subroutine="pmm", seed=5))
    assert result.size == 128
    w1 = wasserstein1(data.points, result.points, "linf")
    assert w1 <= result.provenance["subroutine_info"]["max_leaf_side"] + 1e-12


def test_clamp_contraction_on_pipeline_runs():
    # W1(clamped, pre-clamp) <= W1(input, pre-clamp), checked exactly
    for seed in range(5):
        data, _ = planted_subspace_dataset(48, 5, 2, SeededGenerator(100 + seed))
        result = generate(
            data,
            PipelineConfig(epsilon=1.0, d_prime=2, subroutine="pmm", seed=seed),
            keep_intermediates=True,
        )
        pre = result.intermediates["pre_clamp"]
        if pre.shape[1] == 0:
            continue
        lhs = wasserstein1(result.points, pre, "linf")
        rhs = wasserstein1(data.points, pre, "linf")
        assert lhs <= rhs + 1e-10


def test_degenerate_two_point_dataset_runs():
    # n = 2 is allowed; the covariance has rank <= 1 and d' may exceed it
    data = np.array([[0.1, 0.9], [0.2, 0.6], [0.5, 0.5]])
    from lowdp.pca import Dataset

    result = generate(Dataset(data), PipelineConfig(epsilon=3.0, d_prime=2, subroutine="pmm", seed=0))
    assert result.points.shape[0] == 3
    assert result.points.min() >= 0.0 and result.points.max() <= 1.0


def test_regime_validation():
    data, _ = planted_subspace_dataset(100, 4, 2, SeededGenerator(9))
    with pytest.raises(InvalidRegimeError):
        generate(data, PipelineConfig(epsilon=0.01, d_prime=2, seed=0))


def test_dimension_validation_against_data():
    data, _ = planted_subspace_dataset(100, 4, 2, SeededGenerator(10))
    with pytest.raises(InvalidDimensionError):
        generate(data, PipelineConfig(epsilon=2.0, d_prime=9, seed=0))


@pytest.mark.parametrize("subroutine", ["pmm", "auto"])
def test_m_target_refused_on_pmm_runs(subroutine):
    data, _ = planted_subspace_dataset(100, 4, 2, SeededGenerator(10))
    config = PipelineConfig(epsilon=2.0, d_prime=2, subroutine=subroutine, m_target=3)
    with pytest.raises(InvalidParameterError, match="m_target"):
        generate(data, config)


def test_provenance_records_streams_and_scales():
    data, _ = planted_subspace_dataset(400, 6, 2, SeededGenerator(11))
    result = generate(data, PipelineConfig(epsilon=1.0, d_prime=2, subroutine="pmm", seed=6))
    prov = result.provenance
    assert prov["noise_scales"]["covariance_entry"] == pytest.approx(3 * 36 / ((1 / 3) * 400))
    assert prov["noise_scales"]["mean_per_coordinate"] == pytest.approx(6 / ((1 / 3) * 400))
    assert prov["draw_streams"] == ["covariance", "projection", "subroutine"]
    assert prov["warning"] is None
    assert prov["m"] == result.size
    assert all(prov["checks"].values()), prov["checks"]
