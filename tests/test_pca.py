import numpy as np
import pytest
from oracles import NoiselessGenerator, eigenvectors_sign_fixed_by_loop

from lowdp.errors import (
    InsufficientDataError,
    InvalidBudgetError,
    InvalidDimensionError,
    InvalidParameterError,
)
from lowdp.noise import SeededGenerator
from lowdp.pca import (
    BLOCK,
    Dataset,
    PrivateCovariance,
    centered_covariance,
    noisy_projection,
    private_covariance,
    select_dimension,
    top_eigenvectors,
)
from lowdp.planted import planted_subspace_dataset


def _fake_cov(spectrum, eigenvectors=None):
    spectrum = np.asarray(spectrum, dtype=np.float64)
    d = spectrum.size
    vecs = np.eye(d) if eigenvectors is None else eigenvectors
    matrix = vecs @ np.diag(spectrum) @ vecs.T
    return PrivateCovariance(matrix=matrix, noise_scale=1.0, spectrum=spectrum, eigenvectors=vecs)


def test_dataset_validation():
    with pytest.raises(InvalidParameterError, match=r"must lie in \[0, 1\]"):
        Dataset(np.array([[0.2, 1.4], [0.1, 0.3]]))  # out of range
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            Dataset(np.array([[0.2, bad], [0.1, 0.3]]))
    with pytest.raises(InsufficientDataError):
        Dataset(np.array([[0.5], [0.5]]))  # n = 1


def test_centered_covariance_equal_columns_is_zero():
    pts = np.tile(np.array([[0.3], [0.7], [0.1]]), (1, 5))
    cov = centered_covariance(pts)
    assert np.abs(cov).max() == 0.0


def test_centered_covariance_two_point_example():
    # X = [(0,0), (1,0)]: mean (1/2, 0), M = [[1/2, 0], [0, 0]]
    cov = centered_covariance(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(cov, [[0.5, 0.0], [0.0, 0.0]], atol=1e-15)
    assert np.allclose(Dataset(np.array([[0.0, 1.0], [0.0, 0.0]])).mean, [0.5, 0.0])


def test_centered_covariance_collinear_rank_one():
    t = np.array([0.0, 0.35, 0.9])
    direction = np.array([0.5, 0.3, 0.8])
    pts = 0.05 + np.outer(direction, t)
    cov = centered_covariance(pts)
    rank = np.linalg.matrix_rank(cov, tol=1e-10)
    assert rank == 1
    # independent check via SVD of the centered matrix
    centered = pts - pts.mean(axis=1, keepdims=True)
    s = np.linalg.svd(centered, compute_uv=False)
    assert (s > 1e-10).sum() == 1


def test_centered_covariance_matches_definition():
    rng = np.random.default_rng(0)
    pts = rng.random((4, 9))
    cov = centered_covariance(pts)
    mean = pts.mean(axis=1)
    manual = sum(np.outer(pts[:, i] - mean, pts[:, i] - mean) for i in range(9)) / 8
    assert np.allclose(cov, manual, atol=1e-14)
    assert (cov == cov.T).all()
    assert np.linalg.eigvalsh(cov).min() >= -1e-12


def test_centered_covariance_requires_two_points():
    with pytest.raises(InsufficientDataError):
        centered_covariance(np.array([[0.1], [0.2]]))


def test_private_covariance_noise_scale_formula():
    pts = np.random.default_rng(1).random((4, 1200))
    cov = private_covariance(pts, 1.0, SeededGenerator(0))
    assert cov.noise_scale == pytest.approx(3 * 16 / 1200)


def test_private_covariance_zero_noise_spectrum_matches_plain():
    pts = np.random.default_rng(2).random((5, 60))
    cov = private_covariance(pts, 1.0, NoiselessGenerator(0))
    plain = centered_covariance(pts)
    expected = np.sort(np.linalg.eigvalsh(plain))[::-1]
    assert np.allclose(cov.spectrum, expected, atol=1e-12)
    assert (cov.matrix == plain).all()


def test_private_covariance_rejects_bad_budget():
    pts = np.random.default_rng(3).random((3, 10))
    with pytest.raises(InvalidBudgetError):
        private_covariance(pts, 0.0, SeededGenerator(0))


def test_private_covariance_sorted_spectrum_and_orthonormal_vectors():
    pts = np.random.default_rng(4).random((6, 40))
    cov = private_covariance(pts, 0.5, SeededGenerator(5))
    assert (np.diff(cov.spectrum) <= 1e-12).all()
    gram = cov.eigenvectors.T @ cov.eigenvectors
    assert np.abs(gram - np.eye(6)).max() < 1e-10
    assert (cov.matrix == cov.matrix.T).all()


@pytest.mark.parametrize("generator", [SeededGenerator, NoiselessGenerator])
def test_private_covariance_eigenvectors_sign_fixed_at_release(generator):
    # nearly constant leading coordinates give noiseless eigenvectors leading entries below the tolerance
    rng = np.random.default_rng(16)
    for seed in range(20):
        pts = rng.random((6, 30))
        pts[: seed % 3] = 0.5 + 1e-13 * rng.random((seed % 3, 30))
        cov = private_covariance(pts, 1.0, generator(seed))
        w, v = np.linalg.eigh(cov.matrix)
        expected = eigenvectors_sign_fixed_by_loop(v[:, np.argsort(-w, kind="stable")])
        assert (cov.eigenvectors == expected).all()
        assert (top_eigenvectors(cov, 4) == expected[:, :4]).all()


def test_covariance_entry_sensitivity_bound():
    # entrywise |M - M'| <= 6/n over random neighboring pairs
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(50, 200))
        d = int(rng.integers(2, 10))
        pts = rng.random((d, n))
        other = pts.copy()
        other[:, rng.integers(n)] = rng.random(d)
        delta = np.abs(centered_covariance(pts) - centered_covariance(other))
        worst = max(worst, delta.max() * n)
    assert worst <= 6.0 + 1e-9


def test_top_eigenvectors_diagonal_case():
    cov = _fake_cov([3.0, 1.0, 0.0])
    basis = top_eigenvectors(cov, 1)
    assert np.allclose(basis[:, 0], [1.0, 0.0, 0.0])


def test_top_eigenvectors_degenerate_identity():
    pts = np.random.default_rng(8).random((3, 30))
    cov = private_covariance(pts, 1.0, NoiselessGenerator(1))
    identity_cov = _fake_cov([1.0, 1.0, 1.0], cov.eigenvectors)
    basis = top_eigenvectors(identity_cov, 2)
    assert np.abs(basis.T @ basis - np.eye(2)).max() < 1e-10
    for k in range(2):
        first_nonzero = basis[np.abs(basis[:, k]) > 1e-12, k][0]
        assert first_nonzero > 0


def test_top_eigenvectors_sign_convention_deterministic():
    pts = np.random.default_rng(9).random((5, 25))
    a = top_eigenvectors(private_covariance(pts, 1.0, SeededGenerator(3)), 3)
    b = top_eigenvectors(private_covariance(pts, 1.0, SeededGenerator(3)), 3)
    assert (a == b).all()
    for k in range(3):
        first_nonzero = a[np.abs(a[:, k]) > 1e-12, k][0]
        assert first_nonzero > 0


def test_top_eigenvectors_match_independent_eigensolver():
    rng = np.random.default_rng(10)
    sym = rng.standard_normal((5, 5))
    sym = (sym + sym.T) / 2
    spectrum, vecs = np.linalg.eigh(sym)
    cov = _fake_cov(spectrum[::-1], vecs[:, ::-1])
    basis = top_eigenvectors(cov, 2)
    recovered = np.sort(np.diag(basis.T @ sym @ basis))[::-1]
    oracle = np.sort(np.linalg.eigvalsh(sym))[::-1][:2]
    assert np.abs(recovered - oracle).max() < 1e-9


def test_top_eigenvectors_dimension_validation():
    cov = _fake_cov([2.0, 1.0])
    with pytest.raises(InvalidDimensionError):
        top_eigenvectors(cov, 0)
    with pytest.raises(InvalidDimensionError):
        top_eigenvectors(cov, 3)


@pytest.mark.parametrize(
    "spectrum, tau, expected",
    [
        ((5.0, 0.1, 0.05), 0.2, 1),
        ((1.0, 1.0, 1.0, 1.0), 0.2, 4),
        ((4.0, 3.0, 0.01, 0.01), 0.1, 2),
    ],
)
def test_select_dimension_examples(spectrum, tau, expected):
    assert select_dimension(_fake_cov(spectrum), tau) == expected


def test_select_dimension_validates_tau():
    with pytest.raises(InvalidParameterError):
        select_dimension(_fake_cov([1.0, 0.5]), 1.5)


def test_noisy_projection_zero_noise_spanned_data_is_lossless():
    data, _ = planted_subspace_dataset(60, 5, 2, SeededGenerator(12))
    cov = private_covariance(data.points, 1.0, NoiselessGenerator(0))
    proj = noisy_projection(data.points, cov, 2, 1.0, NoiselessGenerator(0))
    recon = proj.basis @ proj.coords + proj.private_mean[:, None]
    assert np.linalg.norm(data.points - recon) < 1e-10


@pytest.mark.parametrize("n", [2, 300, 2 * BLOCK + 7])
def test_noisy_projection_blocks_equal_one_product_to_the_bit(n):
    pts = np.random.default_rng(n).random((7, n))
    cov = private_covariance(pts, 1.0, SeededGenerator(4))
    proj = noisy_projection(pts, cov, 3, 1.0, SeededGenerator(5))
    whole = proj.basis.T @ (pts - proj.private_mean[:, None])
    assert proj.coords.tobytes() == whole.tobytes()


def test_noisy_projection_radius_formula():
    # mean-zero data would give radius sqrt(d); private mean shifts it
    pts = np.random.default_rng(13).random((9, 50))
    cov = private_covariance(pts, 1.0, SeededGenerator(2))
    proj = noisy_projection(pts, cov, 2, 1.0, SeededGenerator(2))
    assert proj.radius == pytest.approx(3.0 + np.linalg.norm(proj.private_mean))
    assert proj.noise_scale == 9 / 50  # d / (eps n)


def test_noisy_projection_coords_within_radius():
    rng = np.random.default_rng(14)
    for seed in range(5):
        pts = rng.random((6, 30))
        cov = private_covariance(pts, 0.7, SeededGenerator(seed))
        proj = noisy_projection(pts, cov, 3, 0.7, SeededGenerator(seed + 100))
        norms = np.linalg.norm(proj.coords, axis=0)
        assert norms.max() <= proj.radius + 1e-12
        gram = proj.basis.T @ proj.basis
        assert np.abs(gram - np.eye(3)).max() < 1e-10


def test_projection_idempotence():
    pts = np.random.default_rng(15).random((5, 20))
    cov = private_covariance(pts, 1.0, SeededGenerator(3))
    basis = top_eigenvectors(cov, 2)
    projector = basis @ basis.T
    once = projector @ pts
    twice = projector @ once
    assert np.abs(once - twice).max() < 1e-10
