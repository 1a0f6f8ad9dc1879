import numpy as np
import pytest
from oracles import planted_points_by_concatenation
from scipy.optimize import linprog

from lowdp.noise import SeededGenerator
from lowdp.pca import BLOCK
from lowdp.planted import planted_subspace_dataset


@pytest.mark.parametrize(
    "n, d, d_prime, seed",
    [
        (2, 3, 3, 1),               # the smallest n, d' = d
        (2, 1, 1, 2),
        (300, 8, 3, 3),
        (5000, 4, 2, 4),            # two blocks in the first batch
        (2 * BLOCK + 7, 10, 2, 5),  # a partial block at each batch's end
        (20000, 3, 1, 6),
        (9000, 6, 6, 7),            # rejection-heavy: d' = d keeps about a tenth of each batch
        (3000, 10, 10, 8),          # under 1% kept, many batches
    ],
)
def test_planted_points_equal_the_concatenating_sampler_to_the_bit(n, d, d_prime, seed):
    data, info = planted_subspace_dataset(n, d, d_prime, SeededGenerator(seed))
    expected = planted_points_by_concatenation(n, d, d_prime, SeededGenerator(seed))
    assert data.points.shape == (d, n)
    assert data.points.tobytes() == expected.tobytes()
    assert info["basis"].shape == (d, d_prime)


def _section_extent(basis, direction):
    """The largest |t_j| over the whole section {t : 0 <= 1/2 + B t <= 1}, by LP."""
    d, d_prime = basis.shape
    cost = np.zeros(d_prime)
    cost[direction] = -1.0
    res = linprog(cost, A_ub=np.vstack([basis, -basis]), b_ub=np.full(2 * d, 0.5), bounds=(None, None), method="highs")
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("d, d_prime, seed", [(10, 2, 11), (8, 3, 12), (4, 2, 13)])
def test_planted_points_fill_the_axis_box_not_the_whole_section(d, d_prime, seed):
    data, info = planted_subspace_dataset(4000, d, d_prime, SeededGenerator(seed))
    basis, center, extent = info["basis"], info["center"], info["extent"]
    t = basis.T @ (data.points - center[:, None])
    reach = np.abs(t).max(axis=1)
    # every draw lies in the box |t_j| <= extent_j and the draws reach its faces
    assert (reach <= extent * (1 + 1e-12)).all()
    assert (reach >= 0.95 * extent).all()
    # the section itself reaches further along some direction than the box
    section = np.array([_section_extent(basis, j) for j in range(d_prime)])
    assert (section >= extent * (1 - 1e-9)).all()
    assert (section > 1.01 * extent).any()
