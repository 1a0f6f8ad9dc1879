import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import NoiselessGenerator

from lowdp.errors import InvalidParameterError
from lowdp.noise import (
    SeededGenerator,
    laplace_inverse_cdf,
    sample_integer_laplace,
    sample_laplace,
    sample_symmetric_laplace_matrix,
)


SAMPLERS = {
    "laplace": lambda sigma, gen: sample_laplace(sigma, gen, size=3),
    "integer-laplace": lambda sigma, gen: sample_integer_laplace(sigma, gen, size=3),
    "symmetric-matrix": lambda sigma, gen: sample_symmetric_laplace_matrix(3, sigma, gen),
}


def test_noise_scale_rejects_nonpositive():
    for sampler, sigma in itertools.product(SAMPLERS.values(), [0.0, -1.5, math.nan, math.inf, -math.inf]):
        with pytest.raises(InvalidParameterError, match="noise scale must be positive"):
            sampler(sigma, SeededGenerator(0))


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_noiseless_generator_draws_exact_zeros(sampler):
    draws = SAMPLERS[sampler](2.5, NoiselessGenerator(3).split("zero"))
    assert (draws == 0).all()
    assert sample_laplace(2.5, NoiselessGenerator(3)) == 0.0
    assert sample_integer_laplace(2.5, NoiselessGenerator(3)) == 0


def test_noiseless_generator_keeps_the_seeded_streams():
    # only open_uniform is replaced: a sampler that drew through any other
    # stream would not be silenced by the fake
    fake, real = NoiselessGenerator(11).split("a"), SeededGenerator(11).split("a")
    assert isinstance(fake.split("b"), NoiselessGenerator)
    assert (fake.split("b").random(8) == real.split("b").random(8)).all()
    assert (fake.random((3, 4)) == real.random((3, 4))).all()
    assert (fake.choice(50, 10) == real.choice(50, 10)).all()
    assert (fake.standard_normal(6) == real.standard_normal(6)).all()
    assert (fake.open_uniform(4) == 0.5).all()


def test_inverse_cdf_median_is_zero():
    assert laplace_inverse_cdf(0.5, 1.0) == 0.0


def test_inverse_cdf_closed_form_value():
    assert laplace_inverse_cdf(0.75, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)


@given(
    k=st.integers(min_value=2**50, max_value=2**51 - 1),
    sigma=st.floats(min_value=1e-3, max_value=1e3),
)
def test_inverse_cdf_sign_flip_symmetry(k, sigma):
    # u on the 2^-52 grid in [0.25, 0.5), where 1 - u is exactly representable
    u = k * 2.0**-52
    assert laplace_inverse_cdf(1.0 - u, sigma) == -laplace_inverse_cdf(u, sigma)


def test_laplace_monte_carlo_variance():
    # Var(Lap(sigma)) = 2 sigma^2 = 8 for sigma = 2
    x = sample_laplace(2.0, SeededGenerator(123).split("var"), size=1_000_000)
    assert abs(x.var() - 8.0) < 0.1


def test_integer_laplace_density_at_zero():
    # P(Z = 0) = (1 - p) / (1 + p) with p = exp(-1/sigma)
    p = math.exp(-1.0)
    expected = (1 - p) / (1 + p)
    assert expected == pytest.approx(0.4621, abs=5e-5)
    z = sample_integer_laplace(1.0, SeededGenerator(7).split("z"), size=1_000_000)
    assert abs((z == 0).mean() - expected) < 3e-3


def test_integer_laplace_mean_and_variance_bounds():
    z = sample_integer_laplace(3.0, SeededGenerator(11).split("mv"), size=1_000_000)
    assert abs(z.mean()) < 0.02
    assert z.var() <= 18.0  # Var <= 2 sigma^2


def test_integer_laplace_density_ratio():
    # P(z) / P(z + 1) = e^{1/sigma} for z >= 0, within 3 standard errors
    sigma = 2.0
    n = 1_000_000
    z = sample_integer_laplace(sigma, SeededGenerator(29).split("ratio"), size=n)
    target = math.exp(1.0 / sigma)
    for value in (0, 1, 2):
        a = (z == value).sum()
        b = (z == value + 1).sum()
        ratio = a / b
        se = ratio * math.sqrt(1.0 / a + 1.0 / b)
        assert abs(ratio - target) < 3 * se


def test_integer_laplace_outputs_are_integers():
    z = sample_integer_laplace(1.7, SeededGenerator(4), size=100)
    assert z.dtype == np.int64
    assert isinstance(sample_integer_laplace(1.7, SeededGenerator(4)), int)


def test_matrix_sampler_d1_diagonal_rule():
    gen = SeededGenerator(5).split("m")
    lam = sample_laplace(1.0, SeededGenerator(5).split("m"))
    mat = sample_symmetric_laplace_matrix(1, 1.0, gen)
    assert mat.shape == (1, 1)
    assert mat[0, 0] == 2.0 * lam


def test_matrix_sampler_symmetry_is_exact():
    mat = sample_symmetric_laplace_matrix(6, 0.7, SeededGenerator(9).split("sym"))
    assert (mat == mat.T).all()


def test_matrix_sampler_draw_count_and_order():
    # consuming d(d+1)/2 draws in row-major upper-triangular order
    d = 3
    draws = sample_laplace(1.0, SeededGenerator(42).split("x"), size=d * (d + 1) // 2)
    mat = sample_symmetric_laplace_matrix(d, 1.0, SeededGenerator(42).split("x"))
    expected = np.zeros((d, d))
    expected[np.triu_indices(d)] = draws
    expected = expected + expected.T
    assert (mat == expected).all()


def test_matrix_sampler_reproducible():
    a = sample_symmetric_laplace_matrix(3, 1.0, SeededGenerator(42).split("r"))
    b = sample_symmetric_laplace_matrix(3, 1.0, SeededGenerator(42).split("r"))
    assert (a == b).all()


@pytest.mark.parametrize("label", ["alpha", "beta", 17])
def test_split_streams_are_independent_of_sibling_use(label):
    # drawing from one sub-stream must not perturb another
    first = sample_laplace(1.0, SeededGenerator(3).split(label), size=5)
    parent = SeededGenerator(3)
    parent.split("other").random(1000)
    second = sample_laplace(1.0, parent.split(label), size=5)
    assert (first == second).all()


def test_generator_identical_seed_identical_stream():
    a = SeededGenerator(2**63 + 12345)
    b = SeededGenerator(2**63 + 12345)
    assert (a.random(16) == b.random(16)).all()


def test_open_uniform_stays_inside_open_interval():
    u = SeededGenerator(1).open_uniform(size=100_000)
    assert u.min() > 0.0
    assert u.max() < 1.0
