"""Peak allocations of the large-n paths, bounded from their design.

Each bound counts the arrays the code is meant to hold at its peak (the
output, one centred copy of the input, fixed-size blocks, one k x k matrix
per running repeat) in float64 bytes.  tracemalloc sees every numpy buffer
allocated while it runs, and also the code of any module first imported
then, so the modules these calls import on first use are loaded up front.
"""

import tracemalloc

import numpy as np
import numpy.random  # noqa: F401  (first loaded by a SeededGenerator)
import scipy.optimize  # noqa: F401  (first loaded by an assignment solve)
import scipy.spatial.distance  # noqa: F401  (first loaded by a ground distance)

import lowdp.metrics
from lowdp import PipelineConfig, generate, planted_subspace_dataset, wasserstein1_sampled
from lowdp.noise import SeededGenerator
from lowdp.pca import BLOCK, Dataset

F64 = 8


def _peak_bytes(call):
    """(call(), the peak bytes allocated while it ran)."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_planted_sampler_holds_its_output_one_batch_draw_and_blocks():
    n, d, d_prime = 2**15, 10, 2
    (data, _), peak = _peak_bytes(lambda: planted_subspace_dataset(n, d, d_prime, SeededGenerator(1)))
    assert data.points.shape == (d, n)
    # the d x n output; the first batch's t, d' x 2n; per block of candidates
    # the candidates, their accepted copy, the masks and the accepted
    # columns' indices (at most 4 d x BLOCK)
    bound = F64 * (d * n + d_prime * 2 * n + 4 * d * BLOCK)
    assert peak <= bound


def test_pmm_generate_holds_its_output_or_one_centred_copy():
    n, d, d_prime = 2**15, 10, 2
    data = Dataset(planted_subspace_dataset(n, d, d_prime, SeededGenerator(2))[0].points)
    config = PipelineConfig(epsilon=1.0, d_prime=d_prime, subroutine="pmm", seed=3)
    result, peak = _peak_bytes(lambda: generate(data, config))
    size = max(n, result.size)
    # the d x m output or the centred copy of the input behind the Gram
    # matrix, never both; the d' x n coordinates and the d' x m PMM output;
    # at most four d x BLOCK temporaries of a blocked pass.  PMM's own work
    # (its count tree and three d' x m arrays) stays below the output here.
    bound = F64 * (d * size + 2 * d_prime * size + 4 * d * BLOCK)
    assert peak <= bound


def test_sampled_w1_holds_one_k_by_k_matrix_per_running_repeat():
    k, d, repeats = 512, 2, 2
    rng = np.random.default_rng(4)
    x, y = rng.random((d, 2000)), rng.random((d, 2000))
    running = min(repeats, lowdp.metrics._usable_cores())
    _, peak = _peak_bytes(lambda: wasserstein1_sampled(x, y, SeededGenerator(5), k=k, repeats=repeats))
    # one k x k matrix per running repeat; the draws and their copies (d x k
    # each, d = 2), the jitter and matched-pair blocks and the thread pool's
    # bookkeeping fit in 16 blocks of BLOCK entries, a quarter of one matrix
    bound = F64 * (running * k * k + 16 * BLOCK)
    assert peak <= bound
