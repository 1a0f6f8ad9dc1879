"""Workload definitions of the benchmark: input make-up, pipeline config and
the evaluation each trial times.

Every input is a planted-subspace dataset drawn by the benchmark from the
run's seed; the program under test only ever sees the points.
"""

from __future__ import annotations

from dataclasses import dataclass

EPSILON = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int                 # points per input
    d: int                 # ambient dimension
    planted: int           # dimension of the planted affine subspace
    config: dict           # PipelineConfig keywords besides epsilon and seed
    evaluation: str        # "exact" -> wasserstein1, "sampled" -> wasserstein1_sampled
    pool: int              # distinct inputs generated at set-up; trials cycle through them
    reduced_n: int         # n used by the self-test

    def sized(self, reduced: bool) -> int:
        return self.reduced_n if reduced else self.n


PSMM_PROOF_X4 = {"d_prime": 3, "subroutine": "psmm", "delta_mode": "proof", "delta_scale": 4.0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("pmm-large", 2**17, 10, 2, {"d_prime": 2, "subroutine": "pmm"}, "sampled", 2, 2**12),
        Workload("psmm-lattice", 2**14, 8, 3, PSMM_PROOF_X4, "sampled", 4, 2**10),
        Workload("exact-pmm", 128, 10, 2, {"d_prime": 2, "subroutine": "pmm"}, "exact", 32, 60),
        Workload("exact-psmm", 128, 10, 3, PSMM_PROOF_X4, "exact", 32, 60),
    )
}

# sampled-W1 settings of the `lowdp generate --evaluate` fallback
SAMPLE_K = 1024
SAMPLE_REPEATS = 2
