"""End-to-end synthetic data generation on a private low-dimensional subspace.

One run composes: private covariance (first budget share), dimension choice
(free post-processing), noisy projection (second share), a synthetic-measure
subroutine on the projected coordinates (third share), the lift back to
ambient coordinates, the add-back of the private mean the projection stage
already released (no further budget), and the coordinatewise clamp to
[0, 1]^d.  The three stages that draw noise each get a third of epsilon.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidBudgetError, InvalidDimensionError, InvalidParameterError, InvalidRegimeError
from .metrics import projection_diagnostics
from .noise import SeededGenerator

# not called here: perfbench/tracing.py wraps ``lowdp.pipeline.sample_laplace``
# in a span, and the traced benchmark run fails if the attribute is missing
from .noise import sample_laplace  # noqa: F401
from .pca import BLOCK, Dataset, noisy_projection, private_covariance, select_dimension
from .pmm import run_pmm
from .psmm import DELTA_MODES, run_psmm

__all__ = ["STAGE_FRACTIONS", "SUBROUTINES", "PipelineConfig", "SyntheticDataset", "generate"]

SUBROUTINES = ("pmm", "psmm", "auto")

# budget share per noise-drawing stage; exact rationals that sum to one
STAGE_FRACTIONS = {"covariance": Fraction(1, 3), "projection": Fraction(1, 3), "subroutine": Fraction(1, 3)}


def _whole_at_least_one(value) -> bool:
    """Whether value is a number, not a bool, with a whole value >= 1."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and float(value).is_integer()
        and value >= 1
    )


@dataclass(frozen=True)
class PipelineConfig:
    """Run configuration; every knob is explicit so runs replay exactly."""

    epsilon: float
    d_prime: object = "auto"        # target dimension, or "auto" with tau
    tau: float = 0.1
    subroutine: str = "auto"        # one of SUBROUTINES; auto is pmm when d' <= 2
    seed: int = 0
    delta_mode: str = "alg5"        # psmm lattice spacing rule, one of DELTA_MODES
    delta_scale: float = 1.0
    m_target: int = None            # psmm output size, defaults to n; pmm refuses it

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise InvalidBudgetError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.subroutine not in SUBROUTINES:
            raise InvalidParameterError(f"subroutine must be one of {SUBROUTINES}, got {self.subroutine!r}")
        if self.delta_mode not in DELTA_MODES:
            raise InvalidParameterError(f"delta_mode must be one of {DELTA_MODES}, got {self.delta_mode!r}")
        if self.d_prime != "auto":
            if not _whole_at_least_one(self.d_prime):
                raise InvalidDimensionError(f"d_prime must be 'auto' or an integer >= 1, got {self.d_prime!r}")
            object.__setattr__(self, "d_prime", int(self.d_prime))
        if not 0.0 < self.tau < 1.0:
            raise InvalidParameterError(f"tau must be in (0, 1), got {self.tau}")
        # SeededGenerator reduces a seed mod 2^64 and int() truncates, so any
        # other seed would replay a stream under a seed it was not drawn from
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed < 2**64:
            raise InvalidParameterError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.m_target is not None:
            if not _whole_at_least_one(self.m_target):
                raise InvalidParameterError(f"m_target must be None or an integer >= 1, got {self.m_target!r}")
            object.__setattr__(self, "m_target", int(self.m_target))
        if not self.delta_scale > 0:
            raise InvalidParameterError(f"delta_scale must be positive, got {self.delta_scale}")


@dataclass(frozen=True)
class SyntheticDataset:
    """Synthetic points in [0, 1]^d with the full provenance of their run."""

    points: np.ndarray
    provenance: dict
    intermediates: dict = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.points.shape[1]


def _on_subspace(points: np.ndarray, center: np.ndarray, basis: np.ndarray) -> bool:
    """Whether every column of points, less center, is within 1e-10 (l2) of span(basis)."""
    for start in range(0, points.shape[1], BLOCK):
        residual = points[:, start : start + BLOCK] - center[:, None]
        residual -= basis @ (basis.T @ residual)
        if not np.linalg.norm(residual, axis=0).max() <= 1e-10:
            return False
    return True


def generate(data, config: PipelineConfig, *, keep_intermediates: bool = False) -> SyntheticDataset:
    """Run the full pipeline on a dataset in [0, 1]^d.

    Deterministic given (data, config): all randomness derives from
    config.seed through named sub-streams, one per stage.  The data mean and
    centered Gram are computed once (on the Dataset) and feed the covariance
    release, the projection's private mean and centering, and the
    diagnostics; the add-back reuses that private mean.
    The lift, the mean add-back, the on-subspace check and the clamp all
    work in place in the one d x m output.  ``keep_intermediates`` keeps
    references, not copies: the projection stage's result ``projected`` and
    the subroutine's d' x m output ``coords_out``.  The pre-clamp points are
    ``projected.basis @ coords_out + projected.private_mean[:, None]`` to
    the bit.
    """
    dataset = data if isinstance(data, Dataset) else Dataset(np.asarray(data, dtype=np.float64))
    d, n = dataset.points.shape

    eps = {name: config.epsilon * float(frac) for name, frac in STAGE_FRACTIONS.items()}
    if not eps["subroutine"] * n > 1.0:
        raise InvalidRegimeError(
            f"subroutine budget times n must exceed 1 (got {eps['subroutine'] * n:.3g}); "
            "increase epsilon or n"
        )

    root = SeededGenerator(config.seed)

    cov = private_covariance(dataset, eps["covariance"], root.split("covariance"))
    d_prime = select_dimension(cov, config.tau) if config.d_prime == "auto" else config.d_prime

    projected = noisy_projection(dataset, cov, d_prime, eps["projection"], root.split("projection"))

    subroutine = config.subroutine
    if subroutine == "auto":
        subroutine = "pmm" if d_prime <= 2 else "psmm"
    if subroutine == "pmm" and config.m_target is not None:
        raise InvalidParameterError("m_target sets the psmm output size; a pmm run's size is its noisy root count")
    sub_gen = root.split("subroutine")
    if subroutine == "pmm":
        coords_out, sub_info = run_pmm(projected.coords, projected.radius, eps["subroutine"], n, sub_gen)
    else:
        coords_out, sub_info = run_psmm(
            projected.coords,
            projected.radius,
            eps["subroutine"],
            n,
            d,
            sub_gen,
            delta_mode=config.delta_mode,
            delta_scale=config.delta_scale,
            m_target=config.m_target,
        )

    # per-run diagnostics: the stability/eigenvalue-shift inequalities for the
    # effective perturbation between the noisy matrix and (1/n) Z Z^T
    second_moment = dataset.gram / n
    effective_noise = cov.matrix - second_moment
    effective_noise = (effective_noise + effective_noise.T) / 2.0
    diag = projection_diagnostics(second_moment, effective_noise, projected.basis, d_prime)

    synthetic = projected.basis @ coords_out
    synthetic += projected.private_mean[:, None]  # already released, no extra budget
    on_subspace = _on_subspace(synthetic, projected.private_mean, projected.basis)
    np.clip(synthetic, 0.0, 1.0, out=synthetic)

    m = synthetic.shape[1]
    gram_gap = np.abs(projected.basis.T @ projected.basis - np.eye(d_prime)).max()
    # squared coordinate norms BLOCK columns at a time; sqrt is monotone, so it is taken once
    coord_norm = math.sqrt(
        max(np.square(projected.coords[:, s : s + BLOCK]).sum(axis=0).max() for s in range(0, n, BLOCK))
    )
    checks = {
        "projection_stability": bool(diag.stability_ok),
        "eigenvalue_shift": bool(diag.weyl_ok),
        "basis_orthonormal": bool(gram_gap <= 1e-10),
        "coords_within_radius": coord_norm <= projected.radius + 1e-9,
        "pre_clamp_on_subspace": on_subspace,
    }
    provenance = {
        "config": asdict(config),
        "n": n,
        "d": d,
        "m": m,
        "d_prime": d_prime,
        "d_prime_mode": "auto" if config.d_prime == "auto" else "explicit",
        "subroutine": subroutine,
        "seed": config.seed,
        "stage_budgets": {
            name: {"fraction": str(frac), "epsilon": config.epsilon * float(frac)}
            for name, frac in STAGE_FRACTIONS.items()
        },
        "noise_scales": {
            "covariance_entry": cov.noise_scale,
            "mean_per_coordinate": projected.noise_scale,
        },
        "radius": projected.radius,
        "subroutine_info": sub_info,
        "checks": checks,
        "draw_streams": ["covariance", "projection", "subroutine"],
        "non_private": False,  # every stage always draws its noise
        "warning": "empty-output" if m == 0 else None,
    }
    intermediates = {"projected": projected, "coords_out": coords_out} if keep_intermediates else None
    return SyntheticDataset(points=synthetic, provenance=provenance, intermediates=intermediates)
