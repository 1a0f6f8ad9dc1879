"""End-to-end synthetic data generation on a private low-dimensional subspace.

One run composes: private covariance (first budget share), dimension choice
(free post-processing), noisy projection (second share), a synthetic-measure
subroutine on the projected coordinates (third share), the lift back to
ambient coordinates, the private mean add-back, and the coordinatewise clamp
to [0, 1]^d.  The default three-way split reuses the saved private mean at
add-back; the four-way split instead spends a fourth share on fresh add-back
noise.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidBudgetError, InvalidDimensionError, InvalidParameterError, InvalidRegimeError
from .metrics import projection_diagnostics
from .noise import NoiseScale, SeededGenerator, sample_laplace
from .pca import Dataset, noisy_projection, private_covariance, select_dimension
from .pmm import run_pmm
from .psmm import run_psmm

__all__ = ["PipelineConfig", "SyntheticDataset", "clamp", "generate"]

_SPLITS = {
    "three": {"covariance": Fraction(1, 3), "projection": Fraction(1, 3), "subroutine": Fraction(1, 3)},
    "four": {
        "covariance": Fraction(1, 4),
        "projection": Fraction(1, 4),
        "subroutine": Fraction(1, 4),
        "add_back": Fraction(1, 4),
    },
}


@dataclass(frozen=True)
class PipelineConfig:
    """Run configuration; every knob is explicit so runs replay exactly."""

    epsilon: float
    d_prime: object = "auto"        # target dimension, or "auto" with tau
    tau: float = 0.1
    subroutine: str = "auto"        # pmm | psmm | auto (pmm when d' <= 2)
    seed: int = 0
    budget_split: str = "three"     # three | four
    delta_mode: str = "alg5"        # psmm lattice spacing rule
    delta_scale: float = 1.0
    zero_noise: bool = False
    m_target: int = None            # psmm output size; defaults to n

    def __post_init__(self):
        if not self.epsilon > 0:
            raise InvalidBudgetError(f"epsilon must be positive, got {self.epsilon}")
        if self.budget_split not in _SPLITS:
            raise InvalidParameterError(f"budget_split must be 'three' or 'four', got {self.budget_split!r}")
        if self.subroutine not in ("pmm", "psmm", "auto"):
            raise InvalidParameterError(f"subroutine must be pmm|psmm|auto, got {self.subroutine!r}")
        if self.delta_mode not in ("alg5", "proof"):
            raise InvalidParameterError(f"delta_mode must be alg5|proof, got {self.delta_mode!r}")
        if self.d_prime != "auto":
            if int(self.d_prime) < 1:
                raise InvalidDimensionError(f"d_prime must be >= 1, got {self.d_prime}")
            object.__setattr__(self, "d_prime", int(self.d_prime))
        else:
            if not 0.0 < self.tau < 1.0:
                raise InvalidParameterError(f"tau must be in (0, 1), got {self.tau}")
        if not self.delta_scale > 0:
            raise InvalidParameterError(f"delta_scale must be positive, got {self.delta_scale}")

    def stage_fractions(self) -> dict:
        """Budget shares per stage; exact rationals that sum to one."""
        return dict(_SPLITS[self.budget_split])


@dataclass(frozen=True)
class SyntheticDataset:
    """Synthetic points in [0, 1]^d with the full provenance of their run."""

    points: np.ndarray
    provenance: dict
    intermediates: dict = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.points.shape[1]


def clamp(points: np.ndarray) -> np.ndarray:
    """Coordinatewise metric projection onto [0, 1]: the nearest cube point."""
    return np.clip(np.asarray(points, dtype=np.float64), 0.0, 1.0)


def generate(data, config: PipelineConfig, *, keep_intermediates: bool = False) -> SyntheticDataset:
    """Run the full pipeline on a dataset in [0, 1]^d.

    Deterministic given (data, config): all randomness derives from
    config.seed through named sub-streams, one per stage.  The data mean and
    centered Gram are computed once (on the Dataset) and feed the covariance
    release, the projection's centering, the add-back and the diagnostics.
    """
    dataset = data if isinstance(data, Dataset) else Dataset(np.asarray(data, dtype=np.float64))
    d, n = dataset.points.shape

    fractions = config.stage_fractions()
    eps = {name: config.epsilon * float(frac) for name, frac in fractions.items()}
    if not eps["subroutine"] * n > 1.0:
        raise InvalidRegimeError(
            f"subroutine budget times n must exceed 1 (got {eps['subroutine'] * n:.3g}); "
            "increase epsilon or n"
        )

    root = SeededGenerator(config.seed)

    cov = private_covariance(dataset, eps["covariance"], root.split("covariance"), zero_noise=config.zero_noise)
    if config.d_prime == "auto":
        d_prime = select_dimension(cov, config.tau, d)
    else:
        if config.d_prime > d:
            raise InvalidDimensionError(f"d_prime={config.d_prime} exceeds data dimension {d}")
        d_prime = config.d_prime

    projected = noisy_projection(
        dataset, cov, d_prime, eps["projection"], root.split("projection"), zero_noise=config.zero_noise
    )

    subroutine = config.subroutine
    if subroutine == "auto":
        subroutine = "pmm" if d_prime <= 2 else "psmm"
    sub_gen = root.split("subroutine")
    if subroutine == "pmm":
        coords_out, sub_info = run_pmm(
            projected.coords,
            projected.radius,
            eps["subroutine"],
            n,
            sub_gen,
            zero_noise=config.zero_noise,
        )
    else:
        coords_out, sub_info = run_psmm(
            projected.coords,
            projected.radius,
            eps["subroutine"],
            n,
            d,
            sub_gen,
            zero_noise=config.zero_noise,
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

    lifted = projected.basis @ coords_out
    if config.budget_split == "four":
        if config.zero_noise:
            add_noise = np.zeros(d)
        else:
            scale = NoiseScale(d / (eps["add_back"] * n))
            add_noise = np.asarray(sample_laplace(scale, root.split("add-back"), size=d))
        add_back_mean = dataset.mean + add_noise
    else:
        add_back_mean = projected.private_mean  # saved private mean, no extra budget
    pre_clamp = lifted + add_back_mean[:, None]
    synthetic = clamp(pre_clamp)

    m = synthetic.shape[1]
    centered_out = pre_clamp - add_back_mean[:, None]
    perp = centered_out - projected.basis @ (projected.basis.T @ centered_out)
    on_subspace = bool(np.linalg.norm(perp, axis=0).max(initial=0.0) <= 1e-10)
    gram_gap = np.abs(projected.basis.T @ projected.basis - np.eye(d_prime)).max()
    coord_norms = np.linalg.norm(projected.coords, axis=0)
    checks = {
        "projection_stability": bool(diag.stability_ok),
        "eigenvalue_shift": bool(diag.weyl_ok),
        "basis_orthonormal": bool(gram_gap <= 1e-10),
        "coords_within_radius": bool(coord_norms.max(initial=0.0) <= projected.radius + 1e-9),
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
            for name, frac in fractions.items()
        },
        "noise_scales": {
            "covariance_entry": cov.noise_scale.sigma,
            "mean_per_coordinate": d / (eps["projection"] * n),
        },
        "radius": projected.radius,
        "subroutine_info": sub_info,
        "checks": checks,
        "draw_streams": ["covariance", "projection", "subroutine", "add-back"][
            : 4 if config.budget_split == "four" else 3
        ],
        "non_private": bool(config.zero_noise),
        "warning": "empty-output" if m == 0 else None,
    }
    intermediates = None
    if keep_intermediates:
        intermediates = {
            "covariance": cov,
            "projected": projected,
            "coords_out": coords_out,
            "lifted": lifted,
            "pre_clamp": pre_clamp,
            "add_back_mean": add_back_mean,
        }
    return SyntheticDataset(points=synthetic, provenance=provenance, intermediates=intermediates)
