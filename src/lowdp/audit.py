"""Monte-Carlo differential privacy audits of the library's noise primitives.

An audit runs a mechanism many times on a fixed pair of neighboring inputs,
discretizes the outputs onto a shared partition, and reports the largest
observed log frequency ratio together with its standard error.  For an
eps-DP mechanism the ratio should not exceed eps beyond sampling noise.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .noise import SeededGenerator, sample_integer_laplace, sample_laplace

__all__ = ["audit_mechanism", "AUDIT_MECHANISMS"]

AUDIT_MECHANISMS = ("integer-laplace-count", "covariance-entry")


def _ratio_report(counts_a, counts_b, samples, min_bin):
    mask = (counts_a >= min_bin) & (counts_b >= min_bin)
    if not mask.any():
        return None
    ratios = np.abs(np.log(counts_a[mask] / counts_b[mask]))
    # per-bin standard error of the log frequency ratio
    se = np.sqrt(1.0 / counts_a[mask] + 1.0 / counts_b[mask] - 2.0 / samples)
    worst = int(np.argmax(ratios))
    return {
        "max_log_ratio": float(ratios[worst]),
        "standard_error": float(se[worst]),
        "bins_compared": int(mask.sum()),
    }


def audit_mechanism(
    mechanism: str,
    epsilon: float,
    samples: int,
    gen: SeededGenerator,
    *,
    min_bin: int = 20,
    n_bins: int = 60,
) -> dict:
    """Estimate the privacy loss of one mechanism on neighboring toy inputs.

    ``integer-laplace-count`` releases a sensitivity-1 count with integer
    Laplace noise at scale 1/eps; the two inputs are counts differing by 1
    and the output partition is the integers themselves.

    ``covariance-entry`` releases one covariance entry with continuous
    Laplace noise at the covariance scale 3 d^2 / (eps n); neighboring
    inputs shift the entry by its worst-case sensitivity 6/n and outputs
    are binned.  The per-entry privacy loss is then eps * (2 / d^2).

    Returns a report with the max observed log-ratio, its standard error,
    and the bound the mechanism is expected to satisfy.  A sample count too
    small to populate the partition yields a warning, not a failure.
    """
    if mechanism not in AUDIT_MECHANISMS:
        raise InvalidParameterError(f"unknown mechanism {mechanism!r}; choose from {AUDIT_MECHANISMS}")
    if not epsilon > 0:
        raise InvalidParameterError(f"epsilon must be positive, got {epsilon}")
    samples = int(samples)
    if samples < 1:
        raise InvalidParameterError("sample count must be positive")

    if mechanism == "integer-laplace-count":
        sigma = 1.0 / epsilon
        base_a, base_b = 10, 11  # neighboring counts differ by one
        out_a = base_a + sample_integer_laplace(sigma, gen.split("a"), size=samples)
        out_b = base_b + sample_integer_laplace(sigma, gen.split("b"), size=samples)
        # partition: individual integers near the counts, aggregated tails
        # (the integer Laplace has geometric tails, so each aggregated tail
        # has log-ratio exactly +-epsilon with a large count behind it)
        window = int(np.ceil(5.0 * sigma))
        lo, hi = base_a - window, base_b + window
        out_a = np.clip(out_a, lo - 1, hi + 1)
        out_b = np.clip(out_b, lo - 1, hi + 1)
        counts_a = np.bincount(out_a - (lo - 1), minlength=hi - lo + 3).astype(np.float64)
        counts_b = np.bincount(out_b - (lo - 1), minlength=hi - lo + 3).astype(np.float64)
        expected_bound = epsilon
    else:
        d, n = 4, 100
        sigma = 3.0 * d * d / (epsilon * n)
        delta_entry = 6.0 / n  # worst-case per-entry shift between neighbors
        value_a, value_b = 0.25, 0.25 + delta_entry
        out_a = value_a + sample_laplace(sigma, gen.split("a"), size=samples)
        out_b = value_b + sample_laplace(sigma, gen.split("b"), size=samples)
        lo = min(out_a.min(), out_b.min())
        hi = max(out_a.max(), out_b.max())
        edges = np.linspace(lo, hi, n_bins + 1)
        counts_a = np.histogram(out_a, bins=edges)[0].astype(np.float64)
        counts_b = np.histogram(out_b, bins=edges)[0].astype(np.float64)
        expected_bound = delta_entry / sigma  # = eps * 2 / d^2 for this entry

    report = {
        "mechanism": mechanism,
        "epsilon": epsilon,
        "samples": samples,
        "expected_bound": float(expected_bound),
        "warning": None,
    }
    ratios = _ratio_report(counts_a, counts_b, samples, min_bin)
    if ratios is None:
        report["warning"] = "too few samples to populate the output partition; increase samples"
        report["max_log_ratio"] = None
        report["standard_error"] = None
        report["bins_compared"] = 0
        report["within_bound"] = None
        return report
    report.update(ratios)
    report["within_bound"] = bool(
        report["max_log_ratio"] <= report["expected_bound"] + 3.0 * report["standard_error"]
    )
    if samples < 10_000:
        report["warning"] = "sample count is small; the ratio estimate is noisy"
    elif report["standard_error"] > report["expected_bound"]:
        report["warning"] = (
            "standard error exceeds the expected bound; increase samples for a meaningful audit"
        )
    return report
