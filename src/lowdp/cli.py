"""Command-line front end: generate / evaluate / sweep / audit.

Subcommands read input files and write machine-readable outputs (CSV for
point sets, JSON for records and summaries); the human log goes to stderr.
Exit codes: 0 success, 2 input/config validation failure, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from .audit import AUDIT_MECHANISMS, audit_mechanism
from .errors import (
    IngestError,
    InvalidBudgetError,
    InvalidDimensionError,
    InvalidParameterError,
    InvalidRegimeError,
    LowdpError,
    SizeOverflowError,
)
from .metrics import wasserstein1, wasserstein1_sampled, wasserstein2
from .noise import SeededGenerator
from .pca import Dataset
from .pipeline import PipelineConfig, generate
from .planted import planted_subspace_dataset

__all__ = ["main", "ingest", "write_points_csv"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def ingest(path, *, rescale: bool = False):
    """Load a CSV of one point per row into a Dataset.

    Values must be numeric and, unless ``rescale`` is set, already in [0, 1];
    with ``rescale`` each column is min-max mapped onto [0, 1] and the
    per-column ranges are reported so the step is on the preprocessing
    record.  Returns (Dataset, preprocessing-info).
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"input file not found: {path}")
    with path.open(newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows:
        raise IngestError(f"{path}: file contains no data rows")
    start = 0
    try:
        [float(cell) for cell in rows[0]]
    except ValueError:
        start = 1  # header row
    data_rows = rows[start:]
    if not data_rows:
        raise IngestError(f"{path}: file contains a header but no data rows")
    width = len(data_rows[0])
    values = np.empty((len(data_rows), width))
    for i, row in enumerate(data_rows):
        if len(row) != width:
            raise IngestError(f"{path}: row {i + 1} has {len(row)} cells, expected {width}")
        try:
            values[i] = list(map(float, row))
        except ValueError:
            for j, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise IngestError(
                        f"{path}: non-numeric cell at row {i + 1}, column {j + 1}: {cell!r}"
                    ) from None
    info = {"rescale": bool(rescale), "columns": None}
    if rescale:
        lo = values.min(axis=0)
        hi = values.max(axis=0)
        span = hi - lo
        flat = span == 0
        span[flat] = 1.0
        values = (values - lo) / span
        values[:, flat] = 0.5  # constant columns carry no information
        info["columns"] = [{"min": float(a), "max": float(b)} for a, b in zip(lo, hi)]
    else:
        bad = np.argwhere((values < 0.0) | (values > 1.0))
        if bad.size:
            i, j = bad[0]
            raise IngestError(
                f"{path}: value {float(values[i, j])!r} at row {int(i) + 1}, column {int(j) + 1} "
                "is outside [0, 1]; pass --rescale to min-max normalize"
            )
    return Dataset(values.T), info


def write_points_csv(path, points: np.ndarray) -> None:
    """One point per row; floats serialized as shortest round-trip decimals."""
    points = np.asarray(points, dtype=np.float64)
    with Path(path).open("w", newline="") as handle:
        handle.write(",".join(f"x{j}" for j in range(points.shape[0])) + "\r\n")
        handle.writelines(",".join(map(repr, row)) + "\r\n" for row in points.T.tolist())


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from a tuple of labels."""
    token = "/".join(str(p) for p in parts)
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def _evaluate_w1(x, y, args, seed):
    """Exact W1 when the instance fits, else the labeled sampled estimator.

    Reads the shared evaluation flags (--metric, --eval-max-cells, --eval-k,
    --eval-repeats) from args.
    """
    if y.shape[1] == 0:
        return None, "empty"
    try:
        value = wasserstein1(x, y, args.metric, max_cells=args.eval_max_cells)
        return float(value), "exact"
    except SizeOverflowError:
        gen = SeededGenerator(seed).split("w1-estimate")
        k = min(args.eval_k, x.shape[1], y.shape[1])
        value = wasserstein1_sampled(x, y, gen, args.metric, k=k, repeats=args.eval_repeats)
        return float(value), "sampled"


def _config_from_args(args, epsilon, seed, m_target=None) -> PipelineConfig:
    """The run configuration of the shared pipeline flags, at one budget and seed."""
    return PipelineConfig(
        epsilon=epsilon,
        d_prime=args.dprime if args.dprime == "auto" else int(args.dprime),
        tau=args.tau,
        subroutine=args.subroutine,
        seed=seed,
        budget_split=args.budget_split,
        delta_mode=args.delta_mode,
        delta_scale=args.delta_scale,
        zero_noise=args.zero_noise,
        m_target=m_target,
    )


def cmd_generate(args) -> int:
    dataset, preprocessing = ingest(args.input, rescale=args.rescale)
    config = _config_from_args(args, args.epsilon, args.seed, args.m_target)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    result = generate(dataset, config)
    elapsed = time.perf_counter() - t0

    csv_path = out_dir / "synthetic.csv"
    write_points_csv(csv_path, result.points)

    record = {
        "record": "synthetic-data-run",
        "input": str(args.input),
        "preprocessing": preprocessing,
        "provenance": result.provenance,
        "w1": None,
        "w2": None,
        "w1_estimator": None,
    }
    if args.evaluate:
        value, estimator = _evaluate_w1(dataset.points, result.points, args, derive_seed(config.seed, "evaluate"))
        record["w1"] = value
        record["w1_estimator"] = estimator
        if estimator == "exact" and result.size * dataset.size <= args.eval_max_cells:
            record["w2"] = float(wasserstein2(dataset.points, result.points, "l2"))
    if args.timings:
        record["timings_seconds"] = {"generate": elapsed}
    _write_json(out_dir / "run_record.json", record)
    if result.provenance["warning"]:
        _log(f"warning: {result.provenance['warning']}")
    _log(f"wrote {csv_path} ({result.size} points) in {elapsed:.2f}s")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    original, _ = ingest(args.input, rescale=args.rescale)
    synthetic, _ = ingest(args.synthetic, rescale=False)
    value, estimator = _evaluate_w1(original.points, synthetic.points, args, args.seed)
    report = {
        "record": "evaluation",
        "input": str(args.input),
        "synthetic": str(args.synthetic),
        "metric": args.metric,
        "w1": value,
        "w1_estimator": estimator,
        "w2": None,
    }
    if args.w2 and estimator == "exact":
        report["w2"] = float(wasserstein2(original.points, synthetic.points, "l2"))
    _write_json(args.out, report)
    _log(f"W1 ({estimator}) = {value}")
    return EXIT_OK


def _sweep_trial(task):
    (n, epsilon, trial, args) = task
    data_seed = derive_seed(args.seed, "data", n, epsilon, trial)
    run_seed = derive_seed(args.seed, "run", n, epsilon, trial)
    data, _ = planted_subspace_dataset(n, args.dim, args.planted_dprime, SeededGenerator(data_seed))
    config = _config_from_args(args, epsilon, run_seed)
    t0 = time.perf_counter()
    result = generate(data, config)
    gen_seconds = time.perf_counter() - t0
    w1, estimator = _evaluate_w1(data.points, result.points, args, derive_seed(args.seed, "eval", n, epsilon, trial))
    return {
        "n": n,
        "epsilon": epsilon,
        "trial": trial,
        "seed": run_seed,
        "d_prime": result.provenance["d_prime"],
        "subroutine": result.provenance["subroutine"],
        "m": result.size,
        "w1": w1,
        "w1_estimator": estimator,
        "generate_seconds": round(gen_seconds, 3),
    }


def _fit_slope(points):
    """Least-squares slope of log(w1) against log(eps * n)."""
    xs = np.log([p[0] for p in points])
    ys = np.log([p[1] for p in points])
    if xs.size < 2:
        return None
    return float(np.polyfit(xs, ys, 1)[0])


def cmd_sweep(args) -> int:
    n_grid = [int(v) for v in args.n_grid.split(",") if v]
    eps_grid = [float(v) for v in args.epsilon_grid.split(",") if v]
    trials = int(args.trials)
    tasks = [
        (n, epsilon, trial, args)
        for epsilon in eps_grid
        for n in n_grid
        for trial in range(trials)
    ]
    if args.jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_trial, tasks))
    else:
        rows = [_sweep_trial(task) for task in tasks]
    rows.sort(key=lambda r: (r["d_prime"], r["epsilon"], r["n"], r["trial"]))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = [
        "d_prime", "epsilon", "n", "trial", "seed", "subroutine",
        "m", "w1", "w1_estimator", "generate_seconds",
    ]
    with (out_dir / "results.csv").open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row[key] for key in columns})

    groups = {}
    for row in rows:
        if row["w1"] is None:
            continue
        key = (row["d_prime"], row["epsilon"], row["n"])
        groups.setdefault(key, []).append(row["w1"])
    summary = {"record": "sweep-summary", "groups": {}, "slopes": {}}
    by_dprime = {}
    for (dp, epsilon, n), values in sorted(groups.items()):
        mean_w1 = float(np.mean(values))
        summary["groups"][f"d_prime={dp},epsilon={epsilon},n={n}"] = {
            "mean_w1": mean_w1,
            "trials": len(values),
        }
        by_dprime.setdefault(dp, []).append((epsilon * n, mean_w1))
    for dp, points in by_dprime.items():
        summary["slopes"][str(dp)] = _fit_slope(points)
    _write_json(out_dir / "summary.json", summary)
    for dp, slope in summary["slopes"].items():
        _log(f"d'={dp}: fitted log-log slope {slope}")
    return EXIT_OK


def cmd_audit(args) -> int:
    report = audit_mechanism(
        args.mechanism,
        args.epsilon,
        args.samples,
        SeededGenerator(args.seed).split("audit"),
    )
    _write_json(args.out, report)
    if report["warning"]:
        _log(f"warning: {report['warning']}")
    _log(
        f"max log-ratio {report['max_log_ratio']} vs bound {report['expected_bound']}"
        f" (+3 SE): within={report['within_bound']}"
    )
    return EXIT_OK


def _add_eval_options(parser):
    parser.add_argument("--metric", choices=("linf", "l2"), default="linf")
    parser.add_argument("--eval-max-cells", type=int, default=1_000_000,
                        help="largest exact transport instance before sampling")
    parser.add_argument("--eval-k", type=int, default=1024, help="subsample size of the sampled estimator")
    parser.add_argument("--eval-repeats", type=int, default=2)


class _EpsilonGridOnly(argparse.Action):
    """Refuses ``sweep --epsilon``: the sweep's budgets come from --epsilon-grid."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error("sweep takes its budgets from --epsilon-grid (comma-separated), not --epsilon")


def _add_pipeline_options(parser):
    """Pipeline flags shared by generate and sweep; each declares its own budget flag."""
    parser.add_argument("--dprime", default="auto", help="target dimension, or 'auto'")
    parser.add_argument("--tau", type=float, default=0.1, help="spectrum-ratio threshold for auto d'")
    parser.add_argument("--subroutine", choices=("pmm", "psmm", "auto"), default="auto")
    parser.add_argument("--budget-split", choices=("three", "four"), default="three", dest="budget_split")
    parser.add_argument("--delta-mode", choices=("alg5", "proof"), default="alg5", dest="delta_mode")
    parser.add_argument("--delta-scale", type=float, default=1.0, dest="delta_scale")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--zero-noise", action="store_true", dest="zero_noise",
                        help="test mode: disable all perturbation (output is NOT private)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowdp",
        description="Differentially private low-dimensional synthetic data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate synthetic data from a CSV dataset")
    p_gen.add_argument("--input", required=True)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--epsilon", type=float, required=True, help="total privacy budget")
    _add_pipeline_options(p_gen)
    p_gen.add_argument("--rescale", action="store_true", help="min-max rescale columns into [0, 1]")
    p_gen.add_argument("--m-target", type=int, default=None, dest="m_target")
    p_gen.add_argument("--evaluate", action="store_true", help="also compute W1 against the input")
    p_gen.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the record (breaks byte determinism)")
    _add_eval_options(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_eval = sub.add_parser("evaluate", help="measure W1/W2 between two CSV point sets")
    p_eval.add_argument("--input", required=True)
    p_eval.add_argument("--synthetic", required=True)
    p_eval.add_argument("--out", required=True, help="output JSON path")
    p_eval.add_argument("--rescale", action="store_true")
    p_eval.add_argument("--w2", action="store_true")
    p_eval.add_argument("--seed", type=int, default=0)
    _add_eval_options(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="accuracy scaling experiment on planted subspace data")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--dim", type=int, required=True, help="ambient dimension d")
    p_sweep.add_argument("--planted-dprime", type=int, required=True, dest="planted_dprime")
    p_sweep.add_argument("--n-grid", required=True, dest="n_grid", help="comma-separated dataset sizes")
    p_sweep.add_argument("--epsilon-grid", default="1.0", dest="epsilon_grid",
                         help="comma-separated total privacy budgets")
    p_sweep.add_argument("--epsilon", action=_EpsilonGridOnly, help=argparse.SUPPRESS)
    p_sweep.add_argument("--trials", type=int, default=10)
    p_sweep.add_argument("--jobs", type=int, default=1)
    _add_pipeline_options(p_sweep)
    _add_eval_options(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_audit = sub.add_parser("audit", help="Monte-Carlo differential privacy audit")
    p_audit.add_argument("--mechanism", choices=AUDIT_MECHANISMS, required=True)
    p_audit.add_argument("--epsilon", type=float, required=True)
    p_audit.add_argument("--samples", type=int, default=1_000_000)
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--out", required=True, help="output JSON path")
    p_audit.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    validation_errors = (
        IngestError,
        InvalidParameterError,
        InvalidBudgetError,
        InvalidDimensionError,
        InvalidRegimeError,
    )
    try:
        return args.func(args)
    except validation_errors as exc:
        _log(f"error: {exc}")
        return EXIT_VALIDATION
    except LowdpError as exc:
        _log(f"error: {exc}")
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - defensive
        _log(f"internal error: {exc!r}")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
