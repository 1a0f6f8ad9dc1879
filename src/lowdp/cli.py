"""Command-line front end: generate / evaluate / sweep / audit.

Subcommands read input files and write machine-readable outputs (CSV for
point sets, JSON for records and summaries); the human log goes to stderr.
``sweep`` and the acceptance suite's scaling criteria share one planted
trial (``_planted_trial``) and one summary of its rows (``_summarize``).
Exit codes: 0 success, 2 input or config validation failure (every library
error but a solver failure), 3 runtime failure (a solver failure or an
unexpected exception).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from .audit import AUDIT_MECHANISMS, audit_mechanism
from .errors import IngestError, LowdpError, SizeOverflowError, SolverError
from .metrics import METRICS, wasserstein1, wasserstein1_sampled, wasserstein2
from .noise import SeededGenerator
from .pca import BLOCK, Dataset
from .pipeline import SUBROUTINES, PipelineConfig, generate
from .planted import planted_subspace_dataset
from .psmm import DELTA_MODES

__all__ = ["main", "ingest", "write_points_csv"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

# the stage term of a planted trial is always sampled l2 W1 at k = min(STAGE_K, n, m)
STAGE_K = 2048
STAGE_REPEATS = 2


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _parses(cell: str) -> bool:
    """Whether a CSV cell reads as a float."""
    try:
        float(cell)
    except ValueError:
        return False
    return True


def ingest(path, *, rescale: bool = False):
    """Load a CSV of one point per row into a Dataset.

    The points are read by ``_read_points``; a Dataset needs n >= 2 of them.
    Returns (Dataset, preprocessing-info).
    """
    values, info = _read_points(path, rescale=rescale)
    if values.shape[1] == 0:
        raise IngestError(f"{path}: file contains a header but no data rows")
    return Dataset(values), info


def _read_points(path, *, rescale: bool = False):
    """Read a CSV of one point per row into a d x m float array.

    The first row is a header when none of its cells is a number; a file of
    a header alone is d x 0, d the header's width.  Values must be numeric,
    finite and, unless ``rescale`` is set, already in [0, 1]; with
    ``rescale`` each column is min-max mapped onto [0, 1] and the
    per-column ranges are reported so the step is on the preprocessing
    record.  Rows are parsed into float blocks of BLOCK rows, which are
    then copied into one d x m array.  Returns (points, preprocessing-info).
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"input file not found: {path}")
    blocks, n = [], 0
    with path.open(newline="") as handle:
        rows = (row for row in csv.reader(handle) if row)
        first = next(rows, None)
        if first is None:
            raise IngestError(f"{path}: file contains no data rows")
        width = len(first)
        if any(map(_parses, first)):  # a header is a row none of whose cells is a number
            rows = itertools.chain([first], rows)
        for n, row in enumerate(rows, 1):
            if n == 1:
                width = len(row)
            if len(row) != width:
                raise IngestError(f"{path}: row {n} has {len(row)} cells, expected {width}")
            slot = (n - 1) % BLOCK
            if slot == 0:
                blocks.append(np.empty((BLOCK, width)))
            try:
                blocks[-1][slot] = list(map(float, row))
            except ValueError:
                j = next(j for j, cell in enumerate(row, 1) if not _parses(cell))
                raise IngestError(f"{path}: non-numeric cell at row {n}, column {j}: {row[j - 1]!r}") from None
    values = np.empty((width, n))
    for start, block in zip(range(0, n, BLOCK), blocks):
        values[:, start : start + BLOCK] = block[: n - start].T
    for start in range(0, n, BLOCK):
        block = values[:, start : start + BLOCK]
        bad = ~np.isfinite(block)
        if not rescale:
            bad |= (block < 0.0) | (block > 1.0)
        if bad.any():
            i = int(np.flatnonzero(bad.any(axis=0))[0])
            j = int(np.flatnonzero(bad[:, i])[0])
            value = float(block[j, i])
            problem = "is outside [0, 1]; pass --rescale to min-max normalize" if np.isfinite(value) else "is not finite"
            raise IngestError(f"{path}: value {value!r} at row {start + i + 1}, column {j + 1} {problem}")
    info = {"rescale": bool(rescale), "columns": None}
    if rescale and n:
        lo = values.min(axis=1)
        hi = values.max(axis=1)
        span = hi - lo
        flat = span == 0
        span[flat] = 1.0
        values -= lo[:, None]
        values /= span[:, None]
        values[flat] = 0.5  # constant columns carry no information
        info["columns"] = [{"min": float(a), "max": float(b)} for a, b in zip(lo, hi)]
    return values, info


def write_points_csv(path, points: np.ndarray) -> None:
    """One point per row; floats serialized as shortest round-trip decimals.

    Rows are formatted BLOCK at a time, so only one block's floats are
    Python objects at once.
    """
    points = np.asarray(points, dtype=np.float64)
    with Path(path).open("w", newline="") as handle:
        handle.write(",".join(f"x{j}" for j in range(points.shape[0])) + "\r\n")
        for start in range(0, points.shape[1], BLOCK):
            rows = points[:, start : start + BLOCK].T.tolist()
            handle.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from a tuple of labels."""
    token = "/".join(str(p) for p in parts)
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def _evaluate_w1(x, y, gen, metric, k, repeats, max_cells):
    """Exact W1 when the instance fits in max_cells, else the labeled sampled
    estimator, drawing from gen with the given k and repeats."""
    if y.shape[1] == 0:
        return None, "empty"
    try:
        return float(wasserstein1(x, y, metric, max_cells=max_cells)), "exact"
    except SizeOverflowError:
        return float(wasserstein1_sampled(x, y, gen, metric, k=k, repeats=repeats)), "sampled"


def _config_from_args(args, epsilon, seed, m_target=None) -> PipelineConfig:
    """The run configuration of the shared pipeline flags, at one budget and seed."""
    return PipelineConfig(
        epsilon=epsilon,
        d_prime=args.dprime,
        tau=args.tau,
        subroutine=args.subroutine,
        seed=seed,
        delta_mode=args.delta_mode,
        delta_scale=args.delta_scale,
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
        gen = SeededGenerator(derive_seed(config.seed, "evaluate")).split("w1-estimate")
        value, estimator = _evaluate_w1(dataset.points, result.points, gen, *_eval_values(args))
        record["w1"] = value
        record["w1_estimator"] = estimator
        if estimator == "exact":
            record["w2"] = float(wasserstein2(dataset.points, result.points, "l2", max_cells=args.eval_max_cells))
    _write_json(out_dir / "run_record.json", record)
    if result.provenance["warning"]:
        _log(f"warning: {result.provenance['warning']}")
    _log(f"wrote {csv_path} ({result.size} points) in {elapsed:.2f}s")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    original, _ = ingest(args.input, rescale=args.rescale)
    synthetic, _ = _read_points(args.synthetic)  # any m >= 0: an empty release is an evaluation target too
    if synthetic.shape[0] != original.dim:
        raise IngestError(f"{args.synthetic}: {synthetic.shape[0]} columns, expected {original.dim} as in {args.input}")
    gen = SeededGenerator(args.seed).split("w1-estimate")
    value, estimator = _evaluate_w1(original.points, synthetic, gen, *_eval_values(args))
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
        report["w2"] = float(wasserstein2(original.points, synthetic, "l2", max_cells=args.eval_max_cells))
    _write_json(args.out, report)
    _log(f"W1 ({estimator}) = {value}")
    return EXIT_OK


def _planted_trial(n, d, planted_dprime, config, data_gen, stage_gen, end_gen, metric, k, repeats, max_cells):
    """Run ``generate`` on n planted points and return the trial's row.

    stage_w1, the term the (eps n)^(-1/d') rate governs, is the sampled l2 W1
    from the projected input coordinates to the subroutine's output ones; w1
    is ``_evaluate_w1`` from input to output.  An empty release has neither.
    """
    data, _ = planted_subspace_dataset(n, d, planted_dprime, data_gen)
    t0 = time.perf_counter()
    result = generate(data, config, keep_intermediates=True)
    gen_seconds = time.perf_counter() - t0
    stage_w1 = None
    if result.size:
        coords_in, coords_out = result.intermediates["projected"].coords, result.intermediates["coords_out"]
        stage_w1 = float(wasserstein1_sampled(coords_in, coords_out, stage_gen, "l2", k=STAGE_K, repeats=STAGE_REPEATS))
    w1, estimator = _evaluate_w1(data.points, result.points, end_gen, metric, k, repeats, max_cells)
    return {
        "n": n,
        "epsilon": config.epsilon,
        "seed": config.seed,
        "d_prime": result.provenance["d_prime"],
        "subroutine": result.provenance["subroutine"],
        "m": result.size,
        "stage_w1": stage_w1,
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


def _summarize(rows):
    """Mean end-to-end and stage W1 per (d', eps, n), as a list of records in
    numeric (d', eps, n) order, and per d' the log-log slopes of both against
    eps n.  Rows of an empty release are left out."""
    groups, curves = {}, {}
    for row in rows:
        if row["w1"] is not None:
            groups.setdefault((row["d_prime"], row["epsilon"], row["n"]), []).append(row)
    summary = {"groups": [], "slopes": {}, "stage_slopes": {}}
    for (dp, epsilon, n), members in sorted(groups.items()):
        means = {f"mean_{term}": float(np.mean([row[term] for row in members])) for term in ("w1", "stage_w1")}
        summary["groups"].append({"d_prime": dp, "epsilon": epsilon, "n": n, **means, "trials": len(members)})
        curves.setdefault(dp, []).append((epsilon * n, means))
    for dp, curve in curves.items():
        for key, term in (("slopes", "mean_w1"), ("stage_slopes", "mean_stage_w1")):
            summary[key][str(dp)] = _fit_slope([(x, means[term]) for x, means in curve])
    return summary


def _sweep_trial(task):
    (n, epsilon, trial, args) = task
    seeds = {label: derive_seed(args.seed, label, n, epsilon, trial) for label in ("data", "run", "stage", "eval")}
    row = _planted_trial(
        n, args.dim, args.planted_dprime, _config_from_args(args, epsilon, seeds["run"]),
        SeededGenerator(seeds["data"]), SeededGenerator(seeds["stage"]),
        SeededGenerator(seeds["eval"]).split("w1-estimate"), *_eval_values(args),
    )
    return {"trial": trial, **row}


def cmd_sweep(args) -> int:
    tasks = [
        (n, epsilon, trial, args)
        for epsilon in args.epsilon_grid
        for n in args.n_grid
        for trial in range(args.trials)
    ]
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
        rows = list(pool.map(_sweep_trial, tasks))
    rows.sort(key=lambda r: (r["d_prime"], r["epsilon"], r["n"], r["trial"]))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = [
        "d_prime", "epsilon", "n", "trial", "seed", "subroutine",
        "m", "w1", "w1_estimator", "stage_w1", "generate_seconds",
    ]
    with (out_dir / "results.csv").open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)

    summary = _summarize(rows)
    _write_json(out_dir / "summary.json", {"record": "sweep-summary", **summary})
    for dp, slope in summary["slopes"].items():
        _log(f"d'={dp}: fitted log-log slope {slope} (stage {summary['stage_slopes'][dp]})")
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


def _positive_int(text: str) -> int:
    """An argparse type: an integer >= 1."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _dimension(text: str):
    """The --dprime value: 'auto' or a positive integer."""
    return text if text == "auto" else _positive_int(text)


def _eval_values(args):
    """The shared evaluation flags in ``_evaluate_w1``'s order: metric, k, repeats, max_cells."""
    return args.metric, args.eval_k, args.eval_repeats, args.eval_max_cells


def _add_eval_options(parser):
    parser.add_argument("--metric", choices=METRICS, default="linf")
    parser.add_argument("--eval-max-cells", type=_positive_int, default=1_000_000,
                        help="largest exact transport instance before sampling")
    parser.add_argument("--eval-k", type=_positive_int, default=1024, help="subsample size of the sampled estimator")
    parser.add_argument("--eval-repeats", type=_positive_int, default=2)


def _comma_list(convert):
    """An argparse type: a nonempty comma-separated list, each value parsed by convert."""

    def parse(text: str) -> list:
        values = [convert(v) for v in text.split(",") if v]
        if not values:
            raise ValueError(f"no values in {text!r}")
        return values

    parse.__name__ = f"comma-separated {convert.__name__} list"  # argparse names it in its error
    return parse


class _EpsilonGridOnly(argparse.Action):
    """Refuses ``sweep --epsilon``: the sweep's budgets come from --epsilon-grid."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error("sweep takes its budgets from --epsilon-grid (comma-separated), not --epsilon")


def _add_pipeline_options(parser):
    """Pipeline flags shared by generate and sweep; each declares its own budget flag."""
    parser.add_argument("--dprime", type=_dimension, default="auto", help="target dimension, or 'auto'")
    parser.add_argument("--tau", type=float, default=0.1, help="spectrum-ratio threshold for auto d'")
    parser.add_argument("--subroutine", choices=SUBROUTINES, default="auto")
    parser.add_argument("--delta-mode", choices=DELTA_MODES, default="alg5", dest="delta_mode")
    parser.add_argument("--delta-scale", type=float, default=1.0, dest="delta_scale")
    parser.add_argument("--seed", type=int, default=0)


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
    p_gen.add_argument("--m-target", type=_positive_int, default=None, dest="m_target",
                       help="psmm output size (default n); a pmm run refuses it")
    p_gen.add_argument("--evaluate", action="store_true", help="also compute W1 against the input")
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
    p_sweep.add_argument("--dim", type=_positive_int, required=True, help="ambient dimension d")
    p_sweep.add_argument("--planted-dprime", type=_positive_int, required=True, dest="planted_dprime")
    p_sweep.add_argument("--n-grid", type=_comma_list(int), required=True, dest="n_grid",
                         help="comma-separated dataset sizes")
    p_sweep.add_argument("--epsilon-grid", type=_comma_list(float), default=[1.0], dest="epsilon_grid",
                         help="comma-separated total privacy budgets")
    p_sweep.add_argument("--epsilon", action=_EpsilonGridOnly, help=argparse.SUPPRESS)
    p_sweep.add_argument("--trials", type=_positive_int, default=10)
    p_sweep.add_argument("--jobs", type=_positive_int, default=1)
    _add_pipeline_options(p_sweep)
    _add_eval_options(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_audit = sub.add_parser("audit", help="Monte-Carlo differential privacy audit")
    p_audit.add_argument("--mechanism", choices=AUDIT_MECHANISMS, required=True)
    p_audit.add_argument("--epsilon", type=float, required=True)
    p_audit.add_argument("--samples", type=_positive_int, default=1_000_000)
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
    try:
        return args.func(args)
    except SolverError as exc:
        _log(f"error: {exc}")
        return EXIT_RUNTIME
    except LowdpError as exc:
        _log(f"error: {exc}")
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        _log(f"internal error: {exc!r}")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
