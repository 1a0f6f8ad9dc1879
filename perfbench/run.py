"""Benchmark of the lowdp pipeline: generation, lattice projection and W1 evaluation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N            # every workload, untraced and traced

Each workload runs in worker processes of its own with BLAS threads capped
at the number of usable cores.  Untraced, the last line of standard output
is a JSON object with the end-to-end metrics; traced (`--trace 1`), with
the per-layer metrics.  Run outputs go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5        # set-up is measured in this many fresh processes, spread before and
                         # after the trials; the median is reported
RUN_LIMIT_S = 170.0      # a single-workload run must end within 180 s


class BenchError(Exception):
    pass


def child_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def call_worker(args: list, deadline: float) -> dict:
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), *args],
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} passed the run time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def code_key() -> str:
    """Hash of the library and benchmark sources: digests are compared only
    between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_digests(name: str, seed: int, reduced: bool, trials: list) -> int:
    """Record each trial's output digest; count trials that differ from an
    earlier run of the same code, workload and seed."""
    path = OUT_DIR / "digests" / code_key() / f"{name}-seed{seed}{'-reduced' if reduced else ''}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    mismatches = 0
    for trial in trials:
        if "digest" not in trial:
            continue
        key = str(trial["trial"])
        if key in known and known[key] != trial["digest"]:
            mismatches += 1
            print(f"{name} trial {key}: output digest differs from an earlier run of this code", file=sys.stderr)
        known.setdefault(key, trial["digest"])
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, path)
    return mismatches


def run_workload(name: str, seed: int, seconds: float, trace: int, reduced: bool, spec: dict) -> dict:
    deadline = monotonic() + RUN_LIMIT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    common += ["--reduced"] if reduced else []
    setups = []

    def setup_only(count):
        for _ in range(0 if trace else count):
            setups.append(call_worker([*common, "--mode", "setup"], deadline)["setup"]["total_s"])

    setup_only((SETUP_REPEATS - 1) // 2)
    out = call_worker([*common, "--mode", "measure"], deadline)
    setups.append(out["setup"]["total_s"])
    setup_only(SETUP_REPEATS - 1 - (SETUP_REPEATS - 1) // 2)

    trials = out["trials"]
    done = [t for t in trials if "error" not in t]
    if not done:
        raise BenchError(f"{name}: every trial failed")
    failed = len(trials) - len(done) + compare_digests(name, seed, reduced, trials)
    if trace:
        values = out["layers"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "generate_s": statistics.median(t["generate_s"] for t in done),
            "evaluate_s": statistics.median(t["evaluate_s"] for t in done),
            "w1": statistics.fmean(t["w1"] for t in done),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for msg in out["check_failures"]:
        print(f"{name} check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not out["check_failures"],
        "attempted": len(trials),
        "failed": failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}{'-reduced' if reduced else ''}"
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({**result, "machine": out["machine"], "setup": out["setup"], "setups_s": setups, "trials": trials}, indent=1)
    )
    return {"result": result, "machine": out["machine"]}


def print_machine(machine: dict):
    blas = machine["blas"]
    print(
        f"machine: nproc={machine['nproc']} mem={machine['mem_total_mb']}MB python={machine['python']} "
        f"numpy={machine['numpy']} scipy={machine['scipy']} blas={blas['name']} {blas['version']} "
        f"blas_threads={blas['threads']} seed={machine['seed']}"
    )


def print_metrics(name: str, result: dict):
    for metric, entry in result["metrics"].items():
        print(f"{name:13s} {metric:34s} {entry['value']:14.6g} {entry['unit']}")
    print(f"{name:13s} attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")


def run_all(seed: int, seconds: float, reduced: bool, spec: dict) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        plain = run_workload(name, seed, seconds, 0, reduced, spec)
        traced = run_workload(name, seed, seconds, 1, reduced, spec)
        if name == next(iter(WORKLOADS)):
            print_machine(plain["machine"])
        for run in (plain["result"], traced["result"]):
            print_metrics(name, run)
            combined["correct"] &= run["correct"]
            combined["attempted"] += run["attempted"]
            combined["failed"] += run["failed"]
            for metric, entry in run["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = entry
        e2e, layers = plain["result"]["metrics"], traced["result"]["metrics"]
        traced_eval = layers["metrics.wasserstein1_s"]["value"] + layers["metrics.wasserstein1_sampled_s"]["value"]
        for label, untraced, with_trace in (
            ("generate_s", e2e["generate_s"]["value"], layers["pipeline.generate_s"]["value"]),
            ("evaluate_s", e2e["evaluate_s"]["value"], traced_eval),
        ):
            overhead = with_trace - untraced
            print(f"{name:13s} tracing overhead on {label}: {overhead:+.4f} s ({overhead / untraced:+.1%})")
            combined["metrics"][f"{name}/trace_overhead.{label}"] = {"value": overhead, "unit": "s"}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"summary-seed{seed}{'-reduced' if reduced else ''}.json").write_text(json.dumps(combined, indent=1))
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measured time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "lowdp" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no lowdp source tree (src/lowdp) or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        if args.workload == "all":
            return run_all(args.seed, seconds, args.reduced, spec)
        run = run_workload(args.workload, args.seed, seconds, args.trace, args.reduced, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print_machine(run["machine"])
    print_metrics(args.workload, run["result"])
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
