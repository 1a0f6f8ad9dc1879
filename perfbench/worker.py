"""One workload in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --mode setup|measure [--reduced]

Set-up imports the library from the checkout's `src`, generates the
workload's inputs from the seed and makes a small warm-up call.  In
`measure` mode the worker then runs whole trials (one `generate`, one W1
evaluation, the output checks) until `--seconds` have passed, and prints
one JSON line with the raw figures.  `perfbench/run.py` drives it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import tracemalloc
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from workloads import EPSILON, SAMPLE_K, SAMPLE_REPEATS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lowdp

    if Path(lowdp.__file__).resolve().parent != (src / "lowdp").resolve():
        raise SystemExit(f"lowdp imported from {lowdp.__file__}, not from {src}")


def blas_info(np) -> dict:
    """BLAS library from numpy's build config and its live thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def machine_block(np, scipy, seed) -> dict:
    with open("/proc/meminfo") as meminfo:
        mem_kb = next(int(line.split()[1]) for line in meminfo if line.startswith("MemTotal:"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_kb / 1024),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(np),
        "blas_thread_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--reduced", action="store_true", help="self-test input size")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    n = wl.sized(args.reduced)

    # ---- set-up: import, inputs, warm-up ----
    t0 = perf_counter()
    import_library()
    t1 = perf_counter()
    from lowdp import PipelineConfig, SeededGenerator, generate, planted_subspace_dataset, wasserstein1, wasserstein1_sampled
    from lowdp.cli import derive_seed

    root_gen = SeededGenerator(args.seed).split("perfbench").split(wl.name)
    pool = [
        planted_subspace_dataset(n, wl.d, wl.planted, root_gen.split(f"input-{i}"))[0].points
        for i in range(wl.pool)
    ]
    t2 = perf_counter()

    def evaluate(x, y, trial_seed):
        if wl.evaluation == "exact":
            return wasserstein1(x, y, "linf")
        k = min(SAMPLE_K, x.shape[1], y.shape[1])
        gen = SeededGenerator(trial_seed).split("w1-estimate")
        return wasserstein1_sampled(x, y, gen, "linf", k=k, repeats=SAMPLE_REPEATS)

    warm_data = planted_subspace_dataset(256, wl.d, wl.planted, root_gen.split("warm-up"))[0].points
    warm = generate(warm_data, PipelineConfig(epsilon=EPSILON, seed=args.seed, **wl.config))
    evaluate(warm_data[:, :32], warm.points[:, :32], args.seed)
    t3 = perf_counter()
    setup = {"import_s": t1 - t0, "input_s": t2 - t1, "warmup_s": t3 - t2, "total_s": t3 - t0}
    if args.mode == "setup":
        print(json.dumps({"setup": setup}))
        return 0

    # ---- timed trials ----
    import numpy as np
    import scipy

    import checks
    from tracing import Tracer, layer_metrics

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    span = tracer.span if tracer else (lambda name: nullcontext())

    eval_span = "metrics.wasserstein1" if wl.evaluation == "exact" else "metrics.wasserstein1_sampled"

    def run_trial(t: int):
        """One generate and one W1 evaluation, timed, then the output checks.

        Returns (record, check failures, per-layer totals).  Everything the
        trial allocated is released when it returns, so no output of an
        earlier trial is alive while the next one runs.
        """
        x = pool[t % len(pool)]
        trial_seed = derive_seed(args.seed, wl.name, "trial", t)
        config = PipelineConfig(epsilon=EPSILON, seed=trial_seed, **wl.config)
        record = {"trial": t}
        if tracer:
            tracer.trial = t
        try:
            g0 = perf_counter()
            with span("pipeline.generate"):
                result = generate(x, config)
            g1 = perf_counter()
            y = result.points
            e0 = perf_counter()
            with span(eval_span):
                value = float(evaluate(x, y, trial_seed))
            e1 = perf_counter()
        except Exception as exc:  # a failed operation is counted, and the run goes on
            record["error"] = f"{type(exc).__name__}: {exc}"
            print(f"trial {t} failed: {record['error']}", file=sys.stderr)
            return record, [], None
        finally:
            if tracer:
                tracer.trial = None
        record.update(generate_s=g1 - g0, evaluate_s=e1 - e0, w1=value, m=int(y.shape[1]))
        digest = hashlib.sha256(np.ascontiguousarray(y).tobytes())
        digest.update(float(value).hex().encode())
        record["digest"] = digest.hexdigest()

        # ---- output checks, outside the timed calls ----
        prov = result.provenance
        found = checks.check_cube(y) + checks.check_provenance(prov, EPSILON)
        found += checks.check_subspace(y, prov["d_prime"]) + checks.check_size(prov, n)
        if wl.evaluation == "sampled":
            k = min(SAMPLE_K, x.shape[1], y.shape[1])
            record["own_w1"] = checks.own_sampled_w1(x, y, k, derive_seed(args.seed, wl.name, "own", t))
            found += checks.check_sampled(value, record["own_w1"])
        elif y.shape[1] == x.shape[1]:
            found += checks.check_assignment(x, y, value)
        else:
            detailed = wasserstein1(x, y, "linf", detailed=True)
            found += checks.check_duality(x, y, value, detailed)
        totals = None
        if tracer:
            totals = tracer.trial_totals(t)
            totals["distinct_atom_ratio"] = np.unique(y, axis=1).shape[1] / max(y.shape[1], 1)
        return record, found, totals

    trials, failures, layer_rows = [], [], []
    start = perf_counter()
    while not trials or perf_counter() - start < args.seconds:
        record, found, totals = run_trial(len(trials))
        trials.append(record)
        failures += [f"trial {record['trial']}: {msg}" for msg in found]
        if totals is not None:
            layer_rows.append(totals)

    out = {
        "setup": setup,
        "trials": trials,
        "check_failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "machine": machine_block(np, scipy, args.seed),
    }
    if tracer:
        tracer.uninstall()
        # allocation peak from one more, untimed generate: tracemalloc slows
        # the HiGHS wrapper several times over, so it stays out of the spans
        tracemalloc.start()
        generate(pool[0], PipelineConfig(epsilon=EPSILON, seed=derive_seed(args.seed, wl.name, "trial", 0), **wl.config))
        alloc_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        out["layers"] = {**layer_metrics(layer_rows), "pipeline.alloc_peak_mb": alloc_peak_mb} if layer_rows else None
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}{'-reduced' if args.reduced else ''}.json"
        trace_path.write_text(json.dumps({"workload": wl.name, "seed": args.seed, "spans": tracer.spans}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
