"""Self-test of the benchmark; takes well under a minute.

    python3 perfbench/selftest.py

1. Runs every workload at a reduced input size, untraced and traced, through
   `run.py`, and requires a correct result with no failed operation and
   every metric of BENCHMARK.json with its unit.
2. Shows that each output check rejects a corrupted output: a point outside
   the cube, a perturbed W1 value (exact and sampled), a transport plan with
   wrong marginals, dual potentials with one u_i raised, a rank above d', a
   wrong output size and a false provenance check.  Each uncorrupted output
   passes the same check.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import checks
from worker import import_library
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def expect(label: str, failures: list, should_fail: bool) -> bool:
    ok = bool(failures) == should_fail
    verdict = "rejected" if failures else "accepted"
    print(f"[{'ok' if ok else 'FAIL'}] {label}: {verdict}{' - ' + failures[0] if failures else ''}")
    return ok


def run_reduced() -> bool:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--reduced"],
                stdout=subprocess.PIPE, text=True, timeout=170,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
            units = {m: v["unit"] for m, v in result.get("metrics", {}).items()}
            good = (
                result.get("correct") is True
                and result.get("failed") == 0
                and result.get("attempted", 0) >= 1
                and units == {m["name"]: m["unit"] for m in wanted}
            )
            print(f"[{'ok' if good else 'FAIL'}] reduced {name} trace={trace}: "
                  f"attempted={result.get('attempted')} failed={result.get('failed')} correct={result.get('correct')}")
            ok &= good
    return ok


def corrupted_outputs() -> bool:
    import_library()
    import numpy as np
    from lowdp import PipelineConfig, SeededGenerator, generate, planted_subspace_dataset, wasserstein1, wasserstein1_sampled

    gen = SeededGenerator(3)
    ok = True

    # PMM release, m != n: cube, subspace, size and duality checks
    x = planted_subspace_dataset(60, 6, 2, gen.split("pmm"))[0].points
    pmm = generate(x, PipelineConfig(epsilon=1.0, d_prime=2, subroutine="pmm", seed=1))
    y = pmm.points
    assert y.shape[1] != x.shape[1], "the PMM example needs unequal sizes"
    ok &= expect("PMM output in the cube", checks.check_cube(y), False)
    outside = y.copy()
    outside[0, 0] = 1.0 + 1e-9
    ok &= expect("a point outside the cube", checks.check_cube(outside), True)
    ok &= expect("PMM provenance", checks.check_provenance(pmm.provenance, 1.0), False)
    bad_prov = copy.deepcopy(pmm.provenance)
    bad_prov["checks"]["basis_orthonormal"] = False
    ok &= expect("a false provenance check", checks.check_provenance(bad_prov, 1.0), True)
    ok &= expect("stage epsilons against another budget", checks.check_provenance(pmm.provenance, 1.5), True)
    ok &= expect("PMM output size", checks.check_size(pmm.provenance, x.shape[1]), False)
    past = int(np.ceil((checks.PMM_SIZE_MULTIPLE + 0.5) * pmm.provenance["subroutine_info"]["level_scales"][0]))
    ok &= expect("PMM size past the noise bound", checks.check_size(pmm.provenance, y.shape[1] + past), True)

    value = wasserstein1(x, y, "linf")
    detailed = wasserstein1(x, y, "linf", detailed=True)
    ok &= expect("duality certificate", checks.check_duality(x, y, value, detailed), False)
    ok &= expect("a perturbed exact W1 (unequal sizes)", checks.check_duality(x, y, value + 1e-6, detailed), True)
    units = detailed.plan_units.copy()
    i, j = np.argwhere(units > 0)[0]
    units[i, j] -= 1
    units[i, (j + 1) % units.shape[1]] += 1
    wrong = dataclasses.replace(detailed, plan_units=units)
    ok &= expect("a plan with wrong marginals", checks.check_duality(x, y, value, wrong), True)
    # one u_i raised and another lowered by as much: the dual value is unchanged
    u = np.array(detailed.potential_p, dtype=float)
    u[0] += 1e-5
    u[1] -= 1e-5
    raised = dataclasses.replace(detailed, potential_p=u)
    ok &= expect("potentials with one u_i raised", checks.check_duality(x, y, value, raised), True)

    # PSMM release, m = n: size/objective and assignment checks
    x3 = planted_subspace_dataset(60, 6, 3, gen.split("psmm"))[0].points
    psmm = generate(x3, PipelineConfig(epsilon=1.0, d_prime=3, subroutine="psmm", seed=2,
                                       delta_mode="proof", delta_scale=4.0))
    ok &= expect("PSMM size and projection objective", checks.check_size(psmm.provenance, x3.shape[1]), False)
    ok &= expect("PSMM size != n", checks.check_size(psmm.provenance, x3.shape[1] + 1), True)
    w_eq = wasserstein1(x3, psmm.points, "linf")
    ok &= expect("exact W1 = assignment", checks.check_assignment(x3, psmm.points, w_eq), False)
    ok &= expect("a perturbed exact W1 (equal sizes)", checks.check_assignment(x3, psmm.points, w_eq + 1e-9), True)

    # sampled W1 against the benchmark's own subsample estimate
    big = planted_subspace_dataset(4096, 8, 2, gen.split("sampled"))[0].points
    out = generate(big, PipelineConfig(epsilon=1.0, d_prime=2, subroutine="pmm", seed=4)).points
    est = wasserstein1_sampled(big, out, SeededGenerator(5), "linf", k=1024, repeats=2)
    own = checks.own_sampled_w1(big, out, 1024, 6)
    ok &= expect("sampled W1 vs own estimate", checks.check_sampled(est, own), False)
    ok &= expect("a perturbed sampled W1", checks.check_sampled(est * 1.5, own), True)

    # affine rank of the points the clamp left alone
    ok &= expect("PMM output rank <= d'", checks.check_subspace(out, 2), False)
    interior = np.nonzero(((out > 0.01) & (out < 0.99)).all(axis=0))[0]
    assert interior.size >= 8, "the example needs points the clamp left alone"
    lifted = out.copy()
    lifted[:, interior[:4]] += 0.005 * np.eye(out.shape[0])[:, :4]
    ok &= expect("points off the d'-dimensional subspace", checks.check_subspace(lifted, 2), True)
    return ok


def main() -> int:
    ok = corrupted_outputs()
    ok &= run_reduced()
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
