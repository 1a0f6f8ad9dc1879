"""What each entry point loads, and which attributes the solvers are called through.

`import lowdp` loads numpy and the standard library only; each scipy part is
imported by the first call that needs it.  A sampled W1 whose draws collapse
to few atoms computes its costs in numpy and loads no scipy, so neither does
``lowdp evaluate`` of a large PSMM-style release.  The solvers are called through
the module attributes ``lowdp.metrics.linear_sum_assignment`` and
``lowdp.metrics.linprog``, which perfbench/tracing.py wraps, so a direct
import of scipy's function in their place would leave its spans empty;
``lowdp.psmm.linprog``, which it wraps too, is the same forwarder.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import lowdp.metrics
import lowdp.psmm
from lowdp.cli import write_points_csv
from lowdp.metrics import wasserstein1, wasserstein1_sampled
from lowdp.noise import SeededGenerator

ROOT = Path(__file__).resolve().parents[1]

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

# the assignment path of the sampled estimator: 64 distinct atoms on each side
_SAMPLED = """
import numpy as np
from lowdp.metrics import wasserstein1_sampled
from lowdp.noise import SeededGenerator
rng = np.random.default_rng(3)
value = wasserstein1_sampled(rng.random((3, 64)), rng.random((3, 64)), SeededGenerator(9), k=64, repeats=2)
"""


def _scipy_modules_after(code: str):
    """Run code in a fresh interpreter: (its stdout lines, the scipy modules it then holds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    *output, modules = proc.stdout.strip().splitlines()
    return output, json.loads(modules)


def test_import_loads_no_scipy():
    _, modules = _scipy_modules_after("import lowdp, lowdp.cli")
    assert modules == []


def test_pmm_generate_loads_no_scipy():
    _, modules = _scipy_modules_after(
        "from lowdp import PipelineConfig, generate, planted_subspace_dataset\n"
        "from lowdp.noise import SeededGenerator\n"
        "data, _ = planted_subspace_dataset(256, 4, 2, SeededGenerator(1))\n"
        "assert generate(data, PipelineConfig(epsilon=1.0, d_prime=2, subroutine='pmm', seed=1)).size > 0\n"
    )
    assert modules == []


def test_collapsed_sampled_w1_loads_no_scipy():
    # q's draws hold at most 3 distinct atoms, so every repeat takes the collapsed path
    _, modules = _scipy_modules_after(
        "import numpy as np\n"
        "from lowdp.metrics import wasserstein1_sampled\n"
        "from lowdp.noise import SeededGenerator\n"
        "rng = np.random.default_rng(2)\n"
        "q = np.repeat(rng.random((3, 3)), 40, axis=1)\n"
        "wasserstein1_sampled(rng.random((3, 120)), q, SeededGenerator(4), k=64, repeats=2)\n"
    )
    assert modules == []


def test_sampled_evaluate_of_a_few_atom_release_loads_no_scipy(tmp_path):
    # 5 distinct release points, 40 copies each: every k = 200 draw collapses
    rng = np.random.default_rng(8)
    write_points_csv(tmp_path / "input.csv", rng.random((4, 300)))
    write_points_csv(tmp_path / "synthetic.csv", np.repeat(rng.random((4, 5)), 40, axis=1))
    report = tmp_path / "report.json"
    argv = [
        "evaluate",
        "--input", str(tmp_path / "input.csv"),
        "--synthetic", str(tmp_path / "synthetic.csv"),
        "--out", str(report),
        "--eval-max-cells", "1",
    ]
    _, modules = _scipy_modules_after(f"from lowdp.cli import main\nassert main({argv!r}) == 0\n")
    assert json.loads(report.read_text())["w1_estimator"] == "sampled"
    assert modules == []


def test_psmm_projection_that_moves_mass_loads_csgraph_only():
    # 3 units at the origin, a hole of 1 next to it, n = 1: one unit moves one step
    _, modules = _scipy_modules_after(
        "import numpy as np\n"
        "from lowdp.psmm import build_lattice, project_to_probability\n"
        "lat = build_lattice(1.0, 0.5, 2)\n"
        "index = {tuple(z): i for i, z in enumerate(lat.int_coords)}\n"
        "counts = np.zeros(lat.size, dtype=np.int64)\n"
        "counts[index[(0, 0)]], counts[index[(1, 0)]] = 3, -1\n"
        "project_to_probability(counts, 1, lat)\n"
    )
    assert "scipy.sparse.csgraph" in modules
    assert "scipy.optimize" not in modules


def test_equal_size_w1_loads_the_assignment_solver():
    _, modules = _scipy_modules_after(
        "import numpy as np\n"
        "from lowdp.metrics import wasserstein1\n"
        "rng = np.random.default_rng(5)\n"
        "wasserstein1(rng.random((2, 6)), rng.random((2, 6)))\n"
    )
    assert "scipy.optimize" in modules


def test_first_scipy_import_on_pool_threads_gives_the_same_bits():
    output, modules = _scipy_modules_after(
        "import sys\n"
        "assert 'scipy' not in sys.modules\n" + _SAMPLED + "print(value.hex())\n"
    )
    assert "scipy.optimize" in modules
    namespace = {}
    exec(_SAMPLED, namespace)  # scipy is already loaded in this process
    assert output == [namespace["value"].hex()]


def _counting(monkeypatch, name):
    calls = []
    original = getattr(lowdp.metrics, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(lowdp.metrics, name, counted)
    return calls


def test_solvers_are_called_through_the_traced_attributes(monkeypatch):
    assignments = _counting(monkeypatch, "linear_sum_assignment")
    lps = _counting(monkeypatch, "linprog")
    rng = np.random.default_rng(6)
    wasserstein1(rng.random((2, 5)), rng.random((2, 5)))
    assert (len(assignments), len(lps)) == (1, 0)
    # distinct atoms on both sides: both repeats take the assignment, on the pool threads
    wasserstein1_sampled(rng.random((3, 64)), rng.random((3, 64)), SeededGenerator(1), k=64, repeats=2)
    assert (len(assignments), len(lps)) == (3, 0)
    wasserstein1(rng.random((2, 5)), rng.random((2, 7)))
    assert (len(assignments), len(lps)) == (3, 1)


def test_psmm_linprog_is_the_lazy_metrics_forwarder():
    assert lowdp.psmm.linprog is lowdp.metrics.linprog
    _, modules = _scipy_modules_after("import lowdp.psmm")
    assert modules == []
