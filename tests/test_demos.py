import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# demo_scaling_experiment.py takes about 14 s and runs as a step of the
# scaling-criteria CI job instead
FAST_DEMOS = ["demo_end_to_end.py", "demo_metrics_oracle.py", "demo_privacy_audit.py"]


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
