"""The traced benchmark (perfbench/tracing.py) wraps library functions by
module attribute, so a library change that renames, moves or stops calling
through one of them breaks the traced run; these tests catch that early."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

SITES = [site[:2] for site in tracing.CALL_SITES]


@pytest.mark.parametrize("module, attribute", SITES, ids=[f"{m}.{a}" for m, a in SITES])
def test_traced_call_site_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))
