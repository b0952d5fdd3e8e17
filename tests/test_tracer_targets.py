"""The benchmark tracer (perfbench/tracer.py) rebinds collapsekit functions
by name, so a traced run starts only if every name it rebinds exists."""

import importlib
import importlib.util
from pathlib import Path

from collapsekit import harness

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_target_exists():
    assert tracer.TARGETS
    missing = [
        f"{module}.{attr}" for module, attr, _, _ in tracer.TARGETS
        if not hasattr(importlib.import_module(f"collapsekit.{module}"), attr)
    ]
    assert missing == []


def test_head_job_worker_exists():
    # the tracer wraps it by name and tags its spans with job[0]
    assert callable(harness._sweep_worker)
