"""The benchmark tracer (perfbench/tracer.py) rebinds collapsekit functions
by name, so a traced run starts only if every name it rebinds exists."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from collapsekit import harness, lpm
from collapsekit.linalg import make_rng

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


def test_train_attrs_read_the_blocks():
    # the span attributes of lpm.train come from its arguments' fields
    rng = make_rng(0)
    labels = np.repeat(np.arange(3), 4)
    features = lpm.initialize_features(labels, 3, 5, 1.0, rng)
    head = lpm.initialize_explicit_head(4, 5, 1.0, rng)
    cls = lpm.initialize_classifier(3, 4, 1.0, rng)
    cfg = lpm.TrainConfig(steps=7)
    attrs = tracer._train_attrs((features, head, cls, cfg), None)
    assert attrs == {"steps": 7, "n": 12, "k": 3, "d": 4}
