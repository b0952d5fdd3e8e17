import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _write_tree(root: Path, duration: float) -> None:
    head = root / "run" / "explicit"
    head.mkdir(parents=True)
    (head / "trace.csv").write_text("step,loss\n0,1.3862943611198906\n")
    (head / "gram_class_means.csv").write_text("0.5,0.25\n0.25,0.5\n")
    np.savez(head / "state_explicit.npz", w=np.arange(6.0).reshape(2, 3),
             labels=np.array([0, 1, 1]))
    report = {"name": "run", "duration_s": duration,
              "heads": {"explicit": {"trace_path": str(head / "trace.csv"), "nc1": 0.125}}}
    (root / "run" / "report.json").write_text(json.dumps(report))
    (root / "sweep_summary.json").write_text(json.dumps({"run.cfg": report}))


@pytest.fixture
def trees(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write_tree(a, 1.0)
    _write_tree(b, 2.5)
    return a, b


def test_equal_trees_up_to_timing_fields(trees, capsys):
    assert compare_outputs.main([str(p) for p in trees]) == 0
    assert "5 files compared, 0 differ" in capsys.readouterr().out


def test_flags_a_one_byte_change(trees, capsys):
    a, b = trees
    path = b / "run" / "explicit" / "trace.csv"
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert "differs: run/explicit/trace.csv" in capsys.readouterr().out


def test_flags_an_array_entry(trees):
    a, b = trees
    path = b / "run" / "explicit" / "state_explicit.npz"
    np.savez(path, w=np.arange(6.0).reshape(2, 3) + np.eye(2, 3) * 1e-16,
             labels=np.array([0, 1, 1]))
    assert compare_outputs.compare_trees(a, b)[1] == ["run/explicit/state_explicit.npz"]


def test_flags_a_non_timing_json_field_and_a_missing_file(trees):
    a, b = trees
    report = json.loads((b / "run" / "report.json").read_text())
    report["heads"]["explicit"]["nc1"] = 0.25
    (b / "run" / "report.json").write_text(json.dumps(report))
    shutil.rmtree(b / "run" / "explicit")
    count, differ = compare_outputs.compare_trees(a, b)
    assert count == 5
    assert "run/report.json" in differ
    assert "run/explicit/trace.csv (only in one tree)" in differ


def test_flags_an_int_float_change(trees):
    # equal in value, but 1.0 and 1 are not the same JSON
    a, b = trees
    for root, ratio in ((a, 1.0), (b, 1)):
        path = root / "run" / "report.json"
        report = json.loads(path.read_text())
        report["heads"]["explicit"]["nc3_cosine_ratio"] = ratio
        path.write_text(json.dumps(report))
    assert compare_outputs.compare_trees(a, b)[1] == ["run/report.json"]


def test_nothing_to_compare_is_an_error(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2


def test_digests_follow_the_comparison(trees):
    a, b = trees
    assert compare_outputs.tree_digests(a) == compare_outputs.tree_digests(b)
    np.savez(b / "run" / "explicit" / "state_explicit.npz", w=np.arange(6.0).reshape(2, 3),
             labels=np.array([0, 1, 1], dtype=np.int32))
    differ = compare_outputs.compare_trees(a, b)[1]
    digests_a, digests_b = compare_outputs.tree_digests(a), compare_outputs.tree_digests(b)
    assert differ == [path for path in digests_a if digests_a[path] != digests_b[path]]
    assert differ == ["run/explicit/state_explicit.npz"]
