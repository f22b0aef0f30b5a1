"""The paired benchmark tool must reject a bad ``--workload`` before any work."""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "workload, message",
    [
        ("sweep:0", "error: --workload sweep:0: PAIRS must be a positive integer"),
        ("sweep:-1", "error: --workload sweep:-1: PAIRS must be a positive integer"),
        ("sweep:x", "error: --workload sweep:x: PAIRS must be a positive integer"),
        ("sweeps:1", "error: workload 'sweeps' is not one of germs, corpus, sweep"),
    ],
)
def test_a_bad_workload_exits_before_exporting_a_tree(monkeypatch, tmp_path, workload, message):
    tool = load_tool()

    def no_tree(*args):
        raise AssertionError("a tree was exported")

    monkeypatch.setattr(tool, "export_revision", no_tree)
    monkeypatch.setattr(tool, "copy_working_tree", no_tree)
    argv = ["HEAD", "--out", str(tmp_path / "out.json"), "--change", "none", "--workload", workload]
    with pytest.raises(SystemExit) as exc:
        tool.main(argv)
    assert exc.value.code == message
    assert not (tmp_path / "out.json").exists()
