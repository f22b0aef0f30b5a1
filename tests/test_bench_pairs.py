"""The paired benchmark tool: it rejects a bad ``--workload`` before any work,
rotates its three sides, and claims only what the A/A copy does not show."""

import importlib.util
import json
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


METRICS = ("setup_s", "items_per_s", "item_p50_ms", "item_p99_ms", "peak_rss_mb")


def fake_runs(monkeypatch, tool, rates):
    """Make every side an empty directory and every run return fixed numbers:
    ``rates[side][pair]`` items per second, all else equal; the calls are
    recorded as ``(side, seed)``."""
    side_of = {directory: side for side, directory in tool.RUN_DIRS.items()}
    calls = []
    monkeypatch.setattr(tool, "export_revision", lambda rev, dest: dest.mkdir())
    monkeypatch.setattr(tool, "copy_working_tree", lambda dest: dest.mkdir())

    def run_once(side, workload, seed):
        name = side_of[side.name]
        calls.append((name, seed))
        values = dict.fromkeys(METRICS, 1.0)
        values["items_per_s"] = rates[name][seed - tool.FIRST_SEED]
        return {"failed": 0, "correct": True, "metrics": {k: {"value": v} for k, v in values.items()}}

    monkeypatch.setattr(tool, "run_once", run_once)
    return calls


def run_tool(tool, tmp_path, pairs):
    out = tmp_path / "bench.json"
    argv = ["HEAD", "--out", str(out), "--change", "none", "--workload", f"corpus:{pairs}",
            "--claim", "corpus:items_per_s"]
    assert tool.main(argv) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def test_the_three_sides_rotate_and_share_a_name_length(monkeypatch, tmp_path):
    tool = load_tool()
    assert len({len(name) for name in tool.RUN_DIRS.values()}) == 1
    rates = dict.fromkeys(tool.SIDES, [100.0] * 4)
    calls = fake_runs(monkeypatch, tool, rates)
    report = run_tool(tool, tmp_path, 4)
    assert calls == [
        ("parent", 11), ("change", 11), ("copy", 11),
        ("change", 12), ("copy", 12), ("parent", 12),
        ("copy", 13), ("parent", 13), ("change", 13),
        ("parent", 14), ("change", 14), ("copy", 14),
    ]
    entry = report["workloads"]["corpus"]
    assert entry["failed"] == {"parent": 0, "change": 0, "copy": 0} and entry["correct"]
    rate = entry["metrics"]["items_per_s"]
    assert (rate["change_over_parent"], rate["change_wins"]) == (1.0, 0)
    assert (rate["copy_over_parent"], rate["copy_wins"]) == (1.0, 0)
    assert report["claim"] == ("corpus items_per_s: no claim, within the A/A spread; "
                               "measured x1.0, 0 of 4 pairs, A/A x1.0, 0 of 4 pairs")


def test_a_claim_needs_more_than_the_copy_shows(monkeypatch, tmp_path):
    tool = load_tool()
    parent = [100.0, 102.0, 98.0, 100.0, 101.0]
    cases = [
        # Beyond the A/A ratio and winning every pair: a claim.
        ([110.0, 112.0, 108.0, 111.0, 109.0], [101.0, 100.0, 99.0, 100.0, 100.0],
         "corpus items_per_s rises; measured x1.1, 5 of 5 pairs, A/A x1.0, 2 of 5 pairs, "
         "parent IQR 1 1/s against a median gain of 10 1/s"),
        # The copy reads as high as the change: within the spread.
        ([104.0, 104.0, 104.0, 104.0, 104.0], [104.0, 101.0, 103.0, 104.0, 104.0],
         "corpus items_per_s: no claim, within the A/A spread; "
         "measured x1.04, 5 of 5 pairs, A/A x1.04, 4 of 5 pairs"),
        # A copy 5% slow makes a 4% gain part of the spread too.
        ([104.0, 104.0, 104.0, 104.0, 104.0], [95.0, 95.0, 95.0, 95.0, 95.0],
         "corpus items_per_s: no claim, within the A/A spread; "
         "measured x1.04, 5 of 5 pairs, A/A x0.95, 0 of 5 pairs"),
        # Beyond the A/A ratio but winning no more pairs than the copy.
        ([99.0, 99.0, 120.0, 120.0, 120.0], [101.0, 103.0, 99.0, 99.0, 100.0],
         "corpus items_per_s: no claim, within the A/A spread; "
         "measured x1.2, 3 of 5 pairs, A/A x1.0, 3 of 5 pairs"),
    ]
    for change, copy, claim in cases:
        fake_runs(monkeypatch, tool, {"parent": parent, "change": change, "copy": copy})
        report = run_tool(tool, tmp_path, 5)
        assert report["claim"] == claim
