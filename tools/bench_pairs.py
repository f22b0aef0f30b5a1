"""Run the benchmark on two source trees in alternating pairs.

Usage (from anywhere inside the repository):

    python3 tools/bench_pairs.py REV --out BENCH_12.json --change "what changed" \\
        --workload sweep:10 --workload corpus:5 --workload germs:5 \\
        --claim sweep:items_per_s

exports ``src`` and ``perfbench`` of the git revision ``REV`` (the parent)
with ``git archive``, as ``tools/bytes_diff.sh`` does, and copies those of
the working tree (the change).  Each side runs from its own temporary
directory, so the repository's ``perfbench/`` is only read.  For each
``WORKLOAD:PAIRS`` it runs

    python3 perfbench/run.py --workload W --seed S --trace 0

once per side for the seeds 11, 12, ..., one run at a time, at run.py's
own run length; the parent runs first on odd seeds and the change on
even ones.  It writes the medians and quartiles (inclusive method) of each
end-to-end metric named in ``BENCHMARK.json`` to ``--out``, with the
change-over-parent ratio of the medians and the number of pairs in which
the change is better.  ``--claim WORKLOAD:METRIC`` adds a sentence with
that metric's ratio, wins, and median gain against the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "perfbench")
# Left behind by a run of the benchmark or the tests; not part of a side.
IGNORED = shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache")
FIRST_SEED = 11


def export_revision(rev: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, *TREES], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_working_tree(dest: Path) -> None:
    dest.mkdir()
    for tree in TREES:
        shutil.copytree(ROOT / tree, dest / tree, ignore=IGNORED)


def run_once(side: Path, workload: str, seed: int) -> dict:
    """The last stdout line of one benchmark run, as a dict."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=side, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} in {side} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 6), "median": round(statistics.median(values), 6), "q3": round(q3, 6)}


def summarize(runs: dict, seeds: list[int], metrics: list[dict]) -> dict:
    """One workload's entry: ``runs[side]`` lists the run dicts in seed order."""
    out = {
        "seeds": seeds,
        "pairs": len(seeds),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in ("parent", "change")},
        "correct": all(r["correct"] for side in ("parent", "change") for r in runs[side]),
        "metrics": {},
    }
    for spec in metrics:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in ("parent", "change")}
        lower = spec["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        out["metrics"][name] = {
            "unit": spec["unit"],
            "parent": parent,
            "change": change,
            "change_over_parent": round(change["median"] / parent["median"], 4),
            "change_wins": wins,
        }
    return out


def claim_text(workload: str, metric: str, entry: dict, better: str) -> str:
    m = entry["metrics"][metric]
    parent, change = m["parent"], m["change"]
    gain = change["median"] - parent["median"]
    if better == "lower":
        gain = -gain
    iqr = parent["q3"] - parent["q1"]
    verb = "falls" if better == "lower" else "rises"
    return (f"{workload} {metric} {verb}; measured x{m['change_over_parent']}, "
            f"{m['change_wins']} of {entry['pairs']} pairs, parent IQR {iqr:.6g} {m['unit']} "
            f"against a median gain of {gain:.6g} {m['unit']}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="paired benchmark runs of a parent revision and a change")
    p.add_argument("rev", help="parent git revision")
    p.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS")
    p.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    p.add_argument("--change", required=True, help="one-paragraph description of the change")
    p.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    known = [w["name"] for w in bench["workloads"]]
    plan = []
    for item in args.workload:
        name, _, pairs = item.partition(":")
        if name not in known:
            raise SystemExit(f"error: workload {name!r} is not one of {', '.join(known)}")
        try:
            count = int(pairs or 1)
        except ValueError:
            count = 0
        if count < 1:
            raise SystemExit(f"error: --workload {item}: PAIRS must be a positive integer")
        plan.append((name, count))
    claims = [item.partition(":")[::2] for item in args.claim]
    for workload, metric in claims:
        if workload not in dict(plan) or metric not in better:
            raise SystemExit(f"error: claim {workload}:{metric} names no planned workload and metric")

    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        sides = {"parent": tmp / "parent", "change": tmp / "change"}
        export_revision(args.rev, sides["parent"])
        copy_working_tree(sides["change"])
        workloads = {}
        for name, pairs in plan:
            seeds = list(range(FIRST_SEED, FIRST_SEED + pairs))
            runs = {"parent": [], "change": []}
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    result = run_once(sides[side], name, seed)
                    runs[side].append(result)
                    value = result["metrics"]["items_per_s"]["value"]
                    print(f"{name} seed {seed} {side}: items_per_s {value:.6g}, "
                          f"failed {result['failed']}", file=sys.stderr)
            workloads[name] = summarize(runs, seeds, metrics)
    finally:
        shutil.rmtree(tmp)

    counts = ", ".join(f"{pairs} on {name}" for name, pairs in plan)
    report = {
        "change": args.change,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "command": "python3 perfbench/run.py --workload W --seed N --trace 0",
        "method": (
            "parent commit and change run from separate copies, one run at a time, alternating "
            "which side runs first in each pair (odd seeds parent first); "
            f"pairs: {counts}; quartiles over the pairs' runs (inclusive method); wins count "
            "pairs where the change is better"
        ),
        "claim": "; ".join(claim_text(w, m, workloads[w], better[m]) for w, m in claims),
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(report["claim"] or f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
