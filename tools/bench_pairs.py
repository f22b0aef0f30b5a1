"""Run the benchmark on a parent, a change and a copy of the parent, in rotation.

Usage (from anywhere inside the repository):

    python3 tools/bench_pairs.py REV --out BENCH_12.json --change "what changed" \\
        --workload sweep:10 --workload corpus:5 --workload germs:5 \\
        --claim sweep:items_per_s

exports ``src`` and ``perfbench`` of the git revision ``REV`` twice with
``git archive``, as ``tools/bytes_diff.sh`` does: once as the parent and
once as the copy, an A/A side that differs from the parent only in noise.
It copies those of the working tree as the change.  Each side runs from its
own temporary directory, the three named with the same length, so the
repository's ``perfbench/`` is only read and no side has longer paths.
For each ``WORKLOAD:PAIRS`` it runs

    python3 perfbench/run.py --workload W --seed S --trace 0

once per side for the seeds 11, 12, ..., one run at a time, at run.py's
own run length; the run order of the three sides rotates from one seed to
the next.  It writes the medians and quartiles (inclusive method) of each
end-to-end metric named in ``BENCHMARK.json`` to ``--out``, with the
change-over-parent and copy-over-parent ratios of the medians and the
number of pairs in which each is better than the parent.

``--claim WORKLOAD:METRIC`` states a claim only when the change's ratio
lies beyond both the A/A ratio and its inverse in the metric's better
direction, and the change wins more pairs than the copy; the sentence
gives both ratios and both win counts, and the change's median gain
against the parent's interquartile range.  Otherwise it says that the
change is within the A/A spread.
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
SIDES = ("parent", "change", "copy")
# One run directory per side, the names of one length.
RUN_DIRS = {"parent": "side-a", "change": "side-b", "copy": "side-c"}


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
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "metrics": {},
    }
    for spec in metrics:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        lower = spec["better"] == "lower"
        entry = {"unit": spec["unit"]}
        entry.update((side, quartiles(values[side])) for side in SIDES)
        for side in ("change", "copy"):
            wins = sum((x < p) if lower else (x > p) for p, x in zip(values["parent"], values[side]))
            entry[f"{side}_over_parent"] = round(entry[side]["median"] / entry["parent"]["median"], 4)
            entry[f"{side}_wins"] = wins
        out["metrics"][name] = entry
    return out


def claim_text(workload: str, metric: str, entry: dict, better: str) -> str:
    """The claim on ``metric``, or the sentence that it lies within the A/A spread."""
    m = entry["metrics"][metric]
    ratio, aa, pairs = m["change_over_parent"], m["copy_over_parent"], entry["pairs"]
    lower = better == "lower"
    # The A/A spread reaches from the copy's ratio to its inverse.
    beyond = ratio < min(aa, 1 / aa) if lower else ratio > max(aa, 1 / aa)
    measured = (f"measured x{ratio}, {m['change_wins']} of {pairs} pairs, "
                f"A/A x{aa}, {m['copy_wins']} of {pairs} pairs")
    if not (beyond and m["change_wins"] > m["copy_wins"]):
        return f"{workload} {metric}: no claim, within the A/A spread; {measured}"
    gain = m["change"]["median"] - m["parent"]["median"]
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    verb = "falls" if lower else "rises"
    return (f"{workload} {metric} {verb}; {measured}, parent IQR {iqr:.6g} {m['unit']} "
            f"against a median gain of {abs(gain):.6g} {m['unit']}")


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
        sides = {side: tmp / RUN_DIRS[side] for side in SIDES}
        export_revision(args.rev, sides["parent"])
        export_revision(args.rev, sides["copy"])
        copy_working_tree(sides["change"])
        workloads = {}
        for name, pairs in plan:
            seeds = list(range(FIRST_SEED, FIRST_SEED + pairs))
            runs = {side: [] for side in SIDES}
            for pair, seed in enumerate(seeds):
                start = pair % len(SIDES)  # the run order rotates from pair to pair
                for side in SIDES[start:] + SIDES[:start]:
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
            "parent commit, change and a second export of the parent (the A/A copy) run from "
            "separate directories of equal name length, one run at a time, the run order of the "
            f"three rotating from pair to pair; pairs: {counts}; quartiles over the pairs' runs "
            "(inclusive method); wins count pairs where the change, or the copy, is better than "
            "the parent; a claim needs the change's ratio beyond the copy's ratio and its "
            "inverse, and more wins than the copy"
        ),
        "claim": "; ".join(claim_text(w, m, workloads[w], better[m]) for w, m in claims),
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(report["claim"] or f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
