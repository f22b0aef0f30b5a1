"""Benchmark for classt.

Runs one seeded workload in a closed loop (one caller that waits for each
result, single process, single thread), checks every output, and prints the
metrics named in BENCHMARK.json.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload germs --seed 1 --seconds 30 --trace 0

Times are CPU seconds of this process, user and system, so that time the
host takes the virtual CPU away (steal) does not count, scaled to a
reference host by a fixed loop timed during and around each measured span
(``reference.py``); the length of a run is wall time.  The program does no
waiting of its own: it reads and writes only small files, which stay in the
page cache.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics, with the
spans written to ``perfbench/.work``.  ``--profile FILE`` writes cProfile
statistics for one pass instead.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import importlib
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

from reference import REFERENCE_S, HostSpeed, Unscaled
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
LAYERS = ("arith", "quotients", "wps", "compactify", "tianyau", "birational", "sweep", "reports", "cli")
SETUP_REPEATS = 11
WARMUP_S = 0.5
MAX_MESSAGES = 10


class Checks:
    """Counts attempted and failed items, and compares output digests across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._digests: dict = {}

    def record(self, key, items: int, payload: bytes, errors: list[str]) -> None:
        digest = hashlib.sha256(payload).digest()
        first = self._digests.setdefault(key, digest)
        if first != digest:
            errors = [f"{key}: output differs from an earlier pass with the same seed"] * items
        self.attempted += items
        self.failed += min(len(errors), items)
        self.messages.extend(errors[: MAX_MESSAGES - len(self.messages)])

    def exception(self, key, items: int) -> None:
        self.attempted += items
        self.failed += items
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(f"{key}: {traceback.format_exc(limit=3).strip()}")


def import_layers() -> SimpleNamespace:
    return SimpleNamespace(**{n: importlib.import_module(f"classt.{n}") for n in LAYERS})


def set_up(workload_cls, seed: int):
    """Import classt and build the workload's inputs in memory.  Returns the
    modules, the workload, and the CPU seconds of the import and the inputs."""
    start = process_time()
    mods = import_layers()
    imported = process_time()
    workload = workload_cls(mods, seed)
    return mods, workload, (imported - start, process_time() - imported)


def set_up_in_child(workload: str, seed: int) -> tuple[float, float]:
    """``set_up`` in a fresh interpreter, which imports classt cold and
    leaves this process's memory alone; returns its two times."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
    import_s, inputs_s = json.loads(out.stdout.splitlines()[-1])
    return import_s, inputs_s


# -- item-at-a-time workloads ----------------------------------------------


def run_items(wl, checks: Checks, deadline: float | None, tracer=None, min_passes: int = 1,
              after_pass=None, speed: HostSpeed | Unscaled = Unscaled()):
    """Drive whole passes of items, at least ``min_passes``, until ``deadline``
    has passed (or stop after ``min_passes`` when it is None).  ``after_pass``
    is called, untimed, after each pass.

    Returns, per pass, its CPU seconds and the p50 and p99 of its item
    latencies in ms, each less the time ``speed`` spent sampling and scaled
    by its factor for the pass.  An untraced item's output is checked and
    dropped right after its timed call; a traced pass is checked after the
    tracer is removed.
    """
    passes = []
    pending = []
    while True:
        latencies = array("d")
        with speed.sampling():
            for index, item in enumerate(wl.items):
                if tracer is not None:
                    tracer.item = index
                spent = speed.spent
                start = process_time()
                try:
                    out = wl.run_item(item)
                except Exception:
                    out = None
                    checks.exception(f"item {index}", 1)
                latencies.append(process_time() - start - (speed.spent - spent))
                if out is None:
                    continue
                if tracer is None:
                    check_item(wl, checks, index, item, out)
                else:
                    pending.append((index, item, out))
        factor = speed.factor()
        ms = [t * factor * 1e3 for t in latencies]
        passes.append((sum(latencies) * factor, statistics.median(ms), percentile(ms, 99)))
        if after_pass is not None:
            after_pass()
        if len(passes) >= min_passes and (deadline is None or perf_counter() >= deadline):
            break
    if tracer is not None:
        tracer.remove()
        for index, item, out in pending:
            check_item(wl, checks, index, item, out)
    return passes


def check_item(wl, checks: Checks, index: int, item, out) -> None:
    try:
        payload, errors = wl.check_item(item, out)
    except Exception:
        checks.exception(index, 1)
        return
    checks.record(index, 1, payload, errors)


# -- whole-pass workloads --------------------------------------------------


def run_passes(wl, checks: Checks, deadline: float | None, tracer=None, after_pass=None,
               speed: HostSpeed | Unscaled = Unscaled()) -> list[float]:
    """Run passes until ``deadline``, or one pass when it is None; returns
    the pass times, less the time ``speed`` spent sampling and scaled by its
    factor for the pass.  Each report is checked after its pass, and after
    the tracer is removed; then ``after_pass`` is called."""
    times = []
    while True:
        with speed.sampling():
            spent = speed.spent
            start = process_time()
            try:
                out = wl.run_pass()
            except Exception:
                out = None
                checks.exception("pass", wl.size)
            busy = process_time() - start - (speed.spent - spent)
        times.append(busy * speed.factor())
        if tracer is not None:
            tracer.remove()
        if out is not None:
            try:
                payload, errors = wl.check_pass(out)
                checks.record("report", wl.size, payload, errors)
            except Exception:
                checks.exception("report", wl.size)
        if after_pass is not None:
            after_pass()
        if deadline is None or perf_counter() >= deadline:
            return times


def warm_up(wl) -> None:
    """Run items for ``WARMUP_S``, or one pass, unmeasured.  Failures here
    are left for the measured passes to count."""
    try:
        if not wl.per_item:
            wl.run_pass()
            return
        deadline = perf_counter() + WARMUP_S
        for item in wl.items:
            wl.run_item(item)
            if perf_counter() >= deadline:
                return
    except Exception:
        pass


def one_pass(wl, checks: Checks, tracer=None) -> float:
    """CPU seconds of one whole pass."""
    if wl.per_item:
        return run_items(wl, checks, None, tracer)[0][0]
    return run_passes(wl, checks, None, tracer)[0]


# -- statistics and output -------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "loadavg_start": loadavg(),
    }


def cpu_ticks() -> tuple[int, int] | None:
    """All and stolen ticks of every CPU so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
        return sum(fields), fields[7]
    except (OSError, ValueError, IndexError):
        return None


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def end_to_end(wl, checks: Checks, seconds: float, workload: str, seed: int):
    """Untraced closed-loop measurement; returns rows of (name, samples, unit,
    value), where each value is the median of its per-pass samples (p99 on
    the whole-pass workloads: see below), the set-up samples, and the
    reference loop's times.  Every time is scaled by the host's speed
    during or around it (``reference.HostSpeed``).

    A set-up runs in a fresh interpreter (``set_up_in_child``) and is sampled
    ``SETUP_REPEATS`` times: before the warm-up, after each pass until there
    are enough, and after the last pass for the rest, so that the samples are
    spread over the run, as the passes are.

    On the item-at-a-time workloads a pass gives ``items_per_s`` as its item
    count over its time, and the p50 and p99 of its item latencies.  On the
    whole-pass workloads the program runs all items inside one command, so
    an item's time is its pass's time over the item count, and
    ``item_p99_ms`` is the 99th percentile of that over the passes.
    """
    speed = HostSpeed()

    def sample_setup():
        speed.start()
        import_s, inputs_s = set_up_in_child(workload, seed)
        factor = speed.scale()
        return import_s * factor, inputs_s * factor

    setup_parts = [sample_setup()]

    def after_pass():
        if len(setup_parts) < SETUP_REPEATS:
            setup_parts.append(sample_setup())

    warm_up(wl)
    deadline = perf_counter() + seconds
    if wl.per_item:
        passes = run_items(wl, checks, deadline, min_passes=2, after_pass=after_pass, speed=speed)
        pass_times = [busy for busy, _, _ in passes]
        p50s = [p50 for _, p50, _ in passes]
        p99s = [p99 for _, _, p99 in passes]
        size = len(wl.items)
    else:
        pass_times = run_passes(wl, checks, deadline, after_pass=after_pass, speed=speed)
        size = wl.size
        p50s = p99s = [t * 1e3 / size for t in pass_times]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_parts) < SETUP_REPEATS:
        setup_parts.append(sample_setup())
    rates = [size / t for t in pass_times]
    setup_times = [a + b for a, b in setup_parts]
    p99 = statistics.median(p99s) if wl.per_item else percentile(p99s, 99)
    rows = [
        ("setup_s", setup_times, "s", statistics.median(setup_times)),
        ("items_per_s", rates, "1/s", statistics.median(rates)),
        ("item_p50_ms", p50s, "ms", statistics.median(p50s)),
        ("item_p99_ms", p99s, "ms", p99),
        ("peak_rss_mb", [rss_mb], "MB", rss_mb),
    ]
    return rows, setup_parts, speed.samples


def per_layer(wl, checks: Checks, mods, name: str):
    warm_up(wl)
    base_s = one_pass(wl, checks)
    tracer = Tracer()
    tracer.install(vars(mods))
    try:
        traced_s = one_pass(wl, checks, tracer)
    finally:
        tracer.remove()
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced_s / base_s - 1, "ratio")
    path = WORK / f"spans-{name}.bin"
    spans = tracer.write_spans(path)
    print(f"traced pass {traced_s:.3f} s, untraced pass {base_s:.3f} s, "
          f"{spans} spans written to {path.relative_to(ROOT)}")
    return metrics


def profile(wl, path: Path) -> None:
    checks = Checks()
    profiler = cProfile.Profile()
    profiler.enable()
    one_pass(wl, checks)
    profiler.disable()
    profiler.dump_stats(path)
    pstats.Stats(str(path)).sort_stats("tottime").print_stats(25)
    print(f"profile of one pass written to {path}; {checks.failed} of {checks.attempted} items failed")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="classt benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", metavar="FILE", help="write cProfile statistics of one pass to FILE")
    p.add_argument("--setup-only", action="store_true",
                   help="set up once and print the import and input CPU seconds as a JSON list")
    args = p.parse_args(argv)

    if not (SRC / "classt" / "__init__.py").is_file():
        print(f"error: no classt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    ticks_start = cpu_ticks()
    WORK.mkdir(exist_ok=True)
    workload_cls = WORKLOADS[args.workload]
    mods, wl, setup_parts = set_up(workload_cls, args.seed)
    if args.setup_only:
        print(json.dumps(setup_parts))
        return 0
    if Path(mods.arith.__file__).resolve().parent != SRC / "classt":
        print(f"error: classt was imported from {mods.arith.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl.prepare(WORK)
    if args.profile:
        profile(wl, Path(args.profile))
        return 0

    checks = Checks()
    print(f"classt benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        metrics = per_layer(wl, checks, mods, args.workload)
        for name, (value, unit) in metrics.items():
            print(f"  {name:48s} {value!s:>16.16s} {unit}")
    else:
        rows, parts, reference_s = end_to_end(wl, checks, args.seconds, args.workload, args.seed)
        q1, q2, q3 = quartiles(reference_s)
        print(f"  reference loop: {len(reference_s)} runs, quartiles {q1 * 1e3:.3f} {q2 * 1e3:.3f} "
              f"{q3 * 1e3:.3f} ms; times below are scaled to {REFERENCE_S * 1e3:g} ms")
        print(f"  set-up, median over {len(parts)} repeats: "
              f"import {statistics.median(t for t, _ in parts):.4f} s, "
              f"inputs {statistics.median(t for _, t in parts):.4f} s")
        print(f"  {'metric':12s} {'value':>12s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'n':>8s}  unit")
        for name, samples, unit, value in rows:
            q1, q2, q3 = quartiles(samples)
            print(f"  {name:12s} {value:12.6g} {q1:12.6g} {q2:12.6g} {q3:12.6g} {len(samples):8d}  {unit}")
        metrics = {name: (value, unit) for name, _, unit, value in rows}
    failed_frac = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"  failed_frac {failed_frac:.6g} ratio ({checks.failed} of {checks.attempted} items)")
    for message in checks.messages:
        print(f"  failure: {message}")
    env["loadavg_end"] = loadavg()
    # The share of the host's CPU time that its hypervisor took away during
    # the run: a result from a contended host shows here.
    ticks_end = cpu_ticks()
    if ticks_start and ticks_end and ticks_end[0] > ticks_start[0]:
        env["steal_frac"] = round((ticks_end[1] - ticks_start[1]) / (ticks_end[0] - ticks_start[0]), 4)
    print("env: " + json.dumps(env))
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed if checks.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
