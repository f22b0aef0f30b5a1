"""Median and minimum cost per call of each classt module's hot primitive.

Usage (from anywhere inside the repository):

    python3 tools/microbench.py

imports classt from the ``src`` next to this script, so a copy of the
script in another checkout times that checkout.  Each primitive runs on
fixed inputs: a loop is doubled until it takes ``TARGET_S`` seconds, run
``REPEATS`` times, and the median and the minimum time per call are
printed in microseconds, one line per primitive after a line naming the
Python version and the CPU count.  On a shared host the median of one
run can move by tens of percent; the minimum, the repeat least disturbed
by other load, moves less and is the column to compare between runs.
The inputs are built once, so the package's memos (``build_cyclic``'s
frame cache, ``UniPoly``'s cleared coefficients) are warm, as they are
when a sweep revisits a model.  ``roundtrip_check``, which takes only the
model, is timed twice: cold builds the model on fresh roots, which expand
their polynomial and decide its expansion, as each new root configuration
does, and warm reuses the verdict kept on the roots, as the next model of
a sweep with the same roots does.  The expansion test
``RootConfig._expands`` is timed on its own, cold, by calling the function
under its cache.  ``enumerate_weights`` reduces the weights that share a
factor with ``c`` only when its ``reduced`` is read: it is timed with that
read, as the ``enumerate`` command pays it, and as "pairs" without it, as
a sweep pays it.  ``RootConfig.parse`` reads a root text as a corpus row
gives it, with two repeated roots, and so records the derived root facts.
``check_report`` is timed cold: each call first clears the memo of
``build_cyclic``'s frames, so it builds the frame and the Tian-Yau report,
as a corpus row on a weight tuple not seen before does.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import timeit
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from classt import (  # noqa: E402
    QuotientSingularity,
    RootConfig,
    UniPoly,
    WPoint,
    build_cyclic,
    check_hypotheses,
    detect_class_T,
    enumerate_weights,
    evaluate_pi_chart,
    hj_evaluate,
    hj_expand,
    hj_resolution,
    normalize,
    project_pi,
    roundtrip_check,
    squarefree_decomposition,
)
from classt.birational import surface_residue  # noqa: E402
from classt.compactify import _cyclic_frame  # noqa: E402
from classt.reports import assemble, build_cyclic_report, check_report, render_json  # noqa: E402

REPEATS = 11
TARGET_S = 0.02


def corpus_report() -> dict:
    """A report shaped like a ``--corpus`` report of 6,600 rows, one row in
    660 failing with one mismatch, as a seeded benchmark corpus does."""
    rows = 6600
    results = []
    for i in range(rows):
        if i % 660 == 0:
            mismatch = f"outputs.degree: expected {i + 1}, got {i}"
            results.append({"id": f"canary-degree-build-cyclic-{i}", "ok": False, "mismatches": [mismatch]})
        else:
            results.append({"id": f"classify-{i}-{i % 97}", "ok": True, "mismatches": []})
    failed = [r["id"] for r in results if not r["ok"]]
    outputs = {"cases": rows, "passed": rows - len(failed), "failed_ids": failed, "results": results}
    return assemble("corpus-cases.jsonl", {"corpus": "cases.jsonl"}, outputs, {})


def cases() -> list[tuple[str, object]]:
    """``(name, zero-argument callable)`` for each primitive."""
    model = build_cyclic(2, 3, 2, 2, 1, RootConfig.simple([1, 2]))
    poly = model.roots.polynomial
    repeated = UniPoly.from_roots([(1, 3), (Fraction(-2, 3), 2), (5, 1)])
    chain = hj_expand(1009, 37)
    germ = QuotientSingularity(1009, (1, 37))
    # class_t_solutions' gcd(r, q + 1) gate stops 1/100000(1, 3) and lets
    # 1/100000(1, 99999) through; the first case checks for its None.
    gated = QuotientSingularity(100000, (1, 3))
    passed = QuotientSingularity(100000, (1, 99999))
    chart_point = (Fraction(2, 3), Fraction(-5, 2))
    # The chart T point's lift [x : 1/w' : r : 1], rescaled by t = 3/2.
    s, r = chart_point
    x = evaluate_pi_chart(model, "T", chart_point).coords[0]
    t = Fraction(3, 2)
    lift = tuple(v * t**w for v, w in zip((x, 1 / s, r, Fraction(1)), model.ambient.weights))
    on_surface = WPoint(model.ambient, lift)
    unscaled = WPoint(model.ambient, (x, 1 / s, r, Fraction(1)))
    report = build_cyclic_report(2, 3, 2, 2, 1, "1,2").data

    expands = vars(RootConfig)["_expands"].func

    def cold_roundtrip():
        return roundtrip_check(build_cyclic(2, 3, 2, 2, 1, RootConfig.simple([1, 2])))

    def cold_check():
        _cyclic_frame.cache_clear()
        return check_report(2, 3, 2, 2, 1, "1,2")

    corpus = corpus_report()
    return [
        ("arith.UniPoly.__call__", lambda: poly(Fraction(-125, 8))),
        ("arith.squarefree_decomposition", lambda: squarefree_decomposition(repeated)),
        ("arith.hj_expand", lambda: hj_expand(1009, 37)),
        ("arith.hj_evaluate", lambda: hj_evaluate(chain)),
        ("quotients.QuotientSingularity", lambda: QuotientSingularity(1009, (5, 37))),
        ("quotients.hj_resolution", lambda: hj_resolution(germ)),
        ("quotients.normalize", lambda: normalize(QuotientSingularity(1009, (5, 37)))),
        ("quotients.detect_class_T", lambda: detect_class_T(QuotientSingularity(50, (1, 19)))),
        ("quotients.detect_class_T gated", lambda: detect_class_T(gated) is None),
        ("quotients.detect_class_T passed", lambda: detect_class_T(passed)),
        ("compactify.enumerate_weights", lambda: enumerate_weights(3, 4, 1, 3).reduced),
        ("compactify.enumerate_weights pairs", lambda: enumerate_weights(3, 4, 1, 3).pairs),
        ("compactify.build_cyclic", lambda: build_cyclic(2, 3, 2, 2, 1, model.roots)),
        ("compactify.RootConfig.parse", lambda: RootConfig.parse("1:2, -3/2:2, 5, 7/3")),
        ("birational.WPoint.__eq__", lambda: on_surface == unscaled),
        ("birational.surface_residue", lambda: surface_residue(model, lift)),
        ("birational.project_pi", lambda: project_pi(model, on_surface)),
        ("birational.evaluate_pi_chart T", lambda: evaluate_pi_chart(model, "T", chart_point)),
        ("birational.evaluate_pi_chart S", lambda: evaluate_pi_chart(model, "S", chart_point)),
        ("compactify.RootConfig._expands cold", lambda: expands(model.roots)),
        ("birational.roundtrip_check cold", cold_roundtrip),
        ("birational.roundtrip_check warm", lambda: roundtrip_check(model)),
        ("tianyau.check_hypotheses", lambda: check_hypotheses(model)),
        ("reports.check_report cold", cold_check),
        ("reports.render_json", lambda: render_json(report)),
        ("reports.render_json corpus", lambda: render_json(corpus)),
    ]


def per_call_us(fn) -> tuple[float, float]:
    """Median and minimum over the repeats, in microseconds per call."""
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < TARGET_S:
        number *= 2
    times = timer.repeat(REPEATS, number)
    return statistics.median(times) / number * 1e6, min(times) / number * 1e6


def main() -> None:
    print(f"# Python {platform.python_version()}, {os.cpu_count()} CPUs; us per call, median and min")
    for name, fn in cases():
        median, least = per_call_us(fn)
        print(f"{name:<34}{median:>10.2f}{least:>10.2f}")


if __name__ == "__main__":
    main()
