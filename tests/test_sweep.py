"""Tests for the in-package verification sweeps."""

import random
from dataclasses import replace
from fractions import Fraction

import classt.sweep
from classt.arith import hj_evaluate
from classt.compactify import (
    RootConfig,
    build_cyclic,
    build_rdp,
    enumerate_weights,
    smoothness_status,
)
from classt.quotients import HJChain, QuotientSingularity, detect_class_T, hj_resolution
from classt.reports import enumerate_report
from classt.sweep import (
    SuiteResult,
    blowup_suite,
    brute_force_class_t,
    class_t_suite,
    cyclic_tuples,
    default_roots,
    hj_suite,
    rdp_models,
    residual_suite,
    roundtrip_suite,
    run_all,
    topology_suite,
    weight_family_suite,
)
from classt.wps import WeightedProjectiveSpace, well_formed_reduction

from oracles import box_models, box_params

SWEEP_BOX = (5, 6, 4)  # the acceptance box


def recording_build(built):
    """``build_cyclic`` that appends its arguments to ``built``."""
    def build(*params):
        built.append(params)
        return build_cyclic(*params)
    return build


def test_suite_result_tally():
    s = SuiteResult("demo")
    assert s.passed and s.cases == 0
    s.tick()
    s.fail("boom")
    assert not s.passed
    assert s.cases == 1 and s.failure_count == 1 and s.failures == ["boom"]


def test_failure_recording_is_capped():
    s = SuiteResult("demo")
    for i in range(40):
        s.fail(f"case {i}")
    assert s.failure_count == 40
    assert len(s.failures) == 12


def test_cyclic_tuples_constraints():
    from math import gcd

    tuples = list(cyclic_tuples(2, 4, 3))
    assert (1, 1, 1, 1) in tuples
    assert (2, 4, 3, 3) in tuples
    for d, n, m, c in tuples:
        assert gcd(m, n) == 1 and gcd(c, n) == 1
        assert 1 <= m <= n


def test_rdp_models():
    des = list(rdp_models())
    assert [m.descriptor.label() for m in des] == [f"D_{k}" for k in range(4, 13)] + ["E6", "E7", "E8"]


def test_box_models_use_default_roots(monkeypatch):
    # The walk builds the box in the closed form's order with the simple
    # roots 1..d, and the first pair of each tuple once more with the
    # fully degenerate roots; the blow-up samples are box models.
    box = (2, 3, 2)
    params = list(box_params(*box))
    expected, tuples = [], set()
    for d, n, m, c, a in params:
        expected.append((d, n, m, c, a, default_roots(d)))
        if (d, n, m, c) not in tuples:
            tuples.add((d, n, m, c))
            expected.append((d, n, m, c, a, RootConfig.of([(1, d)])))
    assert {p[0] for p in expected} == {1, 2}
    built, samples = [], []
    monkeypatch.setattr(classt.sweep, "build_cyclic", recording_build(built))
    check_blowup = classt.sweep._check_blowup

    def recording_blowup(out, model):
        samples.append(model)
        check_blowup(out, model)

    monkeypatch.setattr(classt.sweep, "_check_blowup", recording_blowup)
    run_all(*box)
    assert built == expected
    assert len(samples) == min(classt.sweep._BLOWUP_COUNT, len(params)) == 19
    assert all(m.roots == default_roots(m.roots.total) for m in samples)


def test_sweep_box_case_counts():
    assert topology_suite(*SWEEP_BOX).cases == 338
    assert roundtrip_suite(*SWEEP_BOX).cases == 730


def test_topology_status_reaches_every_case(monkeypatch):
    calls = []

    def wrong_for_d2(roots):
        calls.append(roots)
        indices = smoothness_status(roots)
        return indices + (9,) if roots.total == 2 else indices

    d2_cases = topology_suite(2, 2, 2).cases - topology_suite(1, 2, 2).cases
    assert 0 < d2_cases <= 12  # every failure message is recorded
    monkeypatch.setattr(classt.sweep, "smoothness_status", wrong_for_d2)
    suite = topology_suite(3, 2, 2)
    assert len(calls) == 6  # two root configurations per d
    assert suite.failure_count == d2_cases
    assert len(suite.failures) == d2_cases
    for message in suite.failures:
        assert message.startswith("cyclic(d=2,") and "fibre status" in message


def test_residual_suite_reports_a_wrong_beta(monkeypatch):
    # beta = (c + n)/c instead of (c + n)/n is off unless c = n = 1, and
    # E7 with beta = 3 leaves the residual -1/12.
    def wrong_beta(*params):
        model = build_cyclic(*params)
        return replace(model, beta=Fraction(model.c + model.n, model.c))

    def wrong_e7(ade, index):
        model = build_rdp(ade, index)
        return replace(model, beta=Fraction(3)) if (ade, index) == ("E", 7) else model

    box = (2, 2, 2)
    expected = [m.label() for m in box_models(*box) if (m.c, m.n) != (1, 1)]
    assert 0 < len(expected) < 12 and residual_suite(*box).passed
    monkeypatch.setattr(classt.sweep, "build_cyclic", wrong_beta)
    monkeypatch.setattr(classt.sweep, "build_rdp", wrong_e7)
    suite = residual_suite(*box)
    assert suite.failure_count == len(expected) + 1
    assert [msg.partition(": residual ")[0] for msg in suite.failures] == expected + ["rdp(E7)"]
    assert all(msg.rpartition(" ")[2] != "0" for msg in suite.failures)
    assert suite.failures[-1] == "rdp(E7): residual -1/12"


def test_residual_suite_reports_a_wrong_ale_group(monkeypatch):
    # |Gamma| = 24 is E6's order, not E7's 48; |H_1| = 2 is E7's, not E8's 1.
    # The box (1, 1, 1) has no models, so the 12 cases are the D/E ones.
    assert residual_suite(1, 1, 1).cases == 12 and residual_suite(1, 1, 1).passed
    monkeypatch.setitem(classt.sweep._E_GROUPS, 7, (24, 2))
    monkeypatch.setitem(classt.sweep._E_GROUPS, 8, (120, 2))
    suite = residual_suite(1, 1, 1)
    assert suite.cases == 12
    assert suite.failures == [
        "rdp(E7): end at infinity is not S^3/Gamma with |Gamma| = 24, |H_1| = 2",
        "rdp(E8): end at infinity is not S^3/Gamma with |Gamma| = 120, |H_1| = 2",
    ]


def test_topology_suite_reports_a_chain_off_minus_two(monkeypatch):
    # Resolving A_k as 1/(k+1)(1, 1) gives the single curve -(k+1), which
    # is a (-2)-curve only for k = 1.
    def wrong_resolution(model):
        return tuple(
            (lbl, hj_resolution(QuotientSingularity(k + 1, (1, 1))))
            for lbl, k in model.interior_singularities
        )

    box = (3, 2, 2)
    first_pairs = {}
    for d, n, m, c, a in box_params(*box):
        first_pairs.setdefault((d, n, m, c), a)
    expected = [
        build_cyclic(*params, a, default_roots(3)).label()
        for params, a in first_pairs.items()
        if params[0] == 3
    ]
    assert 0 < len(expected) <= 12 and topology_suite(*box).passed
    monkeypatch.setattr(classt.sweep, "minimal_resolution", wrong_resolution)
    suite = topology_suite(*box)
    assert suite.failure_count == len(expected)
    assert suite.failures == [f"{label}: chain at S_1 not all (-2)" for label in expected]


def test_hj_suite_reports_an_entry_below_two(monkeypatch):
    # 4 - 1/(1 - 1/2) = 2, so this chain for 1/2(1, 1) evaluates to 2/1 and
    # only the check on the smallest entry can catch it.
    def wrong_resolution(s):
        if (s.order, s.weights) == (2, (1, 1)):
            return HJChain((4, 1, 2))
        return hj_resolution(s)

    assert hj_evaluate((4, 1, 2)) == 2 and hj_suite(3).passed
    monkeypatch.setattr(classt.sweep, "hj_resolution", wrong_resolution)
    suite = hj_suite(3)
    assert suite.failures == ["1/2(1,1): entry below 2"] and suite.failure_count == 1


def test_class_t_suite_reports_each_wrong_reading(monkeypatch):
    # A missed germ, a reading of a germ that has none, an extra solution
    # and a primary reading that is not the first solution.
    reading = detect_class_T(QuotientSingularity(4, (1, 1)))

    def wrong_detector(s):
        found = detect_class_T(s)
        key = (s.order, s.weights)
        if key == (4, (1, 1)):
            return None
        if key == (7, (1, 3)):
            return reading
        if key == (9, (1, 5)):
            return replace(found, solutions=found.solutions + ((9, 1, 1),))
        if key == (8, (1, 3)):
            return replace(found, d=2, n=1, m=1)
        return found

    clean = class_t_suite(9)
    assert clean.passed and clean.cases == 28
    monkeypatch.setattr(classt.sweep, "detect_class_T", wrong_detector)
    suite = class_t_suite(9)
    assert suite.cases == 28
    assert suite.failures == [
        "1/4(1,1): missed [(1, 2, 1)]",
        f"1/7(1,3): false positive {reading}",
        "1/8(1,3): primary reading off",
        "1/9(1,5): ((1, 3, 2), (9, 1, 1)) != [(1, 3, 2)]",
    ]
    assert suite.failure_count == 4


def test_hj_suite_reports_a_chain_off_its_value(monkeypatch):
    # The chain (3) has every entry at least 2 and evaluates to 3/1, not 2/1.
    def wrong_resolution(s):
        if (s.order, s.weights) == (2, (1, 1)):
            return HJChain((3,))
        return hj_resolution(s)

    assert hj_suite(3).passed
    monkeypatch.setattr(classt.sweep, "hj_resolution", wrong_resolution)
    suite = hj_suite(3)
    assert suite.cases == 3
    assert suite.failures == ["1/2(1,1): chain does not evaluate to 2/1"] and suite.failure_count == 1


def test_blowup_suite_reports_a_wrong_plane_weight(monkeypatch):
    # The planes (a, c, n + 1), (a + 1, c, n) and (a, c + 1, n) each move
    # K^2 of the plane side on every box model.
    box_size = len(list(box_params(*SWEEP_BOX)))
    assert box_size == 730 and blowup_suite(*SWEEP_BOX, box_size, 0).passed
    for shift in ((0, 0, 1), (1, 0, 0), (0, 1, 0)):
        monkeypatch.setattr(
            classt.sweep,
            "target_plane",
            lambda m, s=shift: WeightedProjectiveSpace((m.a + s[0], m.c + s[1], m.n + s[2])),
        )
        suite = blowup_suite(*SWEEP_BOX, box_size, 0)
        assert suite.cases == 730 and suite.failure_count == 730, shift
        assert all(": K^2 " in message for message in suite.failures), shift


def test_blowup_suite_reports_swapped_plane_points(monkeypatch):
    # Swapping 1/c(a, n) and 1/n(a, c) changes the pair unless c = n = 1.
    box, count, seed = (3, 2, 2), 12, 4
    sampled = random.Random(seed).sample(list(box_params(*box)), count)
    expected = [build_cyclic(*p, default_roots(p[0])).label() for p in sampled if (p[3], p[1]) != (1, 1)]
    assert 0 < len(expected) < count and blowup_suite(*box, count, seed).passed
    plane_points = classt.sweep.plane_points
    monkeypatch.setattr(classt.sweep, "plane_points", lambda m: plane_points(m)[::-1])
    suite = blowup_suite(*box, count, seed)
    assert suite.cases == count and suite.failure_count == len(expected)
    assert [msg.partition(": blow-up points ")[0] for msg in suite.failures] == expected


def test_blowup_suite_reports_a_centre_moved_to_R1(monkeypatch):
    # Blowing up R1 = 1/a(c, n) instead of R2 = 1/b(c, n) leaves the new
    # points alone but moves K^2 by (c + n - a)^2/(acn) - (c + n - b)^2/(bcn),
    # which is zero on 20 of the 730 box models (a = b on 8 of them).
    box_size = len(list(box_params(*SWEEP_BOX)))
    assert box_size == 730 and blowup_suite(*SWEEP_BOX, box_size, 0).passed
    blowup_at_R2 = classt.sweep.blowup_at_R2

    def blowup_at_R1(model):
        a, c, n = model.a, model.c, model.n
        return replace(blowup_at_R2(model), chart_actions=((c, (a, -n)), (n, (a, -c))))

    monkeypatch.setattr(classt.sweep, "blowup_at_R2", blowup_at_R1)
    suite = blowup_suite(*SWEEP_BOX, box_size, 0)
    assert suite.cases == 730 and suite.failure_count == 710
    assert all(": K^2 " in message for message in suite.failures)


def test_roundtrip_suite_reports_a_mismatch(monkeypatch):
    # An expansion verdict that is wrong for every P of degree d = 2 fails
    # exactly the box models with d = 2.
    expands = vars(RootConfig)["_expands"].func

    def wrong_for_d2(roots):
        verdict = expands(roots)
        return not verdict if roots.total == 2 else verdict

    box = (2, 2, 2)
    assert roundtrip_suite(*box).passed
    monkeypatch.setattr(RootConfig, "_expands", property(wrong_for_d2))
    models = list(box_models(*box))
    expected = [m.label() for m in models if m.roots.total == 2]
    assert len(expected) == 5 and len(expected) < len(models)
    suite = roundtrip_suite(*box)
    assert suite.failure_count == len(expected)
    assert suite.failures == [f"{label}: roundtrip mismatch" for label in expected]


def test_weight_family_counts_a_short_pair_list_once(monkeypatch):
    def one_pair_short(d, n, m, c):
        enum = enumerate_weights(d, n, m, c)
        if (d, n, m) == (3, 4, 3):
            return replace(enum, pairs=enum.pairs[:-1])
        return enum

    assert weight_family_suite(3, 4).passed
    monkeypatch.setattr(classt.sweep, "enumerate_weights", one_pair_short)
    suite = weight_family_suite(3, 4)
    assert suite.failure_count == 1
    assert suite.failures[0].startswith("(d,n,m)=(3,4,3): pairs ")


def test_blowup_suite_builds_only_the_sampled_models(monkeypatch):
    # The blow-up suite checks the 20 models it samples from the box's
    # models, which the walk built; it builds no model after the walk.
    models = list(box_models(*SWEEP_BOX))
    check_blowup = classt.sweep._check_blowup
    for seed in (0, 7):
        built, checked = [], []

        def recording_blowup(out, model):
            checked.append((len(built), model.label()))
            check_blowup(out, model)

        monkeypatch.setattr(classt.sweep, "build_cyclic", recording_build(built))
        monkeypatch.setattr(classt.sweep, "_check_blowup", recording_blowup)
        suite = blowup_suite(*SWEEP_BOX, 20, seed)
        monkeypatch.undo()
        assert len(built) == 730 + 169
        assert checked == [(len(built), m.label()) for m in random.Random(seed).sample(models, 20)]
        assert suite.cases == 20 and suite.passed


def test_run_all_walks_the_box_once(monkeypatch):
    # Walking the box once per suite built 1,818 models and enumerated 735
    # weight tuples; one walk builds the 730 box models and one fully
    # degenerate model per tuple with weights (169), samples the blow-up
    # models from the box's, and enumerates each of the 170 tuples once.
    # The simple roots of each d decide their expansion once for all the
    # models of that d.
    counts = {"build": 0, "enumerate": 0, "expands": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(classt.sweep, "build_cyclic", counted("build", build_cyclic))
    monkeypatch.setattr(classt.sweep, "enumerate_weights", counted("enumerate", enumerate_weights))
    expands = vars(RootConfig)["_expands"]
    monkeypatch.setattr(expands, "func", counted("expands", expands.func))
    for seed in (0, 7):
        counts.update(build=0, enumerate=0, expands=0)
        run_all(*SWEEP_BOX, seed=seed)
        assert counts == {"build": 899, "enumerate": 170, "expands": 5}
    assert len(list(cyclic_tuples(*SWEEP_BOX))) == 170

    # The walk checks the roundtrip of each box model once, in the closed
    # form's order, with the model alone, and the suite makes the same calls.
    seen = []

    def recording_roundtrip(*args):
        seen.append(args)
        return True

    monkeypatch.setattr(classt.sweep, "roundtrip_check", recording_roundtrip)
    expected = [(model,) for model in box_models(*SWEEP_BOX)]
    assert len(expected) == 730
    run_all(*SWEEP_BOX, seed=3)
    assert seen == expected
    seen.clear()
    roundtrip_suite(*SWEEP_BOX)
    assert seen == expected


def test_walk_makes_no_weight_reduction(monkeypatch):
    # The walk reads only the pairs of each enumeration; the enumerate
    # command reads the reductions too, so it still makes them.
    calls = []

    def counted(*args):
        calls.append(args)
        return well_formed_reduction(*args)

    monkeypatch.setattr(classt.compactify, "well_formed_reduction", counted)
    run_all(*SWEEP_BOX)
    assert calls == []
    outputs = enumerate_report(2, 3, 2, 2).outputs
    assert [(p["a"], p["b"], p["c"], p["reduced_from"]) for p in outputs["reduced"]] == [
        (2, 4, 1, [4, 8, 2]), (5, 1, 1, [10, 2, 2]),
    ]
    assert [space.weights for space, _ in calls] == [(4, 8, 2, 3), (10, 2, 2, 3)]


def test_brute_force_class_t_examples():
    assert brute_force_class_t(4, 1) == [(1, 2, 1)]
    assert brute_force_class_t(4, 3) == [(4, 1, 1)]
    assert brute_force_class_t(18, 5) == [(2, 3, 1)]
    assert brute_force_class_t(9, 5) == [(1, 3, 2)]
    assert brute_force_class_t(5, 2) == []


def test_individual_suites_pass():
    assert weight_family_suite(3, 4).passed
    assert residual_suite(2, 3, 2).passed
    assert topology_suite(2, 3, 2).passed
    assert roundtrip_suite(2, 2, 1).passed
    assert class_t_suite(40).passed
    assert hj_suite(40).passed


def test_run_all_small_box():
    results = run_all(max_d=2, max_n=3, max_c=2, seed=5)
    names = [r.name for r in results]
    assert names == [
        "weight-family",
        "adjunction-residual",
        "topology",
        "projection-roundtrip",
        "blowup-singularities",
        "class-t-detection",
        "hj-chains",
    ]
    for r in results:
        assert r.passed, f"{r.name}: {r.failures}"
        assert r.cases > 0
