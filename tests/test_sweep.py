"""Tests for the in-package verification sweeps."""

import random
from dataclasses import replace

import classt.sweep
from classt.compactify import build_cyclic, enumerate_weights, smoothness_status
from classt.sweep import (
    SuiteResult,
    blowup_suite,
    brute_force_class_t,
    class_t_suite,
    cyclic_tuples,
    default_roots,
    hj_suite,
    iter_models,
    rdp_models,
    residual_suite,
    roundtrip_suite,
    run_all,
    topology_suite,
    weight_family_suite,
)

SWEEP_BOX = (5, 6, 4)  # the acceptance box


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


def test_iter_models_and_rdp_models():
    models = list(iter_models(2, 2, 1))
    assert len(models) > 0
    assert all(m.is_cyclic for m in models)
    des = list(rdp_models(6))
    assert [m.descriptor.label() for m in des] == ["D_4", "D_5", "D_6", "E6", "E7", "E8"]


def test_iter_models_use_default_roots():
    models = list(iter_models(2, 3, 2))
    assert {m.descriptor.d for m in models} == {1, 2}
    for model in models:
        assert model.roots == default_roots(model.descriptor.d)


def test_sweep_box_case_counts():
    assert topology_suite(*SWEEP_BOX).cases == 338
    assert roundtrip_suite(*SWEEP_BOX, samples=1, seed=0).cases == 730


def test_topology_status_reaches_every_case(monkeypatch):
    calls = []

    def wrong_for_d2(roots):
        calls.append(roots)
        status = smoothness_status(roots)
        if roots.total == 2:
            return replace(status, a_indices=status.a_indices + (9,))
        return status

    d2_cases = topology_suite(2, 2, 2).cases - topology_suite(1, 2, 2).cases
    assert 0 < d2_cases <= 12  # every failure message is recorded
    monkeypatch.setattr(classt.sweep, "smoothness_status", wrong_for_d2)
    suite = topology_suite(3, 2, 2)
    assert len(calls) == 6  # two root configurations per d
    assert suite.failure_count == d2_cases
    assert len(suite.failures) == d2_cases
    for message in suite.failures:
        assert message.startswith("cyclic(d=2,") and "fibre status" in message


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
    models = list(iter_models(*SWEEP_BOX))
    for seed in (0, 7):
        # The models the suite picked when it built the whole box first.
        expected = [m.label() for m in random.Random(seed).sample(models, 20)]
        built = []

        def counting_build(*params):
            model = build_cyclic(*params)
            built.append(model.label())
            return model

        monkeypatch.setattr(classt.sweep, "build_cyclic", counting_build)
        suite = blowup_suite(*SWEEP_BOX, 20, seed)
        monkeypatch.undo()
        assert built == expected
        assert suite.cases == 20 and suite.passed


def test_brute_force_class_t_examples():
    assert brute_force_class_t(4, 1) == [(1, 2, 1)]
    assert brute_force_class_t(4, 3) == [(4, 1, 1)]
    assert brute_force_class_t(18, 5) == [(2, 3, 1)]
    assert brute_force_class_t(9, 5) == [(1, 3, 2)]
    assert brute_force_class_t(5, 2) == []


def test_individual_suites_pass():
    assert weight_family_suite(3, 4).passed
    assert residual_suite(2, 3, 2, max_dk=8).passed
    assert topology_suite(2, 3, 2).passed
    assert roundtrip_suite(2, 2, 1, samples=4, seed=1).passed
    assert class_t_suite(40).passed
    assert hj_suite(40).passed


def test_run_all_small_box():
    results = run_all(max_d=2, max_n=3, max_c=2, samples=3, seed=5, max_r=30, blowup_count=6)
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
