"""Acceptance gate: the eight primary criteria, each with its stated
runtime bound, one pass/fail line per criterion (visible under -s)."""

import time
from fractions import Fraction
from math import gcd, prod

from oracles import box_models, milnor_quotient_dim, monomials_independent

from classt import (
    QuotientSingularity,
    build_rdp,
    enumerate_weights,
    hj_resolution,
    mod_inverse,
    rdp_data,
)
from classt.birational import roundtrip_check
from classt.sweep import (
    blowup_suite,
    class_t_suite,
    hj_suite,
    residual_suite,
    topology_suite,
)

SWEEP_BOX = (5, 6, 4)


def run_criterion(label: str, limit: float | None, body) -> None:
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        ok = limit is None or elapsed < limit
    except BaseException:
        print(f"acceptance[{label}]: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"acceptance[{label}]: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok, f"{label}: runtime {elapsed:.2f}s exceeds the {limit:.0f}s bound"


def test_criterion_1_weight_families():
    def body():
        checked = 0
        for d in range(1, 7):
            for n in range(2, 8):
                for m in range(1, n):
                    if gcd(m, n) != 1:
                        continue
                    u = mod_inverse(m, n)
                    enum = enumerate_weights(d, n, m, 1)
                    expected = [(u + k * n, (d - k) * n - u) for k in range(d)]
                    assert len(enum.pairs) == d, (d, n, m)
                    assert enum.pair_tuples() == expected, (d, n, m)
                    checked += 1
        assert checked > 60

    run_criterion("1 weight-families", 1.0, body)


def test_criterion_2_adjunction_residual():
    def body():
        suite = residual_suite(*SWEEP_BOX)
        assert suite.cases > 700
        assert suite.failure_count == 0, suite.failures

    run_criterion("2 adjunction-residual", 5.0, body)


def ale_group(model) -> tuple[Fraction, Fraction]:
    """``(4e/chi^2, e * prod r_i)`` of the curve at infinity, with ``e =
    C^2`` and ``chi = 2 - sum(1 - 1/r_i)``: ``|Gamma|`` and ``|H_1|`` when
    the end is ``S^3/Gamma``."""
    e, orders = model.curve.self_intersection, model.curve.orbifold_points
    chi = 2 - sum(1 - Fraction(1, r) for r in orders)
    return 4 * e / chi**2, e * prod(orders)


def test_criterion_3_rdp_table():
    def body():
        for k in range(4, 13):
            model = build_rdp("D", k)
            assert model.curve.self_intersection == Fraction(1, k - 2)
            assert model.curve.orbifold_points == tuple(sorted((2, 2, k - 2)))
            assert model.degree == 2 * k - 2
            assert model.beta == 2
            assert ale_group(model) == (4 * (k - 2), 4)
        for index, csq, orders, degree, group in (
            (6, Fraction(1, 6), (3, 3, 2), 12, (24, 3)),
            (7, Fraction(1, 12), (2, 3, 4), 18, (48, 2)),
            (8, Fraction(1, 30), (2, 3, 5), 30, (120, 1)),
        ):
            model = build_rdp("E", index)
            assert model.curve.self_intersection == csq
            assert model.curve.orbifold_points == tuple(sorted(orders))
            assert model.degree == degree
            assert model.beta == 2
            assert ale_group(model) == group

    run_criterion("3 rdp-table", None, body)


def test_criterion_4_class_t_oracle():
    def body():
        suite = class_t_suite(200)
        assert suite.cases > 10000
        assert suite.failure_count == 0, suite.failures

    run_criterion("4 class-t-oracle", 10.0, body)


def test_criterion_5_topology():
    def body():
        suite = topology_suite(*SWEEP_BOX)
        assert suite.cases > 300
        assert suite.failure_count == 0, suite.failures

    run_criterion("5 topology", None, body)


def test_criterion_6_birational_roundtrip():
    def body():
        models = list(box_models(*SWEEP_BOX))
        assert len(models) > 700
        for model in models:
            assert roundtrip_check(model), model.label()
        suite = blowup_suite(*SWEEP_BOX, count=20, seed=2026)
        assert suite.cases == 20
        assert suite.failure_count == 0, suite.failures

    run_criterion("6 birational-roundtrip", 5.0, body)


def test_criterion_7_milnor_dimensions():
    def body():
        entries = [("A", k) for k in range(2, 9)]
        entries += [("D", k) for k in range(4, 9)]
        entries += [("E", k) for k in (6, 7, 8)]
        for ade, index in entries:
            data = rdp_data(ade, index)
            assert data.milnor_number == index, data.label()
            assert len(data.milnor_basis) == index, data.label()
            assert milnor_quotient_dim(data.defining_poly) == index, data.label()
            assert monomials_independent(list(data.milnor_basis), data.defining_poly)

    run_criterion("7 milnor-dimensions", 10.0, body)


def test_criterion_8_hj_chains():
    def body():
        suite = hj_suite(200)
        assert suite.cases > 10000
        assert suite.failure_count == 0, suite.failures
        for k in range(2, 13):
            chain = hj_resolution(QuotientSingularity(k, (1, k - 1)))
            assert chain.entries == (2,) * (k - 1)

    run_criterion("8 hj-chains", None, body)
