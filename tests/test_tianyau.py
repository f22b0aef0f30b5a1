"""Tests for the numerical hypothesis checks and the adjunction identity."""

import random
from dataclasses import replace
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from classt import (
    CurveAtInfinity,
    RootConfig,
    TianYauReport,
    build_cyclic,
    build_rdp,
    check_hypotheses,
    enumerate_weights,
    orbifold_adjunction_residual,
)

from oracles import box_models, fraction_adjunction_residual


def test_check_d2_n2_model():
    model = build_cyclic(2, 2, 1, 1, 1, RootConfig.simple([1, 2]))
    report = check_hypotheses(model)
    assert report.beta == Fraction(3, 2)
    assert report.beta_gt_one
    assert report.C_squared == Fraction(8, 3)
    assert report.decay_rhs == Fraction(4)
    assert report.adjunction_residual == 0
    assert report.singularities_on_divisor
    assert report.all_satisfied


def test_check_rdp_decay():
    report = check_hypotheses(build_rdp("D", 6))
    assert report.beta == 2
    assert report.decay_rhs == 2
    assert report.C_squared == Fraction(1, 4)
    assert report.adjunction_residual == 0
    assert report.all_satisfied


def test_interior_points_block_hypotheses_until_resolved():
    model = build_cyclic(2, 2, 1, 1, 1, RootConfig.of([(1, 2)]))
    report = check_hypotheses(model)
    assert not report.singularities_on_divisor
    assert not report.all_satisfied
    # the failing flags are exactly the interior ones
    assert report.beta_gt_one
    assert report.adjunction_residual == 0

    # The minimal resolution removes the interior points and leaves beta,
    # C^2 and the boundary curve as they are.
    resolved = check_hypotheses(replace(model, interior_singularities=()))
    assert resolved.singularities_on_divisor
    assert resolved.all_satisfied
    assert resolved.beta == report.beta and resolved.C_squared == report.C_squared


def test_residual_detects_wrong_orbifold_orders():
    model = build_cyclic(2, 2, 1, 1, 1, RootConfig.simple([1, 2]))
    broken = replace(
        model, curve=CurveAtInfinity(model.curve.self_intersection, (2,))
    )
    assert orbifold_adjunction_residual(broken) == Fraction(1, 6)
    assert not check_hypotheses(broken).all_satisfied


def test_residual_detects_wrong_beta():
    model = build_rdp("E", 7)
    broken = replace(model, beta=Fraction(3))
    assert orbifold_adjunction_residual(broken) == -Fraction(1, 12)
    report = check_hypotheses(broken)
    assert report.beta_gt_one and not report.all_satisfied


def test_beta_not_above_one_disables_decay():
    model = build_cyclic(1, 2, 1, 1, 1, RootConfig.simple([1]))
    broken = replace(model, beta=Fraction(1))
    report = check_hypotheses(broken)
    assert not report.beta_gt_one
    assert report.decay_rhs is None
    assert not report.all_satisfied


def test_residual_zero_across_cyclic_models():
    for d in range(1, 4):
        for n in range(1, 5):
            for m in range(1, max(n, 2)):
                if gcd(m, n) != 1:
                    continue
                for c in range(1, 4):
                    if gcd(c, n) != 1:
                        continue
                    for a, _ in enumerate_weights(d, n, m, c).pair_tuples():
                        model = build_cyclic(
                            d, n, m, c, a, RootConfig.simple(range(1, d + 1))
                        )
                        assert orbifold_adjunction_residual(model) == 0
                        assert check_hypotheses(model).all_satisfied


def test_residual_zero_across_rdp_models():
    for ade, index in [("D", k) for k in range(4, 13)] + [("E", 6), ("E", 7), ("E", 8)]:
        model = build_rdp(ade, index)
        assert orbifold_adjunction_residual(model) == 0
        assert check_hypotheses(model).all_satisfied


def test_decay_exponent_formula():
    # beta = (c + n)/n makes the decay rate 2n/c
    for n, c in ((2, 1), (3, 1), (3, 2), (5, 3)):
        m = 1
        enum = enumerate_weights(2, n, m, c)
        a = enum.pairs[0].a
        model = build_cyclic(2, n, m, c, a, RootConfig.simple([1, 2]))
        assert check_hypotheses(model).decay_rhs == Fraction(2 * n, c)


def _random_roots(rng, d):
    """Distinct nonzero rational roots whose multiplicities sum to ``d``."""
    cuts = sorted(rng.sample(range(1, d), rng.randint(0, d - 1)))
    mults = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, d])]
    values = rng.sample(sorted({Fraction(p, q) for p in range(-6, 7) if p for q in range(1, 5)}), len(mults))
    return RootConfig.of(zip(values, mults))


def test_residual_matches_fraction_reference():
    rng = random.Random(20131)
    models = [build_rdp(ade, k) for ade, k in [("D", k) for k in range(4, 13)] + [("E", 6), ("E", 7), ("E", 8)]]
    for d in range(1, 5):
        for n in range(1, 5):
            for m in range(1, max(n, 2)):
                for c in range(1, 4):
                    if gcd(m, n) != 1 or gcd(c, n) != 1:
                        continue
                    for a, _ in enumerate_weights(d, n, m, c).pair_tuples():
                        models.append(build_cyclic(d, n, m, c, a, _random_roots(rng, d)))
    nonzero = 0
    for model in models:
        assert orbifold_adjunction_residual(model) == fraction_adjunction_residual(model) == 0
        for wrong in ("beta", "C^2", "orders", "all"):
            beta, csq, orders = model.beta, model.curve.self_intersection, model.curve.orbifold_points
            if wrong in ("beta", "all"):
                beta = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            if wrong in ("C^2", "all"):
                csq = Fraction(rng.randint(1, 80), rng.randint(1, 30))
            if wrong in ("orders", "all"):
                orders = tuple(sorted(rng.randint(2, 40) for _ in range(rng.randint(0, 4))))
            broken = replace(model, beta=beta, curve=CurveAtInfinity(csq, orders))
            residual = orbifold_adjunction_residual(broken)
            assert type(residual) is Fraction
            assert residual == fraction_adjunction_residual(broken), (model, wrong)
            nonzero += residual != 0
    assert len(models) > 150 and nonzero > 3 * len(models)


_ROOT = st.builds(Fraction, st.integers(1, 20) | st.integers(-20, -1), st.integers(1, 9))


@st.composite
def _cyclic_families(draw):
    """``(d, n, m, c, roots)`` with ``gcd(m, n) = gcd(c, n) = 1`` and
    distinct nonzero rational roots whose multiplicities sum to ``d``."""
    mults = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    roots = draw(st.lists(_ROOT, min_size=len(mults), max_size=len(mults), unique=True))
    n = draw(st.integers(1, 6))
    m = draw(st.sampled_from([m for m in range(1, n + 1) if gcd(m, n) == 1]))
    c = draw(st.sampled_from([c for c in range(1, 6) if gcd(c, n) == 1]))
    return sum(mults), n, m, c, RootConfig(tuple(roots), tuple(mults))


@settings(derandomize=True, database=None, max_examples=200)
@given(_cyclic_families())
def test_every_enumerated_pair_satisfies_the_hypotheses(family):
    d, n, m, c, roots = family
    enum = enumerate_weights(d, n, m, c)
    for pair in enum.pairs + enum.reduced:
        model = build_cyclic(d, n, m, pair.c, pair.a, roots)
        assert model.b == pair.b
        assert orbifold_adjunction_residual(model) == 0
        # Repeated roots leave interior points, which only resolution removes;
        # the hypotheses hold after it since beta > 1 and the residual is 0.
        report = check_hypotheses(model)
        assert report.all_satisfied == (not model.interior_singularities)
        assert report.beta_gt_one


def _fraction_verdicts(report):
    """``beta_gt_one``, ``decay_rhs`` and ``all_satisfied`` by their
    definitions on Fractions: ``beta > 1``, ``2/(beta - 1)`` and the three flags."""
    beta = Fraction(report.beta)
    decay = Fraction(2) / (beta - 1) if beta > 1 else None
    return beta > 1, decay, beta > 1 and report.singularities_on_divisor and report.adjunction_residual == 0


def _verdicts(report):
    return report.beta_gt_one, report.decay_rhs, report.all_satisfied


# Betas below, at and above one, both signs, and the decay's rounding cases.
_BETAS = st.fractions(min_value=-4, max_value=6, max_denominator=40) | st.sampled_from(
    [Fraction(1), Fraction(0), Fraction(41, 40), Fraction(39, 40), Fraction(3, 1)]
)


@settings(derandomize=True, database=None, max_examples=300)
@given(_BETAS, st.booleans(), st.sampled_from([Fraction(0), Fraction(1, 6), Fraction(-1, 12)]))
def test_verdicts_match_their_fraction_definitions(beta, on_divisor, residual):
    report = TianYauReport(beta, on_divisor, Fraction(1, 3), residual)
    assert _verdicts(report) == _fraction_verdicts(report)
    decay = report.decay_rhs
    assert decay is None or type(decay) is Fraction


def test_verdicts_match_their_fraction_definitions_on_every_box_model():
    models = list(box_models(5, 6, 4))
    assert len(models) == 730
    for model in models:
        report = check_hypotheses(model)
        assert _verdicts(report) == _fraction_verdicts(report) == (True, Fraction(2 * model.n, model.c), True)
