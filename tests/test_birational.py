"""Tests for the projection, blow-up, charts, and point equality."""

import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from classt import (
    BadInput,
    RootConfig,
    WPoint,
    WeightedProjectiveSpace,
    blowup_at_R2,
    build_cyclic,
    build_rdp,
    enumerate_weights,
    evaluate_pi_chart,
    normalize,
    project_pi,
    QuotientSingularity,
    roundtrip_check,
    target_plane,
    topology,
    UniPoly,
)
from classt import birational, reports
from classt.birational import surface_residue

from oracles import (
    box_models,
    box_params,
    expansion_oracle,
    noether_euler,
    poly_product,
    product_residue,
    roundtrip_oracle,
    same_weighted_point,
)


def d1_model():
    return build_cyclic(1, 2, 1, 1, 1, RootConfig.simple([1]))


def d2_model():
    return build_cyclic(2, 2, 1, 1, 1, RootConfig.simple([1, 2]))


def c2_model():
    return build_cyclic(2, 3, 2, 2, 1, RootConfig.simple([1, 2]))


# ----------------------------------------------------------------- points


def test_wpoint_validation():
    plane = WeightedProjectiveSpace((1, 1, 2))
    with pytest.raises(BadInput):
        WPoint(plane, (1, 2))
    with pytest.raises(BadInput):
        WPoint(plane, (0, 0, 0))


def test_wpoint_equality_straight_line():
    plane = WeightedProjectiveSpace((1, 1, 1))
    assert WPoint(plane, (1, 2, 3)) == WPoint(plane, (2, 4, 6))
    assert WPoint(plane, (1, 2, 3)) == WPoint(plane, (-1, -2, -3))
    assert WPoint(plane, (1, 2, 3)) != WPoint(plane, (2, 4, 5))
    assert WPoint(plane, (1, 0, 3)) != WPoint(plane, (1, 1, 3))


def test_wpoint_equality_weighted():
    plane = WeightedProjectiveSpace((1, 2))
    assert WPoint(plane, (1, 1)) == WPoint(plane, (2, 4))
    assert WPoint(plane, (1, 1)) != WPoint(plane, (2, 5))
    cubic = WeightedProjectiveSpace((2, 3))
    assert WPoint(cubic, (1, 1)) == WPoint(cubic, (4, 8))
    assert WPoint(cubic, (1, 1)) == WPoint(cubic, (4, -8))
    assert WPoint(cubic, (Fraction(1, 4), Fraction(1, 8))) == WPoint(cubic, (1, 1))


_RATIONALS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@settings(derandomize=True, database=None, max_examples=200)
@given(st.data())
def test_wpoint_equality_is_weighted_scaling(data):
    weights = tuple(data.draw(st.lists(st.integers(1, 7), min_size=2, max_size=4), label="weights"))
    size = len(weights)
    coords = data.draw(st.lists(_RATIONALS, min_size=size, max_size=size).filter(any), label="coords")
    t = data.draw(_RATIONALS.filter(bool), label="t")
    space = WeightedProjectiveSpace(weights)
    p = WPoint(space, coords)
    q = WPoint(space, [x * t**w for x, w in zip(coords, weights)])
    assert p == q and q == p

    # Moving one nonzero coordinate of q to any v other than +-q_j breaks
    # one cross product, unless q has a single nonzero coordinate.
    nonzero = [i for i, x in enumerate(coords) if x]
    assume(len(nonzero) >= 2)
    j = data.draw(st.sampled_from(nonzero), label="j")
    v = data.draw(_RATIONALS, label="v")
    assume(v != q.coords[j] and v != -q.coords[j])
    bent = list(q.coords)
    bent[j] = v
    assert p != WPoint(space, bent) and WPoint(space, bent) != p


def test_wpoint_equality_needs_one_scaling_for_every_pair():
    # t^2 = 1 and t = 1 force t^3 = 1, so the last coordinate cannot flip.
    for weights in ((2, 1, 1), (2, 3, 1)):
        space = WeightedProjectiveSpace(weights)
        assert WPoint(space, (1, 1, 1)) != WPoint(space, (1, 1, -1))
        assert WPoint(space, (1, -1, -1)) != WPoint(space, (1, 1, -1))
    space = WeightedProjectiveSpace((2, 3, 1))
    assert WPoint(space, (1, 1, 1)) == WPoint(space, (1, -1, -1))  # t = -1
    # Complex scalings count: t = i, then t = sqrt(2).
    space = WeightedProjectiveSpace((2, 2))
    assert WPoint(space, (1, 1)) == WPoint(space, (-1, -1))
    space = WeightedProjectiveSpace((2, 1))
    assert WPoint(space, (1, 0)) == WPoint(space, (2, 0))


# Coordinates and coordinatewise factors small enough that the two points
# of a pair are often one orbit, or miss it by a sign, a square or a zero.
_SMALL = st.sampled_from([Fraction(v) for v in (0, 1, -1, 2, -2, 4, -8, "1/2", "-1/4")])
_FACTORS = st.sampled_from([Fraction(v) for v in (0, 1, -1, 2, -2, 4, -4, 8, 16, "1/2", "1/4")])


@settings(derandomize=True, database=None, max_examples=400)
@given(st.data())
def test_wpoint_equality_matches_the_bezout_oracle(data):
    weights = tuple(data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=4), label="weights"))
    size = len(weights)
    p = data.draw(st.lists(_SMALL, min_size=size, max_size=size).filter(any), label="p")
    factors = data.draw(st.lists(_FACTORS, min_size=size, max_size=size), label="factors")
    q = [x * f for x, f in zip(p, factors)]
    assume(any(q))
    space = WeightedProjectiveSpace(weights)
    expected = same_weighted_point(weights, p, q)
    assert (WPoint(space, p) == WPoint(space, q)) == expected
    assert (WPoint(space, q) == WPoint(space, p)) == expected


def test_wpoint_equality_matches_the_oracle_at_the_degree_cap():
    # In P(1, 399, 1, 400) the ratios are raised to powers up to 400.  A
    # chart T lift rescaled by t is the lift's point; with z negated it is
    # not, since x != 0 and x and z both have weight 1.
    a = enumerate_weights(1, 400, 1, 1).pairs[0].a
    model = build_cyclic(1, 400, 1, 1, a, RootConfig.simple([1]))
    weights = model.ambient.weights
    assert weights == (1, 399, 1, 400)
    s, r = Fraction(2, 3), Fraction(-5, 2)
    x = evaluate_pi_chart(model, "T", (s, r)).coords[0]
    lift = (x, 1 / s, r, Fraction(1))
    verdicts = []
    for t in (Fraction(2), Fraction(-3, 2), Fraction(1, 3)):
        scaled = [v * t**w for v, w in zip(lift, weights)]
        for point in (scaled, [scaled[0], scaled[1], -scaled[2], scaled[3]]):
            expected = same_weighted_point(weights, lift, point)
            assert (WPoint(model.ambient, point) == WPoint(model.ambient, lift)) == expected
            verdicts.append(expected)
    assert verdicts == [True, False] * 3


def test_wpoint_distinct_ambients_and_hash():
    p = WPoint(WeightedProjectiveSpace((1, 1, 1)), (1, 1, 1))
    q = WPoint(WeightedProjectiveSpace((1, 1, 2)), (1, 1, 1))
    assert p != q
    assert p != "not a point"
    with pytest.raises(TypeError):
        hash(p)
    assert "1 : 1 : 1" in repr(p)


# ------------------------------------------------------------- projection


def test_target_plane():
    assert target_plane(d1_model()).weights == (1, 1, 2)
    assert target_plane(c2_model()).weights == (1, 2, 3)


def test_project_pi_basic():
    model = d1_model()
    point = WPoint(model.ambient, (1, -1, 0, 1))
    image = project_pi(model, point)
    assert image == WPoint(target_plane(model), (1, 0, 1))


def test_project_pi_errors():
    model = d1_model()
    with pytest.raises(
        BadInput, match=re.escape("[1 : 1 : 0 : 1] in P(1,1,1,2) does not satisfy the defining equation")
    ):
        project_pi(model, WPoint(model.ambient, (1, 1, 0, 1)))
    with pytest.raises(BadInput, match=re.escape("the projection has no value at [0:1:0:0]")):
        project_pi(model, WPoint(model.ambient, (0, 1, 0, 0)))
    other = d2_model()
    with pytest.raises(BadInput):
        project_pi(other, WPoint(model.ambient, (1, -1, 0, 1)))


def test_project_pi_contracts_x_zero_lines():
    # x = 0 away from R2 is fine: the image is [0 : z : w]
    model = d1_model()
    point = WPoint(model.ambient, (0, 5, 1, 1))
    assert surface_residue(model, point.coords) == 0
    assert project_pi(model, point) == WPoint(target_plane(model), (0, 1, 1))


def test_surface_residue_values():
    model = d2_model()
    assert surface_residue(model, (Fraction(1), Fraction(2), Fraction(0), Fraction(1))) == 0
    assert surface_residue(model, (Fraction(1), Fraction(1), Fraction(0), Fraction(1))) == -1


def test_surface_residue_matches_fraction_product():
    rng = random.Random(23)
    pool = [Fraction(num, den) for num in range(-6, 7) for den in (1, 2, 3, 5)]
    models = [
        d2_model(),
        c2_model(),
        build_cyclic(3, 2, 1, 1, 1, RootConfig.of([(1, 2), (2, 1)])),
        build_cyclic(3, 2, 1, 3, 1, RootConfig.of([("1/2", 2), (-3, 1)])),
        build_cyclic(2, 3, 2, 2, 7, RootConfig.of([("-2/3", 1), ("5/4", 1)])),
    ]
    for model in models:
        c, n, poly = model.c, model.n, model.roots.polynomial
        for _ in range(150):
            x = rng.choice([p for p in pool if p != 0])
            z, w = rng.choice(pool), rng.choice(pool)
            on_surface = product_residue(model, (x, Fraction(0), z, w)) / -x
            # The root product from the expanded P: w^(c*d) P(z^n / w^c),
            # which is z^(n*d) on w = 0.
            product = w ** (c * poly.degree) * poly(z**n / w**c) if w else z ** (n * poly.degree)
            for y in (on_surface, on_surface + 1, rng.choice(pool)):
                coords = (x, y, z, w)
                residue = surface_residue(model, coords)
                assert type(residue) is Fraction
                assert residue == product_residue(model, coords), (model.label(), coords)
                assert residue == x * y - product, (model.label(), coords)
            assert surface_residue(model, (x, on_surface, z, w)) == 0
            assert surface_residue(model, (x, on_surface + 1, z, w)) == x


# ---------------------------------------------------------------- blow-up


def test_blowup_frozen_c2_model():
    blown = blowup_at_R2(c2_model())
    assert blown.chart_actions == ((2, (11, -3)), (3, (11, -2)))
    s1, s2 = blown.new_singularities
    assert (s1.order, s1.weights) == (2, (1, 1))
    assert (s2.order, s2.weights) == (3, (1, 2))
    assert blown.exceptional_orders == (2, 3)


def test_blowup_d2_model():
    blown = blowup_at_R2(d2_model())
    assert blown.chart_actions == ((1, (3, -2)), (2, (3, -1)))
    s1, s2 = blown.new_singularities
    assert s1.is_smooth()
    assert (s2.order, s2.weights) == (2, (1, 1))
    assert blown.exceptional_orders == (2,)


def test_blowup_matches_plane_coordinate_points():
    for model in (d1_model(), d2_model(), c2_model()):
        blown = blowup_at_R2(model)
        a, c, n = model.a, model.c, model.n
        assert blown.new_singularities == (
            normalize(QuotientSingularity(c, (a, n))),
            normalize(QuotientSingularity(n, (a, c))),
        )


def test_blowup_rejects_rdp():
    model = build_rdp("E", 6)
    message = re.escape("this construction needs a cyclic-variant model")
    for fn in (target_plane, blowup_at_R2):
        with pytest.raises(BadInput, match=message):
            fn(model)
    with pytest.raises(BadInput, match=message):
        roundtrip_check(model)


# ----------------------------------------------------------------- charts


def test_chart_T_frozen():
    model = d1_model()
    image = evaluate_pi_chart(model, "T", (1, 2))
    assert image == WPoint(target_plane(model), (3, 2, 1))


def test_chart_S_frozen():
    model = d1_model()
    image = evaluate_pi_chart(model, "S", (1, 0))
    assert image == WPoint(target_plane(model), (1, 1, 0))


def test_chart_T_at_root_hits_x_zero():
    model = d1_model()
    image = evaluate_pi_chart(model, "T", (1, 1))
    assert image == WPoint(target_plane(model), (0, 1, 1))


def test_chart_name_validation():
    with pytest.raises(BadInput):
        evaluate_pi_chart(d1_model(), "U", (1, 1))


def test_chart_overlap_transition():
    # T(u'*t^b, t^(-c)) and S(u', t^n) are the same plane point
    for model in (d1_model(), d2_model(), c2_model()):
        b, c, n = model.b, model.c, model.n
        for t in (Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(-2, 3)):
            for u in (Fraction(1), Fraction(-2), Fraction(1, 3)):
                via_T = evaluate_pi_chart(model, "T", (u * t**b, t**-c))
                via_S = evaluate_pi_chart(model, "S", (u, t**n))
                assert via_T == via_S


def test_project_pi_matches_both_charts():
    # A chart T point (w', r) lifts to [x : 1/w' : r : 1] and a chart S
    # point (u', v) to [x : 1/u' : 1 : v], x the chart image's first
    # coordinate; rescaled by t^(a, b, c, n), the lift must lie on the
    # surface and project to the chart image.
    rng = random.Random(31)
    pool = [Fraction(num, den) for num in range(-6, 7) for den in (1, 2, 3)]
    units = [p for p in pool if p]
    scales = [Fraction(t) for t in ("2", "-2", "1/2", "-3/2", "3")]
    samples = on_c = x_zero = 0
    for model in box_models(4, 4, 3):
        weights = model.ambient.weights
        for chart in "TS":
            s, t = rng.choice(units), rng.choice(pool)
            image = evaluate_pi_chart(model, chart, (s, t))
            x = image.coords[0]
            lift = (x, 1 / s, t, Fraction(1)) if chart == "T" else (x, 1 / s, Fraction(1), t)
            scale = scales[samples % len(scales)]
            lift = tuple(v * scale**w for v, w in zip(lift, weights))
            assert surface_residue(model, lift) == 0, (model.label(), chart, s, t)
            assert project_pi(model, WPoint(model.ambient, lift)) == image, (model.label(), chart, s, t)
            samples += 1
            on_c += chart == "S" and not t
            x_zero += not x
    assert on_c and x_zero


def test_text_that_is_not_rational_is_bad_input():
    model = d1_model()
    with pytest.raises(BadInput):
        WPoint(WeightedProjectiveSpace((1, 1, 2)), ("1/0", 1, 1))
    with pytest.raises(BadInput):
        RootConfig.simple(["x"])
    with pytest.raises(BadInput):
        evaluate_pi_chart(model, "T", ("x", 1))


def test_coordinate_count_and_text_coordinates_are_bad_input():
    model = d1_model()
    with pytest.raises(BadInput, match="needs 4 coordinates, got 3"):
        surface_residue(model, (1, 2, 3))
    with pytest.raises(BadInput, match="takes 2 coordinates, got 1"):
        evaluate_pi_chart(model, "T", (1,))
    with pytest.raises(BadInput, match="cannot parse rational 'x'"):
        surface_residue(model, ("x", 1, 1, 1))
    # Rational text is read as its Fraction.
    assert surface_residue(model, ("1", "-1", "0", "1")) == 0
    assert surface_residue(model, ("1/2", 2, 0, 1)) == surface_residue(
        model, (Fraction(1, 2), Fraction(2), Fraction(0), Fraction(1))
    )


# ------------------------------------------------------------ description


def test_blowup_description():
    # The birational report's description of the model (3, 2, 1, 1, 1).
    model = build_cyclic(3, 2, 1, 1, 1, RootConfig.of([(1, 2), (2, 1)]))
    desc = reports.birational_report(3, 2, 1, 1, 1, "1:2,2:1", 5, 0).outputs["description"]
    assert desc["base_plane"] == target_plane(model).label() == "P(1,1,2)"
    assert desc["centers"] == [{"root": "1/1", "iterations": 2}, {"root": "2/1", "iterations": 1}]
    assert desc["removed_divisors"] == ["x=0", "w=0"]
    assert desc["total_blowups"] == 3
    assert desc["euler_characteristic"] == 6


def test_euler_count_matches_topology():
    # Noether's formula on the minimal resolution is the second side of
    # both the closed form and the blow-up count.
    for model in (d1_model(), d2_model(), c2_model(), *box_models(5, 6, 4)):
        euler = noether_euler(model)
        assert euler == topology(model).chi_Mbar, model.label()
        # The plane blown up once per root, with multiplicity, has chi 3 + total:
        # one more than Mbar.
        assert euler == 2 + model.roots.total, model.label()


def test_noether_euler_fails_on_a_wrong_beta():
    # beta = (c + n)/c instead of (c + n)/n moves K^2 unless c = n.
    models = list(box_models(5, 6, 4))
    wrong = [
        model.label()
        for model in models
        if noether_euler(replace(model, beta=Fraction(model.c + model.n, model.c)))
        != topology(model).chi_Mbar
    ]
    assert wrong == [model.label() for model in models if model.c != model.n]
    assert len(wrong) == 720


# -------------------------------------------------------------- roundtrip


def test_roundtrip_is_true_and_deterministic():
    model = d2_model()
    assert roundtrip_check(model)
    assert roundtrip_check(model)
    assert roundtrip_check(c2_model())
    # At the degree cap with c = 400.
    assert roundtrip_check(build_cyclic(1, 1, 1, 400, 399, RootConfig.simple([1])))


def test_roundtrip_repeated_roots():
    model = build_cyclic(3, 2, 1, 1, 1, RootConfig.of([(1, 2), (2, 1)]))
    assert roundtrip_check(model)


def test_roundtrip_fails_on_a_wrong_expansion(monkeypatch):
    # The lift's y comes from the expanded P; the defining equation uses
    # the root factors, so an expansion that disagrees with them must fail.
    roots = RootConfig.simple([1, 2])
    model = build_cyclic(2, 2, 1, 1, 1, roots)
    assert roundtrip_check(model)
    monkeypatch.setitem(roots.__dict__, "polynomial", UniPoly.from_roots([(1, 1), (3, 1)]))
    assert not roundtrip_check(model)


# The 27 distinct values of r drawn from the numerators -6..6 over 1, 2 and
# 3, the chart coordinates a sampled roundtrip tries.
_SAMPLED_R = sorted({Fraction(num, den) for num in range(-6, 7) for den in (1, 2, 3)})


@pytest.mark.parametrize(
    "pairs",
    [
        [(j, 1) for j in range(1, 31)],
        [(Fraction(1, 2), 3), (Fraction(-2, 3), 2)] + [(j, 1) for j in range(1, 26)],
    ],
    ids=["roots 1..30", "fractional, repeated"],
)
def test_roundtrip_fails_on_a_wrong_expansion_that_vanishes_where_sampled(monkeypatch, pairs):
    # A monic P of degree 30 plus the product of (x - v) over every value v
    # of r^n that a sampled r gives is still monic of degree 30, and equals
    # the root product at each of those values, so only a complete test of
    # the expansion sees that it is wrong.
    roots = RootConfig.of(pairs)
    assert roots.total == 30
    models = [build_cyclic(30, n, 1, 1, 1, roots) for n in (1, 2)]
    for model in models:
        assert roundtrip_check(model)
    right = roots.polynomial
    for model in models:
        values = sorted({r**model.n for r in _SAMPLED_R})
        assert len(values) == (27 if model.n == 1 else 14)
        extra = poly_product([[-v, 1] for v in values])
        padded = extra + [0] * (len(right.coeffs) - len(extra))
        wrong = UniPoly.of(a + b for a, b in zip(right.coeffs, padded))
        assert wrong.degree == 30 and wrong.coeffs[-1] == 1
        assert all(wrong(v) == right(v) for v in values)
        monkeypatch.setitem(roots.__dict__, "polynomial", wrong)
        assert not roundtrip_check(model), model.n


def test_roundtrip_fails_on_a_wrong_y_weight():
    # The rescaling multiplies the lift's x*y by t^(a+b) and the root
    # product by t^(c*n*d), so a model whose ambient names b + 1, a + 1 or
    # c + 1 breaks a + b == c*n*d and must fail.
    for model in box_models(5, 6, 4):
        a, b, c, n = model.ambient.weights
        for weights in ((a, b + 1, c, n), (a + 1, b, c, n), (a, b, c + 1, n)):
            wrong = replace(model, ambient=WeightedProjectiveSpace(weights))
            assert not roundtrip_check(wrong), (model.label(), weights)


def test_warm_expansion_cache_gives_the_cold_roundtrip(monkeypatch):
    # The box walked in order, each model's roundtrip on the verdict its
    # predecessors of the same d cached, then on an empty cache every time:
    # the model verdicts and the expansion verdicts agree, and the warm walk
    # decides the expansion once per d.
    expands = birational._expands
    decided = []

    def deciding(*key):
        decided.append(expands(*key))
        return decided[-1]

    monkeypatch.setattr(birational, "_expands", deciding)
    models = list(box_models(5, 6, 4))
    walks = []
    for cold in (False, True):
        expands.cache_clear()
        decided.clear()
        verdicts = []
        for model in models:
            if cold:
                expands.cache_clear()
            verdicts.append(roundtrip_check(model))
        walks.append((verdicts, list(decided)))
        # The box's 5 values of d each run over consecutive models, and the
        # cache key holds P and the roots, not n.
        info = expands.cache_info()
        assert (info.hits, info.misses) == ((0, 1) if cold else (len(models) - 5, 5))
    expands.cache_clear()
    (warm, warm_decided), (cold, cold_decided) = walks
    assert warm == cold and warm_decided == cold_decided
    assert all(warm) and len(warm_decided) == len(models)


def _walk_box_against_the_oracle(models=None):
    # Each model's roundtrip on an empty expansion cache against sampled
    # lifts, rescaled and compared with Fractions, and against the
    # expansion compared with Fractions: the oracle projects every sampled
    # lift back to its chart image, the cached expansion verdict is the
    # oracle's, an expansion that holds leaves every sampled lift on the
    # surface, and the model verdicts agree.  The models default to the
    # box with the roots 1..d.
    expands = birational._expands
    models = list(box_models(5, 6, 4)) if models is None else models
    passed = []
    for i, model in enumerate(models):
        expands.cache_clear()
        expected = roundtrip_oracle(model, 10, i)
        identity = expansion_oracle(model)
        passed.append(roundtrip_check(model))
        assert all(agrees for _, _, _, agrees in expected), model.label()
        key = (model.roots.polynomial._cleared, model.roots._triples)
        assert expands(*key) == identity, model.label()
        assert expands.cache_info().misses == 1, model.label()
        assert not identity or all(on for _, _, on, _ in expected), model.label()
        assert passed[-1] == all(on for _, _, on, _ in expected), model.label()
        assert passed[-1] == identity, model.label()
    expands.cache_clear()
    return passed


def test_roundtrip_matches_the_fraction_oracle():
    assert all(_walk_box_against_the_oracle())


def _fractional_roots(rng, d):
    """Distinct roots ``p/q`` with ``0 < |p| <= 9`` and ``q <= 4`` whose
    multiplicities sum to ``d``; about a third of the draws repeat a root."""
    mults, left = [], d
    while left:
        k = rng.randint(2, left) if left >= 2 and rng.random() < 0.35 else 1
        mults.append(k)
        left -= k
    numerators = [i for i in range(-9, 10) if i]
    roots = {}
    for k in mults:
        root = None
        while root is None or root in roots:
            root = Fraction(rng.choice(numerators), rng.randint(1, 4))
        roots[root] = k
    return RootConfig.of(list(roots.items()))


def test_roundtrip_matches_the_fraction_oracle_on_fractional_roots():
    # The box walk sees only the simple integer roots 1..d; here the cleared
    # denominators of P and the repeated root factors differ from 1.
    rng = random.Random(15)
    params = rng.sample(list(box_params(5, 6, 4)), 200)
    models = [build_cyclic(*p, _fractional_roots(rng, p[0])) for p in params]
    assert sum(any(root.denominator > 1 for root in m.roots.roots) for m in models) > 150
    assert sum(any(k > 1 for _, k in m.roots.pairs) for m in models) > 50
    assert all(_walk_box_against_the_oracle(models))
