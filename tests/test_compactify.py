"""Tests for weight enumeration and compactified-model construction."""

import random
import re
from dataclasses import fields, replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classt import (
    BadInput,
    CompactificationModel,
    ConditionViolated,
    CurveAtInfinity,
    RootConfig,
    build_cyclic,
    build_rdp,
    enumerate_weights,
    minimal_resolution,
    mod_inverse,
    smoothness_status,
    topology,
)
from classt import compactify
from classt.compactify import WeightPair, _parse_rational, weight_conditions
from classt.sweep import cyclic_tuples
from classt.wps import WeightedProjectiveSpace, well_formed_reduction

from oracles import box_params


# ---------------------------------------------------------------- roots


def test_root_config_validation():
    with pytest.raises(BadInput, match=re.escape("at least one root is required")):
        RootConfig.simple([])
    with pytest.raises(BadInput, match=re.escape("roots must be nonzero")):
        RootConfig.simple([1, 0])
    with pytest.raises(BadInput, match=re.escape("roots must be distinct, got 1 more than once")):
        RootConfig.simple([1, 1])
    with pytest.raises(BadInput, match=re.escape("multiplicities must be positive")):
        RootConfig.of([(1, 0)])
    with pytest.raises(BadInput, match=re.escape("roots and multiplicities must pair up")):
        RootConfig((Fraction(1), Fraction(2)), (1,))


def test_root_config_parse_and_text():
    rc = RootConfig.parse("3:2, 5")
    assert rc.pairs == ((Fraction(3), 2), (Fraction(5), 1))
    assert rc.total == 3
    assert rc.as_text() == "3:2,5:1"
    assert RootConfig.parse(rc.as_text()) == rc
    assert RootConfig.parse("1/2").roots == (Fraction(1, 2),)


def test_root_config_parse_errors():
    for bad in ("", "1,,2", "x:2", "1:y", "1/0"):
        with pytest.raises(BadInput):
            RootConfig.parse(bad)
    cases = [
        ("1/0", "cannot parse root entry '1/0'"),
        ("abc", "cannot parse root entry 'abc'"),
        (":2", "cannot parse root entry ':2'"),
        # 2/2 is read as two ints and reduced to 1 before the distinctness check.
        ("1,2/2", "roots must be distinct, got 1 more than once"),
    ]
    for text, message in cases:
        with pytest.raises(BadInput) as info:
            RootConfig.parse(text)
        assert type(info.value) is BadInput and str(info.value) == message


def _outcome(parse, text):
    """``(type, numerator, denominator)`` of ``parse(text)``, or the type it raised."""
    try:
        value = parse(text)
    except Exception as exc:
        return type(exc)
    return type(value), value.numerator, value.denominator


# Texts over the characters Fraction treats specially, non-ASCII digits
# included (it takes the Arabic-Indic three but not the superscript two),
# mixed with plain [-]digits[/digits] texts, which take the integer path.
_ROOT_TEXTS = st.one_of(
    st.text(alphabet="0123456789-+/_.e ٣²", max_size=10),
    st.from_regex(r"-?[0-9]{1,5}(/[0-9]{1,5})?", fullmatch=True),
)


@settings(derandomize=True, database=None, max_examples=200)
@given(_ROOT_TEXTS)
def test_integer_root_parse_matches_fraction(text):
    assert _outcome(_parse_rational, text) == _outcome(Fraction, text)


def test_root_polynomial():
    rc = RootConfig.of([(1, 2), (2, 1)])
    p = rc.polynomial
    assert p.degree == 3
    assert p(1) == 0 and p(2) == 0 and p(0) == -2


# ---------------------------------------------------------- enumeration


def test_enumerate_d2_n2_family():
    enum = enumerate_weights(2, 2, 1, 1)
    assert enum.u == 1
    assert enum.pair_tuples() == [(1, 3), (3, 1)]
    assert enum.reduced == ()
    assert enum.raw_count == 2


def test_enumerate_with_reductions():
    enum = enumerate_weights(2, 3, 2, 2)
    assert enum.u == 2
    assert enum.pair_tuples() == [(1, 11), (7, 5)]
    assert [(p.a, p.b, p.c) for p in enum.reduced] == [(2, 4, 1), (5, 1, 1)]
    assert enum.reduced[0].reduced_from == (4, 8, 2)
    assert enum.reduced[1].reduced_from == (10, 2, 2)
    assert enum.raw_count == 4


def test_enumerate_n1_gives_d_minus_1_pairs():
    # mod 1 the congruence is vacuous; a runs over 1..d-1 with b >= 1
    enum = enumerate_weights(3, 1, 1, 1)
    assert enum.pair_tuples() == [(1, 2), (2, 1)]
    assert enum.raw_count == 2


def test_enumerate_family_closed_form():
    for d in range(1, 5):
        for n in range(2, 6):
            for m in range(1, n):
                if gcd(m, n) != 1:
                    continue
                u = mod_inverse(m, n)
                enum = enumerate_weights(d, n, m, 1)
                expected = [(u + k * n, (d - k) * n - u) for k in range(d)]
                assert enum.pair_tuples() == expected
                assert len(enum.pairs) == d
                assert enum.reduced == ()


def test_enumerate_pairs_satisfy_conditions():
    for d, n, m, c in ((2, 3, 2, 2), (3, 4, 3, 3)):
        degree = d * n * c
        for p in enumerate_weights(d, n, m, c).pairs:
            assert p.a + p.b == degree
            assert (p.a * m - p.c) % n == 0
            assert gcd(p.a, p.c) == 1 and gcd(p.c, n) == 1


def test_enumerate_n1_runs_over_every_weight_prime_to_c():
    # At n = 1 the inverse u is 0, so the candidates are all of 1..d*c-1.
    for d in range(1, 6):
        for c in range(1, 5):
            enum = enumerate_weights(d, 1, 1, c)
            assert enum.u == 0
            assert enum.raw_count == d * c - 1
            assert [p.a for p in enum.pairs] == [a for a in range(1, d * c) if gcd(a, c) == 1]


def eager_reduced(d, n, m, c):
    """The reductions of the congruence candidates sharing a factor with
    ``c``, made eagerly in one loop: the reference for the lazy ``reduced``."""
    degree = d * n * c
    reduced, seen = [], set()
    for a in range(1, degree):
        if (a * m - c) % n or gcd(a, c) == 1:
            continue
        space = well_formed_reduction(WeightedProjectiveSpace((a, degree - a, c, n)), (0, 1, 2))
        ra, rb, rc = space.weights[:3]
        if (ra, rb, rc) not in seen:
            seen.add((ra, rb, rc))
            reduced.append(WeightPair(a=ra, b=rb, c=rc, reduced_from=(a, degree - a, c)))
    return tuple(reduced)


def test_lazy_reductions_match_the_eager_loop():
    reductions = 0
    for params in cyclic_tuples(6, 6, 6):
        enum, again = enumerate_weights(*params), enumerate_weights(*params)
        assert enum == again and hash(enum) == hash(again)
        reduced = enum.reduced
        assert reduced == eager_reduced(*params), params
        assert enum.reduced is reduced
        # Reading the reductions changes neither equality nor the hash.
        assert enum == again and hash(enum) == hash(again)
        assert again.reduced == reduced
        reductions += len(reduced)
    assert reductions == 1167


def test_enumerate_bad_input():
    with pytest.raises(BadInput):
        enumerate_weights(0, 2, 1, 1)
    with pytest.raises(BadInput):
        enumerate_weights(2, 2, 2, 1)
    with pytest.raises(BadInput):
        enumerate_weights(2, 3, 1, 3)


# --------------------------------------------------------- cyclic build


def test_build_cyclic_d2_n2():
    model = build_cyclic(2, 2, 1, 1, 1, RootConfig.simple([1, 2]))
    assert model.is_cyclic
    assert model.ambient.weights == (1, 3, 1, 2)
    assert model.degree == 4
    assert (model.a, model.b, model.c, model.n, model.descriptor.d) == (1, 3, 1, 2, 2)
    assert model.beta == Fraction(3, 2)
    assert model.curve.self_intersection == Fraction(8, 3)
    assert model.curve.orbifold_points == (3,)
    assert model.curve.genus == 0
    names = dict(model.infinity_singularities)
    assert names["R1"].is_smooth()
    assert (names["R2"].order, names["R2"].weights) == (3, (1, 2))
    assert model.interior_singularities == ()
    assert model.label() == "cyclic(d=2,n=2,m=1,c=1,a=1)"
    assert model.equation_str() == "x*y - (z^2 - w)*(z^2 - 2*w)"


def test_build_cyclic_d1_smooth_boundary():
    model = build_cyclic(1, 2, 1, 1, 1, RootConfig.simple([1]))
    assert model.ambient.weights == (1, 1, 1, 2)
    assert model.degree == 2
    assert model.curve.self_intersection == 4
    assert model.curve.orbifold_points == ()
    assert all(s.is_smooth() for _, s in model.infinity_singularities)


def test_build_cyclic_d2_n3_c2():
    model = build_cyclic(2, 3, 2, 2, 1, RootConfig.simple([1, 2]))
    assert model.ambient.weights == (1, 11, 2, 3)
    assert model.degree == 12
    assert model.beta == Fraction(5, 3)
    assert model.curve.self_intersection == Fraction(18, 11)
    names = dict(model.infinity_singularities)
    assert (names["R2"].order, names["R2"].weights) == (11, (1, 7))


def test_build_cyclic_repeated_roots_interior():
    model = build_cyclic(3, 2, 1, 1, 1, RootConfig.of([(1, 2), (2, 1)]))
    assert model.interior_singularities == (("S_1", 1),)
    assert model.roots.polynomial(1) == 0
    assert model.equation_str() == "x*y - (z^2 - w)^2*(z^2 - 2*w)"


def test_build_cyclic_condition_tags():
    roots = RootConfig.simple([1, 2])
    with pytest.raises(ConditionViolated) as err:
        build_cyclic(2, 3, 2, 2, 2, roots)
    assert err.value.tag == "action"
    with pytest.raises(ConditionViolated) as err:
        build_cyclic(2, 3, 2, 2, 4, roots)
    assert err.value.tag == "div"
    with pytest.raises(ConditionViolated) as err:
        build_cyclic(2, 3, 2, 2, 13, roots)
    assert err.value.tag == "hom"
    with pytest.raises(ConditionViolated) as err:
        build_cyclic(2, 3, 2, 3, 1, roots)
    assert err.value.tag == "div"

    # A seeded box reaching a <= 0 and a >= d*n*c, against the conditions
    # written out here.
    rng = random.Random(17)
    failures = dict.fromkeys(("hom", "action", "div", "man-cond"), 0)
    for _ in range(600):
        d, n, c = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 4)
        m = rng.choice([m for m in range(2 * n + 1) if gcd(m, n) == 1])
        a = rng.randint(-2, d * n * c + 2)
        roots = RootConfig.simple(range(1, rng.choice((d, d, d + 1)) + 1))
        expected = {
            "hom": 0 < a and 0 < d * n * c - a,
            "action": (a * m - c) % n == 0,
            "div": gcd(c, n) == 1 and gcd(a, c) == 1,
            "man-cond": sum(roots.multiplicities) == d,
        }
        conditions = weight_conditions(d, n, m, c, a, roots)
        assert {x.tag: x.passed for x in conditions} == expected
        assert [x.tag for x in conditions] == list(expected)
        failed = [tag for tag, ok in expected.items() if not ok]
        for tag in failed:
            failures[tag] += 1
        if not failed:
            assert build_cyclic(d, n, m, c, a, roots).ambient.weights == (a, d * n * c - a, c, n)
            continue
        with pytest.raises(ConditionViolated) as err:
            build_cyclic(d, n, m, c, a, roots)
        assert err.value.tag in failed
    assert all(count > 20 for count in failures.values()), failures


def test_build_cyclic_root_total_must_match_d():
    with pytest.raises(ConditionViolated) as err:
        build_cyclic(2, 2, 1, 1, 1, RootConfig.simple([1]))
    assert err.value.tag == "man-cond"
    assert str(err.value) == "[man-cond] multiplicities sum to 1, expected d = 2"


def test_build_cyclic_bad_input():
    roots = RootConfig.simple([1, 2])
    with pytest.raises(BadInput):
        build_cyclic(0, 2, 1, 1, 1, roots)
    with pytest.raises(BadInput):
        build_cyclic(2, 2, 2, 1, 1, roots)


def test_cyclic_closed_forms_over_family():
    # beta = (c + n)/n and C^2 = d*n^2/(a*b) across every admissible weight
    for d in range(1, 4):
        for n in range(1, 5):
            for m in range(1, max(n, 2)):
                if gcd(m, n) != 1:
                    continue
                for c in range(1, 4):
                    if gcd(c, n) != 1:
                        continue
                    enum = enumerate_weights(d, n, m, c)
                    for a, b in enum.pair_tuples():
                        model = build_cyclic(d, n, m, c, a, RootConfig.simple(range(1, d + 1)))
                        assert model.beta == Fraction(c + n, n)
                        assert model.curve.self_intersection == Fraction(d * n * n, a * b)
                        assert model.degree == d * n * c
                        names = dict(model.infinity_singularities)
                        assert names["R1"].order == a
                        assert names["R2"].order == b


# ------------------------------------------------------------ D/E build


RDP_TABLE = {
    ("D", 4): ((2, 2, 3), 6, Fraction(1, 2), (2, 2, 2)),
    ("D", 5): ((3, 2, 4), 8, Fraction(1, 3), (2, 2, 3)),
    ("D", 6): ((4, 2, 5), 10, Fraction(1, 4), (2, 2, 4)),
    ("D", 8): ((6, 2, 7), 14, Fraction(1, 6), (2, 2, 6)),
    ("E", 6): ((3, 4, 6), 12, Fraction(1, 6), (2, 3, 3)),
    ("E", 7): ((4, 6, 9), 18, Fraction(1, 12), (2, 3, 4)),
    ("E", 8): ((6, 10, 15), 30, Fraction(1, 30), (2, 3, 5)),
}


def test_build_rdp_table():
    for (ade, index), (abc, degree, csq, orders) in RDP_TABLE.items():
        model = build_rdp(ade, index)
        assert not model.is_cyclic
        assert model.ambient.weights == abc + (1,)
        assert (model.a, model.b, model.c, model.n) == abc + (1,)
        assert model.degree == degree
        assert model.beta == 2
        assert model.curve.self_intersection == csq
        assert model.curve.orbifold_points == orders
        assert tuple(sorted(s.order for _, s in model.infinity_singularities)) == orders
        assert all(s.weights == (1, 1) for _, s in model.infinity_singularities)
        assert model.interior_singularities == ()
        assert model.coefficients == (Fraction(0),) * model.descriptor.milnor_number


def test_build_rdp_degree_formula_d_series():
    for k in range(4, 13):
        model = build_rdp("D", k)
        assert model.degree == 2 * k - 2
        assert model.curve.self_intersection == Fraction(1, k - 2)


def test_build_rdp_homogeneous_terms():
    model = build_rdp("D", 4, [1, 2, 3, 4])
    a, b, c = model.ambient.weights[:3]
    terms = model.homogenized_terms()
    assert len(terms) == 3 + 4
    for (i, j, k, l), coeff in terms:
        assert i * a + j * b + k * c + l * 1 == model.degree
        assert l >= 0
    undeformed = {exps: cf for exps, cf in build_rdp("D", 4).homogenized_terms()}
    assert undeformed == {(2, 1, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 2, 0): 1}


def test_build_rdp_equation_string():
    assert build_rdp("E", 6).equation_str() == "x^4 + y^3 + z^2"
    model = build_rdp("D", 4, [0, 0, 1, 0])
    assert model.equation_str() == "x^2*y + y^3 - y*w^4 + z^2"


def test_build_rdp_errors():
    with pytest.raises(BadInput, match=re.escape("A-type models are cyclic: use the cyclic builder")):
        build_rdp("A", 3)
    with pytest.raises(BadInput, match=re.escape("E-type index must be 6, 7 or 8, got 9")):
        build_rdp("E", 9)
    with pytest.raises(BadInput, match=re.escape("D_4 needs 4 coefficients, got 3")):
        build_rdp("D", 4, [1, 2, 3])


def test_rdp_model_rejects_cyclic_accessors():
    cyclic = build_cyclic(2, 2, 1, 1, 1, RootConfig.simple([1, 2]))
    with pytest.raises(BadInput, match=re.escape("cyclic models use the root-product form")):
        cyclic.homogenized_terms()


# ------------------------------------------------------- fibre interior


def test_smoothness_status_simple_roots():
    assert smoothness_status(RootConfig.simple([1, 2, 3])) == ()


def test_smoothness_status_repeated_roots():
    assert smoothness_status(RootConfig.of([(1, 2), (2, 1)])) == (1,)
    assert smoothness_status(RootConfig.of([(1, 3)])) == (2,)
    assert smoothness_status(RootConfig.of([(1, 2), (2, 2), (3, 1)])) == (1, 1)


def test_smoothness_status_matches_interior_list():
    for pairs in ([(1, 1), (2, 1)], [(1, 2)], [(1, 2), (2, 3)], [(5, 4)]):
        roots = RootConfig.of(pairs)
        model = build_cyclic(roots.total, 2, 1, 1, 1, roots)
        assert tuple(sorted(k for _, k in model.interior_singularities)) == smoothness_status(roots)


# -------------------------------------------------------------- topology


def test_topology_cyclic():
    model = build_cyclic(2, 3, 1, 1, 1, RootConfig.simple([1, 2]))
    inv = topology(model)
    assert (inv.pi1_order_M, inv.b2_M, inv.chi_M) == (3, 1, 2)
    assert (inv.b2_Mbar, inv.chi_Mbar) == (2, 4)


def test_topology_rdp():
    inv = topology(build_rdp("D", 6))
    assert (inv.pi1_order_M, inv.b2_M, inv.chi_M) == (1, 6, 7)
    assert (inv.b2_Mbar, inv.chi_Mbar) == (7, 9)
    inv = topology(build_rdp("E", 8))
    assert (inv.b2_M, inv.chi_Mbar) == (8, 11)


def test_derived_values_follow_their_source():
    inv = replace(topology(build_cyclic(2, 3, 1, 1, 1, RootConfig.simple([1, 2]))), b2_M=5)
    assert (inv.b2_Mbar, inv.chi_M, inv.chi_Mbar) == (6, 6, 8)
    model = build_cyclic(2, 3, 1, 1, 1, RootConfig.simple([1, 2]))
    assert model.descriptor.u == 1 and replace(model.descriptor, m=2).u == 2
    moved = replace(model, ambient=WeightedProjectiveSpace((5, 1, 1, 3)))
    assert (moved.a, moved.b, moved.c, moved.n) == (5, 1, 1, 3)


# ------------------------------------------------------------ resolution


def test_minimal_resolution_chains():
    model = build_cyclic(3, 2, 1, 1, 1, RootConfig.of([(1, 3)]))
    resolved = minimal_resolution(model)
    assert len(resolved) == 1
    lbl, chain = resolved[0]
    assert lbl == "S_1"
    assert chain.entries == (2, 2)
    assert chain.self_intersections() == (-2, -2)


def test_minimal_resolution_no_interior():
    assert minimal_resolution(build_cyclic(2, 2, 1, 1, 1, RootConfig.simple([1, 2]))) == ()


def test_curve_validation():
    for c_squared, orders, message in (
        (Fraction(0), (2,), "the boundary curve must have positive self-intersection"),
        (Fraction(-1, 3), (), "the boundary curve must have positive self-intersection"),
        (Fraction(1, 3), (3, 1), "orbifold point orders must be at least 2"),
        (Fraction(1, 3), (0,), "orbifold point orders must be at least 2"),
    ):
        with pytest.raises(BadInput) as exc:
            CurveAtInfinity(c_squared, orders)
        assert str(exc.value) == message
    # A boundary curve may meet only smooth points, as in P(1, 1, 1, 1).
    assert CurveAtInfinity(Fraction(1, 3), ()).orbifold_points == ()
    assert build_cyclic(2, 1, 1, 1, 1, RootConfig.simple([1, 2])).curve.orbifold_points == ()


def test_model_is_frozen():
    model = build_cyclic(2, 2, 1, 1, 1, RootConfig.simple([1, 2]))
    assert isinstance(model, CompactificationModel)
    with pytest.raises(AttributeError):
        model.degree = 5


def test_frame_memo_gives_the_cold_model():
    # Each box model (box_models' parameters) is built on a frame warmed by
    # the other root configuration, then with an empty memo; the two models
    # agree field by field, the interior points included.
    frame = compactify._cyclic_frame
    built = 0
    for d, n, m, c, a in box_params(5, 6, 4):
        simple = RootConfig.simple(range(1, d + 1))
        # d = 1 has no repeated root; another simple root stands in.
        repeated = RootConfig.of([(1, d)] if d > 1 else [(2, 1)])
        for warmer, roots in ((simple, repeated), (repeated, simple)):
            frame.cache_clear()
            build_cyclic(d, n, m, c, a, warmer)
            warm = build_cyclic(d, n, m, c, a, roots)
            assert frame.cache_info().hits == 1
            frame.cache_clear()
            cold = build_cyclic(d, n, m, c, a, roots)
            assert frame.cache_info().hits == 0
            for field in fields(CompactificationModel):
                assert getattr(warm, field.name) == getattr(cold, field.name), (d, n, m, c, a, field.name)
            interior = (("S_1", d - 1),) if roots is repeated and d > 1 else ()
            assert warm.interior_singularities == interior
            built += 1
    frame.cache_clear()
    assert built == 2 * 730
