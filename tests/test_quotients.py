"""Quotient germ calculus: normalization, resolutions, class T, RDP data."""

import re
from fractions import Fraction
from math import gcd, isqrt

import pytest

from classt.arith import hj_evaluate
from classt.quotients import (
    HJChain,
    QuotientSingularity,
    class_t_solutions,
    detect_class_T,
    hj_resolution,
    normalize,
    rdp_data,
)
from classt.errors import BadInput
from classt.sweep import brute_force_class_t

from oracles import (
    is_equivalent,
    milnor_quotient_dim,
    monomials_independent,
    partial_derivative,
    term_table,
)


def test_constructor_validation():
    with pytest.raises(BadInput, match=re.escape("weight 2 shares a factor with the order 4")):
        QuotientSingularity(4, (2, 1))
    with pytest.raises(BadInput, match=re.escape("weight 3 shares a factor with the order 6")):
        QuotientSingularity(6, (1, 3))
    with pytest.raises(BadInput):
        QuotientSingularity(0, (1, 1))
    s = QuotientSingularity(1, (1, 1))
    assert s.is_smooth()


def test_value_types_keep_the_dataclass_behaviour():
    # repr, equality, hashing and messages as the frozen dataclasses gave them
    s = QuotientSingularity(5, (1, 2))
    assert repr(s) == "QuotientSingularity(order=5, weights=(1, 2))"
    assert normalize(QuotientSingularity(5, (2, 3))) == normalize(QuotientSingularity(5, (3, 2)))
    assert normalize(QuotientSingularity(5, (2, 3))) == QuotientSingularity(5, (1, 4))
    assert s == QuotientSingularity(5, (1, 2)) and not s != QuotientSingularity(5, (1, 2))
    assert s != QuotientSingularity(5, (1, 3))
    assert s != QuotientSingularity(7, (1, 2))
    assert s != (5, (1, 2)) and (5, (1, 2)) != s
    assert s.__eq__((5, (1, 2))) is NotImplemented
    assert hash(s) == hash((5, (1, 2)))
    germs = {s, QuotientSingularity(5, (1, 2)), normalize(QuotientSingularity(5, (3, 1)))}
    assert germs == {s} and QuotientSingularity(5, (1, 3)) not in germs
    by_germ = {normalize(QuotientSingularity(5, (2, 3))): "1/5(1,4)"}
    assert by_germ[QuotientSingularity(5, (1, 4))] == "1/5(1,4)"

    chain = hj_resolution(QuotientSingularity(7, (1, 5)))
    assert repr(chain) == "HJChain(entries=(2, 2, 3))"
    assert chain == HJChain((2, 2, 3)) and chain != HJChain((2, 3, 2))
    assert chain != (2, 2, 3) and chain.__eq__((2, 2, 3)) is NotImplemented
    assert hash(chain) == hash(((2, 2, 3),))
    assert {chain: 7}[HJChain((2, 2, 3))] == 7 and HJChain((3, 2, 2)) not in {chain}
    assert len(chain) == 3 and chain.self_intersections() == (-2, -2, -3)

    # The checks run in order: order, weight count, freeness.
    for order, weights, message in (
        (0, (1, 2, 3), "group order must be positive, got 0"),
        (4, (2, 1, 1), "a surface germ takes exactly two weights"),
        (6, (1, 3), "weight 3 shares a factor with the order 6; "
                    "the action is not free on the punctured plane"),
    ):
        with pytest.raises(BadInput) as caught:
            QuotientSingularity(order, weights)
        assert str(caught.value) == message


def test_normalize_frozen():
    assert normalize(QuotientSingularity(5, (2, 3))) == QuotientSingularity(5, (1, 4))
    assert normalize(QuotientSingularity(7, (1, 5))) == QuotientSingularity(7, (1, 5))
    assert normalize(QuotientSingularity(1, (1, 1))) == QuotientSingularity(1, (1, 1))
    assert normalize(QuotientSingularity(5, (1, 7))) == QuotientSingularity(5, (1, 2))
    assert normalize(QuotientSingularity(5, (1, -1))) == QuotientSingularity(5, (1, 4))
    assert normalize(QuotientSingularity(7, (1, 6))) == QuotientSingularity(7, (1, 6))


def test_normalize_is_idempotent_and_equivalent():
    for r in range(2, 30):
        for q1 in range(1, r):
            if gcd(q1, r) != 1:
                continue
            for q2 in range(1, r):
                if gcd(q2, r) != 1:
                    continue
                s = QuotientSingularity(r, (q1, q2))
                n = normalize(s)
                assert n.weights[0] == 1
                assert normalize(n) == n
                assert is_equivalent(s, n)


def test_normalize_matches_the_checked_constructor():
    # normalize builds its result without __init__'s checks; it must still
    # be the germ __init__ would build, and a fixed point of normalize.
    # Negative representatives occur as blowup_at_R2 passes (b, -n).
    for r in range(1, 61):
        units = [u for u in range(r) if gcd(u, r) == 1]
        reps = units + [u - r for u in units]
        for q1 in reps:
            for q2 in reps:
                s = QuotientSingularity(r, (q1, q2))
                n = normalize(s)
                q = 1 if r == 1 else next(x for x in range(1, r) if (x * q1 - q2) % r == 0)
                expected = QuotientSingularity(r, (1, q))
                assert type(n) is QuotientSingularity
                assert n == expected and hash(n) == hash(expected)
                assert repr(n) == repr(expected), (r, q1, q2)
                assert normalize(n) is n


def test_is_equivalent_inverse_pairs():
    assert is_equivalent(QuotientSingularity(5, (1, 2)), QuotientSingularity(5, (1, 3)))
    assert not is_equivalent(QuotientSingularity(5, (1, 2)), QuotientSingularity(5, (1, 4)))
    assert not is_equivalent(QuotientSingularity(5, (1, 2)), QuotientSingularity(7, (1, 2)))
    for r in range(2, 25):
        for q in range(1, r):
            if gcd(q, r) != 1:
                continue
            assert is_equivalent(
                QuotientSingularity(r, (q, 1)), QuotientSingularity(r, (1, q))
            )


def test_hj_resolution_frozen():
    chain = hj_resolution(QuotientSingularity(7, (1, 5)))
    assert chain.entries == (2, 2, 3)
    assert chain.self_intersections() == (-2, -2, -3)
    assert hj_evaluate(chain.entries) == Fraction(7, 5)
    with pytest.raises(BadInput, match=re.escape("1/1(1,1) is a smooth point; nothing to resolve")):
        hj_resolution(QuotientSingularity(1, (1, 1)))


def test_hj_resolution_a_type_chains():
    for k in range(1, 20):
        chain = hj_resolution(QuotientSingularity(k + 1, (1, k)))
        assert chain.entries == (2,) * k


def test_hj_resolution_normalizes_first():
    left = hj_resolution(QuotientSingularity(5, (2, 3)))
    right = hj_resolution(QuotientSingularity(5, (1, 4)))
    assert left.entries == right.entries


def test_detect_class_t_frozen():
    found = detect_class_T(QuotientSingularity(4, (1, 1)))
    assert (found.d, found.n, found.m, found.u) == (1, 2, 1, 1)
    found = detect_class_T(QuotientSingularity(18, (1, 5)))
    assert (found.d, found.n, found.m) == (2, 3, 1)
    assert found.order == 18
    found = detect_class_T(QuotientSingularity(9, (1, 5)))
    assert (found.d, found.n, found.m, found.u) == (1, 3, 2, 2)
    assert detect_class_T(QuotientSingularity(5, (1, 1))) is None
    assert detect_class_T(QuotientSingularity(12, (1, 7))) is None


def test_detect_class_t_a_type():
    for k in range(1, 12):
        found = detect_class_T(QuotientSingularity(k + 1, (1, k)))
        assert found is not None and found.is_a_type
        assert found.d == k + 1 and found.n == 1
        assert found.label() == f"A_{k}"


def test_detect_class_t_normalizes_and_inverts_m():
    # Swapping the coordinates replaces m by its inverse mod n up to
    # the standard-family symmetry; class membership is intrinsic.
    for r, q in ((18, 5), (9, 5), (25, 9), (16, 7)):
        direct = detect_class_T(QuotientSingularity(r, (1, q)))
        swapped = detect_class_T(QuotientSingularity(r, (q, 1)))
        assert direct is not None
        assert swapped is not None
        assert direct.order == swapped.order
        assert direct.n == swapped.n and direct.d == swapped.d


def test_descriptor_u_is_inverse_of_m():
    seen = 0
    for r in range(2, 150):
        for q in range(1, r):
            if gcd(q, r) != 1:
                continue
            found = detect_class_T(QuotientSingularity(r, (1, q)))
            if found is None or found.n == 1:
                continue
            assert (found.m * found.u) % found.n == 1
            seen += 1
    assert seen > 30


def test_class_t_congruence_holds_for_all_solutions():
    for r in range(1, 120):
        for q in range(1, max(r, 2)):
            if r > 1 and (q >= r or gcd(q, r) != 1):
                continue
            found = detect_class_T(QuotientSingularity(r, (1, q)))
            if found is None:
                continue
            for d, n, m in found.solutions:
                assert d * n * n == r
                assert (d * n * m - 1 - q) % r == 0
                assert gcd(m, n) == 1
            ns = [n for _, n, _ in found.solutions]
            assert ns == sorted(ns, reverse=True)
            assert found.n == ns[0]


def test_class_t_solutions_matches_the_brute_force_oracle():
    # The gcd(r, q + 1) gate must not drop a reading: every q, units or
    # not, negative or past r, for small orders ...
    for r in range(1, 301):
        for q in range(-r, 2 * r):
            assert class_t_solutions(r, q) == brute_force_class_t(r, q), (r, q)
    # ... and every reading of a few large orders with its neighbours.
    for r in (3600, 44100, 99225, 100000):
        qs = set()
        for n in range(1, isqrt(r) + 1):
            if r % (n * n):
                continue
            d = r // (n * n)
            for m in range(1, n + 1):
                if gcd(m, n) == 1:
                    qs.update(d * n * m - 1 + delta for delta in (-1, 0, 1))
        for q in sorted(qs):
            expected = brute_force_class_t(r, q)
            assert class_t_solutions(r, q) == expected, (r, q)


def test_class_t_solutions_rejects_an_order_below_one():
    for r in (0, -4):
        with pytest.raises(BadInput, match=f"group order must be positive, got {r}"):
            class_t_solutions(r, 3)


def test_brute_force_class_t_rejects_an_order_below_one():
    for r in (0, -4):
        with pytest.raises(BadInput, match=f"group order must be positive, got {r}"):
            brute_force_class_t(r, 3)


def test_rdp_data_frozen_table():
    a3 = rdp_data("A", 3)
    assert dict(a3.defining_poly) == {(1, 1, 0): 1, (0, 0, 4): 1}
    assert a3.milnor_basis == ((0, 0, 0), (0, 0, 1), (0, 0, 2))
    d5 = rdp_data("D", 5)
    assert dict(d5.defining_poly) == {(2, 1, 0): 1, (0, 4, 0): 1, (0, 0, 2): 1}
    assert d5.milnor_basis == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0))
    e6 = rdp_data("E", 6)
    assert dict(e6.defining_poly) == {(4, 0, 0): 1, (0, 3, 0): 1, (0, 0, 2): 1}
    e7 = rdp_data("E", 7)
    assert dict(e7.defining_poly) == {(3, 1, 0): 1, (0, 3, 0): 1, (0, 0, 2): 1}
    assert e7.milnor_basis == (
        (0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (0, 2, 0), (1, 2, 0),
    )
    e8 = rdp_data("E", 8)
    assert dict(e8.defining_poly) == {(5, 0, 0): 1, (0, 3, 0): 1, (0, 0, 2): 1}
    for data in (a3, d5, e6, e7, e8):
        assert data.milnor_number == data.index == len(data.milnor_basis)
        assert hash(data) == hash(rdp_data(data.ade, data.index))


def test_rdp_data_invalid_labels():
    with pytest.raises(BadInput, match=re.escape("A-type index must be >= 1, got 0")):
        rdp_data("A", 0)
    with pytest.raises(BadInput, match=re.escape("D-type index must be >= 4, got 3")):
        rdp_data("D", 3)
    with pytest.raises(BadInput, match=re.escape("E-type index must be 6, 7 or 8, got 5")):
        rdp_data("E", 5)
    with pytest.raises(BadInput, match=re.escape("unknown type 'F'; expected A, D or E")):
        rdp_data("F", 4)


def test_rdp_bases_validated_by_quotient_oracle():
    for ade, indices in (("A", range(1, 7)), ("D", (4, 5, 6)), ("E", (6, 7, 8))):
        for k in indices:
            data = rdp_data(ade, k)
            assert milnor_quotient_dim(data.defining_poly) == k
            assert monomials_independent(list(data.milnor_basis), data.defining_poly)


def test_milnor_oracle_derivative():
    # (x + y)(x - y), written with a zero term and a text coefficient
    p = term_table((((2, 0, 0), 1), ((1, 1, 0), 0), ((0, 2, 0), "-1")))
    assert p == {(2, 0, 0): 1, (0, 2, 0): -1}
    assert all(type(c) is Fraction for c in p.values())
    assert partial_derivative(p, 0) == {(1, 0, 0): 2}
