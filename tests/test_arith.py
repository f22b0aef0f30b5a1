"""Integer, polynomial, and continued-fraction primitives."""

import random
import re
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from classt import arith
from classt.arith import (
    UniPoly,
    _derivative,
    _difference,
    _divmod,
    _monic_gcd,
    hj_evaluate,
    hj_expand,
    mod_inverse,
    multiplicity_profile,
    squarefree_decomposition,
)
from classt.errors import BadInput, ClassTError

from oracles import _hj_chain, exhaustive_inverse, poly_product


def test_mod_inverse_frozen_values():
    assert mod_inverse(3, 7) == 5
    assert mod_inverse(2, 5) == 3
    assert mod_inverse(5, 1) == 0


def test_mod_inverse_matches_exhaustive_search():
    for n in range(1, 61):
        for m in range(-2 * n, 2 * n + 1):
            expected = exhaustive_inverse(m, n) if gcd(m, n) == 1 else None
            if expected is None:
                with pytest.raises(BadInput, match=re.escape(f"{m} has no inverse modulo {n}")):
                    mod_inverse(m, n)
            else:
                got = mod_inverse(m, n)
                assert got == expected
                if n > 1:
                    assert 1 <= got < n and (m * got) % n == 1


def test_mod_inverse_rejects_bad_modulus():
    with pytest.raises(BadInput, match=re.escape("modulus must be positive, got 0")):
        mod_inverse(3, 0)
    with pytest.raises(BadInput, match=re.escape("4 has no inverse modulo 6")):
        mod_inverse(4, 6)


def test_from_roots_expansion_frozen():
    p = UniPoly.from_roots([(1, 2), (2, 1)])
    assert p.coeffs == (Fraction(-2), Fraction(5), Fraction(-4), Fraction(1))
    assert p(3) == 4
    assert p(Fraction(1, 2)) == Fraction(-3, 8)


def _fraction_product(pairs):
    factors = []
    for root, mult in pairs:
        if mult < 0:
            raise BadInput(f"negative multiplicity {mult}")
        factors += [[-Fraction(root), 1]] * mult
    return tuple(poly_product(factors))


def test_from_roots_matches_fraction_product():
    rng = random.Random(29)
    pool = [Fraction(num, den) for num in range(-7, 8) for den in (1, 2, 3, 5, 12)]
    cases = [
        [],
        [(Fraction(3, 4), 0)],
        [(2, 0), (Fraction(-1, 3), 2)],
        [("1/2", 2), ("-3", 1), (5, 1)],
        [(0, 3), (Fraction(-5, 6), 1)],
    ]
    for _ in range(300):
        pairs = []
        for _ in range(rng.randint(1, 5)):
            root = rng.choice(pool)
            kind = rng.random()
            if kind < 0.2:
                root = int(root.numerator)
            elif kind < 0.4:
                root = str(root)
            pairs.append((root, rng.randint(0, 3)))
        if rng.random() < 0.3:
            pairs.append(pairs[0])  # a repeated root
        cases.append(pairs)
    for pairs in cases:
        got = UniPoly.from_roots(pairs)
        assert got.coeffs == _fraction_product(pairs), pairs
        assert all(type(c) is Fraction for c in got.coeffs)
    for pairs in ([(1, -1)], [(Fraction(1, 2), 2), (3, -2)]):
        with pytest.raises(BadInput):
            UniPoly.from_roots(pairs)


def _fraction_horner(coeffs, x):
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * x + c
    return value


def test_call_matches_fraction_horner():
    rng = random.Random(17)
    pool = [Fraction(num, den) for num in range(-9, 10) for den in (1, 2, 3, 4, 7, 12)]
    polys = [UniPoly(), UniPoly.of([0, 0]), UniPoly.of([Fraction(-5, 6)]), UniPoly.of([3])]
    for _ in range(300):
        polys.append(UniPoly.of([rng.choice(pool) for _ in range(rng.randint(1, 9))]))
    for p in polys:
        points = [Fraction(0), -abs(rng.choice(pool)) - 1, rng.choice(pool), Fraction(-7, 3) ** 5]
        for x in points:
            value = p(x)
            assert type(value) is Fraction
            assert value == _fraction_horner(p.coeffs, x), (p, x)
        k = rng.randint(-20, 20)
        assert p(k) == p(str(k)) == _fraction_horner(p.coeffs, Fraction(k)), (p, k)
        num, den = rng.randint(-40, 40), rng.randint(1, 30)
        assert p(f"{num}/{den}") == _fraction_horner(p.coeffs, Fraction(num, den)), (p, num, den)
    assert UniPoly()(Fraction(5, 2)) == 0
    assert UniPoly.of([Fraction(-5, 6)])(0) == Fraction(-5, 6)
    assert UniPoly.of([Fraction(1, 2), 0, Fraction(1, 3)])(-3) == Fraction(7, 2)


def test_eval_matches_termwise_sum():
    rng = random.Random(5)
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 7))]
        p = UniPoly.of(coeffs)
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        direct = sum((c * x**i for i, c in enumerate(p.coeffs)), Fraction(0))
        assert p(x) == direct


def test_divmod_and_gcd():
    rng = random.Random(11)
    for _ in range(30):
        a = UniPoly.of([rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]).coeffs
        b = UniPoly.of([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]).coeffs
        if not b:
            with pytest.raises(BadInput, match=re.escape("division by the zero polynomial")):
                _divmod(a, b)
            continue
        q, r = _divmod(a, b)
        assert poly_product([q, b]) == _difference(a, r)
        assert len(r) < len(b)
    left = UniPoly.from_roots([(1, 1), (2, 1)])
    right = UniPoly.from_roots([(1, 1), (3, 1)])
    assert tuple(_monic_gcd(left.coeffs, right.coeffs)) == UniPoly.from_roots([(1, 1)]).coeffs


def test_derivative_product_rule():
    p = UniPoly.of([1, 2, 3]).coeffs
    q = UniPoly.of([-1, 0, 0, 2]).coeffs
    pq = poly_product([p, q])
    assert _difference(_derivative(pq), poly_product([_derivative(p), q])) == poly_product(
        [p, _derivative(q)]
    )


def test_squarefree_decomposition_frozen():
    p = UniPoly.from_roots([(1, 2), (2, 1)])
    decomp = squarefree_decomposition(p)
    assert decomp == [
        (UniPoly.from_roots([(2, 1)]), 1),
        (UniPoly.from_roots([(1, 1)]), 2),
    ]
    assert multiplicity_profile(p) == [(1, 1), (1, 2)]


def test_squarefree_decomposition_bounds_its_loop(monkeypatch):
    # Dropping the subtraction of c' from Yun's update of d makes the
    # loop run forever; the degree bound turns that into an internal fault.
    monkeypatch.setattr(arith, "_difference", lambda a, b: list(a))
    with pytest.raises(ClassTError) as err:
        squarefree_decomposition(UniPoly.from_roots([(1, 2), (2, 1)]))
    assert type(err.value) is ClassTError
    assert str(err.value) == "Yun's loop did not end within degree 3"


def test_multiplicity_profile_reconstructs_input():
    rng = random.Random(23)
    for _ in range(25):
        root_count = rng.randint(1, 4)
        roots = rng.sample(range(-6, 7), root_count)
        pairs = [(Fraction(r), rng.randint(1, 3)) for r in roots]
        p = UniPoly.from_roots(pairs)
        decomp = squarefree_decomposition(p)
        rebuilt = poly_product(factor.coeffs for factor, mult in decomp for _ in range(mult))
        assert rebuilt == [c / p.coeffs[-1] for c in p.coeffs]
        assert sum(deg * mult for deg, mult in multiplicity_profile(p)) == p.degree
        by_mult = {}
        for _, k in pairs:
            by_mult[k] = by_mult.get(k, 0) + 1
        assert multiplicity_profile(p) == sorted(
            ((deg, mult) for mult, deg in by_mult.items()), key=lambda t: (t[1], t[0])
        )


def test_multiplicity_profile_edge_cases():
    with pytest.raises(
        BadInput, match=re.escape("squarefree decomposition of the zero polynomial")
    ):
        multiplicity_profile(UniPoly())
    assert multiplicity_profile(UniPoly.of([5])) == []


def test_hj_expand_frozen():
    assert hj_expand(3, 2) == [2, 2]
    assert hj_expand(4, 1) == [4]
    assert hj_expand(7, 5) == [2, 2, 3]


def test_hj_expand_rejects_bad_input():
    with pytest.raises(BadInput):
        hj_expand(4, 2)
    with pytest.raises(BadInput):
        hj_expand(3, 3)
    with pytest.raises(BadInput):
        hj_expand(3, 0)


def test_hj_roundtrip_sweep():
    for r in range(2, 61):
        for q in range(1, r):
            if gcd(q, r) != 1:
                continue
            entries = hj_expand(r, q)
            assert all(b >= 2 for b in entries)
            assert len(entries) <= r - 1
            assert hj_evaluate(entries) == Fraction(r, q)


def test_hj_expand_matches_the_step_oracle():
    # Runs of 2s are taken in one step; the oracle takes one entry a step.
    for r in range(2, 1001):
        for q in range(1, r):
            if gcd(q, r) == 1:
                assert hj_expand(r, q) == _hj_chain(r, q), (r, q)
    assert hj_expand(100000, 99999) == _hj_chain(100000, 99999) == [2] * 99999


@st.composite
def _coprime_pairs(draw):
    digits = draw(st.integers(min_value=1, max_value=30))
    r = draw(st.integers(min_value=max(2, 10 ** (digits - 1)), max_value=10**digits))
    q = draw(st.integers(min_value=1, max_value=r - 1))
    assume(gcd(r, q) == 1)
    return r, q


def _hj_length_bound(r, q):
    """Bound on the length of the negative-regular expansion of r/q.

    With r/q = [a_1; a_2, ..., a_k] as an ordinary continued fraction,
    each a_i at an even position i gives a_i - 1 entries equal to 2, and
    the other entries number at most k.
    """
    total, even = 0, False
    while q:
        total += r // q if even else 1
        r, q, even = q, r % q, not even
    return total


@settings(derandomize=True, database=None, max_examples=200)
@given(_coprime_pairs())
def test_hj_roundtrip_property(pair):
    r, q = pair
    # r/(r-1) expands to r-1 entries; keep the chains short enough to build.
    assume(_hj_length_bound(r, q) <= 10**4)
    entries = hj_expand(r, q)
    assert all(b >= 2 for b in entries)
    assert hj_evaluate(entries) == Fraction(r, q)


_NONZERO = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 6))
_RATIONALS = st.just(Fraction(0)) | _NONZERO


@st.composite
def _factored_polys(draw):
    """A nonzero constant times rational linear and quadratic factors,
    each raised to a multiplicity from 1 to 4."""
    factors = [[draw(_NONZERO)]]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        lower = [draw(_RATIONALS) for _ in range(draw(st.sampled_from((1, 2))))]
        factor = lower + [draw(_NONZERO)]
        factors += [factor] * draw(st.integers(min_value=1, max_value=4))
    return UniPoly.of(poly_product(factors))


def _sympy_fraction(value) -> Fraction:
    return Fraction(int(value.p), int(value.q))


@settings(derandomize=True, database=None, max_examples=200)
@given(_factored_polys())
def test_squarefree_decomposition_matches_sympy(p):
    z = sympy.Symbol("z")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    lead, factors = sympy.Poly(coeffs, z, domain=sympy.QQ).sqf_list()
    expected = {
        k: tuple(_sympy_fraction(c) for c in reversed(f.monic().all_coeffs())) for f, k in factors
    }
    got = squarefree_decomposition(p)
    assert {k: f.coeffs for f, k in got} == expected
    assert len(got) == len(expected)
    assert _sympy_fraction(lead) == p.coeffs[-1]


def _nested_fraction_evaluate(entries):
    value = None
    for b in reversed(list(entries)):
        if value is None:
            value = Fraction(b)
        else:
            value = Fraction(b) - Fraction(1) / value
    if value is None:
        raise BadInput("empty continued fraction")
    return value


def _outcome(evaluate, entries):
    try:
        return evaluate(entries)
    except (BadInput, ZeroDivisionError) as exc:
        return type(exc)


def test_hj_evaluate_matches_nested_fractions():
    rng = random.Random(31)
    chains = [[3, 2, 1, 1], [0], [1, 0], [0, 5], [2, 1, 1], [-3], [6, 6, 6]]
    for _ in range(20000):
        chains.append([rng.randint(-3, 6) for _ in range(rng.randint(1, 8))])
    zero_tails = 0
    for entries in chains:
        expected = _outcome(_nested_fraction_evaluate, entries)
        zero_tails += expected is ZeroDivisionError
        got = _outcome(hj_evaluate, entries)
        assert got == expected, entries
        assert _outcome(hj_evaluate, (b for b in entries)) == expected, entries
        if isinstance(got, Fraction):
            assert type(got) is Fraction
    assert zero_tails > 100


def test_hj_evaluate_empty():
    with pytest.raises(BadInput):
        hj_evaluate([])
    with pytest.raises(BadInput):
        hj_evaluate(b for b in ())
