"""Weighted projective spaces and hypersurface classes."""

import random
import re
from fractions import Fraction
from math import gcd

import pytest

from classt.errors import BadInput
from classt.wps import (
    HypersurfaceClass,
    WeightedProjectiveSpace,
    adjunction_class,
    hypersurface_intersection,
    well_formed_reduction,
)

from oracles import is_well_formed


def test_space_validation():
    for weights, message in (
        ((1,), "a projective space needs at least two weights"),
        ((), "a projective space needs at least two weights"),
        ((1, 0, 2), "weights must be positive, got (1, 0, 2)"),
        ((3, 2, -1), "weights must be positive, got (3, 2, -1)"),
        ((0, 0), "weights must be positive, got (0, 0)"),
    ):
        with pytest.raises(BadInput) as exc:
            WeightedProjectiveSpace(weights)
        assert str(exc.value) == message
    assert WeightedProjectiveSpace((1, 3, 1, 2)).dim == 3
    assert WeightedProjectiveSpace((1, 3, 1, 2)).label() == "P(1,3,1,2)"


def test_well_formedness():
    assert is_well_formed(WeightedProjectiveSpace((1, 2, 3)))
    assert is_well_formed(WeightedProjectiveSpace((1, 1, 1, 1)))
    # two of the three weights share the factor 2
    assert not is_well_formed(WeightedProjectiveSpace((2, 2, 1)))
    assert not is_well_formed(WeightedProjectiveSpace((4, 8, 2, 3)))
    # a shared factor between just two of four weights is harmless
    assert is_well_formed(WeightedProjectiveSpace((2, 4, 1, 3)))
    assert is_well_formed(WeightedProjectiveSpace((2, 3, 1, 5)))


def test_hypersurface_intersection_frozen():
    X = HypersurfaceClass(WeightedProjectiveSpace((1, 3, 1, 2)), 4)
    assert hypersurface_intersection(X, 2, 2) == Fraction(8, 3)
    assert hypersurface_intersection(X, 1, 1) == Fraction(2, 3)
    assert adjunction_class(X) == -3
    with pytest.raises(BadInput, match=re.escape("for surfaces in P(w0,w1,w2,w3); got dim 2")):
        hypersurface_intersection(HypersurfaceClass(WeightedProjectiveSpace((1, 1, 1)), 3), 1, 1)
    with pytest.raises(BadInput):
        HypersurfaceClass(WeightedProjectiveSpace((1, 1, 1, 1)), 0)


def test_intersection_bilinearity():
    X = HypersurfaceClass(WeightedProjectiveSpace((2, 3, 5, 1)), 7)
    for j in range(1, 5):
        for k in range(1, 5):
            assert hypersurface_intersection(X, j, k) == j * k * hypersurface_intersection(X, 1, 1)


def test_well_formed_reduction_frozen():
    reduced = well_formed_reduction(WeightedProjectiveSpace((4, 8, 2, 3)), (0, 1, 2))
    assert reduced.weights == (2, 4, 1, 3)
    assert is_well_formed(reduced)
    untouched = well_formed_reduction(WeightedProjectiveSpace((2, 3, 5, 7)), (0, 1, 2))
    assert untouched.weights == (2, 3, 5, 7)


def test_well_formed_reduction_iterates():
    # 12 and 18 share 6; only the part prime to the remaining weight 2
    # may be divided out, here 3.
    reduced = well_formed_reduction(WeightedProjectiveSpace((12, 18, 2)), (0, 1))
    assert reduced.weights == (4, 6, 2)


def test_well_formed_reduction_matches_the_largest_coprime_divisor():
    # The divisor is found by trying every divisor of the gcd, not by
    # stripping shared primes as the library does.
    rng = random.Random(26)
    for _ in range(2000):
        weights = tuple(rng.choice((rng.randint(1, 40), 6 * rng.randint(1, 6), 30)) for _ in range(rng.randint(2, 5)))
        indices = set(rng.sample(range(len(weights)), rng.randint(1, len(weights) - 1)))
        g = 0
        for i in indices:
            g = gcd(g, weights[i])
        rest = [w for i, w in enumerate(weights) if i not in indices]
        p = max(e for e in range(1, g + 1) if g % e == 0 and all(gcd(e, w) == 1 for w in rest))
        space = WeightedProjectiveSpace(weights)
        if p == 1 < g:
            with pytest.raises(BadInput, match=re.escape(f"share the factor {g}, but every prime")):
                well_formed_reduction(space, indices)
        else:
            expected = tuple(w // p if i in indices else w for i, w in enumerate(weights))
            assert well_formed_reduction(space, indices).weights == expected, (weights, indices)


def test_well_formed_reduction_errors():
    with pytest.raises(BadInput, match=re.escape("weights at (0, 1) share the factor 2, but every")):
        well_formed_reduction(WeightedProjectiveSpace((2, 4, 2)), (0, 1))
    with pytest.raises(BadInput, match=re.escape("index 5 outside 0..2")):
        well_formed_reduction(WeightedProjectiveSpace((1, 2, 3)), (0, 5))
    with pytest.raises(BadInput):
        well_formed_reduction(WeightedProjectiveSpace((1, 2, 3)), ())
    with pytest.raises(BadInput):
        well_formed_reduction(WeightedProjectiveSpace((1, 2, 3)), (0, 1, 2))
