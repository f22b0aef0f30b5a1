"""Weighted projective spaces and quasi-smooth hypersurface classes.

A weighted projective space ``P(w_0, ..., w_r)`` carries the scaling
action ``t . x_i = t^(w_i) x_i``; the affine cone over the ``i``-th
coordinate chart is the quotient of affine ``r``-space by the cyclic
group of order ``w_i`` acting with the remaining weights.  For a
quasi-smooth hypersurface of degree ``e`` in a three-dimensional space
the self-intersection of the class ``O(1)`` restricted to the surface
is ``e / (w_0 w_1 w_2 w_3)``, and the adjunction formula gives the
canonical class degree ``e - sum(w_i)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable

from .errors import BadInput


@dataclass(frozen=True)
class WeightedProjectiveSpace:
    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) < 2:
            raise BadInput("a projective space needs at least two weights")
        if any(w < 1 for w in self.weights):
            raise BadInput(f"weights must be positive, got {self.weights}")

    @property
    def dim(self) -> int:
        return len(self.weights) - 1

    def label(self) -> str:
        return "P(" + ",".join(str(w) for w in self.weights) + ")"


@dataclass(frozen=True)
class HypersurfaceClass:
    """Degree-``e`` hypersurface class in a weighted projective space."""

    ambient: WeightedProjectiveSpace
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise BadInput(f"hypersurface degree must be positive, got {self.degree}")


def hypersurface_intersection(X: HypersurfaceClass, j: int, k: int) -> Fraction:
    """Intersection number ``O_X(j) . O_X(k)`` on a hypersurface in a
    three-dimensional weighted projective space: ``j*k*e / (w0 w1 w2 w3)``."""
    ws = X.ambient.weights
    if len(ws) != 4:
        raise BadInput(
            f"intersection theory here is for surfaces in P(w0,w1,w2,w3); got dim {X.ambient.dim}"
        )
    denom = 1
    for w in ws:
        denom *= w
    return Fraction(j * k * X.degree, denom)


def adjunction_class(X: HypersurfaceClass) -> int:
    """Integer ``t`` with ``K_X = O_X(t)``: degree minus the weight sum."""
    return X.degree - sum(X.ambient.weights)


def well_formed_reduction(
    space: WeightedProjectiveSpace, indices: Iterable[int]
) -> WeightedProjectiveSpace:
    """Divide the indicated weights by their shared factor prime to the rest.

    Repeats until the indicated weights have no common factor that is
    coprime to every remaining weight; a gcd of one returns the space
    unchanged.  Raises BadInput when the indicated weights
    do share a factor > 1 but none of it could ever be divided out
    because every prime of it also divides a remaining weight.
    """
    idx = sorted(set(indices))
    if not idx:
        raise BadInput("no indices given")
    for i in idx:
        if not 0 <= i < len(space.weights):
            raise BadInput(f"index {i} outside 0..{space.dim}")
    if len(idx) == len(space.weights):
        raise BadInput("reduction needs at least one remaining weight")
    ws = list(space.weights)
    rest = [i for i in range(len(ws)) if i not in idx]
    divided = False
    while True:
        g = 0
        for i in idx:
            g = gcd(g, ws[i])
        if g == 1:
            break
        p = g
        for i in rest:
            while (shared := gcd(p, ws[i])) > 1:
                p //= shared
        if p == 1:
            if divided:
                break
            raise BadInput(
                f"weights at {tuple(idx)} share the factor {g}, but every prime of it "
                "divides a remaining weight"
            )
        for i in idx:
            ws[i] //= p
        divided = True
    return WeightedProjectiveSpace(tuple(ws))
