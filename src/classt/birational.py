"""Birational geometry of the cyclic-variant models.

Forgetting the ``y`` coordinate projects the hypersurface

    x*y = prod_j (z^n - a_j * w^c)^(k_j)  in  P(a, b, c, n)

to the plane ``P(a, c, n)``; on the surface ``y`` is recovered as
``prod_j (z^n - a_j w^c)^(k_j) / x``, so the projection is birational
and is undefined only at the quotient point ``R2 = [0:1:0:0]``.
Blowing up ``R2`` with weights ``(c, n)`` replaces it by a rational
curve carrying the two quotient points ``1/c(b, -n)`` and
``1/n(b, -c)``, which match the plane's coordinate points ``1/c(a, n)``
and ``1/n(a, c)``.  Composing, the model is the plane blown up once at
each simple root and iteratedly at each repeated root of the
deformation polynomial, minus the proper transforms of the two lines
``(x = 0)`` and ``(w = 0)``.

Two affine charts make the projection computable:

    T:  (w', r)  ->  [w' * P(r^n) : r : 1]      (w = 1 slice)
    S:  (u', v)  ->  [u' * Q(v)   : 1 : v]      (z = 1 slice)

where ``P`` is the deformation polynomial and
``Q(v) = v^(d*c) * P(1/v^c) = prod_j (1 - a_j v^c)^(k_j)``; on the
overlap ``v = t^n``, ``w' = u' * t^b``, ``r = t^(-c)`` for a scaling
parameter ``t``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import RationalLike, as_fraction
from .compactify import CompactificationModel
from .errors import (
    BadInput,
    IndeterminateAtR2,
    NotCyclicVariant,
    NotOnSurface,
)
from .quotients import QuotientSingularity, normalize
from .wps import WeightedProjectiveSpace

# Shared unit coordinate, so chart images need no coercion in WPoint.
_ONE = Fraction(1)


class WPoint:
    """Point of a weighted projective space with exact coordinates.

    Equality is equality of orbits: coordinatewise agreement up to a
    rational scaling ``x_i -> t^(w_i) x_i``.  Two points with the same
    support agree iff all the weight-balanced cross products
    ``p_j^(w_i) q_i^(w_j) = q_j^(w_i) p_i^(w_j)`` hold against a fixed
    nonzero pivot ``i``; scaling by rationals can never change the
    support, so differing supports mean distinct points.
    """

    __slots__ = ("ambient", "coords")

    def __init__(self, ambient: WeightedProjectiveSpace, coords: tuple[RationalLike, ...]):
        cs = tuple(coords)
        for c in cs:
            if not isinstance(c, Fraction):
                cs = tuple(map(as_fraction, cs))
                break
        if len(cs) != len(ambient.weights):
            raise BadInput(
                f"{ambient.label()} needs {len(ambient.weights)} coordinates, got {len(cs)}"
            )
        if not any(cs):
            raise BadInput("the zero tuple is not a projective point")
        self.ambient = ambient
        self.coords = cs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WPoint):
            return NotImplemented
        if self.ambient != other.ambient:
            return False
        p, q = self.coords, other.coords
        if p == q:
            return True
        support = tuple(c != 0 for c in p)
        if support != tuple(c != 0 for c in q):
            return False
        ws = self.ambient.weights
        pivot = support.index(True)
        wi = ws[pivot]
        for j in range(len(p)):
            if j == pivot or not support[j]:
                continue
            if p[j] ** wi * q[pivot] ** ws[j] != q[j] ** wi * p[pivot] ** ws[j]:
                return False
        return True

    __hash__ = None

    def __repr__(self) -> str:
        return "[" + " : ".join(str(c) for c in self.coords) + f"] in {self.ambient.label()}"


def _require_cyclic(model: CompactificationModel) -> None:
    if not model.is_cyclic:
        raise NotCyclicVariant("this construction needs a cyclic-variant model")


@lru_cache(maxsize=1024)
def _plane(weights: tuple[int, int, int]) -> WeightedProjectiveSpace:
    return WeightedProjectiveSpace(weights)


def target_plane(model: CompactificationModel) -> WeightedProjectiveSpace:
    """The plane ``P(a, c, n)`` the model projects to."""
    _require_cyclic(model)
    return _plane((model.a, model.c, model.n))


def surface_residue(model: CompactificationModel, coords: tuple[Fraction, ...]) -> Fraction:
    """``x*y`` minus the root product, evaluated at affine coordinates.

    The product runs on integers: with ``z^n = zp/zq``, ``w^c = wp/wq``
    and ``a_j = ap/aq`` each factor is ``(zp*aq*wq - ap*wp*zq) / (zq*aq*wq)``,
    so only the returned Fraction is built.
    """
    _require_cyclic(model)
    x, y, z, w = coords
    zp, zq = z.numerator ** model.n, z.denominator ** model.n
    wp, wq = w.numerator ** model.c, w.denominator ** model.c
    num = den = 1
    for root, k in model.roots.pairs:
        aq = root.denominator
        num *= (zp * aq * wq - root.numerator * wp * zq) ** k
        den *= (zq * aq * wq) ** k
    xy_den = x.denominator * y.denominator
    return Fraction(x.numerator * y.numerator * den - num * xy_den, xy_den * den)


def project_pi(model: CompactificationModel, point: WPoint) -> WPoint:
    """Image ``[x : z : w]`` of a surface point under the projection.

    Raises NotOnSurface off the hypersurface and IndeterminateAtR2 at
    the single indeterminacy point ``[0:1:0:0]``.
    """
    _require_cyclic(model)
    if point.ambient != model.ambient:
        raise BadInput(f"point lives in {point.ambient.label()}, not {model.ambient.label()}")
    if surface_residue(model, point.coords) != 0:
        raise NotOnSurface(f"{point!r} does not satisfy the defining equation")
    x, _, z, w = point.coords
    if x == 0 and z == 0 and w == 0:
        raise IndeterminateAtR2("the projection has no value at [0:1:0:0]")
    return WPoint(target_plane(model), (x, z, w))


@dataclass(frozen=True)
class BlowupModel:
    """Weighted blow-up of the model at ``R2``.

    The two new quotient points sit on the exceptional rational curve;
    their chart actions ``1/c(b, -n)`` and ``1/n(b, -c)`` are recorded as
    given and in normalized form (``b == -a`` modulo both ``c`` and
    ``n``, so they normalize to ``1/c(a, n)`` and ``1/n(a, c)``, the
    coordinate points of the target plane).  ``exceptional_orders`` are
    the orbifold point orders on that curve, ``c`` and ``n`` where they
    exceed one.
    """

    base: CompactificationModel
    chart_actions: tuple[tuple[int, tuple[int, int]], ...]
    new_singularities: tuple[QuotientSingularity, QuotientSingularity]
    exceptional_orders: tuple[int, ...]


def blowup_at_R2(model: CompactificationModel) -> BlowupModel:
    """Blow up ``R2 = 1/b(c, n)`` with weights ``(c, n)``."""
    _require_cyclic(model)
    b, c, n = model.b, model.c, model.n
    actions = ((c, (b, -n)), (n, (b, -c)))
    new = tuple(
        normalize(QuotientSingularity(order, weights)) for order, weights in actions
    )
    return BlowupModel(
        base=model,
        chart_actions=actions,
        new_singularities=new,
        exceptional_orders=tuple(o for o in (c, n) if o > 1),
    )


def plane_points(model: CompactificationModel) -> tuple[QuotientSingularity, QuotientSingularity]:
    """The plane's coordinate points ``1/c(a, n)`` and ``1/n(a, c)``,
    normalized, which the blow-up's new points must match."""
    a, c, n = model.a, model.c, model.n
    return (
        normalize(QuotientSingularity(c, (a, n))),
        normalize(QuotientSingularity(n, (a, c))),
    )


def evaluate_pi_chart(
    model: CompactificationModel, chart: str, coords: tuple[RationalLike, RationalLike]
) -> WPoint:
    """Image in ``P(a, c, n)`` of an affine chart point of the model.

    Chart "T" is the ``w = 1`` slice with coordinates ``(w', r)``,
    mapping to ``[w' * P(r^n) : r : 1]``; chart "S" is the ``z = 1``
    slice with coordinates ``(u', v)``, mapping to ``[u' * Q(v) : 1 :
    v]`` with ``Q(v) = prod_j (1 - a_j v^c)^(k_j)``.
    """
    _require_cyclic(model)
    s, t = map(as_fraction, coords)
    plane = target_plane(model)
    if chart == "T":
        value = model.roots.polynomial(t**model.n)
        return WPoint(plane, (s * value, t, _ONE))
    if chart == "S":
        q = Fraction(1)
        for root, k in model.roots.pairs:
            q *= (1 - root * t**model.c) ** k
        return WPoint(plane, (s * q, _ONE, t))
    raise BadInput(f"chart must be 'T' or 'S', got {chart!r}")


@dataclass(frozen=True)
class BlowupSurfaceDescription:
    """The model as an iterated blow-up of its target plane.

    One blow-up for each simple root, an iterated ``k``-fold blow-up
    for each ``k``-fold root, all on the line ``(z^n = a_j w^c)``
    locus; afterwards the proper transforms of ``(x = 0)`` and
    ``(w = 0)`` are the curves removed to recover the open fibre.
    """

    base_plane: WeightedProjectiveSpace
    centers: tuple[tuple[Fraction, int], ...]
    removed_divisors = ("x=0", "w=0")

    @property
    def total_blowups(self) -> int:
        return sum(k for _, k in self.centers)

    @property
    def euler_characteristic(self) -> int:
        """``chi`` of the blown-up plane: 3 for the plane plus one per
        blow-up."""
        return 3 + self.total_blowups


def blowup_description(model: CompactificationModel) -> BlowupSurfaceDescription:
    _require_cyclic(model)
    return BlowupSurfaceDescription(
        base_plane=target_plane(model),
        centers=model.roots.pairs,
    )


_SAMPLE_POOL = tuple(
    Fraction(num, den) for num in range(-6, 7) for den in (1, 2, 3)
)


def _random_fraction(rng: random.Random) -> Fraction:
    return rng.choice(_SAMPLE_POOL)


def roundtrip_check(model: CompactificationModel, sample_count: int, seed: int) -> bool:
    """Sample chart T, lift to the surface, and compare projections.

    Each sample draws ``(w', r)`` with ``w' != 0`` and ``P(r^n) != 0``
    (rejected draws are not counted), takes ``x = w' * P(r^n)`` from the
    chart image and reconstructs ``y = P(r^n) / x`` on the ``w = 1``
    slice.  project_pi then verifies the defining
    equation exactly (a violation fails the sample) and its image must
    equal the chart image ``[x : r : 1]`` as weighted-projective
    points.
    """
    _require_cyclic(model)
    if sample_count < 1:
        raise BadInput("sample_count must be positive")
    rng = random.Random(seed)
    plane = target_plane(model)
    done = 0
    attempts = 0
    while done < sample_count:
        attempts += 1
        if attempts > 200 * sample_count:
            raise BadInput("rejection sampling failed to produce enough chart points")
        w1 = _random_fraction(rng)
        r = _random_fraction(rng)
        if w1 == 0:
            continue
        chart_image = evaluate_pi_chart(model, "T", (w1, r))
        x = chart_image.coords[0]
        if x == 0:
            continue
        # x = w' * P(r^n), so y = P(r^n) / x = 1 / w'.
        point = WPoint(model.ambient, (x, 1 / w1, r, _ONE))
        try:
            image = project_pi(model, point)
        except NotOnSurface:
            return False
        expected = WPoint(plane, (x, r, _ONE))
        if image != expected or chart_image != expected:
            return False
        done += 1
    return True
