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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .arith import RationalLike, as_fraction
from .compactify import CompactificationModel
from .errors import BadInput
from .quotients import QuotientSingularity, normalize
from .wps import WeightedProjectiveSpace


class WPoint:
    """Point of a weighted projective space with exact coordinates.

    Equality is equality of points of the complex weighted projective
    space: ``q = p`` iff ``q_k = t^(w_k) p_k`` for some complex ``t != 0``.
    Such a ``t`` exists iff the supports agree and, on the support, every
    pair of ratios ``l_k = q_k / p_k`` has ``l_i^(w_j/g) = l_j^(w_i/g)``
    with ``g = gcd(w_i, w_j)``; so ``[1:1:1] != [1:1:-1]`` in ``P(2, 1, 1)``
    but ``[1:1] == [-1:-1]`` in ``P(2, 2)`` (``t = i``).
    """

    __slots__ = ("ambient", "coords")

    def __init__(self, ambient: WeightedProjectiveSpace, coords: tuple[RationalLike, ...]):
        cs = tuple(map(as_fraction, coords))
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
        # The ratios q_k / p_k are raised to powers, not the coordinates: for
        # one orbit each is t^(w_k), small however large the coordinates are.
        ratios = []
        for w, pk, qk in zip(self.ambient.weights, p, q):
            if not pk or not qk:
                if pk or qk:
                    return False
                continue
            num, den = qk.numerator * pk.denominator, qk.denominator * pk.numerator
            g = gcd(num, den)
            ratios.append((w, num // g, den // g))
        for j, (wj, nj, dj) in enumerate(ratios):
            for wi, ni, di in ratios[:j]:
                g = gcd(wi, wj)
                if ni ** (wj // g) * dj ** (wi // g) != di ** (wj // g) * nj ** (wi // g):
                    return False
        return True

    __hash__ = None

    def __repr__(self) -> str:
        return "[" + " : ".join(str(c) for c in self.coords) + f"] in {self.ambient.label()}"


def _require_cyclic(model: CompactificationModel) -> None:
    if not model.is_cyclic:
        raise BadInput("this construction needs a cyclic-variant model")


def target_plane(model: CompactificationModel) -> WeightedProjectiveSpace:
    """The plane ``P(a, c, n)`` the model projects to."""
    _require_cyclic(model)
    return WeightedProjectiveSpace((model.a, model.c, model.n))


def surface_residue(model: CompactificationModel, coords: tuple[RationalLike, ...]) -> Fraction:
    """``x*y - prod_j (z^n - a_j w^c)^(k_j)`` at affine coordinates
    ``(x, y, z, w)``; the point is on the surface iff it is zero."""
    _require_cyclic(model)
    if len(coords) != 4:
        raise BadInput(f"{model.ambient.label()} needs 4 coordinates, got {len(coords)}")
    x, y, z, w = map(as_fraction, coords)
    zn, wc = z**model.n, w**model.c
    product = Fraction(1)
    for root, k in model.roots.pairs:
        product *= (zn - root * wc) ** k
    return x * y - product


def project_pi(model: CompactificationModel, point: WPoint) -> WPoint:
    """Image ``[x : z : w]`` of a surface point under the projection.

    Raises BadInput off the hypersurface and at the single
    indeterminacy point ``[0:1:0:0]``.
    """
    _require_cyclic(model)
    if point.ambient != model.ambient:
        raise BadInput(f"point lives in {point.ambient.label()}, not {model.ambient.label()}")
    if surface_residue(model, point.coords):
        raise BadInput(f"{point!r} does not satisfy the defining equation")
    x, _, z, w = point.coords
    if not (x or z or w):
        raise BadInput("the projection has no value at [0:1:0:0]")
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
    if len(coords) != 2:
        raise BadInput(f"a chart point takes 2 coordinates, got {len(coords)}")
    s, t = map(as_fraction, coords)
    plane = target_plane(model)
    if chart == "T":
        return WPoint(plane, (s * model.roots.polynomial(t**model.n), t, Fraction(1)))
    if chart == "S":
        q = Fraction(1)
        for root, k in model.roots.pairs:
            q *= (1 - root * t**model.c) ** k
        return WPoint(plane, (s * q, Fraction(1), t))
    raise BadInput(f"chart must be 'T' or 'S', got {chart!r}")


# The expansion verdict of one polynomial ``P`` and its roots.  A sweep
# walks the models of one ``d`` in a row, and they share ``P`` and the
# roots, so one entry is enough; a larger memo costs a corpus, whose rows
# each have their own roots.  The CLI clears it when each command starts.
@lru_cache(maxsize=1)
def _expands(cleared: tuple[tuple[int, ...], int], roots: tuple[tuple[int, int, int], ...]) -> bool:
    """Whether the cleared ``P = ints / D`` is ``prod_j (x - rp_j/rq_j)^(k_j)``
    over the roots ``rp_j/rq_j`` of multiplicity ``k_j``.  Both sides have
    degree at most ``deg``, so they are equal iff ``ints`` by Horner times
    ``prod_j rq_j^(k_j)`` is ``D * prod_j (x*rq_j - rp_j)^(k_j)`` at the
    ``deg + 1`` integers ``x = 0..deg``."""
    ints, den = cleared
    deg = max(len(ints) - 1, sum(k for _, _, k in roots))
    root_den = 1
    for _, rq, k in roots:
        root_den *= rq**k
    for x in range(deg + 1):
        value = 0
        for coeff in reversed(ints):
            value = value * x + coeff
        product = den
        for rp, rq, k in roots:
            product *= (x * rq - rp) ** k
        if value * root_den != product:
            return False
    return True


def roundtrip_check(model: CompactificationModel) -> bool:
    """Whether every chart T point, lifted to the surface and rescaled,
    projects back to its chart image.

    A chart point ``(w', r)`` with ``w' != 0`` and ``P(r^n) != 0`` has the
    image ``[x : r : 1]`` with ``x = w' * P(r^n)``, which lifts to
    ``[x : 1/w' : r : 1]`` on the ``w = 1`` slice.  The lift is rescaled
    by ``t^(a, b, c, n)`` for any ``t != 0``; it must satisfy the defining
    equation (``P`` is the expanded polynomial, the equation uses the root
    factors) and project to the chart image in the plane ``P(a, c, n)``.

    The lift has ``x*y = P(r^n)`` whatever ``w'`` is, and the rescaling
    multiplies ``x*y`` by ``t^(a+b)`` and the root product by
    ``t^(c*n*mult)``, where ``mult`` sums the multiplicities.  So every
    rescaled lift is on the surface iff ``a + b == c*n*mult`` and the
    expanded ``P`` is the root product, which ``_expands`` decides once per
    polynomial and roots.  The projection ``[x t^a : r t^c : t^n]`` of the
    rescaled lift is ``t^(a, c, n)`` times the chart image, which is that
    image in ``P(a, c, n)`` by the definition of its weights, so nothing
    is compared and no point is drawn.
    """
    _require_cyclic(model)
    a, b, c, n = model.ambient.weights
    if a + b != c * n * model.roots.total:
        return False
    return _expands(model.roots.polynomial._cleared, model.roots._triples)
