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
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .arith import RationalLike, as_fraction
from .compactify import CompactificationModel
from .errors import BadInput
from .quotients import QuotientSingularity, normalize
from .wps import WeightedProjectiveSpace

# A rational coordinate as integers (numerator, nonzero denominator), not
# necessarily reduced; _same_orbit compares points given as these.
_Pair = tuple[int, int]


@lru_cache(maxsize=256)
def _exponent_pairs(weights: tuple[int, ...]) -> tuple[tuple[int, int, int, int], ...]:
    """``(i, j, w_j/g, w_i/g)`` with ``g = gcd(w_i, w_j)``, for every ``i < j``."""
    return tuple(
        (i, j, wj // gcd(wi, wj), wi // gcd(wi, wj))
        for j, wj in enumerate(weights)
        for i, wi in enumerate(weights[:j])
    )


def _same_orbit(weights: tuple[int, ...], p: Sequence[_Pair], q: Sequence[_Pair]) -> bool:
    """Weighted equality of two coordinate tuples of integer pairs.

    The supports must agree, and every two nonzero coordinates ``i, j``
    must satisfy ``l_i^(w_j/g) = l_j^(w_i/g)`` with ``g = gcd(w_i, w_j)``
    for the ratios ``l_k = A_k / B_k = (pn_k * qd_k) / (qn_k * pd_k)`` in
    lowest terms.  For points of one orbit ``l_k = t^(-w_k)``, so the
    powers stay as small as the scaling however large the coordinates are.
    """
    ratios: list[_Pair | None] = []
    for (pn, pd), (qn, qd) in zip(p, q):
        if not pn or not qn:
            if pn or qn:
                return False
            ratios.append(None)
            continue
        a, b = pn * qd, qn * pd
        g = gcd(a, b)
        ratios.append((a // g, b // g))
    for i, j, ei, ej in _exponent_pairs(weights):
        ri, rj = ratios[i], ratios[j]
        if ri and rj and ri[0] ** ei * rj[1] ** ej != ri[1] ** ei * rj[0] ** ej:
            return False
    return True


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
        return p == q or _same_orbit(
            self.ambient.weights,
            [(c.numerator, c.denominator) for c in p],
            [(c.numerator, c.denominator) for c in q],
        )

    __hash__ = None

    def __repr__(self) -> str:
        return "[" + " : ".join(str(c) for c in self.coords) + f"] in {self.ambient.label()}"


def _require_cyclic(model: CompactificationModel) -> None:
    if not model.is_cyclic:
        raise BadInput("this construction needs a cyclic-variant model")


@lru_cache(maxsize=1024)
def _plane(weights: tuple[int, int, int]) -> WeightedProjectiveSpace:
    return WeightedProjectiveSpace(weights)


def target_plane(model: CompactificationModel) -> WeightedProjectiveSpace:
    """The plane ``P(a, c, n)`` the model projects to."""
    _require_cyclic(model)
    return _plane((model.a, model.c, model.n))


def _root_triples(model: CompactificationModel) -> tuple[tuple[int, int, int], ...]:
    """``(p, q, k)`` for each root ``p/q`` of multiplicity ``k``."""
    return tuple((root.numerator, root.denominator, k) for root, k in model.roots.pairs)


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


# Chart coordinates are drawn from the numerators -6..6 over 1, 2 and 3.
_SAMPLE_POOL = tuple((num, den) for num in range(-6, 7) for den in (1, 2, 3))
# Scalings t of the lift; the powers 2^w already separate every weight.
_SCALES = ((2, 1), (-2, 1), (1, 2), (-3, 2), (3, 1))


def roundtrip_check(model: CompactificationModel, sample_count: int, seed: int) -> bool:
    """Sample chart T, lift each point to the surface, rescale, project,
    and compare with the chart image.

    Each sample draws ``(w', r)`` with ``w' != 0`` and ``P(r^n) != 0``
    (rejected draws are not counted).  Its chart image is
    ``[x : r : 1]`` with ``x = w' * P(r^n)``, which lifts to
    ``[x : 1/w' : r : 1]`` on the ``w = 1`` slice.  The lift is rescaled
    by ``t^(a, b, c, n)``, with ``t`` running through ``_SCALES``; the sample
    fails unless the rescaled lift satisfies the defining equation
    (``P`` is the expanded polynomial, the equation uses the root
    factors) and its projection equals the chart image in the plane
    ``P(a, c, n)``.

    Everything runs on integers in one loop; no Fraction or WPoint is
    built.  The model's integers (its weights, the cleared coefficients of
    ``P``, the ``_root_triples`` and the powers of the five scalings) are
    read once per call.  Each pool index is drawn as ``getrandbits(6)``
    and redrawn while it is 39 or more, which is what ``Random.choice``
    does on the 39 entries, so the samples are those of
    ``rng.choice(_SAMPLE_POOL)``.  The loop body computes ``P(r^n)`` by
    the integer Horner recurrence of ``UniPoly.__call__`` and the residue
    ``x*y - prod_j (z^n - a_j w^c)^(k_j)`` of ``surface_residue`` on
    integers; ``_same_orbit`` is the one comparison.
    """
    _require_cyclic(model)
    if sample_count < 1:
        raise BadInput("sample_count must be positive")
    getrandbits = random.Random(seed).getrandbits
    pool = _SAMPLE_POOL
    size, bits = len(pool), len(pool).bit_length()
    plane_weights = target_plane(model).weights
    a, b, c, n = model.ambient.weights
    ints, den = model.roots.polynomial._cleared
    lead, lower = ints[-1], ints[-2::-1]
    roots = _root_triples(model)
    # Over the common denominator zw of z^n and w^c (zq * s^(cn) below),
    # the root product has denominator prod_j (zw * q_j)^(k_j), which is
    # zw^mult * root_dens.
    mult, root_dens = 0, 1
    for _, rq, k in roots:
        mult += k
        root_dens *= rq**k
    # For each scaling t/s: t^(a+b), s^(a+b) scale x*y; t^a, s^a, t^c, s^c,
    # t^n, s^n scale the image; t^(cn), s^(cn) scale both z^n and w^c.
    scales = [
        (t ** (a + b), s ** (a + b), t**a, s**a, t**c, s**c, t**n, s**n, t ** (c * n), s ** (c * n))
        for t, s in _SCALES
    ]
    done = 0
    attempts = 0
    while done < sample_count:
        attempts += 1
        if attempts > 200 * sample_count:
            raise BadInput("rejection sampling failed to produce enough chart points")
        i = getrandbits(bits)
        while i >= size:
            i = getrandbits(bits)
        j = getrandbits(bits)
        while j >= size:
            j = getrandbits(bits)
        wn, wd = pool[i]
        if not wn:
            continue
        rn, rd = pool[j]
        # x = w' * P(r^n), by the homogeneous Horner recurrence of
        # UniPoly.__call__ on the cleared coefficients.
        p, q = rn**n, rd**n
        value, qpow = lead, 1
        for coeff in lower:
            qpow *= q
            value = value * p + coeff * qpow
        if not value:
            continue
        xn, xd = wn * value, wd * den * qpow
        tab, sab, ta, sa, tc, sc, tn, sn, tcn, scn = scales[done % len(scales)]
        # The rescaled lift is [x t^a : t^b / w' : r t^c : t^n], since
        # y = P(r^n) / x = 1 / w'.  Its w = t^n is not 0, so it is never
        # the indeterminacy point [0:1:0:0].  Its residue is
        # x*y - prod_j (z^n - a_j w^c)^(k_j), with z^n = p t^(cn) / zq and
        # w^c = t^(cn) / s^(cn).
        zq = q * scn
        big_z, big_w = p * tcn * scn, tcn * zq
        num = 1
        for rp, rq, k in roots:
            num *= (big_z * rq - rp * big_w) ** k
        if xn * wd * tab * (zq * scn) ** mult * root_dens != num * xd * wn * sab:
            return False
        image = ((xn * ta, xd * sa), (rn * tc, rd * sc), (tn, sn))
        if not _same_orbit(plane_weights, image, ((xn, xd), (rn, rd), (1, 1))):
            return False
        done += 1
    return True
