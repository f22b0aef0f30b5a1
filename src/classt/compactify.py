"""Log del Pezzo compactifications of smoothings of class T singularities.

The cyclic germ ``1/(d*n^2)(1, d*n*m - 1)`` admits one-parameter
smoothings whose Milnor fibre compactifies to a hypersurface

    x*y = prod_j (z^n - a_j * w^c)^(k_j),   sum k_j = d,

of degree ``d*n*c`` in ``P(a, b, c, n)``, where the weights must satisfy
three conditions:

    hom:     a + b = d*n*c                  (the equation is homogeneous)
    action:  a*m == c (mod n)               (compatible with the group action)
    div:     gcd(c, n) = 1 and gcd(a, c) = 1

The boundary curve ``C = (w = 0)`` has ``C^2 = d*n^2/(a*b)`` and carries
the two quotient points ``R1 = 1/a(c, n)`` and ``R2 = 1/b(c, n)``; the
anticanonical proportionality is ``-K = beta * C`` with
``beta = (c + n)/n``.  Repeated roots ``k_j >= 2`` leave interior
rational double points ``A_(k_j - 1)`` on the fibre.

The double points ``D_k, E6, E7, E8`` play the same game in one stroke:
their natural quasi-homogeneous equations, deformed along a monomial
Milnor basis and homogenized by a weight-one variable ``w``, give
hypersurfaces in ``P(a, b, c, 1)`` with ``beta = 2`` and three quotient
points on the boundary curve.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from typing import Iterable, NamedTuple, Union

from .arith import RationalLike, UniPoly, as_fraction, mod_inverse, multiplicity_profile
from .errors import BadInput, ConditionViolated
from .quotients import (
    CyclicTDescriptor,
    HJChain,
    QuotientSingularity,
    RDPData,
    hj_resolution,
    monomial_str,
    normalize,
    rdp_data,
)
from .wps import HypersurfaceClass, WeightedProjectiveSpace, adjunction_class, hypersurface_intersection, well_formed_reduction


@dataclass(frozen=True)
class RootConfig:
    """Nonzero distinct roots ``a_j`` with multiplicities ``k_j >= 1``."""

    roots: tuple[Fraction, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if not self.roots:
            raise BadInput("at least one root is required")
        if len(self.roots) != len(self.multiplicities):
            raise BadInput("roots and multiplicities must pair up")
        if any(r.numerator == 0 for r in self.roots):
            raise BadInput("roots must be nonzero")
        # Fractions are kept in lowest terms, so equal roots have equal
        # (numerator, denominator) pairs; the pairs hash far faster.
        keys = [(r.numerator, r.denominator) for r in self.roots]
        if len(set(keys)) != len(keys):
            seen: set[tuple[int, int]] = set()
            for r, key in zip(self.roots, keys):
                if key in seen:
                    raise BadInput(f"roots must be distinct, got {r} more than once")
                seen.add(key)
        if any(k < 1 for k in self.multiplicities):
            raise BadInput("multiplicities must be positive")

    @staticmethod
    def of(pairs: Iterable[tuple[RationalLike, int]]) -> "RootConfig":
        items = [(as_fraction(r), int(k)) for r, k in pairs]
        return RootConfig(tuple(r for r, _ in items), tuple(k for _, k in items))

    @staticmethod
    def simple(roots: Iterable[RationalLike]) -> "RootConfig":
        rs = tuple(as_fraction(r) for r in roots)
        return RootConfig(rs, (1,) * len(rs))

    @staticmethod
    def parse(text: str) -> "RootConfig":
        """Parse ``"a1:k1,a2:k2,..."``; a bare ``a`` means multiplicity one."""
        roots, mults = [], []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                raise BadInput("empty root entry")
            root, _, mult = chunk.partition(":")
            try:
                roots.append(_parse_rational(root.strip()))
                mults.append(int(mult.strip()) if mult.strip() else 1)
            except (ValueError, ZeroDivisionError) as exc:
                raise BadInput(f"cannot parse root entry {chunk!r}") from exc
        return RootConfig(tuple(roots), tuple(mults))

    @property
    def total(self) -> int:
        """Sum of multiplicities; the ``d`` of the model the roots fit."""
        return sum(self.multiplicities)

    @cached_property
    def pairs(self) -> tuple[tuple[Fraction, int], ...]:
        return tuple(zip(self.roots, self.multiplicities))

    @cached_property
    def polynomial(self) -> UniPoly:
        """The monic polynomial ``P(z) = prod (z - a_j)^(k_j)``."""
        return UniPoly.from_roots(self.pairs)

    @cached_property
    def _interior(self) -> tuple[tuple[str, int], ...]:
        """``("S_j", k - 1)`` for the ``j``-th root if ``k >= 2``: the interior ``A_(k-1)`` points."""
        return tuple((f"S_{j + 1}", k - 1) for j, (_, k) in enumerate(self.pairs) if k >= 2)

    @cached_property
    def _triples(self) -> tuple[tuple[int, int, int], ...]:
        """``(p, q, k)`` for each root ``p/q`` of multiplicity ``k``."""
        return tuple((root.numerator, root.denominator, k) for root, k in self.pairs)

    def as_text(self) -> str:
        return ",".join(f"{r}:{k}" for r, k in self.pairs)


# A plain "[-]digits[/digits]" text in ASCII digits.
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, with a plain integer or ``p/q`` text read as
    ints: ``Fraction(str)`` spends most of its time on type checks and its
    own regular expression.  Any other text, and every error, is
    ``Fraction``'s own."""
    plain = _PLAIN_RATIONAL.fullmatch(text)
    if plain is None:
        return Fraction(text)
    num, den = plain.groups()
    return Fraction(int(num)) if den is None else Fraction(int(num), int(den))


@dataclass(frozen=True)
class CurveAtInfinity:
    """Rational boundary curve with its orbifold point orders."""

    self_intersection: Fraction
    orbifold_points: tuple[int, ...]
    genus = 0

    def __post_init__(self):
        if self.self_intersection <= 0:
            raise BadInput("the boundary curve must have positive self-intersection")
        if self.orbifold_points and min(self.orbifold_points) < 2:
            raise BadInput("orbifold point orders must be at least 2")


@dataclass(frozen=True)
class TopologyInvariants:
    """Fundamental group order and second Betti number of the fibre ``M``.

    ``M`` has ``b_1 = b_3 = 0``, so ``chi_M = 1 + b2_M``; capping it with
    the rational boundary curve gives ``Mbar`` with ``b2_Mbar = b2_M + 1``
    and ``chi_Mbar = chi_M + 2``.  All three are derived from ``b2_M``.
    """

    pi1_order_M: int
    b2_M: int

    @property
    def b2_Mbar(self) -> int:
        return self.b2_M + 1

    @property
    def chi_M(self) -> int:
        return self.b2_M + 1

    @property
    def chi_Mbar(self) -> int:
        return self.b2_M + 3


@dataclass(frozen=True)
class CompactificationModel:
    """A compactified smoothing, either cyclic-variant or a D/E model.

    A cyclic model carries its ``roots`` and a CyclicTDescriptor; a D/E
    model carries its RDPData as ``descriptor`` and the deformation
    ``coefficients``, and ``roots`` is None.  ``a``, ``b``, ``c`` and
    ``n`` read the ambient weights ``(a, b, c, n)``, where ``n`` is 1
    for D/E.  Interior singularities are pairs ``(label, k)`` meaning an
    ``A_k`` point; for D/E models the list is empty (generic fibres are
    smooth inside, and locating double points of special coefficient
    choices is not attempted).
    """

    descriptor: Union[CyclicTDescriptor, RDPData]
    ambient: WeightedProjectiveSpace
    degree: int
    beta: Fraction
    curve: CurveAtInfinity
    infinity_singularities: tuple[tuple[str, QuotientSingularity], ...]
    interior_singularities: tuple[tuple[str, int], ...]
    roots: RootConfig | None = None
    coefficients: tuple[Fraction, ...] | None = None

    @property
    def is_cyclic(self) -> bool:
        return self.roots is not None

    @property
    def a(self) -> int:
        return self.ambient.weights[0]

    @property
    def b(self) -> int:
        return self.ambient.weights[1]

    @property
    def c(self) -> int:
        return self.ambient.weights[2]

    @property
    def n(self) -> int:
        return self.ambient.weights[3]

    def label(self) -> str:
        if self.is_cyclic:
            dsc = self.descriptor
            return f"cyclic(d={dsc.d},n={dsc.n},m={dsc.m},c={self.c},a={self.a})"
        return f"rdp({self.descriptor.label()})"

    def equation_str(self) -> str:
        if self.is_cyclic:
            factors = []
            for r, k in self.roots.pairs:
                zc = f"z^{self.n}" if self.n > 1 else "z"
                wc = f"w^{self.c}" if self.c > 1 else "w"
                coef = "" if r == 1 else f"{r}*"
                body = f"({zc} - {coef}{wc})"
                factors.append(body if k == 1 else f"{body}^{k}")
            return "x*y - " + "*".join(factors)
        parts = []
        for exps, coeff in self.homogenized_terms():
            mono = monomial_str(exps)
            parts.append(mono if coeff == 1 else f"{coeff}*{mono}" if coeff != -1 else f"-{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def homogenized_terms(self) -> tuple[tuple[tuple[int, int, int, int], Fraction | int], ...]:
        """Terms of the degree-``N`` equation of a D/E model, as
        ``((i, j, k, l), coeff)`` for ``x^i y^j z^k w^l``: the normal form
        minus the coefficients times the Milnor basis monomials."""
        if self.is_cyclic:
            raise BadInput("cyclic models use the root-product form")
        terms = dict(self.descriptor.defining_poly)
        for coeff, exps in zip(self.coefficients, self.descriptor.milnor_basis):
            terms[exps] = terms.get(exps, 0) - coeff
        a, b, c = self.a, self.b, self.c
        out = []
        for (i, j, k), coeff in sorted(terms.items(), reverse=True):
            if not coeff:
                continue
            l = self.degree - (i * a + j * b + k * c)
            if l < 0:
                raise BadInput(f"term x^{i} y^{j} z^{k} exceeds degree {self.degree}")
            out.append(((i, j, k, l), coeff))
        return tuple(out)


@dataclass(frozen=True)
class WeightPair:
    """One admissible weight choice ``(a, b)`` at ambient ``c``."""

    a: int
    b: int
    c: int
    reduced_from: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class WeightEnumeration:
    """All weight solutions for fixed ``(d, n, m, c)``.

    ``pairs`` are the solutions of the congruence ``a == c*u (mod n)``
    with ``gcd(a, c) = 1``, listed by increasing ``a``; these are the
    weights usable at the requested ``c`` as they stand.  Candidates
    sharing a factor with ``c`` become well-formed models only after
    dividing that factor out of ``(a, b, c)``; ``_shared`` keeps them as
    ``(a, b, c, n)`` by increasing ``a``, and ``reduced`` reduces them on
    its first read, each recording its raw source, so a caller that reads
    only ``pairs`` never pays for a reduction.  As ``gcd(c, n) = 1``, each
    reduces to ``(a, b, c) / gcd(a, c)``, whose ``c`` fixes the divisor and
    so ``a``: distinct candidates give distinct reductions.
    ``raw_count`` counts all congruence candidates with ``a, b >= 1``.
    """

    u: int
    pairs: tuple[WeightPair, ...]
    raw_count: int
    _shared: tuple[tuple[int, int, int, int], ...] = ()

    @cached_property
    def reduced(self) -> tuple[WeightPair, ...]:
        return tuple(
            WeightPair(
                *well_formed_reduction(WeightedProjectiveSpace(weights), (0, 1, 2)).weights[:3],
                reduced_from=weights[:3],
            )
            for weights in self._shared
        )

    def pair_tuples(self) -> list[tuple[int, int]]:
        return [(p.a, p.b) for p in self.pairs]


def _reduced_m(d: int, n: int, m: int, c: int) -> int:
    """Check the arguments every cyclic model needs; return ``m`` mod ``n``."""
    if d < 1 or n < 1 or c < 1:
        raise BadInput(f"d, n, c must be positive, got ({d}, {n}, {c})")
    if gcd(m, n) != 1:
        raise BadInput(f"m = {m} must be prime to n = {n}")
    return m % n if n > 1 else 1


class Condition(NamedTuple):
    """One weight condition: its tag, whether it holds, and the numbers
    its ``detail`` sentence quotes."""

    tag: str
    passed: bool
    values: tuple

    @property
    def detail(self) -> str:
        return _CONDITION_TEXT[self.tag, self.passed].format(*self.values)


# Rendered only when a report or an error asks for the sentence.
_CONDITION_TEXT = {
    ("hom", True): "a + b = {0} + {1} = {2} = d*n*c with positive weights",
    ("hom", False): "a = {0} outside 1..{3}, so b = {1} is not positive",
    ("action", True): "a*m = {0}*{1} == c = {2} (mod {3})",
    ("action", False): "a*m = {0}*{1} != c = {2} (mod {3})",
    ("div", True): "gcd(c, n) = gcd({0}, {1}) = 1 and gcd(a, c) = gcd({2}, {0}) = 1",
    ("div", False): "gcd(c, n) = {3}, gcd(a, c) = {4}",
    ("man-cond", True): "roots nonzero and distinct, multiplicities sum to d = {0}",
    ("man-cond", False): "multiplicities sum to {1}, expected d = {0}",
}


def weight_conditions(
    d: int, n: int, m: int, c: int, a: int, roots: RootConfig
) -> tuple[Condition, Condition, Condition, Condition]:
    """The conditions for the cyclic model ``(d, n, m, c, a)`` to exist.

    In order: "hom" (``1 <= a <= d*n*c - 1``, so both ``a`` and
    ``b = d*n*c - a`` are positive), "action" (``a*m == c mod n``),
    "div" (``gcd(c, n) = gcd(a, c) = 1``) and "man-cond" (the root
    multiplicities sum to ``d``; RootConfig already holds the roots
    nonzero and distinct).  Raises BadInput unless ``d, n, c >= 1`` and
    ``gcd(m, n) = 1``.
    """
    m_c = _reduced_m(d, n, m, c)
    degree = d * n * c
    b = degree - a
    g_cn, g_ac = gcd(c, n), gcd(a, c)
    return (
        Condition("hom", 1 <= a <= degree - 1, (a, b, degree, degree - 1)),
        Condition("action", (a * m_c - c) % n == 0, (a, m_c, c, n)),
        Condition("div", g_cn == 1 and g_ac == 1, (c, n, a, g_cn, g_ac)),
        Condition("man-cond", roots.total == d, (d, roots.total)),
    )


def enumerate_weights(d: int, n: int, m: int, c: int) -> WeightEnumeration:
    """Enumerate weights ``(a, b)`` for the cyclic model of given
    ``(d, n, m)`` at third weight ``c``.

    Candidates sharing a factor with ``c`` are reduced on the first read
    of ``reduced``.  For ``n >= 2`` and ``c = 1`` the solutions form the
    ``d``-member family ``a = u + k*n``, ``b = (d - k)*n - u`` for
    ``k = 0..d-1``, where ``u`` is the inverse of ``m`` mod ``n``.
    """
    m_c = _reduced_m(d, n, m, c)
    if gcd(c, n) != 1:
        raise BadInput(f"c = {c} must be prime to n = {n}")
    u = mod_inverse(m_c, n)
    degree = d * n * c
    target = (c * u) % n
    first = target if target else n
    candidates = range(first, degree, n)
    primary = []
    shared = []
    for a in candidates:
        if gcd(a, c) == 1:
            primary.append(WeightPair(a=a, b=degree - a, c=c))
        else:
            shared.append((a, degree - a, c, n))
    return WeightEnumeration(u=u, pairs=tuple(primary), raw_count=len(candidates), _shared=tuple(shared))


def build_cyclic(d: int, n: int, m: int, c: int, a: int, roots: RootConfig) -> CompactificationModel:
    """Compactified smoothing of ``1/(d*n^2)(1, d*n*m - 1)``.

    Raises from the records of weight_conditions: ConditionViolated with
    the tag of the first failed condition, where a ``c`` sharing a factor
    with ``n`` fails "div" ahead of every other tag.
    """
    return _build_cyclic(d, n, m, c, a, roots, weight_conditions(d, n, m, c, a, roots))


def _build_cyclic(d: int, n: int, m: int, c: int, a: int, roots: RootConfig,
                  conditions: tuple) -> CompactificationModel:
    """build_cyclic on the already evaluated ``weight_conditions`` records."""
    # A c sharing a factor with n fails "div" ahead of every other tag.
    for cond in conditions if gcd(c, n) == 1 else (conditions[2],):
        if not cond.passed:
            raise ConditionViolated(cond.tag, cond.detail)
    descriptor, ambient, degree, beta, curve, r1, r2 = _cyclic_frame(d, n, _reduced_m(d, n, m, c), c, a)
    return CompactificationModel(
        descriptor=descriptor,
        ambient=ambient,
        degree=degree,
        beta=beta,
        curve=curve,
        infinity_singularities=(("R1", r1), ("R2", r2)),
        interior_singularities=roots._interior,
        roots=roots,
    )


def _boundary(weights: tuple[int, int, int, int], degree: int, orders: tuple[int, ...]) -> tuple:
    """The ambient ``P(a, b, c, n)``, beta and boundary curve ``C = (w = 0)``
    of a degree-``degree`` hypersurface, ``C`` meeting quotient points of
    ``orders`` (order one is a smooth point).  beta and C^2 are read off the
    ambient intersection theory rather than restated: K = O(t) with
    t = adjunction_class and C = O(n) restricted, so beta = -t/n."""
    ambient = WeightedProjectiveSpace(weights)
    X = HypersurfaceClass(ambient, degree)
    n = weights[3]
    curve = CurveAtInfinity(
        self_intersection=hypersurface_intersection(X, n, n),
        orbifold_points=tuple(sorted(o for o in orders if o > 1)),
    )
    return ambient, Fraction(-adjunction_class(X), n), curve


# A corpus repeats each weight tuple with several root configurations, and
# everything but the interior points depends on the tuple alone.  The CLI
# clears this memo when each command starts, so a command pays for each of
# its own frames once and never reuses another command's.  Every object a
# frame keeps alive adds to the garbage collector's work, which a sweep (it
# rarely repeats a tuple) pays for, so the labelled pairs at infinity are
# built per model instead.
@lru_cache(maxsize=1024)
def _cyclic_frame(d: int, n: int, m_c: int, c: int, a: int) -> tuple:
    """The root-free part of the model ``(d, n, m, c, a)`` with ``m_c = m
    mod n``: its descriptor, ambient space, degree, beta, boundary curve
    and the quotient points ``R1`` and ``R2`` at infinity."""
    degree = d * n * c
    b = degree - a
    ambient, beta, curve = _boundary((a, b, c, n), degree, (a, b))
    r1 = normalize(QuotientSingularity(a, (c, n)))
    r2 = normalize(QuotientSingularity(b, (c, n)))
    descriptor = CyclicTDescriptor(d=d, n=n, m=m_c, solutions=((d, n, m_c),))
    return descriptor, ambient, degree, beta, curve, r1, r2


# The weights (a, b, c) of P(a, b, c, 1) and the orbifold orders at infinity
# of E6, E7 and E8; build_rdp writes those of D_k.
_E_FRAMES = {
    6: ((3, 4, 6), (3, 3, 2)),
    7: ((4, 6, 9), (2, 3, 4)),
    8: ((6, 10, 15), (2, 3, 5)),
}


def build_rdp(
    ade: str, index: int, coefficients: Iterable[RationalLike] | None = None
) -> CompactificationModel:
    """Compactified deformation of a ``D`` or ``E`` double point.

    The equation is the quasi-homogeneous normal form minus a linear
    combination of the Milnor basis monomials, homogenized by the
    weight-one variable ``w``; ``coefficients`` (default all zero) pair
    with the basis in catalogue order.  A-type inputs belong to the
    cyclic builder (``n = 1``, ``d = k + 1``) and are rejected here.
    """
    if ade == "A":
        raise BadInput(
            "A-type models are cyclic: use the cyclic builder with n = 1, d = index + 1"
        )
    data = rdp_data(ade, index)
    if ade == "D":
        (a, b, c), orders = (index - 2, 2, index - 1), (2, 2, index - 2)
    else:
        (a, b, c), orders = _E_FRAMES[index]
    degree = a + b + c - 1
    if coefficients is None:
        coeffs = (Fraction(0),) * data.milnor_number
    else:
        coeffs = tuple(as_fraction(v) for v in coefficients)
        if len(coeffs) != data.milnor_number:
            raise BadInput(
                f"{data.label()} needs {data.milnor_number} coefficients, got {len(coeffs)}"
            )
    ambient, beta, curve = _boundary((a, b, c, 1), degree, orders)
    infinity = tuple(
        (f"P{i + 1}", QuotientSingularity(r, (1, 1))) for i, r in enumerate(orders)
    )
    return CompactificationModel(
        descriptor=data,
        ambient=ambient,
        degree=degree,
        beta=beta,
        curve=curve,
        infinity_singularities=infinity,
        interior_singularities=(),
        coefficients=coeffs,
    )


def smoothness_status(roots: RootConfig) -> tuple[int, ...]:
    """The sorted indices ``k`` of the interior ``A_k`` points, read off
    the expanded root polynomial; empty when the fibre is smooth.

    Runs the squarefree decomposition of ``P(z)`` and converts each
    multiplicity-``k`` factor of degree ``e`` into ``e`` double points
    ``A_(k-1)``; this is deliberately independent of the multiplicity
    list the configuration was built from.
    """
    indices: list[int] = []
    for deg, mult in multiplicity_profile(roots.polynomial):
        if mult >= 2:
            indices.extend([mult - 1] * deg)
    return tuple(sorted(indices))


def topology(model: CompactificationModel) -> TopologyInvariants:
    """Topological invariants of the fibre ``M`` and its
    compactification.

    Cyclic variant: ``M`` has the homotopy type of the Milnor fibre
    with ``b_2 = d - 1`` and fundamental group of order ``n``; adding
    the boundary curve caps it to a simply connected surface with
    ``b_2 = d`` and ``chi = d + 2``.  D/E of index ``k``: the Milnor
    fibre is simply connected with ``b_2 = k``.
    """
    if model.is_cyclic:
        return TopologyInvariants(pi1_order_M=model.descriptor.n, b2_M=model.descriptor.d - 1)
    return TopologyInvariants(pi1_order_M=1, b2_M=model.descriptor.index)


def minimal_resolution(model: CompactificationModel) -> tuple[tuple[str, HJChain], ...]:
    """The ``(label, chain)`` of each interior ``A_k`` point, resolved by
    its chain of ``(-2)``-curves; the boundary data is untouched (the
    quotient points at infinity stay as they are, and the anticanonical
    proportionality survives pullback)."""
    return tuple(
        (lbl, hj_resolution(QuotientSingularity(k + 1, (1, k))))
        for lbl, k in model.interior_singularities
    )
