"""Cyclic quotient surface singularities and rational double points.

A germ ``1/r(q1, q2)`` is the quotient of the affine plane by the cyclic
group of order ``r`` acting with weights ``(q1, q2)`` on the
coordinates; freeness away from the origin forces both weights to be
prime to ``r``.  Every such germ normalizes to the standard form
``1/r(1, q)``, its minimal resolution is a chain of rational curves
read off the negative-regular continued fraction of ``r/q``, and two
germs are isomorphic exactly when their normalized parameters agree or
are inverse to each other modulo the order.

The singularities that admit Q-Gorenstein smoothings with Milnor number
zero form a short list: the rational double points ``A_k, D_k, E6, E7,
E8`` and the cyclic germs ``1/(d*n^2)(1, d*n*m - 1)`` with ``m`` prime
to ``n``.  detect_class_T recognizes the cyclic members from a
normalized germ; rdp_data catalogues the hypersurface equations and
monomial Milnor bases of the double points.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .arith import hj_expand, mod_inverse
from .errors import BadInput


@dataclass(init=False, slots=True, unsafe_hash=True)
class QuotientSingularity:
    """Cyclic quotient germ ``1/order(weights[0], weights[1])``.

    Instances are treated as immutable.
    """

    order: int
    weights: tuple[int, int]

    def __init__(self, order: int, weights: tuple[int, int]):
        if order < 1:
            raise BadInput(f"group order must be positive, got {order}")
        if len(weights) != 2:
            raise BadInput("a surface germ takes exactly two weights")
        for w in weights:
            if gcd(w, order) != 1:
                raise BadInput(
                    f"weight {w} shares a factor with the order {order}; "
                    "the action is not free on the punctured plane"
                )
        self.order = order
        self.weights = weights

    @classmethod
    def _standard(cls, order: int, q: int) -> "QuotientSingularity":
        """``1/order(1, q)`` built without ``__init__``'s checks.

        Only for callers that have already proved them: ``order >= 1``
        and ``q`` prime to ``order``.  ``normalize`` is the one caller.
        """
        self = object.__new__(cls)
        self.order = order
        self.weights = (1, q)
        return self

    def is_smooth(self) -> bool:
        return self.order == 1

    def label(self) -> str:
        q1, q2 = self.weights
        return f"1/{self.order}({q1},{q2})"


def normalize(s: QuotientSingularity) -> QuotientSingularity:
    """Standard form ``1/r(1, q)`` with ``q = q2 * q1^(-1) mod r``.

    A smooth germ (order one) normalizes to ``1/1(1, 1)``; a germ
    already in standard form, ``q1 == 1`` and ``0 < q2 < r`` or
    ``1/1(1, 1)`` itself, is returned as it is.

    The result is built without re-checking: ``s`` passed ``__init__``,
    so ``r >= 1`` and both weights are units modulo ``r``, hence so is
    ``q``, and ``q1`` has an inverse that ``pow`` finds directly.
    """
    r = s.order
    q1, q2 = s.weights
    if q1 == 1 and (0 < q2 < r or q2 == r == 1):
        return s
    if r == 1:
        return QuotientSingularity._standard(1, 1)
    return QuotientSingularity._standard(r, q2 * pow(q1, -1, r) % r)


@dataclass(slots=True, unsafe_hash=True)
class HJChain:
    """Resolution chain; entry ``b_i`` means a curve of self-intersection ``-b_i``.

    Instances are treated as immutable.
    """

    entries: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def self_intersections(self) -> tuple[int, ...]:
        return tuple(-b for b in self.entries)


def hj_resolution(s: QuotientSingularity) -> HJChain:
    """Minimal resolution chain of a cyclic germ.

    The germ is normalized to ``1/r(1, q)`` first; the chain entries are
    the negative-regular continued fraction of ``r/q``.  A smooth germ
    raises BadInput.
    """
    n = normalize(s)
    if n.is_smooth():
        raise BadInput(f"{s.label()} is a smooth point; nothing to resolve")
    return HJChain(tuple(hj_expand(n.order, n.weights[1])))


@dataclass(slots=True, unsafe_hash=True)
class CyclicTDescriptor:
    """Reading of a germ as ``1/(d*n^2)(1, d*n*m - 1)`` with gcd(m, n) = 1.

    ``u``, derived from ``m`` and ``n``, is the inverse of ``m`` modulo
    ``n`` (zero when ``n == 1``).  ``solutions`` lists every valid
    ``(d, n, m)`` reading, largest ``n`` first; the descriptor's own
    parameters are the first entry.  The ``n == 1`` reading exists
    exactly for the double point ``A_(d-1)``.  Treated as immutable.
    """

    d: int
    n: int
    m: int
    solutions: tuple[tuple[int, int, int], ...]

    @property
    def u(self) -> int:
        return mod_inverse(self.m, self.n)

    @property
    def order(self) -> int:
        return self.d * self.n * self.n

    @property
    def is_a_type(self) -> bool:
        return self.n == 1

    def label(self) -> str:
        if self.is_a_type:
            return f"A_{self.d - 1}"
        return f"1/{self.order}(1,{self.d * self.n * self.m - 1})"


def class_t_solutions(r: int, q: int) -> list[tuple[int, int, int]]:
    """All ``(d, n, m)`` with ``r = d*n^2`` and ``q == d*n*m - 1 (mod r)``.

    Candidates are ordered by decreasing ``n``.  For fixed ``n`` the
    congruence pins ``m`` modulo ``n``, so each ``n`` contributes at
    most one solution; the ``n == 1`` candidate ``(r, 1, 1)`` appears
    exactly when ``q == r - 1 (mod r)``, that is when ``g == r`` below.

    Gate: put ``g = gcd(r, q + 1)``.  A reading has ``k = d*n = r/n``,
    which divides ``r`` and ``q + 1 = k*m + (multiple of r)``, so
    ``k | g``; and ``k^2 = d*r >= r``.  Hence ``g*g < r`` means no
    reading, and the ``n`` loop is skipped.  Raises BadInput for
    ``r < 1``.
    """
    if r < 1:
        raise BadInput(f"group order must be positive, got {r}")
    g = gcd(r, q + 1)
    if g * g < r:
        return []
    sols: list[tuple[int, int, int]] = []
    for n in range(isqrt(r), 1, -1):
        if r % (n * n):
            continue
        d = r // (n * n)
        if (q + 1) % (d * n):
            continue
        m = ((q + 1) // (d * n)) % n
        if gcd(m, n) != 1:
            continue
        sols.append((d, n, m))
    if g == r:
        sols.append((r, 1, 1))
    return sols


def detect_class_T(s: QuotientSingularity) -> CyclicTDescriptor | None:
    """Recognize a cyclic germ of class T, or return None.

    The germ is normalized first.  When several ``(d, n, m)`` readings
    exist the one with maximal ``n`` is primary; the full list is kept
    on the descriptor.
    """
    std = normalize(s)
    r = std.order
    q = std.weights[1]
    sols = class_t_solutions(r, q)
    if not sols:
        return None
    d, n, m = sols[0]
    return CyclicTDescriptor(d=d, n=n, m=m, solutions=tuple(sols))


def monomial_str(exps: tuple[int, ...]) -> str:
    """Human form of an exponent triple in ``x, y, z`` or a quadruple in
    ``x, y, z, w``, e.g. ``(1, 2, 0) -> "x*y^2"``."""
    factors = [name if e == 1 else f"{name}^{e}" for name, e in zip("xyzw", exps) if e]
    return "*".join(factors) or "1"


@dataclass(frozen=True)
class RDPData:
    """Hypersurface equation and Milnor data of a rational double point.

    ``defining_poly`` lists the equation's terms as ``((i, j, k),
    coefficient)`` pairs for ``x^i y^j z^k``.  ``milnor_basis`` lists
    exponent triples of monomials whose residue classes span the Milnor
    algebra ``C[x,y,z]/(f, f_x, f_y, f_z)``; its length is the Milnor
    number.
    """

    ade: str
    index: int
    defining_poly: tuple[tuple[tuple[int, int, int], int], ...]
    milnor_basis: tuple[tuple[int, int, int], ...]

    @property
    def milnor_number(self) -> int:
        return len(self.milnor_basis)

    def label(self) -> str:
        return f"{self.ade}_{self.index}" if self.ade != "E" else f"E{self.index}"


def rdp_data(ade: str, index: int) -> RDPData:
    """Equation and monomial Milnor basis for ``A_k``, ``D_k`` (k >= 4),
    ``E6``, ``E7``, ``E8``.

    Conventions: ``A_k: x*y + z^(k+1)``, ``D_k: x^2*y + y^(k-1) + z^2``,
    ``E6: x^4 + y^3 + z^2``, ``E7: x^3*y + y^3 + z^2``,
    ``E8: x^5 + y^3 + z^2``.  The Milnor number equals the index.
    """
    if ade == "A":
        if index < 1:
            raise BadInput(f"A-type index must be >= 1, got {index}")
        poly = (((1, 1, 0), 1), ((0, 0, index + 1), 1))
        basis = tuple((0, 0, t) for t in range(index))
    elif ade == "D":
        if index < 4:
            raise BadInput(f"D-type index must be >= 4, got {index}")
        poly = (((2, 1, 0), 1), ((0, index - 1, 0), 1), ((0, 0, 2), 1))
        basis = ((0, 0, 0), (1, 0, 0)) + tuple((0, t, 0) for t in range(1, index - 1))
    elif ade != "E":
        raise BadInput(f"unknown type {ade!r}; expected A, D or E")
    elif index == 6:
        poly = (((4, 0, 0), 1), ((0, 3, 0), 1), ((0, 0, 2), 1))
        basis = tuple((i, j, 0) for j in range(2) for i in range(3))
    elif index == 7:
        poly = (((3, 1, 0), 1), ((0, 3, 0), 1), ((0, 0, 2), 1))
        basis = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (0, 2, 0), (1, 2, 0))
    elif index == 8:
        poly = (((5, 0, 0), 1), ((0, 3, 0), 1), ((0, 0, 2), 1))
        basis = tuple((i, j, 0) for j in range(2) for i in range(4))
    else:
        raise BadInput(f"E-type index must be 6, 7 or 8, got {index}")
    return RDPData(ade=ade, index=index, defining_poly=poly, milnor_basis=basis)
