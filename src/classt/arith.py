"""Exact arithmetic foundation.

Modular inverses, the root products ``prod (z - a_j)^(k_j)`` of the
model fibres with their exact evaluation, Yun's squarefree
(multiplicity) decomposition, and the negative-regular continued
fractions that drive cyclic quotient resolutions.  Everything here is
exact: rationals are ``fractions.Fraction`` values (arbitrary precision,
automatically reduced, positive denominator) and no code path touches
floating point.  Yun's algorithm works on coefficient lists, lowest
degree first, with no trailing zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Union

from .errors import BadInput, ClassTError

RationalLike = Union[Fraction, int, str]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, string like "3/2", or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadInput(f"cannot parse rational {value!r}") from exc
    return Fraction(value)


def mod_inverse(m: int, n: int) -> int:
    """Inverse of ``m`` modulo ``n >= 1``.

    Returns the unique ``u`` in ``{1, ..., n-1}`` with
    ``m*u == 1 (mod n)``, and ``0`` for the trivial modulus ``n == 1``.
    Raises BadInput when ``gcd(m, n) != 1``.
    """
    if n < 1:
        raise BadInput(f"modulus must be positive, got {n}")
    if gcd(m, n) != 1:
        raise BadInput(f"{m} has no inverse modulo {n}")
    if n == 1:
        return 0
    return pow(m, -1, n)


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial over Q.

    ``coeffs[i]`` holds the coefficient of ``z**i``; the highest entry is
    nonzero and the zero polynomial is the empty tuple.  Instances are
    immutable and compare structurally.
    """

    coeffs: tuple[Fraction, ...] = ()

    @staticmethod
    def of(values: Iterable[RationalLike]) -> "UniPoly":
        cs = [as_fraction(v) for v in values]
        while cs and cs[-1] == 0:
            cs.pop()
        return UniPoly(tuple(cs))

    @staticmethod
    def from_roots(pairs: Iterable[tuple[RationalLike, int]]) -> "UniPoly":
        """Monic product of ``(z - root) ** multiplicity`` factors.

        With ``root = rp/rq`` the product runs over the integer factors
        ``rq*z - rp``; the result equals ``N(z) / D`` with
        ``D = prod rq ** multiplicity``, so one Fraction is built per
        coefficient at the end.
        """
        ints = [1]
        den = 1
        for root, mult in pairs:
            if mult < 0:
                raise BadInput(f"negative multiplicity {mult}")
            rf = as_fraction(root)
            rp, rq = rf.numerator, rf.denominator
            for _ in range(mult):
                out = [0] * (len(ints) + 1)
                for i, c in enumerate(ints):
                    out[i] -= c * rp
                    out[i + 1] += c * rq
                ints = out
            den *= rq**mult
        return UniPoly(tuple(Fraction(c, den) for c in ints))

    @property
    def degree(self) -> int:
        """Degree, with the convention ``-1`` for the zero polynomial."""
        return len(self.coeffs) - 1

    @cached_property
    def _cleared(self) -> tuple[tuple[int, ...], int]:
        """Integers ``N_i`` and ``D >= 1`` with ``coeffs[i] == N_i / D``."""
        den = 1
        for c in self.coeffs:
            den = lcm(den, c.denominator)
        return tuple(c.numerator * (den // c.denominator) for c in self.coeffs), den

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact value at ``x = p/q``; one Fraction is built, at the end.

        With ``coeffs[i] == N_i / D`` the value is
        ``sum_i N_i p^i q^(deg-i) / (D q^deg)``; the numerator is a
        homogeneous Horner recurrence on integers, which
        ``RootConfig._expands`` runs with ``q = 1`` at ``x = 0..deg``.
        """
        xf = as_fraction(x)
        ints, den = self._cleared
        if not ints:
            return Fraction(0)
        p, q = xf.numerator, xf.denominator
        value, qpow = ints[-1], 1
        for coeff in ints[-2::-1]:
            qpow *= q
            value = value * p + coeff * qpow
        return Fraction(value, den * qpow)


def _derivative(cs: list[Fraction]) -> list[Fraction]:
    """Derivative of a coefficient list."""
    return [i * c for i, c in enumerate(cs)][1:]


def _difference(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """``a - b`` for coefficient lists."""
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    while out and not out[-1]:
        out.pop()
    return out


def _divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of coefficient lists."""
    if not b:
        raise BadInput("division by the zero polynomial")
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(quot) - 1, -1, -1):
        factor = rem[shift + len(b) - 1] / b[-1]
        quot[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
    del rem[len(b) - 1 :]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _monic_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd of coefficient lists, the first of them nonzero."""
    while b:
        a, b = b, _divmod(a, b)[1]
    return [c / a[-1] for c in a]


def squarefree_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm over Q.

    Returns monic pairwise-coprime squarefree factors with their
    multiplicities, so that ``p`` equals its leading coefficient times
    the product of ``factor ** multiplicity``.  Constant input yields
    the empty list; zero input raises BadInput.  The loop finds one
    multiplicity per pass, so it ends within ``deg p`` passes; a loop
    that does not raises ClassTError as an internal fault.
    """
    if not p.coeffs:
        raise BadInput("squarefree decomposition of the zero polynomial")
    f = [c / p.coeffs[-1] for c in p.coeffs]
    out: list[tuple[UniPoly, int]] = []
    df = _derivative(f)
    g = _monic_gcd(f, df)
    c = _divmod(f, g)[0]
    d = _difference(_divmod(df, g)[0], _derivative(c))
    i = 1
    while len(c) > 1:
        if i == len(f):
            raise ClassTError(f"Yun's loop did not end within degree {len(f) - 1}")
        a = _monic_gcd(c, d)
        if len(a) > 1:
            out.append((UniPoly(tuple(a)), i))
        c = _divmod(c, a)[0]
        d = _difference(_divmod(d, a)[0], _derivative(c))
        i += 1
    return out


def multiplicity_profile(p: UniPoly) -> list[tuple[int, int]]:
    """Degrees and multiplicities of the squarefree factors of ``p``.

    Each entry is ``(degree of factor, multiplicity)``, sorted by
    multiplicity then degree.  The multiplicity-weighted degrees sum to
    ``deg p``.
    """
    profile = [(q.degree, m) for q, m in squarefree_decomposition(p)]
    profile.sort()
    profile.sort(key=lambda t: t[1])
    return profile


def hj_expand(numerator: int, denominator: int) -> list[int]:
    """Negative-regular continued fraction of ``numerator/denominator``.

    For coprime ``numerator > denominator >= 1`` returns the unique
    ``[b_1, ..., b_s]`` with every ``b_i >= 2`` such that

        numerator/denominator = b_1 - 1/(b_2 - 1/(... - 1/b_s)).

    Each step takes ``b = ceil(n/d)`` and moves to ``n, d = d, b*d - n``.
    A step with ``b = 2`` keeps ``e = n - d`` fixed, so an entry 2 starts
    a run of ``k = d // e`` twos, which is taken in one step.
    """
    n, d = numerator, denominator
    if d < 1 or n <= d:
        raise BadInput(f"expansion needs numerator > denominator >= 1, got {n}/{d}")
    if gcd(n, d) != 1:
        raise BadInput(f"{n}/{d} is not in lowest terms")
    entries = []
    while d:
        b = -(-n // d)
        if b == 2:
            e = n - d
            k = d // e
            if k > 1:
                entries += [2] * k
                n, d = d - (k - 1) * e, d - k * e
                continue
        entries.append(b)
        n, d = d, b * d - n
    return entries


def hj_evaluate(entries: Iterable[int]) -> Fraction:
    """Evaluate ``b_1 - 1/(b_2 - 1/(...))`` exactly.

    The tail from the last entry is kept as the coprime pair ``p/q``
    through the convergent recurrence ``p, q = b*p - q, p``, starting
    from ``1/0``, and one Fraction is built at the end.  A tail that
    evaluates to zero before another entry raises ZeroDivisionError.
    """
    chain = tuple(entries)
    if not chain:
        raise BadInput("empty continued fraction")
    p, q = 1, 0
    for b in reversed(chain):
        if p == 0:
            raise ZeroDivisionError("continued fraction has a zero tail")
        p, q = b * p - q, p
    return Fraction(p, q)
