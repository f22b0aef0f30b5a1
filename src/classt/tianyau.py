"""Numerical hypotheses for complete Ricci-flat metrics on the
complement of the boundary curve.

The existence theorem asks for a compact surface with an effective
anticanonical divisor ``D`` such that ``-K = beta * D`` with
``beta > 1``, all singular points sitting on ``D`` with smooth
uniformized neighbourhoods, and ``D`` almost ample.  The metric on the
complement then decays like ``r^(-2/(beta - 1))``.  Everything checked
here is exact arithmetic on the model; the one identity that ties all
the invariants together is the orbifold adjunction formula on ``D``:

    K.D + D^2 = -2 + sum_i (1 - 1/r_i)

over the orbifold points of ``D``, which must vanish identically for
every model this package constructs; its residual is summed on integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .compactify import CompactificationModel


@dataclass(frozen=True)
class TianYauReport:
    """Exact record of the hypothesis checks for one model; verdicts are read on integers."""

    beta: Fraction
    singularities_on_divisor: bool
    C_squared: Fraction
    adjunction_residual: Fraction

    @property
    def beta_gt_one(self) -> bool:
        return self.beta.numerator > self.beta.denominator

    @property
    def decay_rhs(self) -> Fraction | None:
        """``2/(beta - 1) = 2q/(p - q)`` for ``beta = p/q``, the decay exponent, when ``beta > 1``."""
        p, q = self.beta.numerator, self.beta.denominator
        return Fraction(2 * q, p - q) if p > q else None

    @property
    def all_satisfied(self) -> bool:
        return self.beta_gt_one and self.singularities_on_divisor and not self.adjunction_residual.numerator


def orbifold_adjunction_residual(model: CompactificationModel) -> Fraction:
    """``K.C + C^2`` minus the orbifold Euler side ``-2 + sum (1 - 1/r_i)``.

    Uses ``K.C = -beta * C^2`` and the recorded orbifold point orders
    of the boundary curve; zero for every correctly assembled model.
    Summed on integers over the denominator ``den(beta) den(C^2) prod r_i``.
    """
    beta, csq, orders = model.beta, model.curve.self_intersection, model.curve.orbifold_points
    r_prod = prod(orders)
    scale = beta.denominator * csq.denominator
    total = (beta.denominator - beta.numerator) * csq.numerator * r_prod
    total += scale * ((2 - len(orders)) * r_prod + sum(r_prod // r for r in orders))
    return Fraction(total, scale * r_prod)


def check_hypotheses(model: CompactificationModel) -> TianYauReport:
    """Evaluate the numerical hypotheses on a model.

    ``singularities_on_divisor`` is true when no interior singular
    point remains (all quotient points then lie on the boundary curve
    by construction).  Almost ampleness and admissibility are not
    separate checks: CurveAtInfinity rejects ``C^2 <= 0``, and the
    quotient points at infinity have smooth uniformized neighbourhoods
    tautologically.
    """
    return TianYauReport(
        beta=model.beta,
        singularities_on_divisor=not model.interior_singularities,
        C_squared=model.curve.self_intersection,
        adjunction_residual=orbifold_adjunction_residual(model),
    )
