"""Parameter sweeps over the model family, with per-suite tallies.

Each suite walks a bounded region of the ``(d, n, m, c, a)`` parameter
space (plus the D/E catalogue where it applies), re-derives an invariant
by a route other than the one that built the model, and records any
mismatch; what the builders guarantee by construction is not re-checked.
The suites are what the command line ``sweep`` subcommand runs and what
the acceptance tests call directly.  The five suites over the ``(d, n, m,
c, a)`` box are one walk, which enumerates each weight tuple and builds
each box model once for all of them.  Each of those suites on its own
returns its slice of a full walk, with ``run_all``'s blow-up count and
seed 0 where it does not take them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Iterator

from .arith import hj_evaluate, mod_inverse
from .birational import blowup_at_R2, plane_points, roundtrip_check, target_plane
from .compactify import (
    CompactificationModel,
    RootConfig,
    WeightEnumeration,
    build_cyclic,
    build_rdp,
    enumerate_weights,
    minimal_resolution,
    smoothness_status,
)
from .errors import BadInput
from .quotients import QuotientSingularity, detect_class_T, hj_resolution
from .tianyau import orbifold_adjunction_residual

_MAX_RECORDED = 12
# Sizes the command line does not set: blow-up models sampled, largest germ
# order (class T and chains), largest D index.
_BLOWUP_COUNT = 20
_MAX_R = 80
_MAX_DK = 12


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failure_count: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def tick(self) -> None:
        self.cases += 1

    def fail(self, message: str) -> None:
        self.failure_count += 1
        if len(self.failures) < _MAX_RECORDED:
            self.failures.append(message)


def cyclic_tuples(max_d: int, max_n: int, max_c: int) -> Iterator[tuple[int, int, int, int]]:
    """All ``(d, n, m, c)`` with ``gcd(m, n) = gcd(c, n) = 1`` in range."""
    for d in range(1, max_d + 1):
        for n in range(1, max_n + 1):
            for m in range(1, n + 1):
                if gcd(m, n) != 1:
                    continue
                for c in range(1, max_c + 1):
                    if gcd(c, n) != 1:
                        continue
                    yield d, n, m, c


def default_roots(d: int) -> RootConfig:
    return RootConfig.simple(range(1, d + 1))


def rdp_models() -> Iterator[CompactificationModel]:
    for k in range(4, _MAX_DK + 1):
        yield build_rdp("D", k)
    for k in (6, 7, 8):
        yield build_rdp("E", k)


def _check_family(out: SuiteResult, d: int, n: int, m: int, enum: WeightEnumeration) -> None:
    out.tick()
    u = mod_inverse(m, n)
    expected = [(u + k * n, (d - k) * n - u) for k in range(d)]
    got = enum.pair_tuples()
    if got != expected:
        out.fail(f"(d,n,m)=({d},{n},{m}): pairs {got} != {expected}")


def _check_residual(out: SuiteResult, model: CompactificationModel) -> None:
    out.tick()
    res = orbifold_adjunction_residual(model)
    if res != 0:
        out.fail(f"{model.label()}: residual {res}")


# |Gamma| and |H_1| of the link S^3/Gamma for the binary tetrahedral,
# octahedral and icosahedral groups of E6, E7 and E8.
_E_GROUPS = {6: (24, 3), 7: (48, 2), 8: (120, 1)}


def _check_ale_end(out: SuiteResult, model: CompactificationModel) -> None:
    """The end of a D/E model against its ALE group, with no tick of its
    own: the link of ``C`` is ``S^3/Gamma``, so with ``e = C^2`` and
    ``chi = 2 - sum(1 - 1/r_i)`` over the orbifold points, ``4e/chi^2 =
    |Gamma|`` and ``e * prod r_i = |H_1|``.  ``Gamma`` comes from the ADE
    label: binary dihedral of order ``4(k - 2)`` with ``|H_1| = 4`` for
    ``D_k``, ``_E_GROUPS`` for ``E``."""
    ade, index = model.descriptor.ade, model.descriptor.index
    order, h1 = (4 * (index - 2), 4) if ade == "D" else _E_GROUPS[index]
    e, orders = model.curve.self_intersection, model.curve.orbifold_points
    chi = 2 - sum(1 - Fraction(1, r) for r in orders)
    if 4 * e / chi**2 != order or e * prod(orders) != h1:
        out.fail(f"{model.label()}: end at infinity is not S^3/Gamma with |Gamma| = {order}, |H_1| = {h1}")


def _check_topology(out: SuiteResult, model: CompactificationModel, a_indices: tuple[int, ...]) -> None:
    out.tick()
    model_indices = tuple(sorted(k for _, k in model.interior_singularities))
    if a_indices != model_indices:
        out.fail(f"{model.label()}: fibre status {a_indices} != {model_indices}")
    for lbl, chain in minimal_resolution(model):
        if any(e != 2 for e in chain.entries):
            out.fail(f"{model.label()}: chain at {lbl} not all (-2)")


def _check_roundtrip(out: SuiteResult, model: CompactificationModel) -> None:
    out.tick()
    if not roundtrip_check(model):
        out.fail(f"{model.label()}: roundtrip mismatch")


def _check_blowup(out: SuiteResult, model: CompactificationModel) -> None:
    out.tick()
    blow = blowup_at_R2(model)
    if blow.new_singularities != plane_points(model):
        out.fail(f"{model.label()}: blow-up points {blow.new_singularities}")
    # K^2 of Mbar blown up at R2, two ways, as plane/acn and centre/(den*bcn),
    # compared on integers.  The target plane P(a, c, n) has
    # K^2 = (a + c + n)^2/(acn), less one per blow-up.  On Mbar, K = -beta C
    # gives beta^2 C^2, and blowing up the centre 1/b(c, n) with weights
    # (c, n) (E^2 = -b/(cn), discrepancy (c + n)/b - 1) takes away
    # (c + n - b)^2/(bcn); the centre is read off the charts.
    a, c, n = target_plane(model).weights
    (order_c, (b, _)), (order_n, _) = blow.chart_actions
    beta, csq = model.beta, model.curve.self_intersection
    acn, bcn, den = a * c * n, b * order_c * order_n, beta.denominator**2 * csq.denominator
    plane = (a + c + n) ** 2 - model.roots.total * acn
    centre = beta.numerator**2 * csq.numerator * bcn - (order_c + order_n - b) ** 2 * den
    if plane * den * bcn != centre * acn:
        sides = Fraction(plane, acn), Fraction(centre, den * bcn)
        out.fail(f"{model.label()}: K^2 {sides[0]} from the plane, {sides[1]} from the blow-up")


def _walk_box(max_d: int, max_n: int, max_c: int, seed: int, count: int) -> list[SuiteResult]:
    """Walk ``cyclic_tuples`` once and run the five per-box suites.

    Each tuple's weights are enumerated once, and only their ``pairs`` are
    read, so no reduction is made; each box model is built once.  The
    residual and the roundtrip run on every model, the topology on the
    first pair of each tuple and its fully degenerate model, and the
    weight family on the ``c = 1, n >= 2`` tuples.  The D/E residuals,
    each with its ALE group check, and the blow-up suite's ``count``
    models, sampled from the box's models with ``random.Random(seed)``,
    run after the walk.
    """
    fam, res, top, rt, blo = map(SuiteResult, (
        "weight-family", "adjunction-residual", "topology", "projection-roundtrip", "blowup-singularities",
    ))
    # Per d: the simple roots, the fully degenerate roots and each one's
    # status, so each polynomial is expanded, and its expansion decided,
    # once per walk.  Every d has tuples: n = m = c = 1 is one.
    configs = {
        d: [(roots, smoothness_status(roots)) for roots in (default_roots(d), RootConfig.of([(1, d)]))]
        for d in range(1, max_d + 1)
    }
    box: list[CompactificationModel] = []
    for d, n, m, c in cyclic_tuples(max_d, max_n, max_c):
        (roots, status), (degenerate, degenerate_status) = configs[d]
        enum = enumerate_weights(d, n, m, c)
        if c == 1 and n >= 2:
            _check_family(fam, d, n, m, enum)
        for k, pair in enumerate(enum.pairs):
            model = build_cyclic(d, n, m, c, pair.a, roots)
            _check_residual(res, model)
            if k == 0:
                _check_topology(top, model, status)
                _check_topology(top, build_cyclic(d, n, m, c, pair.a, degenerate), degenerate_status)
            _check_roundtrip(rt, model)
            box.append(model)
    for model in rdp_models():
        _check_residual(res, model)
        _check_ale_end(res, model)
    for model in random.Random(seed).sample(box, min(count, len(box))):
        _check_blowup(blo, model)
    return [fam, res, top, rt, blo]


def weight_family_suite(max_d: int, max_n: int) -> SuiteResult:
    """At ``c = 1`` and ``n >= 2`` the admissible weights must be exactly
    the ``d`` pairs ``(u + k*n, (d - k)*n - u)`` for ``k = 0..d-1``."""
    return _walk_box(max_d, max_n, 1, 0, _BLOWUP_COUNT)[0]


def residual_suite(max_d: int, max_n: int, max_c: int) -> SuiteResult:
    """The orbifold adjunction residual of every box model and D/E model:
    ``K.C + C^2`` from ``beta`` and ``C^2``, read off the ambient
    intersection theory, against the orbifold Euler side, read off the
    boundary point orders.  Each D/E case also checks its end at infinity
    against the ALE group of its label (``_check_ale_end``)."""
    return _walk_box(max_d, max_n, max_c, 0, _BLOWUP_COUNT)[1]


def topology_suite(max_d: int, max_n: int, max_c: int) -> SuiteResult:
    """Interior ``A_k`` points, for simple roots and for one fully
    degenerate root configuration per parameter tuple (on its first
    weight pair): the model's, read off the root multiplicities, must
    match ``smoothness_status``, read off the squarefree decomposition of
    the expanded polynomial, and the minimal resolution must replace each
    by ``(-2)``-curves.  The two root configurations and their status are
    built once per ``d``.
    """
    return _walk_box(max_d, max_n, max_c, 0, _BLOWUP_COUNT)[2]


def roundtrip_suite(max_d: int, max_n: int, max_c: int) -> SuiteResult:
    """The ``roundtrip_check`` of every model: the weights against the
    degree of the root product, and the expanded polynomial against its
    root factors."""
    return _walk_box(max_d, max_n, max_c, 0, _BLOWUP_COUNT)[3]


def blowup_suite(max_d: int, max_n: int, max_c: int, count: int, seed: int) -> SuiteResult:
    """``count`` models sampled from the box: the chart actions
    ``1/c(b, -n)`` and ``1/n(b, -c)`` of the blow-up at ``R2``, built
    from ``b``, must normalize to the plane's coordinate points
    ``1/c(a, n)`` and ``1/n(a, c)``, built from ``a``; and ``K^2`` of the
    blow-up must agree from the plane ``P(a, c, n)`` blown up once per
    root multiplicity, ``(a + c + n)^2/(acn) - d``, and from the model,
    ``beta^2 C^2 - (c + n - b)^2/(bcn)``."""
    return _walk_box(max_d, max_n, max_c, seed, count)[4]


def brute_force_class_t(r: int, q: int) -> list[tuple[int, int, int]]:
    """Enumerate ``(d, n, m)`` readings of ``1/r(1, q)`` directly.

    Checks ``d*n*m - 1 == q (mod r)`` for every ``n`` with ``n^2 | r``
    and every ``m`` prime to ``n``; used as the oracle against
    detect_class_T.  Raises BadInput for ``r < 1``.
    """
    if r < 1:
        raise BadInput(f"group order must be positive, got {r}")
    sols = []
    for n in range(isqrt(r), 0, -1):
        if r % (n * n):
            continue
        d = r // (n * n)
        for m in range(1, n + 1):
            if gcd(m, n) == 1 and (d * n * m - 1 - q) % r == 0:
                sols.append((d, n, m))
    return sols


def class_t_suite(max_r: int) -> SuiteResult:
    out = SuiteResult("class-t-detection")
    for r in range(1, max_r + 1):
        qs = [1] if r == 1 else [q for q in range(1, r) if gcd(q, r) == 1]
        for q in qs:
            out.tick()
            s = QuotientSingularity(r, (1, q))
            found = detect_class_T(s)
            expected = brute_force_class_t(r, q)
            if not expected:
                if found is not None:
                    out.fail(f"1/{r}(1,{q}): false positive {found}")
                continue
            if found is None:
                out.fail(f"1/{r}(1,{q}): missed {expected}")
                continue
            if list(found.solutions) != expected:
                out.fail(f"1/{r}(1,{q}): {found.solutions} != {expected}")
            if (found.d, found.n, found.m) != expected[0]:
                out.fail(f"1/{r}(1,{q}): primary reading off")
    return out


def hj_suite(max_r: int) -> SuiteResult:
    """Resolution chains re-evaluate to ``r/q`` with all entries >= 2.

    ``hj_evaluate`` returns a Fraction in lowest terms with a positive
    denominator and ``gcd(q, r) = 1``, so the value is ``r/q`` exactly
    when its numerator and denominator are ``(r, q)``; every chain has an
    entry, so ``min`` is defined.
    """
    out = SuiteResult("hj-chains")
    for r in range(2, max_r + 1):
        for q in range(1, r):
            if gcd(q, r) != 1:
                continue
            out.tick()
            entries = hj_resolution(QuotientSingularity(r, (1, q))).entries
            if min(entries) < 2:
                out.fail(f"1/{r}(1,{q}): entry below 2")
            value = hj_evaluate(entries)
            if (value.numerator, value.denominator) != (r, q):
                out.fail(f"1/{r}(1,{q}): chain does not evaluate to {r}/{q}")
    return out


def run_all(max_d: int, max_n: int, max_c: int, seed: int = 0) -> list[SuiteResult]:
    """Every suite, with one walk of the box for the five per-box suites."""
    box = _walk_box(max_d, max_n, max_c, seed, _BLOWUP_COUNT)
    return [*box, class_t_suite(_MAX_R), hj_suite(_MAX_R)]
