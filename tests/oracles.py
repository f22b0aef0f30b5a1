"""Independent oracles used by the test suite.

The Milnor oracle computes the dimension of C[x,y,z]/(f, f_x, f_y, f_z)
from scratch: a textbook Buchberger loop in graded lexicographic order,
followed by a staircase count of standard monomials.  Nothing here
shares code with the catalogued bases it is used to validate: the
equation's term pairs are read into Fraction term tables, and the partial
derivatives are taken here.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, prod

from classt.compactify import RootConfig, build_cyclic
from classt.quotients import QuotientSingularity, normalize
from classt.wps import WeightedProjectiveSpace

Monomial = tuple[int, int, int]
Terms = dict[Monomial, Fraction]


def _key(e: Monomial) -> tuple[int, Monomial]:
    return (e[0] + e[1] + e[2], e)


def _leading(terms: Terms) -> Monomial:
    return max(terms, key=_key)


def _divides(a: Monomial, b: Monomial) -> bool:
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


def _sub_shift(p: Terms, factor: Fraction, shift: Monomial, g: Terms) -> Terms:
    out = dict(p)
    for e, c in g.items():
        key = (e[0] + shift[0], e[1] + shift[1], e[2] + shift[2])
        v = out.get(key, Fraction(0)) - factor * c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def normal_form(terms: Terms, basis: list[Terms]) -> Terms:
    """Full multivariate division remainder of ``terms`` by ``basis``."""
    p = dict(terms)
    remainder: Terms = {}
    while p:
        lt = _leading(p)
        for g in basis:
            ltg = _leading(g)
            if _divides(ltg, lt):
                factor = p[lt] / g[ltg]
                shift = (lt[0] - ltg[0], lt[1] - ltg[1], lt[2] - ltg[2])
                p = _sub_shift(p, factor, shift, g)
                break
        else:
            remainder[lt] = p.pop(lt)
    return remainder


def _s_poly(f: Terms, g: Terms) -> Terms:
    lf, lg = _leading(f), _leading(g)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    sf = tuple(l - a for l, a in zip(lcm, lf))
    sg = tuple(l - a for l, a in zip(lcm, lg))
    out: Terms = {}
    for e, c in f.items():
        key = (e[0] + sf[0], e[1] + sf[1], e[2] + sf[2])
        out[key] = out.get(key, Fraction(0)) + c / f[lf]
    for e, c in g.items():
        key = (e[0] + sg[0], e[1] + sg[1], e[2] + sg[2])
        v = out.get(key, Fraction(0)) - c / g[lg]
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return {e: c for e, c in out.items() if c}


def groebner_basis(gens: list[Terms]) -> list[Terms]:
    basis = [dict(g) for g in gens if g]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        lf, lg = _leading(basis[i]), _leading(basis[j])
        # Buchberger's coprimality criterion: disjoint leading supports
        # reduce to zero automatically.
        if all(min(a, b) == 0 for a, b in zip(lf, lg)):
            continue
        r = normal_form(_s_poly(basis[i], basis[j]), basis)
        if r:
            basis.append(r)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return basis


def standard_monomials(basis: list[Terms]) -> list[Monomial]:
    """Monomials outside the leading-term ideal; raises if infinite."""
    leads = [_leading(g) for g in basis]
    bounds = []
    for axis in range(3):
        pures = [
            l[axis]
            for l in leads
            if all(l[k] == 0 for k in range(3) if k != axis)
        ]
        if not pures:
            raise ValueError("quotient is not finite dimensional")
        bounds.append(min(pures))
    out = []
    for i in range(bounds[0]):
        for j in range(bounds[1]):
            for k in range(bounds[2]):
                e = (i, j, k)
                if not any(_divides(l, e) for l in leads):
                    out.append(e)
    out.sort(key=_key)
    return out


def term_table(pairs) -> Terms:
    """``((i, j, k), coefficient)`` pairs as a table of nonzero Fractions."""
    table = {tuple(e): Fraction(c) for e, c in pairs}
    return {e: c for e, c in table.items() if c}


def partial_derivative(terms: Terms, var: int) -> Terms:
    """Derivative with respect to variable 0, 1 or 2."""
    out: Terms = {}
    for e, c in terms.items():
        if e[var]:
            shifted = list(e)
            shifted[var] -= 1
            out[tuple(shifted)] = c * e[var]
    return out


def _jacobian_generators(pairs) -> list[Terms]:
    f = term_table(pairs)
    return [f] + [partial_derivative(f, var) for var in range(3)]


def milnor_quotient_dim(pairs) -> int:
    """Dimension of the quotient by ``(f, f_x, f_y, f_z)`` for the
    equation ``f`` given by its term pairs."""
    return len(standard_monomials(groebner_basis(_jacobian_generators(pairs))))


def monomials_independent(monomials: list[Monomial], pairs) -> bool:
    """Are the residue classes of the monomials linearly independent in
    the quotient by ``(f, f_x, f_y, f_z)``?"""
    gb = groebner_basis(_jacobian_generators(pairs))
    std = standard_monomials(gb)
    index = {e: i for i, e in enumerate(std)}
    rows = []
    for mono in monomials:
        nf = normal_form({tuple(mono): Fraction(1)}, gb)
        row = [Fraction(0)] * len(std)
        for e, c in nf.items():
            if e not in index:
                return False
            row[index[e]] = c
        rows.append(row)
    return _rank(rows) == len(monomials)


def _rank(rows: list[list[Fraction]]) -> int:
    mat = [row[:] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [v - factor * p for v, p in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def poly_product(factors) -> list[Fraction]:
    """Product of coefficient lists (lowest degree first), one Fraction
    operation at a time, with trailing zeros dropped."""
    out = [Fraction(1)]
    for f in factors:
        acc = [Fraction(0)] * max(len(out) + len(f) - 1, 0)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                acc[i + j] += a * b
        out = acc
    while out and not out[-1]:
        out.pop()
    return out


def exhaustive_inverse(m: int, n: int) -> int | None:
    """Search {1..n-1} directly for the inverse; None when absent."""
    if n == 1:
        return 0
    for u in range(1, n):
        if (m * u) % n == 1:
            return u
    return None


def is_equivalent(s1: QuotientSingularity, s2: QuotientSingularity) -> bool:
    """Isomorphism of germs: equal normalized forms, or inverse ones.

    Swapping the two coordinates replaces ``q`` by its inverse mod
    ``r``, so ``1/r(1, q)`` and ``1/r(1, q')`` agree as germs iff
    ``q' == q`` or ``q * q' == 1 (mod r)``.
    """
    a = normalize(s1)
    b = normalize(s2)
    if a.order != b.order:
        return False
    q = a.weights[1]
    qq = b.weights[1]
    return q == qq or (q * qq) % a.order == 1 % a.order


def is_well_formed(space: WeightedProjectiveSpace) -> bool:
    """No weight shares a factor with the gcd of all the others."""
    ws = space.weights
    for i in range(len(ws)):
        g = 0
        for j, w in enumerate(ws):
            if j != i:
                g = gcd(g, w)
        if g > 1:
            return False
    return True


def fraction_adjunction_residual(model) -> Fraction:
    """``K.C + C^2 - (-2 + sum (1 - 1/r_i))`` with ``K.C = -beta C^2``,
    built up one Fraction operation at a time."""
    csq = model.curve.self_intersection
    kc = -model.beta * csq
    target = Fraction(-2)
    for r in model.curve.orbifold_points:
        target += 1 - Fraction(1, r)
    return kc + csq - target


def _bezout(values: list[int]) -> tuple[int, list[int]]:
    """``g = gcd(values)`` and integers ``c`` with ``sum c_k v_k = g``."""
    g, coeffs = 0, []
    for v in values:
        # Extended Euclid on (g, v): x*g + y*v = gcd(g, v).
        r0, r1, x0, x1, y0, y1 = g, v, 1, 0, 0, 1
        while r1:
            k = r0 // r1
            r0, r1, x0, x1, y0, y1 = r1, r0 - k * r1, x1, x0 - k * x1, y1, y0 - k * y1
        g, coeffs = r0, [c * x0 for c in coeffs] + [y0]
    return g, coeffs


def same_weighted_point(weights, p, q) -> bool:
    """Whether the rational points ``p`` and ``q`` are one point of the
    complex weighted projective space with these weights.

    On the common support put ``l_k = q_k / p_k``, ``g = gcd(w_k)`` and
    ``mu = prod l_k^(c_k)`` for Bezout coefficients ``sum c_k w_k = g``.
    A ``t`` with ``t^(w_k) = l_k`` has ``t^g = mu``, and any ``g``-th root
    of ``mu`` is such a ``t`` iff ``l_k = mu^(w_k / g)`` for every ``k``.
    """
    support = [k for k, x in enumerate(p) if x]
    if support != [k for k, x in enumerate(q) if x]:
        return False
    ratios = [Fraction(q[k]) / p[k] for k in support]
    ws = [weights[k] for k in support]
    g, coeffs = _bezout(ws)
    mu = prod(l**c for l, c in zip(ratios, coeffs))
    return all(l == mu ** (w // g) for l, w in zip(ratios, ws))


def product_residue(model, coords) -> Fraction:
    """``x*y - prod_j (z^n - a_j w^c)^(k_j)`` at Fraction coordinates,
    one Fraction operation at a time."""
    x, y, z, w = coords
    zn, wc = z**model.n, w**model.c
    product = Fraction(1)
    for root, k in model.roots.pairs:
        product *= (zn - root * wc) ** k
    return x * y - product


# The sampled roundtrip draws chart coordinates from this pool and rescales
# its k-th lift by the k-th scaling, cycled.
_ROUNDTRIP_POOL = tuple((num, den) for num in range(-6, 7) for den in (1, 2, 3))
_ROUNDTRIP_SCALES = tuple(Fraction(t) for t in ("2", "-2", "1/2", "-3/2", "3"))


def roundtrip_oracle(model, sample_count: int, seed: int) -> list[tuple]:
    """Samples of the projection roundtrip, computed with Fractions.

    Draws ``(w', r)`` from ``random.Random(seed)``, two choices per
    attempt, and rejects ``w' = 0`` and ``P(r^n) = 0`` with ``P(r^n)`` the
    root product.  The chart image ``[x : r : 1]``,
    ``x = w' P(r^n)``, lifts to ``[x : 1/w' : r : 1]``, which is rescaled
    by ``t^(a, b, c, n)``.  Each sample gives ``(index, r, residue, plane)``:
    the index of its scaling, the drawn ``r``, whether the rescaled
    lift lies on the surface (``product_residue``), and whether its
    projection ``[x : z : w]`` is the chart image in ``P(a, c, n)``
    (``same_weighted_point``).  The list stops after the first sample that
    fails either.
    """
    rng = random.Random(seed)
    a, b, c, n = model.ambient.weights
    scalings = [(t**a, t**b, t**c, t**n) for t in _ROUNDTRIP_SCALES]
    samples: list[tuple] = []
    while len(samples) < sample_count:
        w1 = Fraction(*rng.choice(_ROUNDTRIP_POOL))
        r = Fraction(*rng.choice(_ROUNDTRIP_POOL))
        if not w1:
            continue
        rn = r**n
        x = w1 * prod((rn - root) ** k for root, k in model.roots.pairs)
        if not x:
            continue
        index = len(samples) % len(scalings)
        ta, tb, tc, tn = scalings[index]
        lift = (x * ta, tb / w1, r * tc, tn)
        residue = product_residue(model, lift) == 0
        plane = same_weighted_point((a, c, n), (lift[0], lift[2], lift[3]), (x, r, Fraction(1)))
        samples.append((index, r, residue, plane))
        if not (residue and plane):
            break
    return samples


def expansion_oracle(model) -> bool:
    """Whether the expanded polynomial is the root product, compared with
    Fractions at ``x = 0..deg``: the coefficients summed term by term
    against ``prod_j (x - a_j)^(k_j)``.  Both sides have degree at most
    ``deg``, so agreeing at ``deg + 1`` points makes them equal."""
    coeffs = model.roots.polynomial.coeffs
    deg = max(len(coeffs) - 1, model.roots.total)
    for x in map(Fraction, range(deg + 1)):
        value = sum((c * x**i for i, c in enumerate(coeffs)), Fraction(0))
        if value != prod(((x - root) ** k for root, k in model.roots.pairs), start=Fraction(1)):
            return False
    return True


def _hj_chain(r: int, q: int) -> list[int]:
    """Entries ``b_i`` of ``r/q = b_1 - 1/(b_2 - ...)`` for ``0 < q < r``."""
    chain = []
    while q:
        b = -(-r // q)
        chain.append(b)
        r, q = q, b * q - r
    return chain


def noether_euler(model) -> Fraction:
    """``e(Mbar)`` from Noether's formula on the minimal resolution.

    The resolution ``Y`` is a smooth rational surface, so ``K_Y^2 + e(Y)
    = 12``.  With ``K = -beta C`` on ``Mbar``, each boundary germ
    ``1/r(1, q)`` with chain ``b`` of length ``l`` and ``q' = q^-1 mod r``
    changes ``K^2`` by ``2 - (2 + q + q')/r - sum(b_i - 2)`` and ``e`` by
    ``l``; the interior ``A_k`` points change neither sum.  So
    ``e(Mbar) = 12 - beta^2 C^2 - sum_p (2 - (2 + q + q')/r - sum(b_i - 2) + l)``.
    """
    total = 12 - model.beta**2 * model.curve.self_intersection
    for _, germ in model.infinity_singularities:
        r, (w1, w2) = germ.order, germ.weights
        if r == 1:
            continue
        if gcd(w1, r) != 1:
            w1, w2 = w2, w1
        q = w2 * pow(w1, -1, r) % r
        chain = _hj_chain(r, q)
        q_inv = pow(q, -1, r)
        total -= 2 - Fraction(2 + q + q_inv, r) - sum(b - 2 for b in chain) + len(chain)
    return total


def box_params(max_d: int, max_n: int, max_c: int):
    """``(d, n, m, c, a)`` of every model of the sweep box, in sweep order,
    from the closed form rather than ``enumerate_weights``: ``gcd(m, n) =
    gcd(c, n) = 1``, and ``a`` in ``1..dnc-1`` with ``a*m = c (mod n)``
    and ``gcd(a, c) = 1``."""
    for d in range(1, max_d + 1):
        for n in range(1, max_n + 1):
            for m in range(1, n + 1):
                for c in range(1, max_c + 1):
                    if gcd(m, n) == gcd(c, n) == 1:
                        for a in range(1, d * n * c):
                            if (a * m - c) % n == 0 and gcd(a, c) == 1:
                                yield d, n, m, c, a


def box_models(max_d: int, max_n: int, max_c: int):
    """The models of ``box_params`` with the simple roots ``1..d``."""
    roots = {d: RootConfig.simple(range(1, d + 1)) for d in range(1, max_d + 1)}
    for d, n, m, c, a in box_params(max_d, max_n, max_c):
        yield build_cyclic(d, n, m, c, a, roots[d])
