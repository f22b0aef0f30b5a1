"""Seeded inputs for the classt benchmark, with their expected results.

Nothing here imports classt.  Every expected value is derived from a closed
form or a brute-force search written in this file, so a wrong answer from
the program cannot also make its own oracle wrong.
"""

from __future__ import annotations

import json
import random
from math import gcd, isqrt

# The acceptance sweep box (max_d, max_n, max_c); it holds 730 models.
BOX = (5, 6, 4)
BOX_MODELS = 730
BLOWUP_COUNT = 20
GERM_MAX_R = 250
CORPUS_CLASSIFY_MAX_R = 120
CORPUS_CLASSIFY_ROWS = 3800
CORPUS_BIRATIONAL_SAMPLES = 5
CORPUS_RDP_ROWS = 120
CORPUS_INVALID_PER_KIND = 120
CORPUS_CANARIES_PER_KIND = 3
# Row kind -> the expected field a canary row of that kind gets wrong.
CANARY_FIELDS = {"classify": "is_class_t", "build-cyclic": "degree", "check": "C2"}
SWEEP_MAX_R = 80
SWEEP_RDP_MODELS = 12  # D4..D12 and E6, E7, E8

def ratio(p: int, q: int) -> str:
    """``p/q`` in lowest terms with a positive denominator, as classt renders it."""
    g = gcd(p, q)
    if q < 0:
        g = -g
    return f"{p // g}/{q // g}"


def fraction_text(p: int, q: int) -> str:
    """``str(Fraction(p, q))``: ``p/q`` in lowest terms, or ``p`` when integral."""
    text = ratio(p, q)
    return text[:-2] if text.endswith("/1") else text


def unit_inverse(m: int, n: int) -> int:
    """Inverse of ``m`` modulo ``n``, and 0 for the trivial modulus."""
    return 0 if n == 1 else pow(m, -1, n)


def box_tuples(max_d: int, max_n: int, max_c: int):
    """``(d, n, m, c)`` with ``gcd(m, n) = gcd(c, n) = 1``, in sweep order."""
    for d in range(1, max_d + 1):
        for n in range(1, max_n + 1):
            for m in range(1, n + 1):
                if gcd(m, n) != 1:
                    continue
                for c in range(1, max_c + 1):
                    if gcd(c, n) == 1:
                        yield d, n, m, c


def admissible_a(d: int, n: int, m: int, c: int) -> list[int]:
    """Weights ``a`` with ``1 <= a < d*n*c``, ``a*m == c (mod n)``, ``gcd(a, c) = 1``."""
    return [a for a in range(1, d * n * c) if (a * m - c) % n == 0 and gcd(a, c) == 1]


def box_models() -> list[tuple[int, int, int, int, int]]:
    """Every ``(d, n, m, c, a)`` of the acceptance box, in sweep order."""
    models = [
        (d, n, m, c, a)
        for d, n, m, c in box_tuples(*BOX)
        for a in admissible_a(d, n, m, c)
    ]
    if len(models) != BOX_MODELS:
        raise RuntimeError(f"the box holds {len(models)} models, expected {BOX_MODELS}")
    return models


def class_t_readings(r: int, q: int) -> list[list[int]]:
    """Every ``[d, n, m]`` with ``r = d*n^2`` and ``q == d*n*m - 1 (mod r)``,
    largest ``n`` first."""
    out = []
    for n in range(isqrt(r), 0, -1):
        if r % (n * n):
            continue
        d = r // (n * n)
        for m in range(1, n + 1):
            if gcd(m, n) == 1 and (d * n * m - 1 - q) % r == 0:
                out.append([d, n, m])
    return out


def chain_value(entries) -> tuple[int, int]:
    """``(p, q)`` with ``p/q = b_1 - 1/(b_2 - ...)``, by the integer convergent
    recurrence ``p, q = b*p - q, p``."""
    p, q = 1, 0
    for b in reversed(entries):
        p, q = b * p - q, p
    return p, q


def _unit(rng: random.Random, r: int) -> int:
    while True:
        s = rng.randrange(1, r)
        if gcd(s, r) == 1:
            return s


def germs(seed: int) -> list[tuple[int, int, int, int]]:
    """Every germ ``1/r(1, q)`` with ``2 <= r <= 250``, shuffled, each given as
    ``(r, s, s*q mod r, q)`` for a random unit ``s`` so that normalization
    has work to do."""
    rng = random.Random(seed)
    out = []
    for r in range(2, GERM_MAX_R + 1):
        for q in range(1, r):
            if gcd(q, r) == 1:
                s = _unit(rng, r)
                out.append((r, s, s * q % r, q))
    rng.shuffle(out)
    return out


def _random_roots(rng: random.Random, d: int, total: int | None = None) -> list[tuple[int, int, int]]:
    """Distinct nonzero rational roots ``(p, q, k)`` whose multiplicities sum to
    ``total`` (default ``d``); about a third of the draws repeat a root."""
    total = d if total is None else total
    mults = []
    left = total
    while left:
        k = rng.randint(2, left) if left >= 2 and rng.random() < 0.35 else 1
        mults.append(k)
        left -= k
    seen = set()
    roots = []
    for k in mults:
        while True:
            p, q = rng.choice([i for i in range(-9, 10) if i]), rng.randint(1, 4)
            g = gcd(p, q)
            p, q = p // g, q // g
            if (p, q) not in seen:
                seen.add((p, q))
                roots.append((p, q, k))
                break
    return roots


def _roots_text(roots) -> str:
    return ",".join(f"{fraction_text(p, q)}:{k}" for p, q, k in roots)


def _model_expected(kind: str, d, n, m, c, a, roots) -> dict:
    b = d * n * c - a
    beta = ratio(c + n, n)
    c2 = ratio(d * n * n, a * b)
    smooth = all(k == 1 for _, _, k in roots)
    if kind == "build-cyclic":
        return {
            "degree": d * n * c,
            "ambient": f"P({a},{b},{c},{n})",
            "beta": beta,
            "C2": c2,
            "roots": _roots_text(roots),
            "fiber_smooth": smooth,
            "interior_singularities": [
                {"label": f"S_{j + 1}", "type": f"A_{k - 1}"}
                for j, (_, _, k) in enumerate(roots)
                if k >= 2
            ],
        }
    if kind == "check":
        return {
            "model": f"cyclic(d={d},n={n},m={m},c={c},a={a})",
            "beta": beta,
            "C2": c2,
            "beta_gt_one": True,
            "singularities_on_divisor": smooth,
            "decay_rhs": ratio(2 * n, c),
            "adjunction_residual": "0/1",
            "all_satisfied": smooth,
            "after_resolution_all_satisfied": True,
        }
    return {
        "target_plane": f"P({a},{c},{n})",
        "plane_points_match": True,
        "euler_count_consistent": True,
        "description": {"total_blowups": d},
        "roundtrip": {"samples": CORPUS_BIRATIONAL_SAMPLES, "passed": True},
    }


def _model_params(kind, d, n, m, c, a, roots) -> dict:
    params = {"d": d, "n": n, "m": m, "c": c, "a": a, "roots": _roots_text(roots)}
    if kind == "birational":
        params["samples"] = CORPUS_BIRATIONAL_SAMPLES
    return params


_RDP = {  # (type, index) -> weights (a, b, c), orbifold orders at infinity
    ("E", 6): ((3, 4, 6), (2, 3, 3)),
    ("E", 7): ((4, 6, 9), (2, 3, 4)),
    ("E", 8): ((6, 10, 15), (2, 3, 5)),
}


def _rdp_row(rng: random.Random, index_in_corpus: int) -> dict:
    if rng.random() < 0.6:
        ade, k = "D", rng.randint(4, 12)
        (a, b, c), orders = (k - 2, 2, k - 1), sorted((2, 2, k - 2))
        label = f"D_{k}"
    else:
        ade, k = "E", rng.choice((6, 7, 8))
        (a, b, c), orders = _RDP[(ade, k)]
        label = f"E{k}"
    degree = a + b + c - 1
    coeffs = [(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k)]
    return {
        "id": f"rdp-{index_in_corpus}",
        "kind": "build-rdp",
        "parameters": {"type": ade, "index": k, "coeffs": [fraction_text(*v) for v in coeffs]},
        "expected": {
            "label": f"rdp({label})",
            "degree": degree,
            "beta": "2/1",
            "C2": ratio(degree, a * b * c),
            "milnor_number": k,
            "coefficients": [ratio(*v) for v in coeffs],
            "curve": {"orbifold_point_orders": list(orders)},
        },
    }


def _invalid_row(rng, kind, models, index) -> dict:
    d, n, m, c, a = rng.choice(models)
    degree = d * n * c
    if rng.random() < 0.5:
        # Root multiplicities that do not sum to d.
        total = d + 1 if d == 1 or rng.random() < 0.5 else d - 1
        roots = _random_roots(rng, d, total)
        failed = ["man-cond", "adjunction-residual"]
    else:
        valid = set(admissible_a(d, n, m, c))
        bad = [x for x in range(-2, degree + 3) if x not in valid]
        a = rng.choice(bad)
        roots = _random_roots(rng, d)
        ok = {
            "hom": 1 <= a <= degree - 1,
            "action": (a * m - c) % n == 0,
            "div": gcd(c, n) == 1 and gcd(a, c) == 1,
        }
        failed = [t for t in ("hom", "action", "div") if not ok[t]] + ["adjunction-residual"]
    return {
        "id": f"invalid-{kind}-{index}",
        "kind": kind,
        "parameters": _model_params(kind, d, n, m, c, a, roots),
        "expected": {"conditions_failed": failed},
    }


def corpus_rows(seed: int) -> list[dict]:
    """The JSON-lines corpus: classify, enumerate, build-cyclic, check,
    birational and build-rdp rows, plus invalid model rows and canary rows."""
    rng = random.Random(seed)
    rows = []
    all_germs = [
        (r, q) for r in range(2, CORPUS_CLASSIFY_MAX_R + 1) for q in range(1, r) if gcd(q, r) == 1
    ]
    class_t = [g for g in all_germs if class_t_readings(*g)]
    others = [g for g in all_germs if not class_t_readings(*g)]
    chosen = class_t + rng.sample(others, CORPUS_CLASSIFY_ROWS - len(class_t))
    for r, q in chosen:
        s = _unit(rng, r)
        sols = class_t_readings(r, q)
        rows.append({
            "id": f"classify-{r}-{q}",
            "kind": "classify",
            "parameters": {"order": r, "weights": [s, s * q % r]},
            "expected": {
                "normalized": {"order": r, "weights": [1, q]},
                "is_class_t": bool(sols),
                "descriptor": dict(zip("dnm", sols[0])) if sols else None,
                "solutions": sols,
            },
        })
    for d, n, m, c in box_tuples(*BOX):
        pairs = admissible_a(d, n, m, c)
        rows.append({
            "id": f"enumerate-{d}-{n}-{m}-{c}",
            "kind": "enumerate",
            "parameters": {"d": d, "n": n, "m": m, "c": c},
            "expected": {
                "u": unit_inverse(m, n),
                "count": len(pairs),
                "pairs": [{"a": a, "b": d * n * c - a, "c": c} for a in pairs],
            },
        })
    models = box_models()
    for kind in ("build-cyclic", "check", "birational"):
        for d, n, m, c, a in models:
            roots = _random_roots(rng, d)
            params = _model_params(kind, d, n, m, c, a, roots)
            if kind == "birational":
                params["seed"] = rng.randrange(1 << 30)
            rows.append({
                "id": f"{kind}-{d}-{n}-{m}-{c}-{a}",
                "kind": kind,
                "parameters": params,
                "expected": _model_expected(kind, d, n, m, c, a, roots),
            })
        for i in range(CORPUS_INVALID_PER_KIND):
            rows.append(_invalid_row(rng, kind, models, i))
    for i in range(CORPUS_RDP_ROWS):
        rows.append(_rdp_row(rng, i))
    rows.extend(_canary_rows(rng, rows))
    rng.shuffle(rows)
    return rows


def _wrong(value):
    """A value of the same type as ``value`` that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    p, q = map(int, value.split("/"))
    return ratio(p + q, q)


def _canary_rows(rng: random.Random, rows: list[dict]) -> list[dict]:
    """Copies of a few seeded rows with one expected field made wrong; the
    id names the field."""
    out = []
    for kind, field in CANARY_FIELDS.items():
        for row in rng.sample(
            [r for r in rows if r["kind"] == kind and field in r["expected"]],
            CORPUS_CANARIES_PER_KIND,
        ):
            expected = dict(row["expected"])
            expected[field] = _wrong(expected[field])
            out.append({**row, "id": f"canary-{field}-{row['id']}", "expected": expected})
    return out


def canary_field(case_id: str) -> str | None:
    """The field a canary row gets wrong, or None for any other row."""
    if not case_id.startswith("canary-"):
        return None
    return case_id.split("-")[1]


def write_corpus(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def sweep_expected_cases() -> dict[str, int]:
    """Case count of each suite of ``classt sweep`` over the box."""
    max_d, max_n, max_c = BOX
    tuples = list(box_tuples(*BOX))
    phi = [sum(1 for q in range(1, r) if gcd(q, r) == 1) for r in range(SWEEP_MAX_R + 1)]
    return {
        "weight-family": sum(
            1 for d in range(1, max_d + 1) for n in range(2, max_n + 1)
            for m in range(1, n + 1) if gcd(m, n) == 1
        ),
        "adjunction-residual": BOX_MODELS + SWEEP_RDP_MODELS,
        "topology": 2 * sum(1 for t in tuples if admissible_a(*t)),
        "projection-roundtrip": BOX_MODELS,
        "blowup-singularities": BLOWUP_COUNT,
        "class-t-detection": 1 + sum(phi[2:]),
        "hj-chains": sum(phi[2:]),
    }
