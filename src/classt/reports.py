"""Report assembly and rendering.

Every command produces one report dictionary with the fixed shape

    {"schema_version", "id", "inputs", "outputs", "diagnostics"}

where diagnostics always carries the six named condition tags
("hom", "action", "div", "man-cond", "beta>1", "adjunction-residual"),
in that order.  A diagnostic reads "not applicable to this command"
exactly when the command runs no check for that tag.  Rationals are
rendered as "p/q" strings, singularities as {"order": r, "weights": [q1, q2]}.
Rendering is deterministic: reports are plain dicts assembled in a
fixed order, so identical inputs and seeds give byte-identical output.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Callable

from .arith import as_fraction, hj_evaluate
from .birational import blowup_at_R2, plane_points, roundtrip_check, target_plane
from .compactify import (
    CompactificationModel,
    RootConfig,
    _build_cyclic,
    build_rdp,
    enumerate_weights,
    weight_conditions,
)
from .errors import BadInput, ClassTError
from .quotients import (
    QuotientSingularity,
    detect_class_T,
    hj_resolution,
    monomial_str,
    normalize,
)
from .sweep import run_all
from .tianyau import TianYauReport, check_hypotheses

SCHEMA_VERSION = "1.0"

DIAGNOSTIC_TAGS = ("hom", "action", "div", "man-cond", "beta>1", "adjunction-residual")

# The diagnostic of a tag the command does not check.
_NOT_CHECKED = (True, "not applicable to this command")

# Caps on command inputs, shared by the command line and corpus rows, so
# no command runs unbounded; the library functions take any size.
_MAX_BOX = 10
_MAX_D_INDEX = 100
# The roundtrip rescales by t^(a, b, c, n) and tests the expansion of P at
# d + 1 points, so its integers grow with the degree d*n*c: a call at this
# degree took 0.04 s with d = 400 and under 0.0001 s with c = 400 or
# n = 400, best of 5 on a 2-CPU Xeon VM under Python 3.11.  The weight
# enumeration and the A_k chains of the interior points grow with the
# degree too.
_MAX_DEGREE = 400
# Each of d, n and c is bounded before their product is formed: a product
# past 4300 digits cannot be printed in the degree message.
_MAX_FACTOR = 10**6
# The roundtrip's integers grow with the roots' numerators and denominators
# too: a call at d = 400 took 0.04 s with the roots 1..400 and 0.12 s with
# the roots (1000 - j)/999 for j = 0..399 on the same VM.
_MAX_ROOT = 1000
# A resolution chain has up to order - 1 entries; the DOT form of the
# longest at this order is about 6 MB.
_MAX_ORDER = 100_000
# Fraction(str) builds the whole value before any cap above can look at it,
# and the value's digits grow with the text's exponent as well as with its
# length: "1e400000000" is 11 characters and 400 million digits (parsing it
# did not finish in 10 s), and a value past 4300 digits cannot be printed.
# So a root or coefficient text may spell at most this many digits, counted
# as its length plus the size of its exponent; every root within _MAX_ROOT
# needs fewer than 20.
_MAX_RATIONAL_TEXT = 100
# An error message quotes at most this many characters of a rejected text.
_QUOTED_TEXT = 20
_EXPONENT = re.compile(r"e([-+]?\d[\d_]*)", re.IGNORECASE)


def _check_range(name: str, value: int, low: int, high: int) -> None:
    if not low <= value <= high:
        raise BadInput(f"{name} must be between {low} and {high}, got {value}")


def _check_order(order: int) -> None:
    # A non-positive order is QuotientSingularity's error, with its own message.
    if order >= 1:
        _check_range("order", order, 1, _MAX_ORDER)


def _check_degree(d: int, n: int, c: int) -> None:
    # A non-positive d, n or c is the library's error, with its own message.
    if min(d, n, c) >= 1:
        for name, factor in (("d", d), ("n", n), ("c", c)):
            _check_range(name, factor, 1, _MAX_FACTOR)
        _check_range("degree d*n*c", d * n * c, 1, _MAX_DEGREE)


def _check_roots(roots: RootConfig) -> None:
    # RootConfig holds every root nonzero, so the largest is at least 1.
    largest = max(max(abs(r.numerator), r.denominator) for r in roots.roots)
    _check_range("largest root numerator or denominator", largest, 1, _MAX_ROOT)


def _check_rational_text(name: str, text: str) -> None:
    size = len(text)
    if size <= _MAX_RATIONAL_TEXT:
        exponent = _EXPONENT.search(text)
        if exponent:
            size += abs(int(exponent.group(1).replace("_", "")))
    if size > _MAX_RATIONAL_TEXT:
        quoted = text if len(text) <= _QUOTED_TEXT else text[:_QUOTED_TEXT] + "..."
        raise BadInput(
            f"{name} {quoted!r} spells more than {_MAX_RATIONAL_TEXT} digits "
            "(its length plus its exponent)"
        )


def _parse_coefficient(value: Any) -> Any:
    """A coefficient text as a Fraction, checked against the rational text
    cap first; any other value is left to ``build_rdp``."""
    if not isinstance(value, str):
        return value
    _check_rational_text("coefficient", value)
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadInput(f"cannot parse coefficient {value!r}") from exc


def rational_str(x: Fraction) -> str:
    f = as_fraction(x)
    return f"{f.numerator}/{f.denominator}"


def sing_json(s: QuotientSingularity) -> dict:
    return {"order": s.order, "weights": list(s.weights)}


@dataclass
class CommandReport:
    """A command's outputs and exit code, with the rest of its report on demand.

    ``rest()`` gives the report's id, inputs and the checks the command ran,
    and ``data`` assembles the full report from them, so a corpus row, which
    compares outputs only, and a DOT run build neither.  ``dot()`` renders
    the DOT form; None means no graph form.
    """

    outputs: dict
    exit_code: int
    rest: Callable[[], tuple[str, dict, dict[str, tuple[bool, str]]]]
    dot: Callable[[], str] | None = None

    @property
    def data(self) -> dict:
        case_id, inputs, checks = self.rest()
        return assemble(case_id, inputs, self.outputs, checks)


def assemble(case_id: str, inputs: dict, outputs: dict, checks: dict[str, tuple[bool, str]]) -> dict:
    """The report, with one diagnostic per tag of DIAGNOSTIC_TAGS, in that
    order: ``checks[tag]`` as ``(passed, detail)``, or a vacuous pass for a
    tag the command did not check."""
    diagnostics = []
    for tag in DIAGNOSTIC_TAGS:
        passed, detail = checks.get(tag, _NOT_CHECKED)
        diagnostics.append({"name": tag, "passed": passed, "detail": detail})
    return {
        "schema_version": SCHEMA_VERSION,
        "id": case_id,
        "inputs": inputs,
        "outputs": outputs,
        "diagnostics": diagnostics,
    }


def _cyclic_report(kind: str, params: tuple, extra_inputs: dict, finish) -> CommandReport:
    """Report of a command on the cyclic model ``params = (d, n, m, c, a, roots)``,
    the roots as text.

    The report checks the four weight conditions, "beta>1" and
    "adjunction-residual".  When a condition fails the outputs list
    the failed tags and the exit code is 1; otherwise the model is built and
    ``finish(model, its TianYauReport)`` gives the outputs, exit code and DOT.
    "beta>1" is derived, not tested: ``beta = (c + n)/n`` exceeds 1 because
    ``weight_conditions`` has already rejected ``n < 1`` and ``c < 1``.
    """
    d, n, m, c, a, text = params
    for entry in text.split(","):
        _check_rational_text("root entry", entry.strip())
    roots = RootConfig.parse(text)
    _check_degree(d, n, c)
    # hom needs 1 <= a <= d*n*c - 1 <= 399; a larger |a| only grows b = d*n*c - a.
    _check_range("a", a, -_MAX_DEGREE, _MAX_DEGREE)
    _check_roots(roots)
    conditions = weight_conditions(d, n, m, c, a, roots)
    report = None
    if all(x.passed for x in conditions):
        model = _build_cyclic(d, n, m, c, a, roots, conditions)
        report = check_hypotheses(model)
        outputs, exit_code, dot = finish(model, report)
    else:
        failed = [x.tag for x in conditions if not x.passed]
        outputs = {"conditions_failed": failed + ["adjunction-residual"]}
        exit_code, dot = 1, None

    def rest() -> tuple:
        checks = {x.tag: (x.passed, x.detail) for x in conditions}
        checks["beta>1"] = (True, f"beta = (c + n)/n = {rational_str(Fraction(c + n, n))}")
        checks["adjunction-residual"] = (
            (False, "model not constructed") if report is None else _residual_check(report.adjunction_residual)
        )
        inputs = {"d": d, "n": n, "m": m, "c": c, "a": a, "roots": roots.as_text(), **extra_inputs}
        return f"{kind}-{d}-{n}-{m}-{c}-{a}", inputs, checks
    return CommandReport(outputs, exit_code, rest, dot)


def _residual_check(res: Fraction) -> tuple[bool, str]:
    return res == 0, f"K.C + C^2 - orbifold Euler side = {rational_str(res)}"


def _model_outputs(model: CompactificationModel) -> dict:
    out = {
        "label": model.label(),
        "ambient": model.ambient.label(),
        "ambient_weights": list(model.ambient.weights),
        "degree": model.degree,
        "beta": rational_str(model.beta),
        "C2": rational_str(model.curve.self_intersection),
        "curve": {
            "self_intersection": rational_str(model.curve.self_intersection),
            "genus": model.curve.genus,
            "orbifold_point_orders": list(model.curve.orbifold_points),
        },
        "equation": model.equation_str(),
        "infinity_singularities": [
            {"label": lbl, **sing_json(s)} for lbl, s in model.infinity_singularities
        ],
        "interior_singularities": [
            {"label": lbl, "type": f"A_{k}"} for lbl, k in model.interior_singularities
        ],
    }
    if model.is_cyclic:
        out["fiber_smooth"] = not model.interior_singularities
        out["roots"] = model.roots.as_text()
    else:
        out["milnor_number"] = model.descriptor.milnor_number
        out["milnor_basis"] = [monomial_str(e) for e in model.descriptor.milnor_basis]
        out["coefficients"] = [rational_str(v) for v in model.coefficients]
    return out


def classify_report(order: int, weights: list[int]) -> CommandReport:
    _check_order(order)
    s = QuotientSingularity(order, tuple(weights))
    std = normalize(s)
    found = detect_class_T(std)
    outputs: dict[str, Any] = {
        "given": sing_json(s),
        "normalized": sing_json(std),
        "is_class_t": found is not None,
    }
    if found is None:
        outputs["variant"] = None
        outputs["descriptor"] = None
        outputs["solutions"] = []
    else:
        outputs["variant"] = "A" if found.is_a_type else "cyclic"
        outputs["descriptor"] = {
            "d": found.d,
            "n": found.n,
            "m": found.m,
            "u": found.u,
            "order": found.order,
            "label": found.label(),
        }
        outputs["solutions"] = [list(t) for t in found.solutions]

    def dot() -> str:
        if std.order == 1:
            return "graph resolution_chain {\n}\n"
        return render_chain_dot(std.label(), hj_resolution(std).entries)
    return CommandReport(outputs, 0, _germ_rest("classify", order, weights), dot)


def _germ_rest(kind: str, order: int, weights: list[int]) -> Callable[[], tuple]:
    """``rest`` of the reports on the germ ``1/order(weights)``."""
    return lambda: (
        f"{kind}-{order}-{weights[0]}-{weights[1]}",
        {"order": order, "weights": list(weights)},
        {},
    )


def enumerate_report(d: int, n: int, m: int, c: int) -> CommandReport:
    _check_degree(d, n, c)
    enum = enumerate_weights(d, n, m, c)
    outputs = {
        "u": enum.u,
        "count": len(enum.pairs),
        "pairs": [{"a": p.a, "b": p.b, "c": p.c} for p in enum.pairs],
        "reduced": [
            {"a": p.a, "b": p.b, "c": p.c, "reduced_from": list(p.reduced_from)}
            for p in enum.reduced
        ],
        "raw_count": enum.raw_count,
    }

    def rest() -> tuple:
        div = (True, f"gcd(m, n) = gcd({m}, {n}) = 1, gcd(c, n) = gcd({c}, {n}) = 1")
        return f"enumerate-{d}-{n}-{m}-{c}", {"d": d, "n": n, "m": m, "c": c}, {"div": div}
    return CommandReport(outputs, 0, rest)


def build_cyclic_report(d: int, n: int, m: int, c: int, a: int, roots: str) -> CommandReport:
    return _cyclic_report(
        "build-cyclic", (d, n, m, c, a, roots), {},
        lambda model, _: (_model_outputs(model), 0, lambda: render_model_dot(model)),
    )


def build_rdp_report(type: str, index: int, coeffs: list | None) -> CommandReport:
    if type == "D":
        _check_range("D-type index", index, 4, _MAX_D_INDEX)
    if coeffs is not None:
        coeffs = [_parse_coefficient(value) for value in coeffs]
    model = build_rdp(type, index, coeffs)
    residual = check_hypotheses(model).adjunction_residual

    def rest() -> tuple:
        checks = {
            "beta>1": (model.beta > 1, f"beta = {rational_str(model.beta)}"),
            "adjunction-residual": _residual_check(residual),
        }
        inputs = {"type": type, "index": index}
        if coeffs is not None:
            inputs["coeffs"] = [rational_str(v) for v in model.coefficients]
        return f"build-rdp-{type}{index}", inputs, checks
    exit_code = 0 if residual == 0 else 1
    return CommandReport(_model_outputs(model), exit_code, rest, lambda: render_model_dot(model))


def check_report(d: int, n: int, m: int, c: int, a: int, roots: str) -> CommandReport:
    return _cyclic_report("check", (d, n, m, c, a, roots), {}, _check_outputs)


def _check_outputs(model: CompactificationModel, report: TianYauReport) -> tuple:
    outputs = {
        "model": model.label(),
        "beta": rational_str(report.beta),
        "beta_gt_one": report.beta_gt_one,
        "singularities_on_divisor": report.singularities_on_divisor,
        # CurveAtInfinity rejects C^2 <= 0, so every built model has it.
        "divisor_almost_ample": True,
        # The quotient points at infinity are admissible tautologically.
        "divisor_admissible": report.singularities_on_divisor,
        "C2": rational_str(report.C_squared),
        "decay_rhs": rational_str(report.decay_rhs) if report.decay_rhs is not None else None,
        "adjunction_residual": rational_str(report.adjunction_residual),
        "all_satisfied": report.all_satisfied,
        # The minimal resolution leaves no interior point and the same beta,
        # C^2 and boundary curve.
        "after_resolution_all_satisfied": report.beta_gt_one and report.adjunction_residual == 0,
    }
    return outputs, 0 if report.all_satisfied else 1, lambda: render_model_dot(model)


def birational_report(
    d: int, n: int, m: int, c: int, a: int, roots: str, samples: int, seed: int
) -> CommandReport:
    # The roundtrip draws no sample: samples keeps its range and is only echoed.
    _check_range("samples", samples, 1, 1000)

    def finish(model: CompactificationModel, _: TianYauReport) -> tuple:
        blow = blowup_at_R2(model)
        plane, centers, total = target_plane(model).label(), model.roots.pairs, model.roots.total
        points_match = blow.new_singularities == plane_points(model)
        rt_ok = roundtrip_check(model)
        outputs = {
            "target_plane": plane,
            "projection": "[x:y:z:w] -> [x:z:w]",
            "blowup": {
                "chart_actions": [
                    {"order": order, "weights": list(ws)} for order, ws in blow.chart_actions
                ],
                "new_singularities": [sing_json(s) for s in blow.new_singularities],
                "exceptional_orbifold_orders": list(blow.exceptional_orders),
            },
            "plane_points_match": points_match,
            "description": {
                "base_plane": plane,
                "centers": [{"root": rational_str(r), "iterations": k} for r, k in centers],
                "total_blowups": total,
                # The proper transforms of x = 0 and w = 0 bound the open fibre.
                "removed_divisors": ["x=0", "w=0"],
                # chi of the plane, 3, plus one per blow-up.
                "euler_characteristic": 3 + total,
            },
            # 3 + the blow-up count is chi_Mbar + 1 = d + 3 once man-cond holds.
            "euler_count_consistent": True,
            "roundtrip": {"samples": samples, "seed": seed, "passed": rt_ok},
        }
        ok = points_match and rt_ok
        return outputs, 0 if ok else 1, lambda: render_blowup_dot(plane, centers)

    return _cyclic_report(
        "birational", (d, n, m, c, a, roots), {"samples": samples, "seed": seed}, finish
    )


def resolve_report(order: int, weights: list[int]) -> CommandReport:
    _check_order(order)
    s = QuotientSingularity(order, tuple(weights))
    std = normalize(s)
    # A smooth germ raises BadInput under the weights it was given.
    chain = hj_resolution(s if s.is_smooth() else std)
    value = hj_evaluate(chain.entries)
    matches = value * std.weights[1] == std.order
    outputs = {
        "given": sing_json(s),
        "normalized": sing_json(std),
        "chain": list(chain.entries),
        "self_intersections": list(chain.self_intersections()),
        "length": len(chain),
        "evaluates_to": rational_str(value),
        "value_matches": matches,
    }
    return CommandReport(
        outputs,
        0 if matches else 1,
        _germ_rest("resolve", order, weights),
        lambda: render_chain_dot(std.label(), chain.entries),
    )


def sweep_report(max_d: int, max_n: int, max_c: int, seed: int) -> CommandReport:
    for name, value in (("--max-d", max_d), ("--max-n", max_n), ("--max-c", max_c)):
        _check_range(name, value, 1, _MAX_BOX)
    results = run_all(max_d=max_d, max_n=max_n, max_c=max_c, seed=seed)
    all_passed = all(r.passed for r in results)
    outputs = {
        "parameters": {"max_d": max_d, "max_n": max_n, "max_c": max_c, "seed": seed},
        "suites": [
            {
                "name": r.name,
                "cases": r.cases,
                "failures": r.failure_count,
                "messages": list(r.failures),
            }
            for r in results
        ],
        "all_passed": all_passed,
    }

    def rest() -> tuple:
        # The residual suite re-checks the models of the box; its verdict
        # stands for every tag but "man-cond".
        cond = next(r for r in results if r.name == "adjunction-residual")
        verdict = (cond.passed, f"{cond.cases} models re-checked, {cond.failure_count} failures")
        tags = ("hom", "action", "div", "beta>1", "adjunction-residual")
        return "sweep", outputs["parameters"], dict.fromkeys(tags, verdict)
    return CommandReport(outputs, 0 if all_passed else 1, rest)


def render_chain_dot(title: str, entries: tuple[int, ...]) -> str:
    lines = ["graph resolution_chain {", "  rankdir=LR;", f'  label="{title}";']
    for i, b in enumerate(entries):
        lines.append(f'  e{i + 1} [shape=circle, label="-{b}"];')
    for i in range(len(entries) - 1):
        lines.append(f"  e{i + 1} -- e{i + 2};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_model_dot(model: CompactificationModel) -> str:
    lines = ["graph model {", "  rankdir=LR;"]
    curve_label = (
        f"C  C^2={rational_str(model.curve.self_intersection)}"
        f"  beta={rational_str(model.beta)}"
    )
    lines.append(f'  C [shape=box, label="{curve_label}"];')
    for lbl, s in model.infinity_singularities:
        if s.order == 1:
            continue
        lines.append(f'  {lbl} [shape=circle, label="{lbl}: {s.label()}"];')
        lines.append(f"  C -- {lbl};")
    for lbl, k in model.interior_singularities:
        prev = None
        for i in range(k):
            node = f"{lbl}_{i + 1}"
            lines.append(f'  {node} [shape=circle, label="-2"];')
            if prev:
                lines.append(f"  {prev} -- {node};")
            prev = node
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_blowup_dot(plane: str, centers: tuple[tuple[Fraction, int], ...]) -> str:
    lines = ["graph blowup_surface {", "  rankdir=TB;"]
    lines.append(f'  plane [shape=box, label="{plane}"];')
    lines.append('  Lx [shape=box, label="(x=0) proper transform, removed"];')
    lines.append('  Lw [shape=box, label="(w=0) proper transform, removed"];')
    lines.append("  plane -- Lx;")
    lines.append("  plane -- Lw;")
    for j, (_, k) in enumerate(centers, start=1):
        prev = "Lx"
        for i in range(1, k + 1):
            node = f"s{j}_{i}"
            self_int = "-1" if i == k else "-2"
            lines.append(f'  {node} [shape=circle, label="{self_int}"];')
            lines.append(f"  {prev} -- {node};")
            prev = node
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_text(report: dict) -> str:
    lines = [f"id: {report['id']}", f"schema: {report['schema_version']}"]
    lines.append("inputs:")
    lines.extend(_dump(report["inputs"], 1))
    lines.append("outputs:")
    lines.extend(_dump(report["outputs"], 1))
    lines.append("diagnostics:")
    for d in report["diagnostics"]:
        mark = "ok  " if d["passed"] else "FAIL"
        lines.append(f"  {mark} [{d['name']}] {d['detail']}")
    return "\n".join(lines) + "\n"


def _dump(value: Any, depth: int) -> list[str]:
    pad = "  " * depth
    lines: list[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, dict):
                lines.append(f"{pad}{k}:")
                lines.extend(_dump(v, depth + 1))
            elif isinstance(v, list) and v and isinstance(v[0], dict):
                lines.append(f"{pad}{k}:")
                for item in v:
                    lines.append(f"{pad}  -")
                    lines.extend(_dump(item, depth + 2))
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _scalar(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, list):
        return "[" + ", ".join(_scalar(x) for x in v) + "]"
    return str(v)


def render_json(report: dict) -> str:
    """``json.dumps(report, indent=2)`` and a newline, byte for byte.

    With ``indent`` Python 3.11 encodes in pure Python, one generator per
    container; this writer, specialised to what reports hold, appends the
    same chunks to one list and escapes strings with the C escaper that
    ``json.dumps`` calls.
    """
    out: list[str] = []
    _write_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value: Any, newline: str, out: list[str]) -> None:
    """Append ``value`` to ``out``; ``newline`` is a newline and the indent
    of the line ``value`` starts on.  Checked in ``json.dumps``'s order, so
    subclasses of the JSON types are written as ``json.dumps`` writes them."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(json.dumps(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            _write_json(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            # json.dumps would turn a number, bool or None key into text.
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out.append(sep + _encode_str(key) + ": ")
            sep = "," + inner
            _write_json(item, inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_CORPUS_KINDS = ("classify", "enumerate", "build-cyclic", "build-rdp", "check", "birational")

# A parameter with no default, and one whose default is the command's seed.
_REQUIRED, _SEED = object(), object()
_DNMC = (("d", _REQUIRED, int, ()), ("n", _REQUIRED, int, ()), ("m", _REQUIRED, int, ()), ("c", 1, int, ()))
_MODEL = _DNMC + (("a", _REQUIRED, int, ()), ("roots", _REQUIRED, str, ()))
_GERM = (("weights", _REQUIRED, list, (int,)), ("order", _REQUIRED, int, ()))

# Each command's parameters, in the order they are checked: the name, the
# default, the JSON type and, for a list, the JSON types of its entries.
# The command line and corpus rows both run commands through this table.
_COMMANDS = {
    "classify": _GERM,
    "enumerate": _DNMC,
    "build-cyclic": _MODEL,
    "build-rdp": (("coeffs", None, list, (str, int)), ("type", _REQUIRED, str, ()), ("index", _REQUIRED, int, ())),
    "check": _MODEL,
    "birational": _MODEL + (("samples", 25, int, ()), ("seed", _SEED, int, ())),
    "resolve": _GERM,
    "sweep": (("max_d", 4, int, ()), ("max_n", 4, int, ()), ("max_c", 3, int, ()), ("seed", _SEED, int, ())),
}

# bool is a subclass of int, so values are matched by exact type: true is
# not the integer 1.
_JSON_TYPES = {int: "integer", str: "string", list: "list", dict: "object"}


def _type_error(name: str, value: Any, types: tuple) -> BadInput:
    expected = " or ".join(_JSON_TYPES[t] for t in types)
    return BadInput(f"{name} must be a JSON {expected}, got {type(value).__name__}")


def _value(params: dict, name: str, default: Any, json_type: type, entry_types: tuple = ()) -> Any:
    """``params[name]`` checked against its JSON types, or ``default``."""
    value = params.get(name, default)
    if value is _REQUIRED:
        raise BadInput(f"{name} is required")
    if value is not default:  # a default needs no check, so coeffs may be null
        if type(value) is not json_type:
            raise _type_error(name, value, (json_type,))
        if entry_types:
            for i, entry in enumerate(value):
                if type(entry) not in entry_types:
                    raise _type_error(f"{name}[{i}]", entry, entry_types)
    return value


def run_case(kind: str, params: dict, seed: int) -> CommandReport:
    """Run the command ``kind`` on ``params`` with the table's defaults.

    The report function is looked up by name at call time, so a wrapper
    set on this module, such as a tracer's, sees the call."""
    values = {
        name: _value(params, name, seed if default is _SEED else default, json_type, entry_types)
        for name, default, json_type, entry_types in _COMMANDS[kind]
    }
    return globals()[kind.replace("-", "_") + "_report"](**values)


def _subset_mismatches(expected: Any, actual: Any, path: str) -> list[str]:
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected object, got {type(actual).__name__}"]
        out = []
        for k, v in expected.items():
            if k not in actual:
                out.append(f"{path}.{k}: missing")
            elif v != actual[k]:
                out.extend(_subset_mismatches(v, actual[k], f"{path}.{k}"))
        return out
    if expected != actual:
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


_scan_json = json.JSONDecoder().scan_once


def _parse_row(line: str) -> Any:
    """``json.loads(line)`` for a line without surrounding whitespace.

    The decoder's C scanner is called directly, which saves ``json.loads``'s
    Python-level calls on every row; a line it does not take whole goes to
    ``json.loads``, for its error."""
    try:
        value, end = _scan_json(line, 0)
        if end == len(line):
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
    return json.loads(line)


def run_corpus(path: str, seed: int) -> CommandReport:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_lines = [ln.strip() for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise BadInput(f"cannot read corpus file {path}: {exc}") from exc
    results = []
    failed = []
    for lineno, line in enumerate(raw_lines, start=1):
        if not line:
            continue
        try:
            row = _parse_row(line)
        # Besides JSONDecodeError, json.loads raises a plain ValueError for
        # an integer literal past Python's 4300-digit conversion limit, and
        # RecursionError for arrays or objects nested past the recursion limit.
        except (ValueError, RecursionError) as exc:
            raise BadInput(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise BadInput(f"{path}:{lineno}: a case must be a JSON object, got {type(row).__name__}")
        case_id = str(row.get("id", f"line-{lineno}"))
        try:
            params = _value(row, "parameters", {}, dict)
            kind = _value(row, "kind", _REQUIRED, str)
            if kind not in _CORPUS_KINDS:
                raise BadInput(f"unknown corpus kind {kind!r}; expected one of {_CORPUS_KINDS}")
            rep = run_case(kind, params, seed)
            mismatches = _subset_mismatches(row.get("expected", {}), rep.outputs, "outputs")
        except (ClassTError, KeyError, TypeError, ValueError, OverflowError) as exc:
            mismatches = [f"error: {exc}"]
        ok = not mismatches
        if not ok:
            failed.append(case_id)
        results.append({"id": case_id, "ok": ok, "mismatches": mismatches})
    outputs = {
        "cases": len(results),
        "passed": sum(1 for r in results if r["ok"]),
        "failed_ids": failed,
        "results": results,
    }

    def rest() -> tuple:
        return f"corpus-{path}", {"corpus": path}, {}
    return CommandReport(outputs, 0 if not failed else 1, rest)
