"""Check classt's JSON writer and row decoder against the ``json`` module.

Usage (from anywhere inside the repository):

    python3 -I -S tools/json_check.py

imports classt from the ``src`` next to this script and needs nothing
outside the standard library, so it runs on an interpreter without
pytest; ``tools/pythons.sh`` runs it on each version it is given.  It
compares

* ``reports.render_json(value)`` with ``json.dumps(value, indent=2)`` and
  a newline, on reports of every command (an unbuilt model among them), a
  corpus report, fixed edge values (empty containers, the 64-bit edges, the
  floats a report can hold) and seeded random trees (non-ASCII text,
  control characters, lone surrogates, integers past 64 bits, tuples), and
  checks that a key that is not a ``str``, at the top or nested, and a set
  raise ``TypeError``;
* ``reports._parse_row(line)`` with ``json.loads(line)`` (the value, or the
  exception's type and message) on the JSON lines of those trees and on
  lines that ``json.loads`` rejects.

It also checks which rows of the corpus fail.  It prints one line with the
counts and exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from classt.reports import _parse_row, render_json, run_case, run_corpus  # noqa: E402

TREES = 2000
SEED = 22

# Each command's parameters, as a corpus row or the command line gives them.
COMMAND_CASES = [
    ("classify", {"order": 18, "weights": [1, 5]}),
    ("classify", {"order": 7, "weights": [1, 3]}),
    ("enumerate", {"d": 2, "n": 3, "m": 2, "c": 2}),
    ("build-cyclic", {"d": 2, "n": 3, "m": 2, "c": 2, "a": 7, "roots": "1:1,2:1"}),
    # Fails the action and div conditions, so the model is not built.
    ("build-cyclic", {"d": 2, "n": 3, "m": 1, "c": 3, "a": 1, "roots": "1,2"}),
    ("build-rdp", {"type": "E", "index": 7, "coeffs": ["0", "1/2", "0", "0", "0", "0", "0"]}),
    ("build-rdp", {"type": "D", "index": 5}),
    ("check", {"d": 2, "n": 2, "m": 1, "a": 1, "roots": "1,2"}),
    ("birational", {"d": 2, "n": 3, "m": 2, "c": 2, "a": 7, "roots": "1:1,2:1", "samples": 5}),
    ("resolve", {"order": 7, "weights": [1, 5]}),
    ("sweep", {"max_d": 2, "max_n": 2, "max_c": 1}),
]

# Corpus rows after those of COMMAND_CASES: one that passes, one that fails
# with an id that is not ASCII, an unknown kind and a row without an id.
CORPUS_ROWS = [
    {"id": "classify-18", "kind": "classify", "parameters": {"order": 18, "weights": [1, 5]},
     "expected": {"is_class_t": True}},
    # Fails: the count is 2.
    {"id": "énumère-2-2", "kind": "enumerate", "parameters": {"d": 2, "n": 2, "m": 1},
     "expected": {"count": 3}},
    {"id": "bad-kind", "kind": "frobnicate", "parameters": {}},
    {"kind": "check", "parameters": {"d": 2, "n": 2, "m": 1, "a": 1, "roots": "1,2"},
     "expected": {"beta": "3/2", "all_satisfied": True}},
]
# resolve and sweep are not corpus kinds, so their rows fail as bad-kind does.
FAILED_IDS = ["resolve", "sweep", "énumère-2-2", "bad-kind"]

# Values at the edges of the writer: empty containers, a lone surrogate and
# a NUL, the 64-bit edges, and the floats a report can hold.
EDGE_VALUES = [
    {}, [], (), {"": []}, [{}, [], ()], "\ud800x\x00", 2**64, -(2**64) - 1,
    {"a": {"b": {"c": [True, False, None]}}}, [1.5, -0.0, float("inf"), float("nan")],
]

# Values render_json refuses where json.dumps would write the keys as text:
# a key that is not a str, at the top or nested, and a set.
BAD_KEYS = (1, 1.5, True, None)
UNWRITABLE = (
    [{key: 1} for key in BAD_KEYS]
    + [{"outer": [{"x": 1, key: 2}]} for key in BAD_KEYS]
    + [{"x": {1, 2}}]
)

# Characters json.dumps escapes or passes through specially.
SPECIAL = ["\x00", "\x1f", "\x7f", "\ud800", "\udfff", " ", "é", "\U0001f600", '"', "\\", "/"]

# Lines json.loads rejects, each for its own reason: syntax, trailing data,
# a lone value past the integer-string limit, nesting past the recursion
# limit on every supported version.
BAD_LINES = ["{", "[1,]", "1 2", '{"a" 1}', "'x'", "9" * 5000, "[" * 100_000 + "]" * 100_000]


def random_text(rng: random.Random) -> str:
    chars = []
    for _ in range(rng.randrange(9)):
        if rng.random() < 0.5:
            chars.append(rng.choice(SPECIAL))
        else:
            chars.append(chr(rng.randrange(0x110000)))
    return "".join(chars)


def random_tree(rng: random.Random, depth: int = 0):
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.randrange(-(2**70), 2**70)
    if kind == 2:
        return rng.choice([1, -1]) * rng.randrange(2**64, 2**200)
    if kind == 3:
        return rng.choice([True, False])
    if kind == 4:
        return None
    if kind == 5:
        return rng.randrange(-9, 10)
    children = [random_tree(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 6:
        return children
    if kind == 7:
        return tuple(children)
    return {random_text(rng): child for child in children}


def outcome(parse, line: str):
    try:
        return "value", parse(line)
    except (ValueError, RecursionError) as exc:
        return type(exc).__name__, str(exc)


def main() -> int:
    reports = [run_case(kind, params, 11).data for kind, params in COMMAND_CASES]
    rows = [{"id": kind, "kind": kind, "parameters": params} for kind, params in COMMAND_CASES]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cases.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows + CORPUS_ROWS), encoding="utf-8")
        corpus = run_corpus(str(path), 11)
    if (corpus.exit_code, corpus.outputs["failed_ids"]) != (1, FAILED_IDS):
        print(f"json check: the corpus exited {corpus.exit_code} failing {corpus.outputs['failed_ids']}")
        return 1
    reports.append(corpus.data)
    rng = random.Random(SEED)
    trees = [random_tree(rng) for _ in range(TREES)]
    values = reports + EDGE_VALUES + trees
    for value in values:
        if render_json(value) != json.dumps(value, indent=2) + "\n":
            print(f"json check: render_json differs from json.dumps on {value!r}")
            return 1
    for value in UNWRITABLE:
        try:
            render_json(value)
        except TypeError:
            continue
        print(f"json check: render_json took {value!r}")
        return 1
    lines = [json.dumps(tree, ensure_ascii=rng.random() < 0.5) for tree in trees] + BAD_LINES
    for line in lines:
        if outcome(_parse_row, line) != outcome(json.loads, line):
            print(f"json check: _parse_row differs from json.loads on {line[:80]!r}")
            return 1
    print(f"json check: {len(values)} values written as json.dumps writes them, "
          f"{len(lines)} lines read as json.loads reads them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
