"""The benchmark workloads: their set-up, the program calls a caller waits
for, and the checks on every output.

A workload builds its inputs in ``__init__``, which is timed as set-up, and
writes any files the program reads in ``prepare``, which is not.  It either
drives items one at a time (``run_item``) or runs a whole pass of ``size``
items as one command (``run_pass``).  Checks run outside the timed calls and
return, per output, the bytes whose SHA-256 must repeat across passes and a
list of failure messages.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import inputs

SWEEP_ARGS = ["sweep", "--max-d", str(inputs.BOX[0]), "--max-n", str(inputs.BOX[1]),
              "--max-c", str(inputs.BOX[2])]


class Germs:
    """Normalize, classify and resolve every germ ``1/r(1, q)`` with ``r <= 250``."""

    per_item = True

    def __init__(self, m, seed: int):
        self.m = m
        self.items = inputs.germs(seed)

    def prepare(self, work: Path) -> None:
        pass

    def run_item(self, item):
        r, s1, s2, q = item
        quotients = self.m.quotients
        std = quotients.normalize(quotients.QuotientSingularity(r, (s1, s2)))
        found = quotients.detect_class_T(std)
        chain = quotients.hj_resolution(std)
        value = self.m.arith.hj_evaluate(chain.entries)
        return std, found, chain.entries, value, self.m.sweep.brute_force_class_t(r, q)

    def check_item(self, item, out):
        r, s1, s2, q = item
        std, found, entries, value, oracle = out
        errors = []
        if (std.order, std.weights) != (r, (1, q)):
            errors.append(f"normalized to {std.label()}")
        if min(entries) < 2:
            errors.append("chain entry below 2")
        if inputs.chain_value(entries) != (r, q) or (value.numerator, value.denominator) != (r, q):
            errors.append(f"chain of length {len(entries)} evaluates to {value}")
        expected = inputs.class_t_readings(r, q)
        if [list(t) for t in oracle] != expected:
            errors.append(f"brute_force_class_t gave {oracle}, expected {expected}")
        solutions = [] if found is None else [list(t) for t in found.solutions]
        if solutions != expected or (found and [found.d, found.n, found.m] != expected[0]):
            errors.append(f"detect_class_T gave {found}, expected {expected}")
        record = repr((r, s1, s2, std.weights, solutions, entries, str(value)))
        return record.encode(), [f"1/{r}({s1},{s2}): {e}" for e in errors]


class Corpus:
    """A seeded JSON-lines case file run through ``classt --corpus``.

    Its canary rows carry one deliberately wrong expected field; the
    program must report each of them as a mismatch on that field.
    """

    per_item = False

    def __init__(self, m, seed: int):
        self.m = m
        self.rows = inputs.corpus_rows(seed)
        self.size = len(self.rows)

    def prepare(self, work: Path) -> None:
        self.path = work / "corpus.jsonl"
        self.out = work / "corpus.report.json"
        inputs.write_corpus(self.rows, self.path)

    def run_pass(self):
        argv = ["--corpus", str(self.path), "--format", "json", "--out", str(self.out)]
        code = self.m.cli.run_command(argv)
        return code, self.out.read_bytes()

    def check_pass(self, out):
        code, payload = out
        errors = []
        results = json.loads(payload)["outputs"]["results"]
        ids = [r["id"] for r in results]
        if ids != [row["id"] for row in self.rows]:
            errors.append(f"report lists {len(ids)} cases, not the {len(self.rows)} rows in order")
        for r in results:
            field = inputs.canary_field(r["id"])
            if field is None:
                if not r["ok"]:
                    errors.append(f"{r['id']}: {r['mismatches'][:2]}")
            elif len(r["mismatches"]) != 1 or not r["mismatches"][0].startswith(f"outputs.{field}:"):
                errors.append(f"{r['id']}: the wrong {field} gave mismatches {r['mismatches'][:2]}")
        # The canary rows always fail, so the command must exit with 1.
        if code != 1:
            errors.append(f"exit code {code}")
        return payload, errors


class Sweep:
    """``classt sweep`` over the acceptance box, with a seed from the benchmark's."""

    per_item = False

    def __init__(self, m, seed: int):
        self.m = m
        self.seed = random.Random(seed).randrange(1 << 30)
        self.expected = inputs.sweep_expected_cases()
        self.size = sum(self.expected.values())

    def prepare(self, work: Path) -> None:
        self.out = work / "sweep.report.json"

    def run_pass(self):
        argv = SWEEP_ARGS + ["--seed", str(self.seed), "--format", "json", "--out", str(self.out)]
        code = self.m.cli.run_command(argv)
        return code, self.out.read_bytes()

    def check_pass(self, out):
        code, payload = out
        outputs = json.loads(payload)["outputs"]
        suites = {s["name"]: s for s in outputs["suites"]}
        errors = []
        for name, cases in self.expected.items():
            got = suites.get(name, {"cases": 0, "failures": 0, "messages": []})
            if got["cases"] != cases:
                errors.extend([f"{name}: ran {got['cases']} cases, expected {cases}"] * cases)
            else:
                errors.extend(f"{name}: {msg}" for msg in got["messages"])
                errors.extend([f"{name}: unrecorded failure"] * (
                    min(got["failures"], cases) - len(got["messages"])))
        if outputs["all_passed"] != (not errors) or code != (1 if errors else 0):
            errors.append(f"all_passed {outputs['all_passed']} with exit code {code}")
        return payload, errors


WORKLOADS = {"germs": Germs, "corpus": Corpus, "sweep": Sweep}
