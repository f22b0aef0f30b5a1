"""End-to-end tests for the command line interface."""

import json
import re
import shlex
import sys
import time
from pathlib import Path

import pytest

from classt import birational, compactify, reports
from classt.cli import build_parser, main, run_command
from classt.reports import DIAGNOSTIC_TAGS

from oracles import box_params

RATIONAL = re.compile(r"^-?\d+/\d+$")
# Twenty thousand copies of one root.
TWIN_ROOTS = ",".join(["1"] * 20_000)


def run(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    return code, json.loads(out), err


# -------------------------------------------------------------- exit codes


def test_check_success_exit_zero(capsys):
    code, out, err = run(capsys, ["check", "-d", "2", "-n", "2", "-m", "1", "-a", "1", "--roots", "1,2"])
    assert code == 0
    assert err == ""
    assert "3/2" in out and "8/3" in out


def test_invalid_input_exit_one(capsys):
    code, out, err = run(
        capsys, ["build", "cyclic", "-d", "2", "-n", "2", "-m", "1", "-a", "1", "--roots", "0:2"]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "nonzero" in err
    code, out, err = run(capsys, ["resolve", "--order", "1", "--weights", "3,5"])
    assert (code, out) == (1, "")
    assert err == "error: 1/1(3,5) is a smooth point; nothing to resolve\n"


def test_out_of_range_inputs_exit_one(capsys, tmp_path):
    cases = [
        (["sweep", "--max-d", "0"], "error: --max-d must be between 1 and 10, got 0\n"),
        (["sweep", "--max-d", "-1"], "error: --max-d must be between 1 and 10, got -1\n"),
        (["sweep", "--max-n", "0"], "error: --max-n must be between 1 and 10, got 0\n"),
        (["sweep", "--max-c", "11"], "error: --max-c must be between 1 and 10, got 11\n"),
        (
            ["build", "rdp", "--type", "D", "--index", "101"],
            "error: D-type index must be between 4 and 100, got 101\n",
        ),
        (
            # Rescaled roundtrip lifts grow with d*n*c; uncapped, this input ran for tens of seconds.
            ["birational", "-d", "1", "-n", "1000", "-m", "1", "-c", "999", "-a", "1999", "--roots", "1"],
            "error: degree d*n*c must be between 1 and 400, got 999000\n",
        ),
        (
            ["build", "rdp", "--type", "D", "--index", "4", "--coeffs", "a,0,0,0"],
            "error: cannot parse coefficient 'a'\n",
        ),
        (
            ["build", "rdp", "--type", "D", "--index", "4", "--coeffs", "1/0,0,0,0"],
            "error: cannot parse coefficient '1/0'\n",
        ),
        (
            # Quoting every root of the repeated list printed 320 kB on one line.
            ["check", "-d", "2", "-n", "1", "-m", "1", "-a", "1", "--roots", TWIN_ROOTS],
            "error: roots must be distinct, got 1 more than once\n",
        ),
        (
            ["classify", "--order", "7", "--weights", "1,2,3"],
            "error: --weights takes two comma-separated integers, got '1,2,3'\n",
        ),
        (
            ["classify", "--order", "7", "--weights", "5"],
            "error: --weights takes two comma-separated integers, got '5'\n",
        ),
        (["classify", "--order", "7", "--weights", "1,x"], "error: cannot parse weights '1,x'\n"),
    ]
    for argv, message in cases:
        for fmt in ("text", "json"):
            assert run(capsys, argv + ["--format", fmt]) == (1, "", message), argv
    # The caps sit above the acceptance box and the largest tested D index.
    assert run(capsys, ["sweep", "--max-d", "1", "--max-n", "1", "--max-c", "1"])[0] == 0
    assert run(capsys, ["build", "rdp", "--type", "D", "--index", "12"])[0] == 0
    at_cap = ["-d", "1", "-n", "1", "-m", "1", "-c", "400", "-a", "1", "--roots", "1"]
    assert run(capsys, ["birational"] + at_cap)[0] == 0

    bir = {"d": 1, "n": 2, "m": 1, "a": 1, "roots": "1"}
    rows = [
        {"id": "ok", "kind": "birational", "parameters": {**bir, "samples": 25}},
        {"id": "many", "kind": "birational", "parameters": {**bir, "samples": 1001}},
        {"id": "none", "kind": "birational", "parameters": {**bir, "samples": 0}},
        {"id": "deep", "kind": "build-rdp", "parameters": {"type": "D", "index": 101}},
        {"id": "wide", "kind": "birational", "parameters": {**bir, "n": 1, "c": 401, "samples": 1}},
        {"id": "letter", "kind": "build-rdp", "parameters": {"type": "D", "index": 4, "coeffs": ["a", "0", "0", "0"]}},
        {"id": "pole", "kind": "build-rdp", "parameters": {"type": "D", "index": 4, "coeffs": ["1/0", "0", "0", "0"]}},
        {"id": "twins", "kind": "check", "parameters": {"d": 2, "n": 1, "m": 1, "a": 1, "roots": TWIN_ROOTS}},
    ]
    code, data, _ = run_json(capsys, ["--corpus", write_corpus(tmp_path, rows)])
    assert code == 1
    assert data["outputs"]["failed_ids"] == ["many", "none", "deep", "wide", "letter", "pole", "twins"]
    assert [r["mismatches"] for r in data["outputs"]["results"]] == [
        [],
        ["error: samples must be between 1 and 1000, got 1001"],
        ["error: samples must be between 1 and 1000, got 0"],
        ["error: D-type index must be between 4 and 100, got 101"],
        ["error: degree d*n*c must be between 1 and 400, got 401"],
        ["error: cannot parse coefficient 'a'"],
        ["error: cannot parse coefficient '1/0'"],
        ["error: roots must be distinct, got 1 more than once"],
    ]


def test_growing_inputs_are_capped(capsys, tmp_path):
    # At the caps the largest inputs finish; one past them exits 1 before any work that grows.
    code, out, err = run(capsys, ["resolve", "--order", "100000", "--weights", "1,99999", "--format", "dot"])
    assert (code, err) == (0, "") and out.count("[shape=circle") == 99999
    code, data, _ = run_json(capsys, ["classify", "--order", "100000", "--weights", "1,99999"])
    assert code == 0 and data["outputs"]["solutions"] == [[100000, 1, 1]]
    code, data, _ = run_json(capsys, ["enumerate", "-d", "400", "-n", "1", "-m", "1"])
    assert code == 0 and data["outputs"]["count"] == 399
    at_cap = ["-d", "400", "-n", "1", "-m", "1", "-a", "1", "--roots", "1:400"]
    for command, exit_code in ((["build", "cyclic"], 0), (["check"], 1)):
        code, out, err = run(capsys, command + at_cap + ["--format", "dot"])
        assert (code, err, out.count('label="-2"')) == (exit_code, "", 399), command

    order_error = "error: order must be between 1 and 100000, got {}\n"
    degree_error = "error: degree d*n*c must be between 1 and 400, got 401\n"
    past_cap = ["-d", "401", "-n", "1", "-m", "1", "-a", "1", "--roots", "1:401"]
    cases = [
        (["classify", "--order", "100001", "--weights", "1,100000"], order_error.format(100001)),
        (["resolve", "--order", "100001", "--weights", "1,100000"], order_error.format(100001)),
        # Uncapped, this ran for more than 10 s in class_t_solutions.
        (["classify", "--order", str(10**30), "--weights", "1,7"], order_error.format(10**30)),
        (["enumerate", "-d", "401", "-n", "1", "-m", "1"], degree_error),
        (["enumerate", "-d", "1", "-n", "1", "-m", "1", "-c", "401"], degree_error),
        (["build", "cyclic"] + past_cap, degree_error),
        (["check"] + past_cap, degree_error),
    ]
    for argv, message in cases:
        for fmt in ("text", "json", "dot"):
            assert run(capsys, argv + ["--format", fmt]) == (1, "", message), (argv, fmt)

    cyclic = {"d": 401, "n": 1, "m": 1, "a": 1, "roots": "1:401"}
    rows = [
        {"id": "classify", "kind": "classify", "parameters": {"order": 100001, "weights": [1, 5]}},
        {"id": "enumerate", "kind": "enumerate", "parameters": {"d": 401, "n": 1, "m": 1}},
        {"id": "build", "kind": "build-cyclic", "parameters": cyclic},
        {"id": "check", "kind": "check", "parameters": cyclic},
    ]
    code, data, _ = run_json(capsys, ["--corpus", write_corpus(tmp_path, rows)])
    assert code == 1
    assert [r["mismatches"] for r in data["outputs"]["results"]] == [
        [order_error.format(100001).strip()], *[[degree_error.strip()]] * 3,
    ]


def test_root_size_is_capped(capsys, tmp_path):
    # The roundtrip's integers grow with the roots' numerators and
    # denominators as well as with the degree.
    model = ["-d", "2", "-n", "2", "-m", "1", "-a", "1"]
    commands = (["build", "cyclic"], ["check"], ["birational"])
    for roots in ("1000,-1/1000", "-1000,999/1000"):
        for command in commands:
            code, out, err = run(capsys, command + model + [f"--roots={roots}"])
            assert (code, err) == (0, ""), (command, roots)
    message = "error: largest root numerator or denominator must be between 1 and 1000, got 1001\n"
    for roots in ("1001,1", "-1001,1", "1,1/1001", "-1001/1000:2"):
        for command in commands:
            for fmt in ("text", "json"):
                argv = command + model + [f"--roots={roots}", "--format", fmt]
                assert run(capsys, argv) == (1, "", message), argv

    rows = [
        {"id": "at", "kind": "birational", "parameters": {"d": 2, "n": 2, "m": 1, "a": 1, "roots": "1000,-1/1000"}},
        {"id": "past", "kind": "check", "parameters": {"d": 2, "n": 2, "m": 1, "a": 1, "roots": "1,1/1001"}},
    ]
    code, data, _ = run_json(capsys, ["--corpus", write_corpus(tmp_path, rows)])
    assert code == 1
    assert [r["mismatches"] for r in data["outputs"]["results"]] == [[], [message.strip()]]


def test_rational_text_is_capped(capsys, tmp_path):
    # Fraction(str) builds the value an exponent spells out: uncapped, the
    # first two printed a traceback, the third took 2 s and the last did not
    # finish in 10 s.
    model = ["-d", "2", "-n", "1", "-m", "1", "-a", "1"]
    suffix = "spells more than 100 digits (its length plus its exponent)"
    cases = [
        (["check"] + model + ["--roots", "1e5000"], f"root entry '1e5000' {suffix}"),
        (["build", "rdp", "--type", "E", "--index", "6", "--coeffs", "1e5000,0,0,0,0,0"],
         f"coefficient '1e5000' {suffix}"),
        (["check"] + model + ["--roots", "1e3000000"], f"root entry '1e3000000' {suffix}"),
        (["build", "rdp", "--type", "D", "--index", "4", "--coeffs", "1e400000000,0,0,0"],
         f"coefficient '1e400000000' {suffix}"),
        # A long text is quoted by its first 20 characters.
        (["birational"] + model + ["--roots", "0" * 97 + "1000"], f"root entry '{'0' * 20}...' {suffix}"),
    ]
    for argv, message in cases:
        for fmt in ("text", "json"):
            start = time.perf_counter()
            assert run(capsys, argv + ["--format", fmt]) == (1, "", f"error: {message}\n"), argv
            assert time.perf_counter() - start < 1.0, argv
    # At the cap: 100 characters, or a length and an exponent summing to 100.
    at_cap = ["-d", "2", "-n", "2", "-m", "1", "-a", "1", "--roots", "0" * 96 + "1000,1e2"]
    assert run(capsys, ["check"] + at_cap)[0] == 0
    assert run(capsys, ["build", "rdp", "--type", "E", "--index", "6", "--coeffs", "1e96,0,0,0,0,0"])[0] == 0

    rows = [
        {"id": "roots", "kind": "check", "parameters": {"d": 2, "n": 1, "m": 1, "a": 1, "roots": "1e5000"}},
        {"id": "coeffs", "kind": "build-rdp", "parameters": {"type": "E", "index": 6, "coeffs": ["1e5000"] + ["0"] * 5}},
        {"id": "slow", "kind": "birational", "parameters": {"d": 2, "n": 1, "m": 1, "a": 1, "roots": "1e3000000"}},
        {"id": "hang", "kind": "build-rdp", "parameters": {"type": "D", "index": 4, "coeffs": ["1e400000000", "0", "0", "0"]}},
    ]
    start = time.perf_counter()
    code, data, _ = run_json(capsys, ["--corpus", write_corpus(tmp_path, rows)])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert [r["mismatches"] for r in data["outputs"]["results"]] == [
        [f"error: {message}"] for _, message in cases[:4]
    ]
    # A JSON integer root or coefficient past 4300 digits fails in json.loads,
    # before any cap sees it: the whole corpus is bad input.
    big = "1" + "0" * 5000
    for row in (
        '{"id": "roots", "kind": "check", "parameters": {"d": 2, "n": 1, "m": 1, "a": 1, "roots": %s}}',
        '{"id": "coeffs", "kind": "build-rdp", "parameters": {"type": "E", "index": 6, "coeffs": [%s, 0, 0, 0, 0, 0]}}',
    ):
        path = tmp_path / "big.jsonl"
        path.write_text(row % big + "\n", encoding="utf-8")
        code, out, err = run(capsys, ["--corpus", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}:1: invalid JSON: ") and err.count("\n") == 1


def test_rdp_a_type_redirect_exit_one(capsys):
    code, _, err = run(capsys, ["build", "rdp", "--type", "D", "--index", "3"])
    assert code == 1 and "error:" in err


def test_usage_exit_two(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["no-such-command"])[0] == 2
    assert run(capsys, ["build"])[0] == 2
    assert run(capsys, ["enumerate", "-d", "2"])[0] == 2
    assert run(capsys, ["check", "--frobnicate"])[0] == 2


def test_main_exits_with_the_command_code(capsys, monkeypatch):
    # main reads sys.argv past the program name and exits with
    # run_command's code, writing what run_command writes.
    cases = [
        (["classify", "--order", "18", "--weights", "1,5"], 0),
        (["resolve", "--order", "1", "--weights", "3,5"], 1),
        ([], 2),
    ]
    for argv, expected in cases:
        direct = run(capsys, argv)
        assert direct[0] == expected, argv
        monkeypatch.setattr(sys, "argv", ["classt"] + argv)
        with pytest.raises(SystemExit) as exc:
            main()
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == direct, argv


def test_subcommand_with_corpus_is_a_usage_error(capsys, tmp_path):
    corpus = write_corpus(tmp_path, PASSING_ROWS)
    target = tmp_path / "report.txt"
    classify = ["classify", "--order", "7", "--weights", "1,3"]
    for path in (corpus, ""):
        for argv in (["--corpus", path] + classify, classify + ["--corpus", path]):
            code, out, err = run(capsys, argv + ["--out", str(target)])
            assert (code, out) == (2, ""), argv
            usage, error = err.rstrip("\n").rsplit("\n", 1)
            assert usage.startswith("usage: classt"), argv
            assert error == "classt: error: give a subcommand or --corpus, not both", argv
            assert "Traceback" not in err
            assert not target.exists()
    # An empty path alone is a corpus file that cannot be read.
    code, out, err = run(capsys, ["--corpus", ""])
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read corpus file : ")


def test_failed_conditions_exit_one(capsys):
    code, data, _ = run_json(
        capsys, ["build", "cyclic", "-d", "2", "-n", "3", "-m", "2", "-c", "2", "-a", "5", "--roots", "1,2"]
    )
    assert code == 1
    assert data["outputs"]["conditions_failed"] == ["action", "adjunction-residual"]
    by_name = {d["name"]: d for d in data["diagnostics"]}
    assert not by_name["action"]["passed"]
    assert by_name["hom"]["passed"] and by_name["div"]["passed"]

    # Several conditions failing at once, each with its detail pinned.
    unbuilt = {"adjunction-residual": "model not constructed"}
    cases = [
        (
            "-d 2 -n 3 -m 2 -c 2 -a 14 --roots 1,2",
            {
                "hom": "a = 14 outside 1..11, so b = -2 is not positive",
                "action": "a*m = 14*2 != c = 2 (mod 3)",
                "div": "gcd(c, n) = 1, gcd(a, c) = 2",
            },
        ),
        ("-d 2 -n 2 -m 1 -a 1 --roots 1:3", {"man-cond": "multiplicities sum to 3, expected d = 2"}),
        (
            "-d 2 -n 3 -m 2 -c 3 -a 0 --roots 1",
            {
                "hom": "a = 0 outside 1..17, so b = 18 is not positive",
                "div": "gcd(c, n) = 3, gcd(a, c) = 3",
                "man-cond": "multiplicities sum to 1, expected d = 2",
            },
        ),
    ]
    for args, details in cases:
        for command in (["build", "cyclic"], ["check"], ["birational"]):
            code, data, err = run_json(capsys, command + args.split())
            assert (code, err) == (1, ""), args
            assert data["outputs"] == {"conditions_failed": [*details, "adjunction-residual"]}
            failing = {d["name"]: d["detail"] for d in data["diagnostics"] if not d["passed"]}
            assert failing == {**details, **unbuilt}, args


def test_huge_a_exits_one_without_a_traceback(capsys):
    # At a = -(10^4300 - 1), b = d*n*c - a has 4,301 digits, past the
    # int-to-str limit, so writing the hom sentence raised ValueError.
    huge = "9" * 4300
    for command in (["check"], ["build", "cyclic"], ["birational"]):
        for a in ("-" + huge, huge):
            argv = command + ["-d", "1", "-n", "1", "-m", "1", "-c", "1", "-a", a, "--roots", "1"]
            code, out, err = run(capsys, argv)
            assert (code, out, err.count("\n")) == (1, "", 1), command
            assert err.startswith(f"error: a must be between -400 and 400, got {a[:20]}"), command
    # At the cap, a still fails only hom, in a report.
    argv = ["check", "-d", "1", "-n", "1", "-m", "1", "-c", "1", "-a", "-400", "--roots", "1"]
    code, data, err = run_json(capsys, argv)
    assert (code, err) == (1, "")
    assert data["outputs"]["conditions_failed"] == ["hom", "adjunction-residual"]


def test_huge_degree_factor_exits_one_without_a_traceback(capsys, tmp_path):
    # With d = 10^4300 - 1 and n = 2, d*n*c has 4,301 digits, past the
    # int-to-str limit, so writing the degree message raised ValueError.
    huge = "9" * 4300
    model = ["-a", "1", "--roots", "1"]
    for command, extra in ((["enumerate"], []), (["check"], model), (["build", "cyclic"], model), (["birational"], model)):
        for name in ("d", "n", "c"):
            factors = {"d": "2", "n": "2", "c": "2", name: huge}
            argv = command + ["-m", "1"] + [arg for k, v in factors.items() for arg in (f"-{k}", v)] + extra
            code, out, err = run(capsys, argv)
            assert (code, out, err.count("\n")) == (1, "", 1), (command, name)
            assert err.startswith(f"error: {name} must be between 1 and 1000000, got 9999"), (command, name)
            assert "Traceback" not in err
    rows = [
        {"id": "huge-d", "kind": "enumerate", "parameters": {"d": int(huge), "n": 2, "m": 1}},
        {"id": "huge-n", "kind": "check", "parameters": {"d": 2, "n": int(huge), "m": 1, "a": 1, "roots": "1"}},
    ]
    code, data, err = run_json(capsys, ["--corpus", write_corpus(tmp_path, rows)])
    assert (code, err) == (1, "")
    assert data["outputs"]["failed_ids"] == ["huge-d", "huge-n"]
    for result, name in zip(data["outputs"]["results"], "dn"):
        [mismatch] = result["mismatches"]
        assert mismatch.startswith(f"error: {name} must be between 1 and 1000000, got 9999")
        assert "\n" not in mismatch


def test_readme_examples_run_cleanly(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert len(lines) == 7 and all(line.startswith("$ classt ") for line in lines)
    for line in lines:
        code, _, err = run(capsys, shlex.split(line.removeprefix("$ classt ")))
        assert (code, err) == (0, ""), line


# ------------------------------------------------------------- diagnostics


COMMANDS = [
    ["classify", "--order", "18", "--weights", "1,5"],
    ["enumerate", "-d", "2", "-n", "2", "-m", "1"],
    ["build", "cyclic", "-d", "2", "-n", "2", "-m", "1", "-a", "1", "--roots", "1,2"],
    ["build", "rdp", "--type", "E", "--index", "6"],
    ["check", "-d", "2", "-n", "2", "-m", "1", "-a", "1", "--roots", "1,2"],
    ["birational", "-d", "1", "-n", "2", "-m", "1", "-a", "1", "--roots", "1"],
    ["resolve", "--order", "7", "--weights", "1,5"],
    ["sweep", "--max-d", "2", "--max-n", "2", "--max-c", "1"],
]


def test_every_report_carries_the_six_tags(capsys):
    for argv in COMMANDS:
        code, data, _ = run_json(capsys, argv)
        assert code == 0, argv
        names = [d["name"] for d in data["diagnostics"]]
        assert names == list(DIAGNOSTIC_TAGS), argv
        for d in data["diagnostics"]:
            assert set(d) == {"name", "passed", "detail"}
        assert data["schema_version"] == "1.0"
        assert set(data) == {"schema_version", "id", "inputs", "outputs", "diagnostics"}


ALL_TAGS = set(DIAGNOSTIC_TAGS)
# The tags each command of COMMANDS checks, in the same order; the others
# read "not applicable to this command".
CHECKED_TAGS = [
    set(),
    {"div"},
    ALL_TAGS,
    {"beta>1", "adjunction-residual"},
    ALL_TAGS,
    ALL_TAGS,
    set(),
    ALL_TAGS - {"man-cond"},
]


def _checked(data):
    return {d["name"] for d in data["diagnostics"] if d["detail"] != "not applicable to this command"}


def test_each_command_claims_only_the_checks_it_runs(capsys, tmp_path):
    for argv, tags in zip(COMMANDS, CHECKED_TAGS, strict=True):
        code, data, _ = run_json(capsys, argv)
        assert code == 0, argv
        assert _checked(data) == tags, argv
    code, data, _ = run_json(capsys, ["--corpus", write_corpus(tmp_path, PASSING_ROWS)])
    assert code == 0 and _checked(data) == set()
    vacuous = [{"name": tag, "passed": True, "detail": "not applicable to this command"} for tag in DIAGNOSTIC_TAGS]
    assert reports.assemble("x", {}, {}, {}) == {
        "schema_version": "1.0", "id": "x", "inputs": {}, "outputs": {}, "diagnostics": vacuous,
    }


def test_rationals_rendered_as_fraction_strings(capsys):
    _, data, _ = run_json(capsys, ["check", "-d", "2", "-n", "2", "-m", "1", "-a", "1", "--roots", "1,2"])
    out = data["outputs"]
    assert out["beta"] == "3/2"
    assert out["C2"] == "8/3"
    assert out["decay_rhs"] == "4/1"
    assert out["adjunction_residual"] == "0/1"
    assert out["all_satisfied"] is True
    for key in ("beta", "C2", "decay_rhs", "adjunction_residual"):
        assert RATIONAL.match(out[key]), key


# ------------------------------------------------------------ frozen shapes


def test_classify_json(capsys):
    code, data, _ = run_json(capsys, ["classify", "--order", "18", "--weights", "1,5"])
    assert code == 0
    out = data["outputs"]
    assert out["is_class_t"] is True
    assert out["variant"] == "cyclic"
    assert (out["descriptor"]["d"], out["descriptor"]["n"], out["descriptor"]["m"]) == (2, 3, 1)
    assert out["solutions"] == [[2, 3, 1]]
    assert out["normalized"] == {"order": 18, "weights": [1, 5]}


def test_classify_negative(capsys):
    code, data, _ = run_json(capsys, ["classify", "--order", "5", "--weights", "1,1"])
    assert code == 0
    assert data["outputs"]["is_class_t"] is False
    assert data["outputs"]["descriptor"] is None


def test_enumerate_json(capsys):
    _, data, _ = run_json(capsys, ["enumerate", "-d", "2", "-n", "2", "-m", "1"])
    out = data["outputs"]
    assert out["count"] == 2 and out["raw_count"] == 2
    assert [(p["a"], p["b"]) for p in out["pairs"]] == [(1, 3), (3, 1)]
    assert out["reduced"] == []


def test_enumerate_reduced_json(capsys):
    _, data, _ = run_json(capsys, ["enumerate", "-d", "2", "-n", "3", "-m", "2", "-c", "2"])
    out = data["outputs"]
    assert [(p["a"], p["b"], p["c"]) for p in out["reduced"]] == [(2, 4, 1), (5, 1, 1)]
    assert out["reduced"][0]["reduced_from"] == [4, 8, 2]


def test_build_cyclic_json(capsys):
    code, data, _ = run_json(
        capsys, ["build", "cyclic", "-d", "2", "-n", "2", "-m", "1", "-a", "1", "--roots", "1,2"]
    )
    assert code == 0
    out = data["outputs"]
    assert out["ambient_weights"] == [1, 3, 1, 2]
    assert out["degree"] == 4
    assert out["beta"] == "3/2"
    assert out["fiber_smooth"] is True
    assert out["equation"] == "x*y - (z^2 - w)*(z^2 - 2*w)"
    assert {"label": "R2", "order": 3, "weights": [1, 2]} in out["infinity_singularities"]


def test_build_rdp_json(capsys):
    code, data, _ = run_json(capsys, ["build", "rdp", "--type", "E", "--index", "7"])
    assert code == 0
    out = data["outputs"]
    assert out["ambient_weights"] == [4, 6, 9, 1]
    assert out["degree"] == 18
    assert out["beta"] == "2/1"
    assert out["C2"] == "1/12"
    assert out["milnor_number"] == 7
    assert len(out["milnor_basis"]) == 7


def test_birational_json(capsys):
    code, data, _ = run_json(
        capsys,
        ["birational", "-d", "2", "-n", "3", "-m", "2", "-c", "2", "-a", "1", "--roots", "1,2", "--seed", "4"],
    )
    assert code == 0
    out = data["outputs"]
    assert out["target_plane"] == "P(1,2,3)"
    assert out["blowup"]["chart_actions"] == [
        {"order": 2, "weights": [11, -3]},
        {"order": 3, "weights": [11, -2]},
    ]
    assert out["plane_points_match"] is True
    assert out["euler_count_consistent"] is True
    assert out["roundtrip"] == {"samples": 25, "seed": 4, "passed": True}
    assert out["description"]["euler_characteristic"] == 5


def test_resolve_json(capsys):
    code, data, _ = run_json(capsys, ["resolve", "--order", "7", "--weights", "1,5"])
    assert code == 0
    out = data["outputs"]
    assert out["chain"] == [2, 2, 3]
    assert out["self_intersections"] == [-2, -2, -3]
    assert out["evaluates_to"] == "7/5"
    assert out["value_matches"] is True


def test_sweep_json(capsys):
    code, data, _ = run_json(capsys, ["sweep", "--max-d", "2", "--max-n", "2", "--max-c", "1"])
    assert code == 0
    out = data["outputs"]
    assert out["all_passed"] is True
    assert [s["name"] for s in out["suites"]] == [
        "weight-family",
        "adjunction-residual",
        "topology",
        "projection-roundtrip",
        "blowup-singularities",
        "class-t-detection",
        "hj-chains",
    ]
    assert all(s["failures"] == 0 and s["cases"] > 0 for s in out["suites"])


# ------------------------------------------------------------------- DOT


def test_resolve_dot(capsys):
    code, out, _ = run(capsys, ["resolve", "--order", "7", "--weights", "1,5", "--format", "dot"])
    assert code == 0
    assert out.startswith("graph resolution_chain {")
    assert out.count('label="-2"') == 2 and out.count('label="-3"') == 1
    assert "e1 -- e2" in out and "e2 -- e3" in out


def test_model_dot(capsys):
    code, out, _ = run(
        capsys,
        ["build", "cyclic", "-d", "2", "-n", "2", "-m", "1", "-a", "1", "--roots", "1,2", "--format", "dot"],
    )
    assert code == 0
    assert "graph model {" in out
    assert "beta=3/2" in out and "C^2=8/3" in out
    assert "R2: 1/3(1,2)" in out


# Exact DOT bytes of every graph command, as rendered before DOT became lazy.
PINNED_DOT = [
    (
        ["classify", "--order", "18", "--weights", "1,5"],
        0,
        'graph resolution_chain {\n  rankdir=LR;\n  label="1/18(1,5)";\n'
        '  e1 [shape=circle, label="-4"];\n  e2 [shape=circle, label="-3"];\n'
        '  e3 [shape=circle, label="-2"];\n  e1 -- e2;\n  e2 -- e3;\n}\n',
    ),
    (
        ["classify", "--order", "7", "--weights", "1,3"],
        0,
        'graph resolution_chain {\n  rankdir=LR;\n  label="1/7(1,3)";\n'
        '  e1 [shape=circle, label="-3"];\n  e2 [shape=circle, label="-2"];\n'
        '  e3 [shape=circle, label="-2"];\n  e1 -- e2;\n  e2 -- e3;\n}\n',
    ),
    (["classify", "--order", "1", "--weights", "1,1"], 0, "graph resolution_chain {\n}\n"),
    (
        ["check", "-d", "3", "-n", "2", "-m", "1", "-a", "1", "--roots", "1:3"],
        1,
        'graph model {\n  rankdir=LR;\n  C [shape=box, label="C  C^2=12/5  beta=3/2"];\n'
        '  R2 [shape=circle, label="R2: 1/5(1,2)"];\n  C -- R2;\n'
        '  S_1_1 [shape=circle, label="-2"];\n  S_1_2 [shape=circle, label="-2"];\n'
        "  S_1_1 -- S_1_2;\n}\n",
    ),
    (
        ["birational", "-d", "2", "-n", "3", "-m", "2", "-c", "2", "-a", "7", "--roots", "1:1,2:1",
         "--seed", "4"],
        0,
        'graph blowup_surface {\n  rankdir=TB;\n  plane [shape=box, label="P(7,2,3)"];\n'
        '  Lx [shape=box, label="(x=0) proper transform, removed"];\n'
        '  Lw [shape=box, label="(w=0) proper transform, removed"];\n'
        "  plane -- Lx;\n  plane -- Lw;\n"
        '  s1_1 [shape=circle, label="-1"];\n  Lx -- s1_1;\n'
        '  s2_1 [shape=circle, label="-1"];\n  Lx -- s2_1;\n}\n',
    ),
    (
        ["build", "rdp", "--type", "E", "--index", "7"],
        0,
        'graph model {\n  rankdir=LR;\n  C [shape=box, label="C  C^2=1/12  beta=2/1"];\n'
        '  P1 [shape=circle, label="P1: 1/2(1,1)"];\n  C -- P1;\n'
        '  P2 [shape=circle, label="P2: 1/3(1,1)"];\n  C -- P2;\n'
        '  P3 [shape=circle, label="P3: 1/4(1,1)"];\n  C -- P3;\n}\n',
    ),
]


def test_dot_bytes_pinned(capsys):
    for argv, exit_code, dot in PINNED_DOT:
        assert run(capsys, argv + ["--format", "dot"]) == (exit_code, dot, ""), argv


def test_dot_rejected_without_graph_form(capsys):
    code, out, err = run(capsys, ["sweep", "--max-d", "1", "--max-n", "1", "--max-c", "1", "--format", "dot"])
    assert code == 1
    assert out == ""
    assert "no graph form" in err
    code, _, err = run(capsys, ["enumerate", "-d", "2", "-n", "2", "-m", "1", "--format", "dot"])
    assert code == 1 and "no graph form" in err


# ------------------------------------------------------------ work counts


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_check_does_each_piece_of_work_once(capsys, monkeypatch):
    calls = {"check_hypotheses": 0, "weight_conditions": 0, "dot": 0}
    monkeypatch.setattr(
        reports, "check_hypotheses", _counting(calls, "check_hypotheses", reports.check_hypotheses)
    )
    conditions = _counting(calls, "weight_conditions", compactify.weight_conditions)
    monkeypatch.setattr(reports, "weight_conditions", conditions)
    monkeypatch.setattr(compactify, "weight_conditions", conditions)
    for name in ("render_chain_dot", "render_model_dot", "render_blowup_dot"):
        monkeypatch.setattr(reports, name, _counting(calls, "dot", getattr(reports, name)))
    argv = ["check", "-d", "3", "-n", "2", "-m", "1", "-a", "1", "--roots", "1:3"]
    code, data, _ = run_json(capsys, argv)
    assert code == 1 and data["outputs"]["after_resolution_all_satisfied"]
    # One report, which also gives the resolution's verdict; no DOT for JSON.
    assert calls == {"check_hypotheses": 1, "weight_conditions": 1, "dot": 0}
    run(capsys, argv + ["--format", "dot"])
    assert calls["dot"] == 1


def test_reports_are_assembled_only_when_rendered(capsys, monkeypatch, tmp_path):
    calls = {"assemble": 0}
    monkeypatch.setattr(reports, "assemble", _counting(calls, "assemble", reports.assemble))
    rows = PASSING_ROWS + [
        {"id": "rdp", "kind": "build-rdp", "parameters": {"type": "E", "index": 6},
         "expected": {"beta": "2/1"}},
        {"id": "bir", "kind": "birational", "parameters": {"d": 1, "n": 2, "m": 1, "a": 1, "roots": "1"},
         "expected": {"roundtrip": {"passed": True}}},
        {"id": "unbuilt", "kind": "build-cyclic",
         "parameters": {"d": 2, "n": 3, "m": 2, "c": 2, "a": 5, "roots": "1,2"},
         "expected": {"conditions_failed": ["action", "adjunction-residual"]}},
    ]
    code, data, _ = run_json(capsys, ["--corpus", write_corpus(tmp_path, rows)])
    assert (code, data["outputs"]["passed"]) == (0, len(rows))
    # Only the corpus report itself; each row compares its outputs alone.
    assert calls["assemble"] == 1
    for argv in COMMANDS:
        if argv[0] not in ("enumerate", "sweep"):
            code, out, _ = run(capsys, argv + ["--format", "dot"])
            assert out.startswith("graph "), argv
    assert calls["assemble"] == 1


def test_classify_json_renders_no_chain(capsys, monkeypatch):
    def boom(*args):
        raise AssertionError("DOT work on a JSON report")

    monkeypatch.setattr(reports, "render_chain_dot", boom)
    monkeypatch.setattr(reports, "hj_resolution", boom)
    for order, weights, class_t in (("18", "1,5", True), ("7", "1,3", False), ("1", "1,1", True)):
        code, data, err = run_json(capsys, ["classify", "--order", order, "--weights", weights])
        assert (code, err, data["outputs"]["is_class_t"]) == (0, "", class_t)


# ------------------------------------------------------------ determinism


def test_output_is_deterministic(capsys):
    argv = ["birational", "-d", "2", "-n", "2", "-m", "1", "-a", "1", "--roots", "1,2",
            "--seed", "3", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    argv = ["sweep", "--max-d", "2", "--max-n", "2", "--max-c", "1", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_global_flags_work_in_both_positions(capsys):
    head = ["--format", "json", "enumerate", "-d", "2", "-n", "2", "-m", "1"]
    tail = ["enumerate", "-d", "2", "-n", "2", "-m", "1", "--format", "json"]
    _, out_head, _ = run(capsys, head)
    _, out_tail, _ = run(capsys, tail)
    assert out_head == out_tail


def test_out_flag_writes_identical_payload(capsys, tmp_path):
    argv = ["check", "-d", "2", "-n", "2", "-m", "1", "-a", "1", "--roots", "1,2", "--format", "json"]
    code, stdout_payload, _ = run(capsys, argv)
    target = tmp_path / "report.json"
    code_out, out, _ = run(capsys, argv + ["--out", str(target)])
    assert code == code_out == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == stdout_payload
    # A target in a directory that does not exist is one error line.
    target = tmp_path / "absent" / "r.json"
    code, out, err = run(capsys, argv + ["--out", str(target)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not target.parent.exists()


# ----------------------------------------------------------------- corpus


def write_corpus(tmp_path, rows):
    path = tmp_path / "cases.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return str(path)


PASSING_ROWS = [
    {
        "id": "classify-18",
        "kind": "classify",
        "parameters": {"order": 18, "weights": [1, 5]},
        "expected": {"is_class_t": True, "descriptor": {"d": 2, "n": 3, "m": 1}},
    },
    {
        "id": "enum-2-2",
        "kind": "enumerate",
        "parameters": {"d": 2, "n": 2, "m": 1},
        "expected": {"count": 2, "pairs": [{"a": 1, "b": 3, "c": 1}, {"a": 3, "b": 1, "c": 1}]},
    },
    {
        "id": "check-basic",
        "kind": "check",
        "parameters": {"d": 2, "n": 2, "m": 1, "a": 1, "roots": "1,2"},
        "expected": {"beta": "3/2", "all_satisfied": True},
    },
]


def test_corpus_passes(capsys, tmp_path):
    path = write_corpus(tmp_path, PASSING_ROWS)
    code, data, _ = run_json(capsys, ["--corpus", path])
    assert code == 0
    out = data["outputs"]
    assert out["cases"] == 3 and out["passed"] == 3
    assert out["failed_ids"] == []
    assert all(r["ok"] for r in out["results"])


def test_corpus_detects_mismatch(capsys, tmp_path):
    rows = [dict(PASSING_ROWS[1])]
    rows[0] = {**rows[0], "expected": {"count": 3}}
    # A key the outputs lack, and an object where the output is a scalar.
    check = PASSING_ROWS[2]
    rows.append({**check, "id": "absent", "expected": {"nope": 1}})
    rows.append({**check, "id": "scalar", "expected": {"all_satisfied": {"x": 1}}})
    path = write_corpus(tmp_path, rows)
    code, data, _ = run_json(capsys, ["--corpus", path])
    assert code == 1
    out = data["outputs"]
    assert out["failed_ids"] == ["enum-2-2", "absent", "scalar"]
    assert "outputs.count" in out["results"][0]["mismatches"][0]
    assert [r["mismatches"] for r in out["results"][1:]] == [
        ["outputs.nope: missing"],
        ["outputs.all_satisfied: expected object, got bool"],
    ]


def test_corpus_case_error_is_a_failure(capsys, tmp_path):
    path = write_corpus(tmp_path, [{"id": "x", "kind": "frobnicate", "parameters": {}}])
    code, data, _ = run_json(capsys, ["--corpus", path])
    assert code == 1
    assert data["outputs"]["results"][0]["mismatches"][0].startswith("error:")


def test_corpus_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, ["--corpus", str(tmp_path / "absent.jsonl")])
    assert code == 1
    assert "cannot read corpus" in err


def test_corpus_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "bom.jsonl"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, ["--corpus", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read corpus file {path}: ") and err.count("\n") == 1


def test_corpus_invalid_json(capsys, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "x", broken\n', encoding="utf-8")
    code, _, err = run(capsys, ["--corpus", str(path)])
    assert code == 1
    assert "invalid JSON" in err


def test_corpus_invalid_json_quotes_json_loads(capsys, tmp_path):
    # Rows are decoded by the C scanner; a line it does not take whole gets
    # json.loads's own message.
    path = tmp_path / "bad.jsonl"
    for line in ('{"id": "x"} x', "1, 2", "\ufeff{}", "nan", '{"id": 1e}', '["a" "b"]', "9" * 5000):
        try:
            json.loads(line)
        except ValueError as exc:
            message = f"error: {path}:1: invalid JSON: {exc}\n"
        path.write_text(line + "\n", encoding="utf-8")
        assert run(capsys, ["--corpus", str(path)]) == (1, "", message), line


def test_corpus_line_nested_past_the_recursion_limit(capsys, tmp_path):
    # Valid JSON, but json.loads raises RecursionError rather than ValueError.
    # 3.13 parses a 3,000-deep array; 100,000 is past the limit of 3.10 to 3.13.
    path = tmp_path / "deep.jsonl"
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
    code, out, err = run(capsys, ["--corpus", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}:1: invalid JSON: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_corpus_line_that_is_not_an_object(capsys, tmp_path):
    path = tmp_path / "rows.jsonl"
    for line, type_name in (("[1, 2]", "list"), ('"x"', "str"), ("3", "int")):
        path.write_text(json.dumps(PASSING_ROWS[0]) + "\n" + line + "\n", encoding="utf-8")
        message = f"error: {path}:2: a case must be a JSON object, got {type_name}\n"
        assert run(capsys, ["--corpus", str(path)]) == (1, "", message)


def test_corpus_number_overflowing_int_is_a_case_error(capsys, tmp_path):
    path = tmp_path / "big.jsonl"
    path.write_text(
        '{"id": "samples", "kind": "birational", "parameters": '
        '{"d": 1, "n": 2, "m": 1, "a": 1, "roots": "1", "samples": 1e400}}\n'
        '{"id": "order", "kind": "classify", "parameters": {"order": 1e400, "weights": [1, 1]}}\n'
        + json.dumps(PASSING_ROWS[0]) + "\n",
        encoding="utf-8",
    )
    code, data, err = run_json(capsys, ["--corpus", str(path)])
    assert (code, err) == (1, "")
    assert data["outputs"]["failed_ids"] == ["samples", "order"]
    assert [r["mismatches"] for r in data["outputs"]["results"]] == [
        # 1e400 is a JSON float (infinity), not an integer.
        ["error: samples must be a JSON integer, got float"],
        ["error: order must be a JSON integer, got float"],
        [],
    ]


def test_corpus_parameters_must_have_their_json_types(capsys, tmp_path):
    # Each of these rows used to pass, read through int(), tuple() or dict(),
    # or as a coefficient true = 1 or 0.1 = 3602879701896397/2^55; a type
    # or kind read through str() failed as an unknown 'True' or '1'.
    check = {"d": 2, "n": 2, "m": 1, "a": 1, "roots": "1,2"}
    bir = {"d": 1, "n": 2, "m": 1, "a": 1, "roots": "1"}
    rows = [
        {"id": "ok", "kind": "check", "parameters": check},
        # JSON integers are coefficients as they stand.
        {"id": "coeffs-int", "kind": "build-rdp", "parameters": {"type": "D", "index": 4, "coeffs": [1, 0, 0, -2]},
         "expected": {"coefficients": ["1/1", "0/1", "0/1", "-2/1"]}},
        {"id": "d", "kind": "check", "parameters": {**check, "d": 2.9}},
        {"id": "order", "kind": "classify", "parameters": {"order": True, "weights": [1, 1]}},
        {"id": "weights", "kind": "classify", "parameters": {"order": 5, "weights": "12"}},
        {"id": "weight", "kind": "classify", "parameters": {"order": 5, "weights": [1, "2"]}},
        {"id": "coeffs", "kind": "build-rdp", "parameters": {"type": "D", "index": 4, "coeffs": "1234"}},
        {"id": "coeff", "kind": "build-rdp", "parameters": {"type": "D", "index": 4, "coeffs": ["1/2", 0, True, 0]}},
        {"id": "coeff-float", "kind": "build-rdp", "parameters": {"type": "D", "index": 4, "coeffs": ["0", 0.1, 0, 0]}},
        {"id": "samples", "kind": "birational", "parameters": {**bir, "samples": 2.5}},
        {"id": "seed", "kind": "birational", "parameters": {**bir, "seed": False}},
        {"id": "roots", "kind": "check", "parameters": {**check, "roots": 12}},
        {"id": "parameters", "kind": "check", "parameters": [[k, v] for k, v in check.items()]},
        {"id": "type", "kind": "build-rdp", "parameters": {"type": True, "index": 4}},
        {"id": "type-list", "kind": "build-rdp", "parameters": {"type": ["D"], "index": 4}},
        {"id": "kind", "kind": 1, "parameters": check},
    ]
    code, data, err = run_json(capsys, ["--corpus", write_corpus(tmp_path, rows)])
    assert (code, err) == (1, "")
    assert data["outputs"]["failed_ids"] == [row["id"] for row in rows[2:]]
    assert [r["mismatches"] for r in data["outputs"]["results"]] == [
        [],
        [],
        ["error: d must be a JSON integer, got float"],
        ["error: order must be a JSON integer, got bool"],
        ["error: weights must be a JSON list, got str"],
        ["error: weights[1] must be a JSON integer, got str"],
        ["error: coeffs must be a JSON list, got str"],
        ["error: coeffs[2] must be a JSON string or integer, got bool"],
        ["error: coeffs[1] must be a JSON string or integer, got float"],
        ["error: samples must be a JSON integer, got float"],
        ["error: seed must be a JSON integer, got bool"],
        ["error: roots must be a JSON string, got int"],
        ["error: parameters must be a JSON object, got list"],
        ["error: type must be a JSON string, got bool"],
        ["error: type must be a JSON string, got list"],
        ["error: kind must be a JSON string, got int"],
    ]


def test_corpus_missing_parameter_is_named(capsys, tmp_path):
    model = {"d": 2, "n": 2, "m": 1, "a": 1, "roots": "1,2"}

    def without(name):
        return {k: v for k, v in model.items() if k != name}

    rows = [
        {"id": "classify", "kind": "classify", "parameters": {"order": 5}},
        {"id": "enumerate", "kind": "enumerate", "parameters": {"d": 2, "n": 2}},
        {"id": "build-cyclic", "kind": "build-cyclic", "parameters": without("roots")},
        {"id": "build-rdp", "kind": "build-rdp", "parameters": {"index": 4}},
        {"id": "check", "kind": "check", "parameters": without("a")},
        {"id": "birational", "kind": "birational", "parameters": without("d")},
        {"id": "no-kind", "parameters": model},
    ]
    code, data, err = run_json(capsys, ["--corpus", write_corpus(tmp_path, rows)])
    assert (code, err) == (1, "")
    assert [r["mismatches"] for r in data["outputs"]["results"]] == [
        ["error: weights is required"],
        ["error: m is required"],
        ["error: roots is required"],
        ["error: type is required"],
        ["error: a is required"],
        ["error: d is required"],
        ["error: kind is required"],
    ]


def test_corpus_rows_and_the_command_line_share_defaults(capsys, tmp_path):
    # No row sets c, samples, seed or coeffs, and no command line sets -c,
    # --coeffs or a samples count; both runs have the seed 7.
    model = {"d": 2, "n": 2, "m": 1, "a": 1, "roots": "1,2"}
    model_flags = ["-d", "2", "-n", "2", "-m", "1", "-a", "1", "--roots", "1,2"]
    cases = [
        ("classify", {"order": 18, "weights": [1, 5]}, ["classify", "--order", "18", "--weights", "1,5"]),
        ("enumerate", {"d": 2, "n": 3, "m": 2}, ["enumerate", "-d", "2", "-n", "3", "-m", "2"]),
        ("build-cyclic", model, ["build", "cyclic", *model_flags]),
        ("build-rdp", {"type": "E", "index": 7}, ["build", "rdp", "--type", "E", "--index", "7"]),
        ("check", model, ["check", *model_flags]),
        ("birational", model, ["birational", *model_flags]),
    ]
    rows = []
    for kind, params, argv in cases:
        code, data, _ = run_json(capsys, argv + ["--seed", "7"])
        assert code == 0
        assert reports.run_case(kind, params, 7).outputs == data["outputs"]
        rows.append({"id": kind, "kind": kind, "parameters": params, "expected": data["outputs"]})
    assert rows[-1]["expected"]["roundtrip"] == {"samples": 25, "seed": 7, "passed": True}
    code, data, _ = run_json(capsys, ["--corpus", write_corpus(tmp_path, rows), "--seed", "7"])
    assert code == 0
    assert data["outputs"]["passed"] == len(cases)


def test_corpus_runs_write_identical_bytes(tmp_path):
    # Every weight tuple has rows with two root configurations, so all but
    # its first row build on a memoised frame.
    rows = []
    for d, n, m, c, a in box_params(3, 3, 2):
        for roots in (",".join(map(str, range(1, d + 1))), f"-1/2:{d}"):
            for kind in ("build-cyclic", "check"):
                params = {"d": d, "n": n, "m": m, "c": c, "a": a, "roots": roots}
                rows.append({"id": f"{kind}-{d}-{n}-{m}-{c}-{a}-{roots}", "kind": kind, "parameters": params})
    path = write_corpus(tmp_path, rows)
    payloads = []
    for i in range(2):
        out = tmp_path / f"report-{i}.json"
        assert run_command(["--corpus", path, "--format", "json", "--out", str(out)]) == 0
        assert compactify._cyclic_frame.cache_info().hits == len(rows) - len(rows) // 4
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
    assert json.loads(payloads[0])["outputs"]["passed"] == len(rows)


def test_each_command_starts_with_an_empty_frame_memo(capsys, monkeypatch):
    sizes = []
    run_case = reports.run_case

    def recording(kind, params, seed):
        sizes.append(compactify._cyclic_frame.cache_info().currsize)
        return run_case(kind, params, seed)

    monkeypatch.setattr(reports, "run_case", recording)
    for roots in ("1,2", "1:2"):
        argv = ["build", "cyclic", "-d", "2", "-n", "2", "-m", "1", "-a", "1", "--roots", roots]
        assert run(capsys, argv)[0] == 0
        assert compactify._cyclic_frame.cache_info().currsize == 1
    assert sizes == [0, 0]
    assert compactify._cyclic_frame.cache_info().maxsize is not None


def test_each_command_starts_with_an_empty_expansion_cache(capsys, monkeypatch):
    # The roundtrip's expansion cache keeps one (P, roots) at a time; a
    # birational command never starts on the verdict another one cached.
    expands = birational._expands
    sizes = []
    run_case = reports.run_case

    def recording(kind, params, seed):
        sizes.append(expands.cache_info().currsize)
        return run_case(kind, params, seed)

    monkeypatch.setattr(reports, "run_case", recording)
    for roots in ("1,2", "1:2", "1,2"):
        argv = ["birational", "-d", "2", "-n", "2", "-m", "1", "-a", "1", "--roots", roots]
        assert run(capsys, argv)[0] == 0
        info = expands.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
    assert sizes == [0, 0, 0]
    assert expands.cache_info().maxsize == 1


def test_the_one_parser_formats_help_at_each_width(capsys, monkeypatch):
    # argparse reads COLUMNS when it formats, not when the parser is built,
    # so the parser a process builds once wraps --help as a fresh one does.
    assert build_parser() is build_parser()
    helps = []
    for columns in ("80", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["--help"], ["check", "--help"]):
            with pytest.raises(SystemExit):
                build_parser.__wrapped__().parse_args(argv)
            fresh = capsys.readouterr()
            assert run(capsys, argv) == (0, fresh.out, fresh.err), (columns, argv)
            helps.append(fresh.out)
    assert helps[0] != helps[2] and helps[1] != helps[3]


def test_corpus_tolerates_blank_lines(capsys, tmp_path):
    path = tmp_path / "gaps.jsonl"
    rows = [json.dumps(PASSING_ROWS[0]), "", json.dumps(PASSING_ROWS[1])]
    path.write_text("\n".join(rows) + "\n\n", encoding="utf-8")
    code, data, _ = run_json(capsys, ["--corpus", str(path)])
    assert code == 0
    assert data["outputs"]["cases"] == 2
