"""Digest every report of a fixed input set, to check byte identity.

Usage (from the repository root):

    python3 tools/report_bytes.py SRC WORKDIR > digests.txt

imports classt from the directory ``SRC``, writes the benchmark's seed-11
corpus to ``WORKDIR/corpus-11.jsonl`` and runs the command line in-process
over:

* that corpus, in JSON and text;
* ``sweep --max-d 5 --max-n 6 --max-c 4 --seed 3`` and the default ``sweep``,
  in JSON and text;
* ``build cyclic``, ``check`` and ``birational`` over ``d <= 3``,
  ``n <= 4``, ``0 <= m <= n + 1``, ``c <= 3``, ``-1 <= a <= d*n*c + 1``
  with the roots ``1,...,d``, ``1:d+1`` and ``1/2:d``, in JSON, text and DOT;
* ``build cyclic``, ``check`` and ``birational`` at the degree cap
  ``d*n*c = 400``, where the roundtrip's integers are largest: ``c = 400``,
  ``n = 400``, and ``d = 400`` with the roots ``1,...,400`` and with the
  roots ``(1000 - j)/999`` for ``j = 0..399``, in JSON, text and DOT;
* ``enumerate`` over the ``(d, n, m, c)`` of that grid, ``gcd(m, n) > 1``
  and ``gcd(c, n) > 1`` included, in JSON, text and DOT;
* ``build rdp --type D`` for the indices 4 to 12, and ``build rdp --type E``
  for the indices 6 to 8 with and without ``--coeffs``, in JSON, text and DOT;
* ``classify`` and ``resolve`` for the orders 1 to 40 with the weights
  ``(q1, q2)``, ``0 <= q1 <= r`` and ``q2`` in ``{1, r - 1, 5}``, in JSON,
  text and DOT;
* ``classify`` and ``resolve`` for the orders 1000 and 100000 with the
  weights ``(1, r - 1)``, ``(1, 3)`` and ``(1, r/2 + 1)``, whose chains run
  to 99,999 entries, in JSON and text;
* bad inputs, in JSON and text: a ``--corpus`` file holding the bytes
  ``ff fe`` (not UTF-8), ``build rdp --type D --index 4`` with the
  coefficients ``a,0,0,0`` and ``1/0,0,0,0``, and ``check`` with the
  roots ``1,1`` and with 20,000 copies of the root ``1``;
* ``check`` and ``birational`` on ``(d, n, m, a) = (1, 2, 1, 1)`` and
  ``(2, 1, 1, 1)`` with root texts that take each path of the root
  parser, plain ``p/q`` texts and those only ``Fraction`` reads, valid
  or not, in JSON and text.
* argparse's own output: ``--help`` of the top level, of ``build`` and of
  every command, and the usage errors (exit 2) of an empty command line,
  of each command but ``sweep`` given no flags, of ``check`` without
  ``--roots``, of ``build rdp --type A`` and of ``check -d x``.  The tool
  sets ``COLUMNS=80``, so these digests do not depend on the terminal.

Each run prints one line: the arguments (one longer than 100 characters
as its length), the exit code and the SHA-256 of stdout and of stderr.  Each grid input also prints the exception type and
tag that ``compactify.build_cyclic`` raises on it (``-`` when it builds).
Two source trees give the same bytes when their digests are equal:

    python3 tools/report_bytes.py OLD/src /tmp/bytes > before.txt
    python3 tools/report_bytes.py src /tmp/bytes > after.txt
    diff before.txt after.txt

Use the same ``WORKDIR`` for both runs: the corpus path is part of the
corpus report.  ``tools/bytes_diff.sh REV`` runs both against a git
revision and exits with the status of ``diff``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(run_command, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(run_command(argv))
        except Exception as exc:  # a traceback is a difference too
            code = f"raised {type(exc).__name__}"
    shown = " ".join(arg if len(arg) <= 100 else f"<{len(arg)} characters>" for arg in argv)
    return f"{shown} | {code} {digest(out.getvalue())} {digest(err.getvalue())}"


def grid_dnmc():
    for d in range(1, 4):
        for n in range(1, 5):
            for m in range(0, n + 2):
                for c in range(1, 4):
                    yield d, n, m, c


def grid():
    for d, n, m, c in grid_dnmc():
        for a in range(-1, d * n * c + 2):
            for roots in (",".join(map(str, range(1, d + 1))), f"1:{d + 1}", f"1/2:{d}"):
                yield d, n, m, c, a, roots


def main() -> None:
    src, work = sys.argv[1], Path(sys.argv[2])
    # argparse wraps help and usage text to the terminal width it reads here.
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, str(Path(src).resolve()))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    from classt.cli import run_command
    from classt.compactify import RootConfig, build_cyclic

    work.mkdir(parents=True, exist_ok=True)
    corpus = work / "corpus-11.jsonl"
    inputs.write_corpus(inputs.corpus_rows(11), corpus)
    not_utf8 = work / "not-utf8.jsonl"
    not_utf8.write_bytes(b"\xff\xfe")
    rdp_d4 = ["build", "rdp", "--type", "D", "--index", "4", "--coeffs"]
    check_d2 = ["check", "-d", "2", "-n", "1", "-m", "1", "-a", "1", "--roots"]
    bad = [
        ["--corpus", str(not_utf8)],
        [*rdp_d4, "a,0,0,0"],
        [*rdp_d4, "1/0,0,0,0"],
        [*check_d2, "1,1"],
        [*check_d2, ",".join(["1"] * 20_000)],
    ]
    # Plain [-]digits[/digits] texts are read as ints; the rest go through Fraction.
    root_texts = ["+3", "1_0/7", "1.5", "2/4", "-0", "1e1", " 1/3 : 2", "1/0", "1,2/2"]
    parsed = [
        [command, "-d", d, "-n", n, "-m", "1", "-a", "1", "--roots", text]
        for command in ("check", "birational")
        for d, n in (("1", "2"), ("2", "1"))
        for text in root_texts
    ]

    commands = [
        ["classify"], ["enumerate"], ["build"], ["build", "cyclic"], ["build", "rdp"],
        ["check"], ["birational"], ["resolve"], ["sweep"],
    ]
    runs = [[], ["--help"], ["build", "rdp", "--type", "A"], ["check", "-d", "x"]]
    runs += [[*command, "--help"] for command in commands]
    runs += [command for command in commands if command != ["sweep"]]
    runs.append(["check", "-d", "1", "-n", "1", "-m", "1", "-a", "1"])
    for fmt in ("json", "text"):
        runs.append(["--corpus", str(corpus), "--format", fmt])
        runs.append(["sweep", "--max-d", "5", "--max-n", "6", "--max-c", "4", "--seed", "3", "--format", fmt])
        runs.append(["sweep", "--format", fmt])
        runs.extend([*args, "--format", fmt] for args in bad + parsed)
    rdp = [["--type", "D", "--index", str(index)] for index in range(4, 13)]
    for index in range(6, 9):
        coeffs = ",".join(f"{(-1) ** i * (i + 1)}/{i + 2}" for i in range(index))
        rdp += [["--type", "E", "--index", str(index)], ["--type", "E", "--index", str(index), "--coeffs", coeffs]]
    germs = [
        ["--order", str(r), "--weights", f"{q1},{q2}"]
        for r in range(1, 41)
        for q1 in range(0, r + 1)
        for q2 in dict.fromkeys((1, r - 1, 5))
    ]
    long_germs = [
        ["--order", str(r), "--weights", f"1,{q}"] for r in (1000, 100000) for q in (r - 1, 3, r // 2 + 1)
    ]
    for fmt in ("json", "text"):
        for command in ("classify", "resolve"):
            runs.extend([command, *args, "--format", fmt] for args in long_germs)
    for fmt in ("json", "text", "dot"):
        runs.extend(["build", "rdp", *args, "--format", fmt] for args in rdp)
        for command in ("classify", "resolve"):
            runs.extend([command, *args, "--format", fmt] for args in germs)
    for d, n, m, c in grid_dnmc():
        args = ["-d", str(d), "-n", str(n), "-m", str(m), "-c", str(c)]
        runs.extend(["enumerate", *args, "--format", fmt] for fmt in ("json", "text", "dot"))
    at_cap = [
        (1, 1, 400, 399, "1"),
        (1, 400, 1, 1, "1"),
        (400, 1, 1, 1, ",".join(map(str, range(1, 401)))),
        (400, 1, 1, 1, ",".join(f"{1000 - j}/999" for j in range(400))),
    ]
    for d, n, c, a, roots in at_cap:
        args = ["-d", str(d), "-n", str(n), "-m", "1", "-c", str(c), "-a", str(a), "--roots", roots]
        for command in (["build", "cyclic"], ["check"], ["birational"]):
            runs.extend([*command, *args, "--format", fmt] for fmt in ("json", "text", "dot"))
    for argv in runs:
        print(run(run_command, argv))

    for d, n, m, c, a, roots in grid():
        args = ["-d", str(d), "-n", str(n), "-m", str(m), "-c", str(c), "-a", str(a), "--roots", roots]
        for command in (["build", "cyclic"], ["check"], ["birational"]):
            for fmt in ("json", "text", "dot"):
                print(run(run_command, command + args + ["--format", fmt]))
        try:
            build_cyclic(d, n, m, c, a, RootConfig.parse(roots))
            raised = "-"
        except Exception as exc:
            raised = f"{type(exc).__name__} {getattr(exc, 'tag', '-')}"
        print(f"build_cyclic{(d, n, m, c, a, roots)} | {raised}")


if __name__ == "__main__":
    main()
