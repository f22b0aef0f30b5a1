"""Command line interface.

Subcommands: classify, enumerate, build cyclic, build rdp, check,
birational, resolve, sweep; a corpus file of cases can be run with the
global --corpus flag.  Output is text (default), canonical JSON, or DOT
for the commands with a graph form; exit codes are 0 for success, 1 for
check failures and invalid inputs, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import birational, compactify, reports
from .errors import BadInput, ClassTError

_DOTLESS = "this command has no graph form; use --format text or json"


def _add_common(parser: argparse.ArgumentParser, trailing: bool) -> None:
    # The same flags are registered on the main parser and, with
    # suppressed defaults, on every subparser, so they work in either
    # position on the command line.
    default = argparse.SUPPRESS if trailing else None
    parser.add_argument("--format", choices=("text", "json", "dot"),
                        default=default if trailing else "text",
                        help="output format (default text)")
    parser.add_argument("--seed", type=int, default=default if trailing else 0,
                        help="seed for sampling checks")
    parser.add_argument("--out", metavar="FILE", default=default,
                        help="write output to FILE instead of stdout")
    parser.add_argument("--corpus", metavar="FILE", default=default,
                        help="run the JSON-lines case file and report per-case results")


def _add_dnmc_command(sub, name: str, common: argparse.ArgumentParser, help_text: str, model: bool = True) -> None:
    """A subcommand taking d, n, m, c and, for a cyclic model, a and the roots."""
    parser = sub.add_parser(name, parents=[common], help=help_text)
    parser.add_argument("-d", type=int, required=True)
    parser.add_argument("-n", type=int, required=True)
    parser.add_argument("-m", type=int, required=True)
    parser.add_argument("-c", type=int)
    if model:
        parser.add_argument("-a", type=int, required=True)
        parser.add_argument("--roots", required=True, help='root:multiplicity list, e.g. "1:1,2:1"')


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="classt",
        description=(
            "Exact-arithmetic toolkit for class T surface singularities and "
            "their compactified smoothings."
        ),
    )
    _add_common(p, trailing=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, trailing=True)
    sub = p.add_subparsers(dest="command", parser_class=argparse.ArgumentParser)

    classify = sub.add_parser("classify", parents=[common], help="normalize a quotient germ and test class T")
    classify.add_argument("--order", type=int, required=True)
    classify.add_argument("--weights", required=True, help="two weights, e.g. 1,5")

    _add_dnmc_command(sub, "enumerate", common, "enumerate weights (a, b) for fixed d, n, m, c", model=False)

    build = sub.add_parser("build", parents=[common], help="construct a compactified smoothing")
    build_sub = build.add_subparsers(dest="variant", required=True)
    _add_dnmc_command(build_sub, "cyclic", common, "cyclic variant from (d, n, m, c, a) and roots")
    br = build_sub.add_parser("rdp", parents=[common], help="D or E double point model")
    br.add_argument("--type", choices=("D", "E"), required=True)
    br.add_argument("--index", type=int, required=True)
    br.add_argument("--coeffs", help="deformation coefficients, e.g. 1/2,0,3")

    _add_dnmc_command(sub, "check", common, "evaluate the metric existence hypotheses")
    _add_dnmc_command(sub, "birational", common, "projection, blow-up at R2, roundtrip sampling")

    res = sub.add_parser("resolve", parents=[common], help="minimal resolution chain of a quotient germ")
    res.add_argument("--order", type=int, required=True)
    res.add_argument("--weights", required=True)

    sweep = sub.add_parser("sweep", parents=[common], help="run the invariant suites over a parameter box")
    sweep.add_argument("--max-d", type=int)
    sweep.add_argument("--max-n", type=int)
    sweep.add_argument("--max-c", type=int)

    return p


def _parse_weights(text: str) -> list[int]:
    parts = [chunk.strip() for chunk in text.split(",")]
    if len(parts) != 2:
        raise BadInput(f"--weights takes two comma-separated integers, got {text!r}")
    try:
        return [int(part) for part in parts]
    except ValueError as exc:
        raise BadInput(f"cannot parse weights {text!r}") from exc


def _params(args: argparse.Namespace) -> dict:
    """The flags given on the command line, as a corpus row's parameters."""
    params = {name: value for name, value in vars(args).items() if value is not None}
    if "weights" in params:
        params["weights"] = _parse_weights(params["weights"])
    if "coeffs" in params:
        params["coeffs"] = [chunk.strip() for chunk in params["coeffs"].split(",")]
    return params


def run_command(argv: list[str]) -> int:
    # Each command builds its own model frames and roundtrip expansion verdicts,
    # as a one-shot process would: a command pays for each once and never
    # reuses another command's, so its output and its cost do not depend on
    # the commands run before it in the same process.  The parser is built
    # once per process: it keeps no state between parses, and argparse
    # reads the terminal width when it formats, not when it is built.
    compactify._cyclic_frame.cache_clear()
    birational._expands.cache_clear()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # An empty --corpus counts as given: it names a file that cannot be read.
    if (args.corpus is None) == (args.command is None):
        parser.print_usage(sys.stderr)
        given = args.corpus is not None
        problem = "give a subcommand or --corpus, not both" if given else "a subcommand or --corpus is required"
        print(f"classt: error: {problem}", file=sys.stderr)
        return 2
    try:
        if args.corpus is not None:
            report = reports.run_corpus(args.corpus, args.seed)
        else:
            kind = f"build-{args.variant}" if args.command == "build" else args.command
            report = reports.run_case(kind, _params(args), args.seed)
        if args.format == "dot":
            if report.dot is None:
                raise BadInput(_DOTLESS)
            payload = report.dot()
        elif args.format == "json":
            payload = reports.render_json(report.data)
        else:
            payload = reports.render_text(report.data)
    except ClassTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(payload)
    return report.exit_code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
