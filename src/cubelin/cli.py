"""Command-line front end.

Subcommands take a matrix argument that is resolved in order: a built-in
example name, inline JSON (anything starting with "["), or a path to a
matrix file.  ``--json`` switches every subcommand to machine output.

Exit codes: 0 clean, 1 usage or input error or a reader that closed
standard output early (the rest of the output is dropped, with no
traceback), 2 anomaly (a violated rank bound, a Keller map proved
NotInvertible, a search that surfaced anomalies, or a failed internal
check).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .druzkowski import rank_bound_certificate
from .harness import CHECK_NAMES, SearchConfig, run_search
from .invert import (
    NOT_INVERTIBLE,
    corollary_pipeline,
    decide_automorphism,
    gz_reduce,
)
from .linalg import ScalarMatrix
from .matrixio import (
    MatrixParseError,
    builtin_example,
    builtin_example_names,
    format_matrix,
    parse_matrix,
)
from .scalars import ParseError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ANOMALY = 2


class _Parser(argparse.ArgumentParser):
    # spec'd exit code for usage problems is 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="cubelin",
        description="Exact certificates, inversion, and search for cubic-linear maps.",
    )
    parser.add_argument("--version", action="version", version=f"cubelin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    names = ", ".join(builtin_example_names())
    matrix_help = f"built-in name ({names}), inline JSON, or a file path"

    p = sub.add_parser("verify", help="rank-bound certificate for a matrix")
    p.add_argument("matrix", help=matrix_help)
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("invert", help="decide polynomial invertibility")
    p.add_argument("matrix", help=matrix_help)
    p.add_argument(
        "--degree-bound",
        type=int,
        default=None,
        help="override the 3^(n-1) truncation bound",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("reduce", help="rank factorization and reduced map")
    p.add_argument("matrix", help=matrix_help)
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("corollary", help="small-dimension invertibility pipeline")
    p.add_argument("matrix", help=matrix_help)
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("search", help="run a search described by a config file")
    p.add_argument("config", help="path to a JSON search config")
    p.add_argument(
        "--records",
        action="store_true",
        help="emit one JSON record per visited candidate before the summary",
    )
    p.add_argument(
        "--workers", type=int, default=None, help="parallel workers (default: config)"
    )
    p.add_argument("--json", action="store_true", help="machine-readable summary")

    p = sub.add_parser("example", help="print a built-in example matrix")
    p.add_argument("name", help=f"one of: {names}")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    return parser


def _resolve_matrix(text: str) -> ScalarMatrix:
    if text in builtin_example_names():
        return builtin_example(text)
    if text.lstrip().startswith("["):
        return parse_matrix(text)
    try:
        content = Path(text).read_text(encoding="utf-8")
    except OSError as exc:
        raise MatrixParseError(f"cannot read matrix file {text!r}: {exc}") from exc
    return parse_matrix(content)


def _cmd_verify(args) -> int:
    matrix = _resolve_matrix(args.matrix)
    certificate = rank_bound_certificate(matrix)
    if args.json:
        print(certificate.to_json())
    else:
        for key, value in certificate.to_dict().items():
            print(f"{key}: {json.dumps(value)}")
    return EXIT_OK if certificate.theorem_satisfied else EXIT_ANOMALY


def _cmd_invert(args) -> int:
    matrix = _resolve_matrix(args.matrix)
    result = decide_automorphism(matrix, degree_bound=args.degree_bound)
    if args.json:
        print(result.to_json())
    else:
        print(f"status: {result.status}")
        print(f"degree_bound_used: {result.degree_bound_used}")
        print(f"inverse_degree: {json.dumps(result.inverse_degree)}")
        if result.inverse is not None:
            for i, p in enumerate(result.inverse.components):
                print(f"inverse[{i + 1}] = {p.to_text()}")
    # a Keller map proved non-invertible would refute the Jacobian conjecture
    if result.status == NOT_INVERTIBLE and result.keller:
        return EXIT_ANOMALY
    return EXIT_OK


def _cmd_reduce(args) -> int:
    matrix = _resolve_matrix(args.matrix)
    pair = gz_reduce(matrix)
    data = pair.to_dict()
    if args.json:
        print(json.dumps(data))
    else:
        print(f"r: {pair.r}")
        print(f"B: {json.dumps(data['B'])}")
        print(f"C: {json.dumps(data['C'])}")
        for i, p in enumerate(pair.G.components):
            print(f"G[{i + 1}] = {p.to_text()}")
    return EXIT_OK


def _cmd_corollary(args) -> int:
    matrix = _resolve_matrix(args.matrix)
    report = corollary_pipeline(matrix)
    if args.json:
        print(report.to_json())
    else:
        data = report.to_dict()
        f_inverse = data.pop("f_inverse")
        data.pop("pair")
        for key, value in data.items():
            print(f"{key}: {json.dumps(value)}")
        if report.pair is not None:
            for i, p in enumerate(report.pair.G.components):
                print(f"G[{i + 1}] = {p.to_text()}")
        if f_inverse is not None:
            for i, text in enumerate(f_inverse):
                print(f"inverse[{i + 1}] = {text}")
    return EXIT_ANOMALY if report.is_anomaly else EXIT_OK


def _cmd_search(args) -> int:
    try:
        raw = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file {args.config!r}: {exc}") from exc
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    config = SearchConfig.from_dict(data)
    report = run_search(config, workers=args.workers, collect_records=args.records)
    if args.records:
        for record in report.records:
            print(json.dumps(record))
    if args.json:
        print(report.to_json())
    else:
        print(f"visited: {report.totals['visited']}")
        print(f"passed_filters: {report.totals['passed_filters']}")
        for check in CHECK_NAMES:
            if check in report.totals:
                body = ", ".join(
                    f"{k}={v}" for k, v in report.totals[check].items()
                )
                print(f"{check}: {body}")
        print(f"anomalies: {len(report.anomalies)}")
        print(f"duration_seconds: {report.duration_seconds:.3f}")
    return EXIT_ANOMALY if report.anomalies else EXIT_OK


def _cmd_example(args) -> int:
    print(format_matrix(builtin_example(args.name)))
    return EXIT_OK


_COMMANDS = {
    "verify": _cmd_verify,
    "invert": _cmd_invert,
    "reduce": _cmd_reduce,
    "corollary": _cmd_corollary,
    "search": _cmd_search,
    "example": _cmd_example,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else int(exc.code)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except (MatrixParseError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RuntimeError as exc:
        # an internal check failed; searches name the candidate index
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANOMALY


if __name__ == "__main__":
    sys.exit(main())
