"""Command-line interface.

Subcommands: ``detect`` (run group extraction on an edge-list file),
``measure`` (print one pair's value or the whole table), ``generate``
(synthetic networks: ``planted`` and ``scenario4``) and ``eval nmi``
(compare two partition files).

Exit codes: 0 success, 1 usage error, 2 data error.  Results go to
standard output or ``--output``; all diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, TextIO

from . import __version__
from .detection import (
    DetectionConfig,
    Lexicographic,
    SeededRandom,
    parse_validity,
    run_detection,
)
from .errors import (
    CleccError,
    DomainMismatchError,
    EmptyNetworkError,
    InvalidParamsError,
    MalformedPartitionError,
    OracleMismatchError,
)
from .evaluation import nmi
from .formats import (
    parse_edge_list,
    partition_from_json,
    partition_to_dict,
    write_edge_list,
    write_result,
)
from .generators import PlantedParams, generate_density_scenario, generate_planted
from .measures import clecc, clecc_table
from .reference import naive_clecc, naive_detect

__all__ = ["main", "cli_main"]


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="clecc", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    detect = sub.add_parser("detect", help="extract multi-layered groups")
    detect.add_argument("--input", required=True, help="edge-list CSV file")
    detect.add_argument("--alpha", required=True, type=int, help="layer threshold")
    detect.add_argument(
        "--validity",
        default="weak",
        help="group condition: min-size:K, weak or strong (default: weak)",
    )
    detect.add_argument(
        "--ties", choices=("lex", "random"), default="lex", help="tie policy"
    )
    detect.add_argument("--seed", type=int, help="seed for --ties random")
    detect.add_argument("--output", help="write JSON here instead of stdout")
    detect.add_argument(
        "--log-removals", action="store_true", help="include the removal log"
    )
    _add_file_flags(detect)
    detect.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    detect.set_defaults(handler=_cmd_detect)

    measure = sub.add_parser("measure", help="print CLECC values")
    measure.add_argument("--input", required=True, help="edge-list CSV file")
    measure.add_argument("--alpha", required=True, type=int, help="layer threshold")
    measure.add_argument("--pair", help="X,Y — print this pair's value only")
    _add_file_flags(measure)
    measure.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    measure.set_defaults(handler=_cmd_measure)

    generate = sub.add_parser("generate", help="write synthetic networks")
    gen_sub = generate.add_subparsers(dest="model", metavar="MODEL")
    planted = gen_sub.add_parser("planted", help="planted-partition benchmark")
    planted.add_argument("--sizes", required=True, help="community sizes, e.g. 16,16")
    planted.add_argument("--layers", required=True, type=int)
    planted.add_argument("--p-in", required=True, type=float, dest="p_in")
    planted.add_argument("--p-out", required=True, type=float, dest="p_out")
    planted.add_argument("--seed", required=True, type=int)
    planted.add_argument("--output", required=True, help="edge-list file to write")
    planted.add_argument("--truth", help="also write the ground-truth partition JSON")
    planted.set_defaults(handler=_cmd_generate_planted)
    scenario = gen_sub.add_parser(
        "scenario4", help="1000 nodes, two dense and two sparse layers"
    )
    scenario.add_argument("--seed", required=True, type=int)
    scenario.add_argument("--output", required=True, help="edge-list file to write")
    scenario.set_defaults(handler=_cmd_generate_scenario)

    evaluate = sub.add_parser("eval", help="score partitions")
    eval_sub = evaluate.add_subparsers(dest="metric", metavar="METRIC")
    nmi_cmd = eval_sub.add_parser("nmi", help="normalized mutual information")
    nmi_cmd.add_argument("--truth", required=True, help="partition JSON file")
    nmi_cmd.add_argument("--predicted", required=True, help="partition JSON file")
    nmi_cmd.set_defaults(handler=_cmd_eval_nmi)

    return parser


def _add_file_flags(command: argparse.ArgumentParser) -> None:
    """Edge-list reading flags shared by the commands that take --input."""
    command.add_argument("--delimiter", default=",", help="edge-list field separator")
    command.add_argument(
        "--dedupe", action="store_true", help="drop duplicate edges instead of failing"
    )


def _read_network(args):
    """The network in ``args.input``, read with the --delimiter/--dedupe flags."""
    if not args.delimiter:
        raise UsageError("--delimiter must not be empty")
    with open(args.input, "r", encoding="utf-8") as handle:
        parsed = parse_edge_list(handle, delimiter=args.delimiter, dedupe=args.dedupe)
    if parsed.duplicates_dropped:
        print(
            f"note: dropped {parsed.duplicates_dropped} duplicate edge(s)",
            file=sys.stderr,
        )
    return parsed.network


def _cmd_detect(args) -> Callable[[TextIO], None]:
    if args.ties == "random":
        if args.seed is None:
            raise UsageError("--ties random requires an explicit --seed")
        policy = SeededRandom(args.seed)
    else:
        if args.seed is not None:
            raise UsageError("--seed only applies with --ties random")
        policy = Lexicographic()
    try:
        validity = parse_validity(args.validity)
    except InvalidParamsError as exc:
        raise UsageError(str(exc)) from None
    if args.oracle and args.ties != "lex":
        raise UsageError("--oracle needs --ties lex (random runs are not comparable)")
    config = DetectionConfig(
        alpha=args.alpha,
        validity=validity,
        tie_policy=policy,
        log_removals=args.log_removals,
    )
    net = _read_network(args)
    result = run_detection(net, config)
    if args.oracle:
        reference = write_result(naive_detect(net, config), pretty=True)
        if reference != write_result(result, pretty=True):
            raise OracleMismatchError(
                "optimized detection and brute-force reference disagree"
            )
        print("oracle check passed", file=sys.stderr)

    def write(handle: TextIO) -> None:
        write_result(result, pretty=True, file=handle)
        handle.write("\n")

    return write


def _parse_pair(text: str) -> tuple[str, str]:
    parts = text.split(",")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise UsageError("--pair expects two comma-separated node labels")
    if parts[0] == parts[1]:
        raise UsageError(f"--pair must name two distinct nodes, got {parts[0]!r} twice")
    return parts[0], parts[1]


def _cmd_measure(args) -> str:
    pair = None if args.pair is None else _parse_pair(args.pair)
    net = _read_network(args)
    if not net.edge_count:
        raise EmptyNetworkError(
            f"{args.input} holds no edges, so there is nothing to measure"
        )
    if pair is not None:
        x, y = pair
        value = clecc(net, x, y, args.alpha)
        if args.oracle and naive_clecc(net, x, y, args.alpha) != value:
            raise OracleMismatchError(
                f"optimized and reference values disagree for pair ({x!r}, {y!r})"
            )
        return f"{value}\n"
    table = clecc_table(net, args.alpha)
    lines = ["x,y,clecc"]
    for (a, b), value in table.items():
        if args.oracle and naive_clecc(net, a, b, args.alpha) != value:
            raise OracleMismatchError(
                f"optimized and reference values disagree for pair ({a!r}, {b!r})"
            )
        lines.append(f"{a},{b},{value}")
    return "\n".join(lines) + "\n"


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--sizes expects comma-separated integers, got {text!r}")
    if not sizes:
        raise UsageError("--sizes must name at least one community")
    return sizes


def _cmd_generate_planted(args) -> str:
    try:
        params = PlantedParams(
            sizes=_parse_sizes(args.sizes),
            layers=args.layers,
            p_in=args.p_in,
            p_out=args.p_out,
            seed=args.seed,
        )
    except InvalidParamsError as exc:
        raise UsageError(str(exc)) from None
    planted = generate_planted(params)
    if args.truth:
        truth_doc = json.dumps(partition_to_dict(planted.truth_partition()), indent=2)
        Path(args.truth).write_text(truth_doc + "\n", encoding="utf-8")
    return write_edge_list(planted.network)


def _cmd_generate_scenario(args) -> str:
    return write_edge_list(generate_density_scenario(args.seed))


def _read_partition(path: str, flag: str) -> list[set[str]]:
    """The partition in a JSON file; its errors name the flag that gave it."""
    try:  # utf-8-sig: spreadsheet and editor exports may start with a BOM
        return partition_from_json(Path(path).read_text(encoding="utf-8-sig"))
    except MalformedPartitionError as exc:
        raise CleccError(f"{flag}: {exc}") from None


def _cmd_eval_nmi(args) -> str:
    truth = _read_partition(args.truth, "--truth")
    predicted = _read_partition(args.predicted, "--predicted")
    try:
        score = nmi(truth, predicted)
    except DomainMismatchError as exc:
        flag = "--truth" if exc.side == "first" else "--predicted"
        raise CleccError(
            f"--truth and --predicted cover different node sets: node {exc.node!r} "
            f"is only in {flag} ({exc.sizes[0]} vs {exc.sizes[1]} nodes)"
        ) from None
    return f"{score}\n"


def _emit(body: str | Callable[[TextIO], None], handle: TextIO) -> None:
    """Write a handler's result: its text, or what its writer streams."""
    if isinstance(body, str):
        handle.write(body)
    else:
        body(handle)


def cli_main(argv: list[str]) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            print("usage error: missing command", file=sys.stderr)
            print(parser.format_usage(), end="", file=sys.stderr)
            return 1
        body = args.handler(args)
        output = getattr(args, "output", None)
        if output:
            with open(output, "w", encoding="utf-8") as handle:
                _emit(body, handle)
        else:
            _emit(body, sys.stdout)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        code = exc.code
        return 0 if code is None else int(code)
    except CleccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    """Console entry point."""
    return cli_main(sys.argv[1:] if argv is None else argv)
