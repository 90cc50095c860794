"""Command-line interface.

Subcommands: ``detect`` (run group extraction on an edge-list file),
``measure`` (print one pair's value or the whole table), ``generate``
(synthetic networks: ``planted`` and ``scenario4``) and ``eval nmi``
(compare two partition files).

Exit codes: 0 success, 1 usage error, 2 data error.  A usage error is
a bad or missing flag value or a missing subcommand: it raises
:class:`InvalidParamsError`, like a bad parameter does in the library,
and prints one ``usage error:`` line.  Results go to standard output or
``--output``; all diagnostics go to standard error.  A command that
fails leaves every file it was to write as it found it.

The generators, NMI scoring and the naive reference are imported by the
code that uses them, so ``detect`` and ``measure`` jobs never load them
(the reference only with ``--oracle``).
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from collections.abc import Callable
from io import TextIOBase
from itertools import count, islice

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
from .formats import (
    parse_edge_list,
    partition_from_json,
    partition_to_dict,
    write_edge_list,
    write_result,
)
from .measures import clecc, clecc_rows
from .measures import clecc_table  # unused: the benchmark's traced pass wraps this name

__all__ = ["main", "cli_main"]

# table rows per write of ``clecc measure``
_MEASURE_BATCH = 1024


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidParamsError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="clecc", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    # the edge-list reading flags of the commands that take --input
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("--input", required=True, help="edge-list CSV file")
    reads.add_argument("--alpha", required=True, type=_alpha, help="layer threshold")
    reads.add_argument("--delimiter", default=",", help="edge-list field separator")
    reads.add_argument(
        "--dedupe", action="store_true", help="drop duplicate edges instead of failing"
    )
    reads.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)

    detect = sub.add_parser("detect", parents=[reads], help="extract multi-layered groups")
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
    detect.set_defaults(handler=_cmd_detect)

    measure = sub.add_parser("measure", parents=[reads], help="print CLECC values")
    measure.add_argument("--pair", help="X,Y — print this pair's value only")
    measure.set_defaults(handler=_cmd_measure)

    generate = sub.add_parser("generate", help="write synthetic networks")
    gen_sub = generate.add_subparsers(dest="model", metavar="MODEL", required=True)
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
    eval_sub = evaluate.add_subparsers(dest="metric", metavar="METRIC", required=True)
    nmi_cmd = eval_sub.add_parser("nmi", help="normalized mutual information")
    nmi_cmd.add_argument("--truth", required=True, help="partition JSON file")
    nmi_cmd.add_argument("--predicted", required=True, help="partition JSON file")
    nmi_cmd.set_defaults(handler=_cmd_eval_nmi)

    return parser


def _alpha(text: str) -> int:
    """An --alpha value: a layer count of at least 1.

    The upper bound, the network's layer count, is checked once the
    input is read.
    """
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")


def _read_network(args):
    """The network in ``args.input``, read with the --delimiter/--dedupe flags."""
    if not args.delimiter:
        raise InvalidParamsError("--delimiter must not be empty")
    with open(args.input, "r", encoding="utf-8") as handle:
        parsed = parse_edge_list(handle, delimiter=args.delimiter, dedupe=args.dedupe)
    if parsed.duplicates_dropped:
        print(
            f"note: dropped {parsed.duplicates_dropped} duplicate edge(s)",
            file=sys.stderr,
        )
    return parsed.network


def _cmd_detect(args) -> Callable[[TextIOBase], None]:
    if args.ties == "random":
        if args.seed is None:
            raise InvalidParamsError("--ties random requires an explicit --seed")
        policy = SeededRandom(args.seed)
    else:
        if args.seed is not None:
            raise InvalidParamsError("--seed only applies with --ties random")
        policy = Lexicographic()
    validity = parse_validity(args.validity)
    if args.oracle and args.ties != "lex":
        raise InvalidParamsError("--oracle needs --ties lex (random runs are not comparable)")
    config = DetectionConfig(
        alpha=args.alpha,
        validity=validity,
        tie_policy=policy,
        log_removals=args.log_removals,
    )
    net = _read_network(args)
    result = run_detection(net, config)
    if args.oracle:
        from .reference import naive_detect

        reference = write_result(naive_detect(net, config), pretty=True)
        if reference != write_result(result, pretty=True):
            raise OracleMismatchError(
                "optimized detection and brute-force reference disagree"
            )
        print("oracle check passed", file=sys.stderr)

    def write(handle: TextIOBase) -> None:
        write_result(result, pretty=True, file=handle)
        handle.write("\n")

    return write


def _parse_pair(text: str) -> tuple[str, str]:
    parts = text.split(",")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise InvalidParamsError("--pair expects two comma-separated node labels")
    if parts[0] == parts[1]:
        raise InvalidParamsError(f"--pair must name two distinct nodes, got {parts[0]!r} twice")
    return parts[0], parts[1]


def _cmd_measure(args) -> str | Callable[[TextIOBase], None]:
    pair = None if args.pair is None else _parse_pair(args.pair)
    net = _read_network(args)
    if not net.edge_count:
        raise EmptyNetworkError(
            f"{args.input} holds no edges, so there is nothing to measure"
        )
    if args.oracle:
        from .reference import naive_clecc
    if pair is not None:
        x, y = pair
        value = clecc(net, x, y, args.alpha)
        if args.oracle and naive_clecc(net, x, y, args.alpha) != value:
            raise OracleMismatchError(
                f"optimized and reference values disagree for pair ({x!r}, {y!r})"
            )
        return f"{value}\n"
    # checks alpha and the node count now; the rows are made as they are read
    rows = clecc_rows(net, args.alpha)
    if args.oracle:  # every row is checked before the first byte goes out
        for (a, b), value in rows:
            if naive_clecc(net, a, b, args.alpha) != value:
                raise OracleMismatchError(
                    f"optimized and reference values disagree for pair ({a!r}, {b!r})"
                )
        rows = clecc_rows(net, args.alpha)

    def write(handle: TextIOBase) -> None:
        _check_encodable(net, args.alpha, handle)
        # few values are distinct, so each one's text is made once
        texts = _ValueTexts()
        handle.write("x,y,clecc\n")
        while batch := [
            f"{a},{b},{texts[value]}\n" for (a, b), value in islice(rows, _MEASURE_BATCH)
        ]:
            handle.write("".join(batch))

    return write


def _check_encodable(net, alpha: int, handle: TextIOBase) -> None:
    """Raise ``UnicodeEncodeError`` if a label of a table row cannot go to ``handle``.

    Called before the table's first byte, so a failed ``measure`` writes
    nothing.  A node has rows when it has an alpha-neighbour; the labels
    are encoded as the handle would encode them, with its error handler.
    """
    encoding = getattr(handle, "encoding", None)
    if not encoding:
        return
    errors = getattr(handle, "errors", None) or "strict"
    for label in net.nodes():
        try:
            label.encode(encoding, errors)
        except UnicodeEncodeError:
            if net.multilayer_neighborhood(label, alpha):
                raise


class _ValueTexts(dict):
    """Text of each float value, made by ``repr`` on first lookup."""

    def __missing__(self, value: float) -> str:
        text = self[value] = repr(value)
        return text


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidParamsError(f"--sizes expects comma-separated integers, got {text!r}")


def _cmd_generate_planted(args) -> str | dict[str, str]:
    from .generators import PlantedParams, generate_planted

    if args.truth and _same_file(args.truth, args.output):
        raise InvalidParamsError(f"--output and --truth name the same file: {args.truth!r}")
    params = PlantedParams(
        sizes=_parse_sizes(args.sizes),
        layers=args.layers,
        p_in=args.p_in,
        p_out=args.p_out,
        seed=args.seed,
    )
    planted = generate_planted(params)
    edges = write_edge_list(planted.network)
    if not args.truth:
        return edges
    truth_doc = json.dumps(partition_to_dict(planted.truth_partition()), indent=2)
    return {args.output: edges, args.truth: truth_doc + "\n"}


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` name one file.

    Two paths that exist are compared by inode, so a hard link counts;
    otherwise by their resolved paths.
    """
    try:
        return os.path.samefile(a, b)
    except OSError:  # one is not there yet
        return os.path.realpath(a) == os.path.realpath(b)


def _cmd_generate_scenario(args) -> str:
    from .generators import generate_density_scenario

    return write_edge_list(generate_density_scenario(args.seed))


def _read_partition(path: str, flag: str) -> list[set[str]]:
    """The partition in a JSON file; its errors name the flag that gave it."""
    # utf-8-sig: spreadsheet and editor exports may start with a BOM
    with open(path, encoding="utf-8-sig") as handle:
        text = handle.read()
    try:
        return partition_from_json(text)
    except MalformedPartitionError as exc:
        raise CleccError(f"{flag}: {exc}") from None


def _cmd_eval_nmi(args) -> str:
    from .evaluation import nmi

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


def _emit(body: str | Callable[[TextIOBase], None], handle: TextIOBase) -> None:
    """Write a handler's result: its text, or what its writer streams."""
    if isinstance(body, str):
        handle.write(body)
    else:
        body(handle)


def _write_files(files: dict[str, str | Callable[[TextIOBase], None]]) -> None:
    """Write every file of a command, or leave each target it replaces as it was.

    A body whose target can be replaced losing nothing (``_replaceable``)
    goes to a new file beside it.  Once every body is written, each new
    file is moved onto its target with ``os.replace``; on any failure
    before that, the new files are removed.  Any other target is written
    in place, as ``open(path, "w")`` writes it.
    """
    made: list[tuple[str, str]] = []
    try:
        for path, body in files.items():
            found = _replaceable(path)
            if found is None:
                handle, old = open(path, "w", encoding="utf-8"), None
            else:
                target, old = found
                # private until it takes the old file's mode below
                temp, fd = _new_file_beside(target, path, 0o666 if old is None else 0o600)
                made.append((temp, target))
                handle = open(fd, "w", encoding="utf-8")
            with handle:
                if old is not None:  # the old file's mode and group
                    os.fchmod(fd, old.st_mode & 0o777)
                    if os.fstat(fd).st_gid != old.st_gid:
                        os.fchown(fd, -1, old.st_gid)
                _emit(body, handle)
        for temp, target in made:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in made:
            try:
                os.unlink(temp)
            except FileNotFoundError:  # already moved into place
                pass
        raise


def _replaceable(path: str) -> tuple[str, os.stat_result | None] | None:
    """The file ``path`` names and its status (None if new), if replacing it loses nothing.

    That holds for a new file, or a regular file with no other link that
    this process owns and may write, whose group is one of its own, in
    a directory this process may write.  For anything else (a device
    such as ``os.devnull``, a pipe, a ``/dev/stdout`` that names no file
    of its own, a file that is read-only to this process or shared by
    hard links) this returns None.  A symbolic link is followed.
    """
    target = os.path.realpath(path)
    try:
        old = os.stat(path)
    except FileNotFoundError:
        old = None
    except OSError:
        return None
    if old is not None:
        try:
            same = os.path.samestat(old, os.stat(target))
        except OSError:
            return None
        if not (
            same
            and stat.S_ISREG(old.st_mode)
            and old.st_nlink == 1
            and old.st_uid == os.geteuid()
            and old.st_gid in (os.getegid(), *os.getgroups())
            and os.access(target, os.W_OK)
        ):
            return None
    if not os.access(os.path.dirname(target), os.W_OK | os.X_OK):
        return None
    return target, old


def _new_file_beside(target: str, path: str, mode: int) -> tuple[str, int]:
    """A new file in ``target``'s directory: its name and descriptor.

    It is made with ``mode`` less the umask; 0666 is what
    ``open(path, "w")`` gives a new file.  An error names ``path``, the
    path given.
    """
    directory, name = os.path.split(target)
    for n in count():
        temp = os.path.join(directory, f".{name}.{os.getpid()}.{n}.tmp")
        try:
            return temp, os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
        except FileExistsError:
            continue
        except OSError as exc:
            exc.filename = path  # name the path given, not the new file
            raise


def cli_main(argv: list[str]) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    try:
        args = _build_parser().parse_args(argv)
        body = args.handler(args)
        output = getattr(args, "output", None)
        if isinstance(body, dict):  # the paths and bodies of several files
            _write_files(body)
        elif output:
            _write_files({output: body})
        else:
            _emit(body, sys.stdout)
    except InvalidParamsError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        code = exc.code
        return 0 if code is None else int(code)
    except (CleccError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    except UnicodeEncodeError as exc:
        print(f"error: output cannot be encoded: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # Ctrl-C; the shell's 128 + SIGINT
        print("interrupted", file=sys.stderr)
        return 130
    return 0


def main(argv: list[str] | None = None) -> int:
    """Console entry point.

    A reader that closes standard output early (``clecc measure | head``)
    gets the one-line ``error:`` diagnostic and exit code 2, whether the
    broken pipe shows on a write inside ``cli_main`` or only on the last
    flush here.  Standard output is then pointed at the null device, so
    the interpreter's own flush at exit cannot report it again.
    """
    code = cli_main(sys.argv[1:] if argv is None else argv)
    try:
        sys.stdout.flush()
    except BrokenPipeError as exc:
        if not code:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code
