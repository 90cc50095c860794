"""Edge-list files and canonical JSON serialization of results.

The edge-list format is one directed layer edge per line,
``source<delim>target<delim>layer``, comma-delimited by default.  A
first content line that spells exactly ``source,target,layer`` (with
the active delimiter) is treated as a header and skipped; blank lines
and lines starting with ``#`` are ignored, and one byte-order mark
(U+FEFF) at the start of the first line is dropped, as spreadsheet
"CSV UTF-8" exports write one.  Labels are opaque text and
are never coerced to numbers, so ``01`` and ``1`` stay distinct nodes.
There is no quoting: the delimiter and newlines cannot appear inside
labels.

Result JSON has a fixed key order and sorted label arrays, so two
equal detection results always serialize to identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, TextIO

from .detection import DetectionResult, SeededRandom, validity_tag
from .errors import (
    DuplicateEdgeError,
    InvalidParamsError,
    MalformedLineError,
    MalformedPartitionError,
    SelfLoopError,
)
from .network import MultiLayerNetwork

__all__ = [
    "ParsedEdgeList",
    "parse_edge_list",
    "write_edge_list",
    "write_result",
    "result_to_dict",
    "partition_from_json",
    "partition_to_dict",
]

_HEADER_FIELDS = ("source", "target", "layer")
# encoder chunks joined per write by write_result(..., file=...)
_WRITE_BATCH = 4096


def _check_delimiter(delimiter: str) -> None:
    if not delimiter:
        raise InvalidParamsError("the edge-list delimiter must not be empty")


@dataclass
class ParsedEdgeList:
    """Outcome of reading an edge-list document."""

    network: MultiLayerNetwork
    records: int
    had_header: bool
    duplicates_dropped: int


def parse_edge_list(
    source: str | Iterable[str],
    *,
    delimiter: str = ",",
    dedupe: bool = False,
) -> ParsedEdgeList:
    """Build a network from edge-list text.

    ``source`` may be a string of CSV text or any iterable of lines
    (an open file works).  Errors carry the 1-based line number.  With
    ``dedupe=True`` repeated (source, target, layer) triples are
    dropped and counted instead of raising.  An empty ``delimiter``
    raises :class:`InvalidParamsError`.
    """
    _check_delimiter(delimiter)
    lines = iter(source.splitlines() if isinstance(source, str) else source)
    first = [line.removeprefix("\ufeff") for line in islice(lines, 1)]
    net = MultiLayerNetwork()
    records = 0
    had_header = False
    duplicates = 0
    expect_header = True
    for line_no, raw in enumerate(chain(first, lines), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(delimiter)
        if len(fields) != 3:
            fields = ("", "", "")  # fails the non-empty test below
        src, dst, layer = fields
        src, dst, layer = src.strip(), dst.strip(), layer.strip()
        if expect_header:
            expect_header = False
            if (src, dst, layer) == _HEADER_FIELDS:
                had_header = True
                continue
        if not (src and dst and layer):
            raise MalformedLineError(
                f"line {line_no}: expected 3 non-empty fields separated by "
                f"{delimiter!r}, got {raw!r}",
                line=line_no,
            )
        try:
            net.add_edge(src, dst, layer)
        except SelfLoopError:
            raise SelfLoopError(
                f"line {line_no}: self-loop on node {src!r}", line=line_no
            ) from None
        except DuplicateEdgeError:
            if dedupe:
                duplicates += 1
                continue
            raise DuplicateEdgeError(
                f"line {line_no}: duplicate edge ({src!r}, {dst!r}, {layer!r})",
                line=line_no,
            ) from None
        records += 1
    return ParsedEdgeList(
        network=net,
        records=records,
        had_header=had_header,
        duplicates_dropped=duplicates,
    )


def write_edge_list(
    net: MultiLayerNetwork, *, delimiter: str = ",", header: bool = True
) -> str:
    """Serialize a network as edge-list text, sorted canonically.

    Re-parsing the output reproduces the exact edge multiset.  Labels
    that are empty, have surrounding whitespace (the parser strips it),
    or contain the delimiter or a line break, and source labels
    starting with ``#``, cannot round-trip and are rejected, as is an
    empty ``delimiter``.  Without ``header``, a first row that spells
    the header or starts with a byte-order mark would not round-trip,
    so it is rejected too.
    """
    _check_delimiter(delimiter)
    for label in list(net.nodes()) + list(net.layers()):
        if not label or label != label.strip():
            raise ValueError(
                f"label {label!r} is empty or has surrounding whitespace and "
                "cannot be written as an edge list"
            )
        if delimiter in label or len(label.splitlines()) > 1:
            raise ValueError(
                f"label {label!r} contains the delimiter or a newline and "
                "cannot be written as an edge list"
            )
    rows = sorted(net.edges())
    for src, _, _ in rows:
        if src.startswith("#"):
            raise ValueError(
                f"source label {src!r} starts with '#' and would parse as a comment"
            )
    if not header and rows and (
        rows[0] == _HEADER_FIELDS or rows[0][0].startswith("\ufeff")
    ):
        raise ValueError(
            f"first row {rows[0]!r} would not read back as written; "
            "write with header=True"
        )
    lines = [delimiter.join(_HEADER_FIELDS)] if header else []
    lines.extend(delimiter.join(row) for row in rows)
    return "\n".join(lines) + "\n"


def result_to_dict(result: DetectionResult) -> dict:
    """Plain-dict form of a detection result, with canonical ordering."""
    config = result.config
    seed = (
        config.tie_policy.seed
        if isinstance(config.tie_policy, SeededRandom)
        else None
    )
    return {
        "alpha": config.alpha,
        "validity": validity_tag(config.validity),
        "tie_policy": "random" if isinstance(config.tie_policy, SeededRandom) else "lex",
        "seed": seed,
        "groups": [
            {"id": gid, "nodes": sorted(group)}
            for gid, group in enumerate(result.groups)
        ],
        "singletons": sorted(result.singletons),
        "removals": [
            {
                "step": rec.step,
                "pair": sorted(rec.pair),
                "clecc": rec.clecc,
                "edges_removed": rec.edges_removed,
            }
            for rec in result.removals
        ],
    }


def write_result(
    result: DetectionResult, pretty: bool = False, file: TextIO | None = None
) -> str | None:
    """JSON text for a detection result; equal results give equal bytes.

    Returns the text, or with ``file`` writes it there and returns
    ``None``.  The indented form is encoded in pure Python, one small
    chunk per token; writing it in batches of chunks keeps memory flat
    where the joined text of a long removal log would set the peak.
    """
    if pretty:
        encoder = json.JSONEncoder(indent=2)
    else:
        encoder = json.JSONEncoder(separators=(",", ":"))
    payload = result_to_dict(result)
    if file is None:
        return encoder.encode(payload)
    chunks = encoder.iterencode(payload)
    while batch := "".join(islice(chunks, _WRITE_BATCH)):
        file.write(batch)
    return None


def partition_to_dict(partition: Iterable[Iterable[str]]) -> dict:
    """Partition as the ``groups`` + ``singletons`` JSON shape.

    Blocks of two or more nodes become groups; one-node blocks are
    listed as singletons.
    """
    groups = []
    singletons = []
    for block in partition:
        nodes = sorted(block)
        if len(nodes) == 1:
            singletons.append(nodes[0])
        else:
            groups.append(nodes)
    return {
        "groups": [{"id": gid, "nodes": nodes} for gid, nodes in enumerate(groups)],
        "singletons": sorted(singletons),
    }


def partition_from_json(text: str) -> list[set[str]]:
    """Read a partition from JSON in the ``groups`` + ``singletons`` shape.

    Accepts both a bare partition document and a full detection result
    (any extra keys are ignored); a group is an object with a ``nodes``
    list, or a bare list.  Every node label must be a JSON string; it is
    never coerced.  An empty group, a node listed twice (in one block or
    in two), other shapes, and JSON nested too deeply to parse raise
    :class:`MalformedPartitionError`.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedPartitionError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise MalformedPartitionError("JSON is nested too deeply to read") from None
    if not isinstance(payload, dict):
        raise MalformedPartitionError("partition JSON must be an object")
    groups = payload.get("groups", [])
    singletons = payload.get("singletons", [])
    if not isinstance(groups, list) or not isinstance(singletons, list):
        raise MalformedPartitionError('"groups" and "singletons" must be lists')
    blocks: list[set[str]] = []
    block_of: dict[str, str] = {}  # node -> the block that lists it
    for position, group in enumerate(groups):
        nodes = group.get("nodes") if isinstance(group, dict) else group
        if not isinstance(nodes, list):
            raise MalformedPartitionError(f"group {position} has no list of nodes")
        if not all(isinstance(n, str) for n in nodes):
            raise MalformedPartitionError(
                f"group {position} has a node that is not a string"
            )
        if not nodes:
            raise MalformedPartitionError(f"group {position} is empty")
        name = f"group {position}"
        for node in nodes:
            _claim(block_of, node, name)
        blocks.append(set(nodes))
    for position, singleton in enumerate(singletons):
        if not isinstance(singleton, str):
            raise MalformedPartitionError(f"singleton {position} is not a string")
        _claim(block_of, singleton, f"singleton {position}")
        blocks.append({singleton})
    return blocks


def _claim(block_of: dict[str, str], node: str, block: str) -> None:
    """Record that ``block`` lists ``node``, which no block has listed yet."""
    first = block_of.get(node)
    if first is None:
        block_of[node] = block
    elif first == block:
        raise MalformedPartitionError(f"{block} lists node {node!r} twice")
    else:
        raise MalformedPartitionError(f"node {node!r} is in both {first} and {block}")
