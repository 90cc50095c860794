"""Edge-list files and canonical JSON serialization of results.

The edge-list format is one directed layer edge per line,
``source<delim>target<delim>layer``, comma-delimited by default.  A
first content line that spells exactly ``source,target,layer`` (with
the active delimiter) is treated as a header and skipped; blank lines
and lines starting with ``#`` are ignored, and one byte-order mark
(U+FEFF) at the start of the first line is dropped, as spreadsheet
"CSV UTF-8" exports write one.  Labels are opaque text and
are never coerced to numbers, so ``01`` and ``1`` stay distinct nodes.
There is no quoting: the delimiter, ``\\n`` and ``\\r`` cannot appear
inside labels.  The parser builds the network through
``MultiLayerNetwork.add_edge``, one call per record, so the link-map
layout is known to ``network`` alone.

Result JSON has a fixed key order and sorted label arrays, so two
equal detection results always serialize to identical bytes.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import Callable, Iterable, TextIO

from ._record import Record
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
# removal records per write of the indented form
_REMOVAL_BATCH = 256


def _check_delimiter(delimiter: str) -> None:
    if not delimiter:
        raise InvalidParamsError("the edge-list delimiter must not be empty")


class ParsedEdgeList(Record):
    """Outcome of reading an edge-list document."""

    __slots__ = ("network", "records", "had_header", "duplicates_dropped")

    def __init__(
        self,
        network: MultiLayerNetwork,
        records: int,
        had_header: bool,
        duplicates_dropped: int,
    ):
        self._set_fields(network, records, had_header, duplicates_dropped)


def parse_edge_list(
    source: str | Iterable[str],
    *,
    delimiter: str = ",",
    dedupe: bool = False,
) -> ParsedEdgeList:
    """Build a network from edge-list text.

    ``source`` may be a string of CSV text or any iterable of lines
    (an open file works).  A string breaks into lines only at ``\\n``,
    ``\\r\\n`` and ``\\r``, as a file opened in text mode does.  Each
    record goes into the network through
    :meth:`MultiLayerNetwork.add_edge`.  Errors carry the 1-based line
    number.  With ``dedupe=True`` repeated (source, target, layer)
    triples are dropped and counted instead of raising.  An empty
    ``delimiter`` raises :class:`InvalidParamsError`.
    """
    _check_delimiter(delimiter)
    if isinstance(source, str):
        source = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    lines = iter(source)
    first = [line.removeprefix("\ufeff") for line in islice(lines, 1)]
    net = MultiLayerNetwork()
    add_edge = net.add_edge
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
            # a line read from a file keeps its terminator; quote it without
            text = raw.removesuffix("\n").removesuffix("\r")
            raise MalformedLineError(
                f"line {line_no}: expected 3 non-empty fields separated by "
                f"{delimiter!r}, got {text!r}",
                line=line_no,
            )
        if src == dst:
            raise SelfLoopError(f"line {line_no}: self-loop on node {src!r}", line=line_no)
        try:
            add_edge(src, dst, layer)
        except DuplicateEdgeError:
            if not dedupe:
                raise DuplicateEdgeError(
                    f"line {line_no}: duplicate edge ({src!r}, {dst!r}, {layer!r})",
                    line=line_no,
                ) from None
            duplicates += 1
    return ParsedEdgeList(
        network=net,
        records=net.edge_count,
        had_header=had_header,
        duplicates_dropped=duplicates,
    )


def write_edge_list(
    net: MultiLayerNetwork, *, delimiter: str = ",", header: bool = True
) -> str:
    """Serialize a network as edge-list text, sorted canonically.

    Re-parsing the output reproduces the exact edge multiset.  Labels
    that are empty, have surrounding whitespace (the parser strips it),
    or contain the delimiter, ``\\n`` or ``\\r`` (the only line breaks
    the parser splits on), and source labels starting with ``#``, cannot
    round-trip and are rejected, as is an empty ``delimiter``.  Without
    ``header``, a first row that spells the header or starts with a
    byte-order mark would not round-trip, so it is rejected too.
    """
    _check_delimiter(delimiter)
    for label in list(net.nodes()) + list(net.layers()):
        if not label or label != label.strip():
            raise ValueError(
                f"label {label!r} is empty or has surrounding whitespace and "
                "cannot be written as an edge list"
            )
        if delimiter in label or "\n" in label or "\r" in label:
            raise ValueError(
                f"label {label!r} contains the delimiter or a line break and "
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


def _header(result: DetectionResult) -> dict:
    """Every key of the result document but ``removals``, in canonical order."""
    config = result.config
    random_ties = isinstance(config.tie_policy, SeededRandom)
    return {
        "alpha": config.alpha,
        "validity": validity_tag(config.validity),
        "tie_policy": "random" if random_ties else "lex",
        "seed": config.tie_policy.seed if random_ties else None,
        "groups": [
            {"id": gid, "nodes": sorted(group)}
            for gid, group in enumerate(result.groups)
        ],
        "singletons": sorted(result.singletons),
    }


def result_to_dict(result: DetectionResult) -> dict:
    """Plain-dict form of a detection result, with canonical ordering."""
    payload = _header(result)
    payload["removals"] = [
        {
            "step": rec.step,
            "pair": sorted(rec.pair),
            "clecc": rec.clecc,
            "edges_removed": rec.edges_removed,
        }
        for rec in result.removals
    ]
    return payload


def write_result(
    result: DetectionResult, pretty: bool = False, file: TextIO | None = None
) -> str | None:
    """JSON text for a detection result; equal results give equal bytes.

    Returns the text, or with ``file`` writes it there and returns
    ``None``.  The indented form writes each removal record from one
    fixed template (see ``_write_pretty``); with ``file`` it goes out
    in batches of records, so the text of a long removal log is never
    held whole.  The compact form is the standard encoder's, written
    in batches of its chunks.
    """
    if pretty:
        if file is not None:
            _write_pretty(result, file.write)
            return None
        parts: list[str] = []
        _write_pretty(result, parts.append)
        return "".join(parts)
    encoder = json.JSONEncoder(separators=(",", ":"))
    payload = result_to_dict(result)
    if file is None:
        return encoder.encode(payload)
    chunks = encoder.iterencode(payload)
    while batch := "".join(islice(chunks, _WRITE_BATCH)):
        file.write(batch)
    return None


# one removal record as ``json.JSONEncoder(indent=2)`` lays it out
_REMOVAL = (
    '    {\n      "step": %d,\n      "pair": [\n        %s,\n        %s\n      ],\n'
    '      "clecc": %s,\n      "edges_removed": %d\n    }'
)


def _write_pretty(result: DetectionResult, write: Callable[[str], object]) -> None:
    """Pass the indented JSON of ``result`` to ``write``, in pieces.

    The bytes are ``json.JSONEncoder(indent=2).encode(result_to_dict(result))``.
    The header, groups and singletons come from ``json.dumps``; each
    removal record fills ``_REMOVAL``, with its labels quoted by the
    encoder's own ``encode_basestring_ascii`` and a float value written
    by ``float.__repr__``, as the encoder writes both.
    """
    head = json.dumps(_header(result), indent=2)
    removals = result.removals
    if not removals:
        write(head[:-2] + ',\n  "removals": []\n}')
        return
    write(head[:-2] + ',\n  "removals": [\n')
    quote, float_repr = encode_basestring_ascii, float.__repr__
    for start in range(0, len(removals), _REMOVAL_BATCH):
        rows = []
        for rec in removals[start:start + _REMOVAL_BATCH]:
            a, b = rec.pair
            if b < a:
                a, b = b, a
            value = rec.clecc
            if type(value) is float and isfinite(value):
                value = float_repr(value)
            else:  # an int, or NaN, in a hand-built record
                value = json.dumps(value)
            rows.append(_REMOVAL % (rec.step, quote(a), quote(b), value, rec.edges_removed))
        write((",\n" if start else "") + ",\n".join(rows))
    write("\n  ]\n}")


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
