"""Edge-list files and canonical JSON serialization of results.

The edge-list format is one directed layer edge per line,
``source<delim>target<delim>layer``.  The writer always separates the
fields with commas and starts with the header line; the reader takes
any non-empty delimiter, comma by default.  A first content line that
spells exactly ``source,target,layer`` (with the reader's delimiter)
is treated as a header and skipped; blank lines and lines starting
with ``#`` are ignored, and one byte-order mark (U+FEFF) at the start
of the first line is dropped, as spreadsheet "CSV UTF-8" exports
write one.  Labels are opaque text and are never coerced to numbers,
so ``01`` and ``1`` stay distinct nodes.  There is no quoting: the
delimiter, ``\\n`` and ``\\r`` cannot appear inside labels.  The parser
builds the network through ``MultiLayerNetwork.add_edge``, one call
per record, so the link-map layout is known to ``network`` alone.

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
    if not delimiter:
        raise InvalidParamsError("the edge-list delimiter must not be empty")
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


def write_edge_list(net: MultiLayerNetwork) -> str:
    """Serialize a network as edge-list text, a row per edge in ``net.edges()`` order.

    The text is comma-separated and starts with the header line, so
    re-parsing it with the default delimiter reproduces the exact edge
    multiset.  Labels that are empty, have surrounding whitespace (the
    parser strips it), or contain a comma, ``\\n`` or ``\\r`` (the only
    line breaks the parser splits on), and source labels starting with
    ``#``, cannot round-trip and are rejected.
    """
    for label in [*net.nodes(), *net.layers()]:
        if not label or label != label.strip():
            problem = "is empty or has surrounding whitespace"
        elif "," in label or "\n" in label or "\r" in label:
            problem = "contains a comma or a line break"
        else:
            continue
        raise ValueError(f"label {label!r} {problem} and cannot be written as an edge list")
    text = "\n".join([",".join(_HEADER_FIELDS), *map(",".join, net.edges())]) + "\n"
    at = text.find("\n#") + 1  # each line starts with its source label
    if at:
        source = text[at:text.index(",", at)]
        raise ValueError(f"source label {source!r} starts with '#' and would parse as a comment")
    return text


def _header(result: DetectionResult) -> dict:
    """Every key of the result document but ``removals``, in canonical order."""
    config = result.config
    random_ties = isinstance(config.tie_policy, SeededRandom)
    return {
        "alpha": config.alpha,
        "validity": validity_tag(config.validity),
        "tie_policy": "random" if random_ties else "lex",
        "seed": config.tie_policy.seed if random_ties else None,
        **_groups_and_singletons(map(sorted, result.groups), result.singletons),
    }


def _groups_and_singletons(groups: Iterable[list[str]], singletons: Iterable[str]) -> dict:
    """The ``groups`` + ``singletons`` object: numbered sorted groups, sorted singletons."""
    return {
        "groups": [{"id": gid, "nodes": nodes} for gid, nodes in enumerate(groups)],
        "singletons": sorted(singletons),
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
    return _groups_and_singletons(groups, singletons)


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
