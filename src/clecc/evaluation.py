"""Partition comparison: normalized mutual information.

A partition is any collection of disjoint node-label blocks that
jointly cover the node set.  NMI is label-invariant: renumbering the
blocks of either side never changes the score.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Collection, Iterable

from .errors import DomainMismatchError

__all__ = ["nmi"]


def _block_map(partition: Iterable[Collection[str]], name: str) -> dict[str, int]:
    mapping: dict[str, int] = {}
    for index, block in enumerate(partition):
        if len(block) == 0:
            raise ValueError(f"{name} partition contains an empty block")
        for node in block:
            if node in mapping:
                raise ValueError(f"{name} partition assigns node {node!r} twice")
            mapping[node] = index
    return mapping


def nmi(a: Iterable[Collection[str]], b: Iterable[Collection[str]]) -> float:
    """Normalized mutual information between two partitions, in [0, 1].

    Normalization is the arithmetic mean of the two block-label
    entropies.  Degenerate cases are pinned: identical partitions (up
    to block order and labels) score 1.0, and when either side has a
    single block while the partitions differ the score is 0.0.
    """
    blocks_a = [frozenset(block) for block in a]
    blocks_b = [frozenset(block) for block in b]
    map_a = _block_map(blocks_a, "first")
    map_b = _block_map(blocks_b, "second")
    if map_a.keys() != map_b.keys():
        only_a = map_a.keys() - map_b.keys()
        if only_a:
            side, node = "first", min(only_a, key=str)
        else:
            side, node = "second", min(map_b.keys() - map_a.keys(), key=str)
        sizes = (len(map_a), len(map_b))
        raise DomainMismatchError(
            f"partitions cover different node sets: node {node!r} is only in "
            f"the {side} partition ({sizes[0]} vs {sizes[1]} nodes)",
            node,
            side,
            sizes,
        )
    if set(blocks_a) == set(blocks_b):
        return 1.0

    n = len(map_a)
    count_a = Counter(map_a.values())
    count_b = Counter(map_b.values())
    joint = Counter((map_a[node], map_b[node]) for node in map_a)

    # fsum: the terms come in an order that string hashing changes per
    # process, and a correctly rounded sum does not depend on it
    def entropy(counts: Counter) -> float:
        return -math.fsum((c / n) * math.log(c / n) for c in counts.values())

    h_a = entropy(count_a)
    h_b = entropy(count_b)
    if h_a == 0.0 or h_b == 0.0:
        # one side is a single block and the partitions differ
        return 0.0
    info = math.fsum(
        (c / n) * math.log(n * c / (count_a[ca] * count_b[cb]))
        for (ca, cb), c in joint.items()
    )
    return min(1.0, max(0.0, 2.0 * info / (h_a + h_b)))
