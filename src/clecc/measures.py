"""Edge clustering measures for single- and multi-layer networks.

Two measures live here:

* ``ecc(net, x, y)`` — the classic single-layer edge clustering
  coefficient ``(z + 1) / s`` where ``z`` counts the triangles realised
  on the edge and ``s = min(deg(x) - 1, deg(y) - 1)`` counts the
  triangles the edge could possibly close.
* ``clecc(net, x, y, alpha)`` — the cross-layer generalisation: the
  share of alpha-neighbours the two nodes have in common,
  ``|MN(x) & MN(y)| / |(MN(x) | MN(y)) - {x, y}|``, where ``MN`` is the
  multi-layered neighbourhood at the chosen alpha.

``clecc_table`` evaluates the measure for every candidate pair (the
pairs connected on at least alpha layers) and ``update_after_removal``
repairs such a table exactly after all edges of one pair were deleted:
only entries containing one of the two endpoints can change, because a
pair's value depends solely on the neighbourhoods of its members.

Values are stored as floats, and floats are exact here.  A value is a
fraction ``inter / den`` in [0, 1] with ``den <= n - 2 < N = n``.  Two
distinct such fractions differ by at least 1/N**2; a correctly rounded
quotient lies within 2**-54 of its fraction.  While N < 2**26 (checked
when a table is built) 1/N**2 > 2**-52, so equal fractions give equal
floats, distinct ones distinct floats in the same order, and each float
is nearer its fraction than any other with denominator <= N.  So
``CleccTable.value`` and ``min_value`` return the exact
:class:`fractions.Fraction` via ``limit_denominator(n)``, and ``items``
yields the stored floats in sorted pair order, each pair label-sorted.

``clecc_table`` counts common neighbours with bitmasks where a bitmask
is no larger than the set it sits beside.  A node with at least n / 256
alpha-neighbours gets an int whose bit j is set for each neighbour
index j; a pair of two such nodes counts ``(bits_i & bits_j).bit_count()``,
any other pair takes ``len(a & b)`` of the two neighbour sets.  An
n-bit int takes about n / 8 bytes and a set about 40 bytes per member,
so at least n / 6.4 bytes here; a sparse input builds no bitmask.  The
repair after a removal stays on sets.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from itertools import islice
from typing import Iterator

from .errors import (
    EmptyTableError,
    InconsistentTableError,
    NotAdjacentError,
    TooManyNodesError,
)
from .network import MultiLayerNetwork

__all__ = ["CleccTable", "ecc", "clecc", "clecc_table", "update_after_removal"]


# a node with at least n / _BITMASK_SHARE neighbours gets a bitmask
_BITMASK_SHARE = 256


def _candidate_value(inter: int, size_a: int, size_b: int) -> float:
    """Value of a candidate pair, i.e. one inside each other's MN.

    ``inter`` counts the common neighbours and ``size_a``, ``size_b``
    the two neighbourhoods.  Both endpoints sit in the union of the
    neighbourhoods, so the denominator is size_a + size_b - inter - 2.
    A zero denominator forces a zero numerator (the pair's only
    alpha-neighbours are each other) and is defined as 1: a mutually
    exclusive dyad is maximally embedded in itself.
    """
    den = size_a + size_b - inter - 2
    return inter / den if den else 1.0


def _bitmasks(mn: list[set[int]]) -> dict[int, int]:
    """Neighbour bitmask of each node with at least n / 256 neighbours."""
    n = len(mn)
    size = (n + 7) // 8
    masks = {}
    for i, a in enumerate(mn):
        if len(a) * _BITMASK_SHARE >= n:
            buf = bytearray(size)
            for j in a:
                buf[j >> 3] |= 1 << (j & 7)
            masks[i] = int.from_bytes(buf, "little")
    return masks


def _check_float_exact(n: int) -> None:
    """Raise unless floats keep every value of an n-node table exact."""
    if n >= 1 << 26:
        raise TooManyNodesError(
            f"{n} nodes is too many for exact float values (limit 2**26 - 1)"
        )


class CleccTable:
    """Mapping from unordered candidate node pair to its exact value.

    Besides plain lookups the table maintains a value-bucket index and
    a lazy min-heap so the current minimum value, and the full set of
    pairs attaining it, are available cheaply — that is what the
    divisive detector loops over.  A pair is keyed by one int,
    ``lo * n + hi`` with ``lo < hi`` the ranks of its nodes in label
    order, so the smallest key in a bucket is its label-wise smallest
    pair.  The node set is fixed when the table is built; the public
    surface speaks labels.
    """

    def __init__(self, alpha: int, index_of: dict[str, int], label_of: list[str]):
        n = len(label_of)
        _check_float_exact(n)
        self.alpha = alpha
        self._index_of = index_of
        self._label_of = label_of
        self._n = n
        self._by_rank = sorted(range(n), key=label_of.__getitem__)
        self._rank = sorted(range(n), key=self._by_rank.__getitem__)  # inverse
        self._values: dict[int, float] = {}
        self._buckets: dict[float, dict[int, None]] = {}
        self._heap: list[float] = []

    # -- public, label-based ------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return self._key_from_labels(pair) in self._values

    def value(self, x: str, y: str) -> Fraction:
        value = self._values.get(self._key_from_labels((x, y)))
        if value is None:
            raise KeyError(f"no table entry for pair ({x!r}, {y!r})")
        return Fraction(value).limit_denominator(self._n)

    def items(self) -> Iterator[tuple[tuple[str, str], float]]:
        """Yield ((label_a, label_b), value), each pair label-sorted, in pair order.

        Keys over label ranks sort as their label pairs do, so this is
        ``sorted`` order on the pairs.
        """
        values = self._values
        return ((self._labels(key), values[key]) for key in sorted(values))

    def pairs(self) -> list[tuple[str, str]]:
        return [self._labels(key) for key in sorted(self._values)]

    def min_value(self) -> Fraction:
        """Smallest value currently stored; EmptyTableError when empty."""
        return Fraction(self._peek_min()).limit_denominator(self._n)

    def as_dict(self) -> dict[tuple[str, str], float]:
        return dict(self.items())

    # -- internal, key-based ------------------------------------------

    def _key(self, i: int, j: int) -> int:
        a, b = self._rank[i], self._rank[j]
        return a * self._n + b if a < b else b * self._n + a

    def _pair(self, key: int) -> tuple[int, int]:
        """Node indices of a key, smaller index first."""
        lo, hi = divmod(key, self._n)
        a, b = self._by_rank[lo], self._by_rank[hi]
        return (a, b) if a < b else (b, a)

    def _labels(self, key: int) -> tuple[str, str]:
        """Node labels of a key, label-sorted."""
        lo, hi = divmod(key, self._n)
        return self._label_of[self._by_rank[lo]], self._label_of[self._by_rank[hi]]

    def _key_from_labels(self, pair: tuple[str, str]) -> int | None:
        i = self._index_of.get(pair[0], self._n)
        j = self._index_of.get(pair[1], self._n)
        return self._key(i, j) if max(i, j) < self._n else None

    def _set(self, key: int, value: float) -> None:
        old = self._values.get(key)
        if old is not None:
            if old == value:
                return
            bucket = self._buckets[old]
            del bucket[key]
            if not bucket:
                del self._buckets[old]
        self._values[key] = value
        bucket = self._buckets.get(value)
        if bucket is None:
            self._buckets[value] = {key: None}
            heapq.heappush(self._heap, value)
        else:
            bucket[key] = None

    def _delete(self, key: int) -> None:
        value = self._values.pop(key)
        bucket = self._buckets[value]
        del bucket[key]
        if not bucket:
            del self._buckets[value]

    def _peek_min(self) -> float:
        heap = self._heap
        while heap and heap[0] not in self._buckets:
            heapq.heappop(heap)
        if not heap:
            raise EmptyTableError("the table has no entries")
        return heap[0]

    def _select_min_lex(self) -> int:
        return min(self._buckets[self._peek_min()])

    def _select_min_random(self, rng: random.Random) -> int:
        bucket = self._buckets[self._peek_min()]
        pick = rng.randrange(len(bucket))
        return next(islice(iter(bucket), pick, None))


def ecc(net: MultiLayerNetwork, x: str, y: str) -> float | None:
    """Edge clustering coefficient of the edge {x, y} in a one-layer network.

    Counts common neighbours of the endpoints (triangles realised on
    the edge) against ``min(deg(x) - 1, deg(y) - 1)`` (triangles the
    edge could close).  Degrees ignore edge direction.  Returns ``None``
    when the denominator is zero, i.e. one endpoint has no other
    neighbour; the value is undefined there rather than infinite.
    """
    if net.layer_count != 1:
        raise ValueError(
            "ecc is a single-layer measure; project the network onto one "
            f"layer first (got {net.layer_count} layers)"
        )
    i = net.node_index(x)
    j = net.node_index(y)
    adj = net._alpha_adjacency(1)
    if j not in adj[i]:
        raise NotAdjacentError(f"no edge between {x!r} and {y!r}")
    triangles = len(adj[i] & adj[j])
    possible = min(len(adj[i]) - 1, len(adj[j]) - 1)
    if possible == 0:
        return None
    return (triangles + 1) / possible


def clecc(net: MultiLayerNetwork, x: str, y: str, alpha: int) -> float:
    """Cross-layer edge clustering coefficient of the pair {x, y}.

    Shared alpha-neighbours of the pair over all alpha-neighbours of
    the pair (the pair itself excluded from the union).  Defined for
    any two distinct nodes, adjacent or not; the 0/0 case (no
    alpha-neighbours besides possibly each other) is pinned to 1.0.
    """
    if x == y:
        raise ValueError(f"pair must consist of two distinct nodes, got {x!r} twice")
    i = net.node_index(x)
    j = net.node_index(y)
    net._check_alpha(alpha)
    a = net._mn_idx(i, alpha)
    b = net._mn_idx(j, alpha)
    inter = len(a & b)
    den = len(a) + len(b) - inter - (j in a) - (i in b)
    if den == 0:
        return 1.0
    return inter / den


def clecc_table(net: MultiLayerNetwork, alpha: int) -> CleccTable:
    """Evaluate the measure for every pair connected on >= alpha layers."""
    net._check_alpha(alpha)
    table = CleccTable(alpha, net._node_index, net._node_labels)
    mn = net._alpha_adjacency(alpha)
    bits = _bitmasks(mn)
    for i, a in enumerate(mn):
        bits_i = bits.get(i)
        for j in a:
            if j > i:
                b = mn[j]
                if bits_i is None or j not in bits:
                    inter = len(a & b)
                else:
                    inter = (bits_i & bits[j]).bit_count()
                table._set(table._key(i, j), _candidate_value(inter, len(a), len(b)))
    return table


def update_after_removal(
    table: CleccTable, net: MultiLayerNetwork, x: str, y: str
) -> CleccTable:
    """Repair a table right after ``net.remove_pair_edges(x, y)``.

    Drops the {x, y} entry and recomputes every entry containing x or
    y against the current network.  No other entry can have changed:
    a value depends only on the neighbourhoods of its own two nodes,
    and deleting x–y edges alters only the neighbourhoods of x and y.
    The table ends up identical to a from-scratch rebuild.  Mutates and
    returns ``table``.
    """
    i = net.node_index(x)
    j = net.node_index(y)
    pair = (i, j) if i < j else (j, i)
    if table._key(i, j) not in table._values:
        raise InconsistentTableError(
            f"pair ({x!r}, {y!r}) has no table entry; the table does not "
            "match the network this removal was applied to"
        )
    alpha = table.alpha
    mn = {z: net._mn_idx(z, alpha) for e in pair for z in (e, *net._mn_idx(e, alpha))}
    _repair(table, mn, pair)
    return table


def _repair(table: CleccTable, mn, pair: tuple[int, int]) -> None:
    """Drop ``pair`` and recompute every entry containing one of its nodes.

    ``pair`` is index-sorted and ``mn[v]`` (a list or dict) is node v's
    current neighbourhood, for both endpoints and all their neighbours.
    Entries are rewritten endpoint by endpoint in that order, each in
    its set's iteration order: this fixes the order in which pairs
    enter each value bucket, and so every SeededRandom draw.
    """
    table._delete(table._key(*pair))
    for e in pair:
        mn_e = mn[e]
        for z in mn_e:
            mn_z = mn[z]
            inter = len(mn_e & mn_z)
            table._set(table._key(e, z), _candidate_value(inter, len(mn_e), len(mn_z)))
