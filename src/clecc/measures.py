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
so at least n / 6.4 bytes here; a sparse input builds no bitmask.

The repair after a removal intersects no sets: it recovers each
entry's common-neighbour count from its stored float.  For a pair
with ``c`` common neighbours and ``s = |MN(x)| + |MN(y)| - 2`` the
stored value is ``v = fl(c / (s - c))``, and ``v = 1.0`` when
``s - c = 0``, which forces ``c = s = 0``.  Solving ``v = c / (s - c)``
gives ``c = v * s / (1 + v)``, and that formula also yields 0 for the
zero-denominator case.  Computing it rounds four times (the stored
quotient, the product, the sum and the division), so it lies within a
relative error of about 5 * 2**-53 of c; as c <= s <= 2(n - 1) < 2**27,
the absolute error stays below 2**-23, far under 1/2, and ``round``
returns ``c`` exactly.  Removing {i, j} lowers the count of an entry
(e, z), e one of the endpoints, by one exactly when z is a common
neighbour of i and j, and lowers ``s`` by one.  So one intersection
per removal, ``MN(i) & MN(j)``, serves every entry.  The recovery
takes each stored value to match the neighbourhoods as they were just
before the removal, so ``update_after_removal`` trusts the table to
match the network as it stood then.
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
    pair; lex selection finds it with a lazy min-heap of keys for each
    bucket it has visited.  The node set is fixed when the table is
    built; the public surface speaks labels.
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
        # value -> lazy min-heap holding every key of that bucket (and
        # possibly keys that left it), built on first lex selection
        self._lex_heaps: dict[float, list[int]] = {}

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

    def _insert(self, key: int, value: float) -> None:
        """Store the value of a pair that has no entry yet."""
        self._values[key] = value
        bucket = self._buckets.get(value)
        if bucket is None:
            self._buckets[value] = {key: None}
            heapq.heappush(self._heap, value)
        else:
            bucket[key] = None
            lex_heap = self._lex_heaps.get(value)
            if lex_heap is not None:
                heapq.heappush(lex_heap, key)

    def _delete(self, key: int) -> None:
        value = self._values.pop(key)
        bucket = self._buckets[value]
        del bucket[key]
        if not bucket:
            del self._buckets[value]
            self._lex_heaps.pop(value, None)

    def _peek_min(self) -> float:
        heap = self._heap
        while heap and heap[0] not in self._buckets:
            heapq.heappop(heap)
        if not heap:
            raise EmptyTableError("the table has no entries")
        return heap[0]

    def _select_min_lex(self) -> int:
        """Smallest key of the minimum bucket, from that bucket's lazy heap."""
        value = self._peek_min()
        bucket = self._buckets[value]
        heap = self._lex_heaps.get(value)
        if heap is None:
            heap = list(bucket)
            heapq.heapify(heap)
            self._lex_heaps[value] = heap
        while heap[0] not in bucket:
            heapq.heappop(heap)
        return heap[0]

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
                table._insert(table._key(i, j), _candidate_value(inter, len(a), len(b)))
    return table


def update_after_removal(
    table: CleccTable, net: MultiLayerNetwork, x: str, y: str
) -> CleccTable:
    """Repair a table right after ``net.remove_pair_edges(x, y)``.

    Drops the {x, y} entry and recomputes every entry containing x or
    y against the current network.  No other entry can have changed:
    a value depends only on the neighbourhoods of its own two nodes,
    and deleting x–y edges alters only the neighbourhoods of x and y.
    The table must match the network as it was before this removal
    (each entry's old common-neighbour count is read back from its
    value); then it ends up identical to a from-scratch rebuild.
    Mutates and returns ``table``.
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
    neighbourhood after the removal, for both endpoints and all their
    neighbours; the table still holds the values from before it.  Each
    entry's old common-neighbour count comes back from its stored value
    (see the module docstring).  Entries are rewritten endpoint by
    endpoint in that order, each in its set's iteration order: this
    fixes the order in which pairs enter each value bucket, and so
    every SeededRandom draw.
    """
    table._delete(table._key(*pair))
    values, buckets, heap = table._values, table._buckets, table._heap
    lex_heaps, rank, n = table._lex_heaps, table._rank, table._n
    heappush = heapq.heappush
    shared = mn[pair[0]] & mn[pair[1]]
    for e in pair:
        mn_e = mn[e]
        # s = |MN(e)| + |MN(z)| - 2 before the removal; e has lost one
        # neighbour since, z none, so s = len(mn_e) - 1 + len(mn[z])
        size_e = len(mn_e) - 1
        rank_e = rank[e]
        for z in mn_e:
            rank_z = rank[z]
            key = rank_e * n + rank_z if rank_e < rank_z else rank_z * n + rank_e
            old = values[key]
            s = size_e + len(mn[z])
            inter = round(old * s / (1 + old))
            if z in shared:
                inter -= 1
            elif not inter and s > 1:
                continue  # stays 0 / (s - 1) = 0
            den = s - 1 - inter
            value = inter / den if den else 1.0
            if value == old:
                continue
            bucket = buckets[old]
            del bucket[key]
            if not bucket:
                del buckets[old]
                lex_heaps.pop(old, None)
            values[key] = value
            bucket = buckets.get(value)
            if bucket is None:
                buckets[value] = {key: None}
                heappush(heap, value)
            else:
                bucket[key] = None
                lex_heap = lex_heaps.get(value)
                if lex_heap is not None:
                    heappush(lex_heap, key)
