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
pairs connected on at least alpha layers), ``clecc_rows`` streams the
same values without keeping them, and ``update_after_removal``
repairs such a table exactly after all edges of one pair were deleted:
only entries containing one of the two endpoints can change, because a
pair's value depends solely on the neighbourhoods of its members.

The table owns the working alpha adjacency ``MN``, one dict per node
from neighbour to common-neighbour count ``c``, kept under both nodes.
A value is derived as ``c / (|MN(x)| + |MN(y)| - 2 - c)``, or 1.0 when
that denominator is 0.  The floats are exact: a value is a
fraction in [0, 1] whose denominator is at most n - 2 < N = n.  Two
distinct such fractions differ by at least 1/N**2; a correctly rounded
quotient lies within 2**-54 of its fraction.  While N < 2**26 (checked
when a table is built) 1/N**2 > 2**-52, so equal fractions give equal
floats, distinct ones distinct floats in the same order, and each float
is nearer its fraction than any other with denominator <= N.  So
``CleccTable.value`` and ``min_value`` return the exact
:class:`fractions.Fraction` via ``limit_denominator(n)``, and ``items``
yields the derived floats in sorted pair order, each pair label-sorted.
``clecc_rows`` derives each float from the same count by the same
formula and checks the same limit before its first row, so the argument
covers its values too; it walks the nodes by label rank, as ``items``
does, over per-node maps keyed by the neighbours: at alpha 1 the link
maps themselves, at higher alphas maps made as the table makes its own.

``clecc_table`` counts common neighbours with bitmasks where a bitmask
is about as large as the neighbour map it sits beside, or smaller.  A
node with at least n / 256 alpha-neighbours gets an int whose bit j is
set for each neighbour index j; a pair of two such nodes counts
``(bits_i & bits_j).bit_count()``, any other pair intersects the two
neighbourhoods.  An n-bit int takes about n / 8 bytes and a map 30 to
50 bytes per member, so at least n / 8.5 bytes here; a sparse input
builds no bitmask.

The repair after a removal intersects no sets per entry.  Removing
{i, j} touches only the entries (e, z) with e one of the endpoints.
Such an entry's union ``(MN(e) | MN(z)) - {e, z}`` held the other
endpoint.  Exactly when z is a common neighbour of i and j, that
endpoint stays in the union and leaves the intersection, so ``c``
drops by one.  Otherwise it leaves the union and ``c`` stays.  So one
intersection per removal, ``MN(i) & MN(j)``, serves every entry, and
the table's own adjacency gives each old and new value.

Lexicographic selection keeps lower bounds, not values.  Only the
shared entries above lose a common neighbour, so only their values
fall; every other touched entry keeps ``c`` over a denominator one
smaller, so its value rises, or stays 0.  The lex heap holds
``(bound, key)`` items under one invariant: every live key has an item
whose bound is at most its current value.  The repair keeps it by
pushing each shared entry's new value; a stale item of any other
entry is still a bound.  Selection looks at the top, drops it if its
key has left the table, and otherwise recomputes the key's value from
its count and the two current sizes.  A top below that value is
pushed back at it.  A top equal to it is the answer: for any other
live key k, its lowest item (b, k) satisfies b <= value(k) and sits at
or after the top in (bound, key) order, so the top's (value, key) is
at most (value(k), k).  Keys over label ranks sort as their label
pairs do, so that is the smallest value with the label-wise smallest
pair among its ties.  This is the lazy-greedy rule for bounds that
move one way (Minoux 1978; Leskovec et al. 2007, CELF).  Removed and
frozen pairs leave their items behind until they surface; no key returns.
``min_value`` reads the same heap.

Each item is one int, ``floor(bound * 2**53) * n**2 + key``, decoded
with ``divmod``; that is exact.  ``_scaled_value`` takes the floor of a
value's exact fraction c / den scaled by 2**53, on ints, as
``(c << 53) // den``.  Scaling by 2**53 is exact.  Distinct values
differ by more than 2**-52 (above), so their scaled values differ by
more than 2 and their floors differ, in the same order; equal values
give equal floors.  So comparing floors compares values, and a key is
below n**2, so the ints order as (bound, key) pairs do: ties of value
still fall to the smallest key.  An int of three or four 30-bit digits
replaces a tuple, a float and its pointers.

A ``SeededRandom`` draw picks by position among the keys at the
minimum, listed in the order they took that value since the first
random draw: first as that draw found them, then as repairs visited
them, the smaller endpoint first.  Either way a node's entries are
listed in the order a fresh query lists ``MN(e)``, and
``_query_order`` alone gives that order: the table's maps may hold
their keys in any order.  The first draw walks the nodes ascending,
each over its later neighbours.  The order needs no index of keys by
value:

* A key at value 0 has c = 0 and stays at 0 when touched, unless it is
  left as an isolated dyad (value 1).  ``_zeros`` lists these keys: the
  first draw takes them in its walk's order; a repair appends each
  shared entry whose count reaches 0 and drops a new dyad; a removed
  or frozen pair leaves it.
* Every touch of a key with c > 0 changes its value: c / den becomes
  (c - 1) / den for a shared entry, c / (den - 1) otherwise.  Counts
  never rise, so such a key had c > 0 at every touch, and a dyad is
  never touched again.  A positive key thus took its value at the last
  repair of either of its nodes.  Each node records its last repair,
  counted from the first draw, so a key's place is (that repair, the
  node it repaired, the other node's place in that node's query).  A
  key that no counted repair touched keeps its first-draw place: its
  smaller node, then the other's place in that node's query.  Either
  query has not changed since, so it is made only when a draw needs it.

A draw at a positive minimum m reads the live keys at m off the lower
bound heap (see ``_min_ties``), sorts them by place and picks by
position, so it makes the same ``randrange`` call and returns the same
key as the eager index did.
"""

from __future__ import annotations

import heapq
import random
from itertools import islice
from typing import TYPE_CHECKING, Collection, Iterable, Iterator

from .errors import (
    EmptyTableError,
    InconsistentTableError,
    NotAdjacentError,
    TooManyNodesError,
)
from .network import MultiLayerNetwork, _label_ranks

if TYPE_CHECKING:  # imported where used, so importing this module skips it
    from fractions import Fraction

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


def _scaled_value(inter: int, size_a: int, size_b: int) -> int:
    """floor(value * 2**53) of ``_candidate_value``'s exact value, on ints."""
    den = size_a + size_b - inter - 2
    return (inter << 53) // den if den else 1 << 53


def _bitmasks(mn: list[Collection[int]]) -> dict[int, int]:
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


def _rank_walk(
    mn: list[Collection[int]], rank: list[int], by_rank: list[int]
) -> Iterator[tuple[int, list[int]]]:
    """Each node in label-rank order, with its higher-rank neighbours by rank.

    A pair keyed over label ranks sorts as its label pair does, so the
    pairs (node, neighbour) come in table key order: label-sorted pairs,
    in sorted order.
    """
    for lo, i in enumerate(by_rank):
        yield i, [by_rank[hi] for hi in sorted(rank[j] for j in mn[i] if rank[j] > lo)]


def _check_float_exact(n: int) -> None:
    """Raise unless floats keep every value of an n-node table exact."""
    if n >= 1 << 26:
        raise TooManyNodesError(
            f"{n} nodes is too many for exact float values (limit 2**26 - 1)"
        )


class CleccTable:
    """Mapping from unordered candidate node pair to its exact value.

    The table owns the working alpha adjacency ``_mn``, one map per node
    from neighbour to common-neighbour count; values are derived from
    the counts and the maps' sizes.  Selection structures are built on
    first use: a lazy heap of lower bounds serves every selection at a
    positive value and ``min_value``; random selection also keeps the
    value-0 pairs in order and each node's last repair (see the module
    docstring).  A pair is keyed by one int, ``lo * n + hi`` with
    ``lo < hi`` the ranks of its nodes in label order, so keys sort as
    label pairs do.  The node set is fixed when the table is built; the
    public surface speaks labels.
    """

    def __init__(
        self,
        index_of: dict[str, int],
        label_of: list[str],
        links: list[dict[int, int]],
        mn: list[dict[int, int]],
    ):
        n = len(label_of)
        _check_float_exact(n)
        self._index_of = index_of
        self._label_of = label_of
        self._n = n
        self._by_rank, self._rank = _label_ranks(label_of)
        self._mn = mn
        self._links = links
        self._live = sum(map(len, mn)) // 2  # pairs in the table
        # lazy min-heap of floor(lower bound on value * 2**53) * n**2 + key;
        # built on first selection at a positive value or min_value
        self._bounds: list[int] | None = None
        # built on first random selection: the keys at value 0 in the
        # order they took it, each node's last repair since then (0 if
        # none), and the count of those repairs
        self._zeros: dict[int, None] | None = None
        self._touched: list[int] = []
        self._repairs = 0

    # -- public, label-based ------------------------------------------

    def __len__(self) -> int:
        return self._live

    def __contains__(self, pair: tuple[str, str]) -> bool:
        key = self._key_from_labels(pair)
        return key is not None and self._value(key) is not None

    def value(self, x: str, y: str) -> Fraction:
        key = self._key_from_labels((x, y))
        value = None if key is None else self._value(key)
        if value is None:
            raise KeyError(f"no table entry for pair ({x!r}, {y!r})")
        from fractions import Fraction

        return Fraction(value).limit_denominator(self._n)

    def items(self) -> Iterator[tuple[tuple[str, str], float]]:
        """Yield ((label_a, label_b), value), each pair label-sorted, in pair order.

        ``clecc_rows``'s rank walk over the table's own adjacency, each
        value derived from the stored count by ``_candidate_value``.
        """
        mn, labels = self._mn, self._label_of
        for i, higher in _rank_walk(mn, self._rank, self._by_rank):
            mn_i, label_i = mn[i], labels[i]
            size_i = len(mn_i)
            for j in higher:
                yield (label_i, labels[j]), _candidate_value(mn_i[j], size_i, len(mn[j]))

    def pairs(self) -> list[tuple[str, str]]:
        return [pair for pair, _ in self.items()]

    def min_value(self) -> Fraction:
        """Smallest value in the table; EmptyTableError when empty."""
        from fractions import Fraction

        return Fraction(self._value(self._select_min_lex())).limit_denominator(self._n)

    def as_dict(self) -> dict[tuple[str, str], float]:
        return dict(self.items())

    # -- internal, key-based ------------------------------------------

    def _key(self, i: int, j: int) -> int:
        a, b = self._rank[i], self._rank[j]
        return a * self._n + b if a < b else b * self._n + a

    def _pair(self, key: int) -> tuple[int, int]:
        """Node indices of a key, label-sorted."""
        lo, hi = divmod(key, self._n)
        return self._by_rank[lo], self._by_rank[hi]

    def _labels(self, key: int) -> tuple[str, str]:
        """Node labels of a key, label-sorted."""
        lo, hi = divmod(key, self._n)
        return self._label_of[self._by_rank[lo]], self._label_of[self._by_rank[hi]]

    def _key_from_labels(self, pair: tuple[str, str]) -> int | None:
        i = self._index_of.get(pair[0], self._n)
        j = self._index_of.get(pair[1], self._n)
        return self._key(i, j) if max(i, j) < self._n else None

    def _value(self, key: int, of=_candidate_value) -> float | None:
        """Value of a pair from its count and the current sizes; None once it left.

        ``of=_scaled_value`` gives it as the lex heap holds it.
        """
        lo, hi = divmod(key, self._n)
        mn_i, mn_j = self._mn[self._by_rank[lo]], self._mn[self._by_rank[hi]]
        c = mn_i.get(self._by_rank[hi])
        return None if c is None else of(c, len(mn_i), len(mn_j))

    def _freeze(self, group: Iterable[int]) -> None:
        """Take out the pairs of a frozen group, a whole component of ``_mn``.

        Each member's map is emptied; the pairs' bounds leave the lex
        heap as they surface.
        """
        mn, zeros = self._mn, self._zeros
        self._live -= sum(len(mn[v]) for v in group) // 2
        for v in group:
            if zeros:
                for w, c in mn[v].items():
                    if not c and w > v:
                        zeros.pop(self._key(v, w), None)
            mn[v].clear()

    def _rebuilt(self, i: int) -> set[int]:
        """``MN(i)`` built afresh from the link map, in a new query's order."""
        mn_i = self._mn[i]
        return {z for z in self._links[i] if z in mn_i}

    def _query_order(self, f: int, members: list[int]) -> list[int]:
        """``members``, neighbours of f, in the order a fresh query lists ``MN(f)``.

        Every ``SeededRandom`` listing of two or more keys of one node
        comes from here (see the module docstring).
        """
        if len(members) < 2:
            return members
        inside = set(members)
        return [z for z in self._rebuilt(f) if z in inside]

    def _select_min_lex(self) -> int:
        """Key of the smallest (value, key), from the lazy lower-bound heap.

        A top whose key has left the table is dropped; a top below its
        key's current value is raised to it.  The first top that is
        exact is the answer (see the module docstring).
        """
        heap, value, nn = self._bounds, self._value, self._n * self._n
        if heap is None:
            mn, key = self._mn, self._key
            heap = [
                _scaled_value(c, len(mn_i), len(mn[j])) * nn + key(i, j)
                for i, mn_i in enumerate(mn)
                for j, c in mn_i.items()
                if j > i
            ]
            heapq.heapify(heap)
            self._bounds = heap
        while heap:
            bound, key = divmod(heap[0], nn)
            scaled = value(key, _scaled_value)
            if scaled is None:
                heapq.heappop(heap)
                continue
            if scaled == bound:
                return key
            heapq.heapreplace(heap, scaled * nn + key)
        raise EmptyTableError("the table has no entries")

    def _select_min_random(self, rng: random.Random) -> int:
        """Key drawn uniformly from the minimum's keys, in the order they took it.

        The first call starts the random-tie bookkeeping (see the module
        docstring).  At value 0 the keys are ``_zeros``; at a positive
        minimum they are ordered by their last repair.
        """
        zeros = self._zeros
        if zeros is None:
            mn, key, order = self._mn, self._key, self._query_order
            # a count of 0 is a value of 0, or 1 in a dyad
            zeros = self._zeros = {
                key(i, j): None
                for i, mn_i in enumerate(mn)
                for j in order(i, [j for j, c in mn_i.items() if j > i and not c])
                if len(mn_i) + len(mn[j]) > 2
            }
            self._touched = [0] * self._n
        if zeros:
            return next(islice(zeros, rng.randrange(len(zeros)), None))
        ties = self._min_ties()
        pick = rng.randrange(len(ties))
        # group the ties by (last repair, the endpoint it repaired): a
        # repair takes its pair's smaller node first; keys untouched
        # since the first draw sort first, by smaller node, as that
        # draw walked them
        touched, by_rank, n = self._touched, self._by_rank, self._n
        groups: dict[tuple[int, int], list[int]] = {}
        for key in ties:
            lo, hi = divmod(key, n)
            a, b = by_rank[lo], by_rank[hi]
            ta, tb = touched[a], touched[b]
            if ta < tb or (ta == tb and b < a):
                a, b, ta = b, a, tb
            groups.setdefault((ta, a), []).append(b)
        for (_, f), members in sorted(groups.items()):
            if pick < len(members):
                break
            pick -= len(members)
        return self._key(f, self._query_order(f, members)[pick])

    def _min_ties(self) -> list[int]:
        """Live keys at the minimum value, from the lower-bound heap.

        Once ``_select_min_lex`` leaves an exact top at value m, no item
        is below m, so each live key at m has an item at exactly m.  All
        items at m are popped, and each live key gets one item back at
        its current value: the next draw finds only live keys at m.
        """
        self._select_min_lex()
        heap, value = self._bounds, self._value
        heappop, heappush = heapq.heappop, heapq.heappush
        nn = self._n * self._n
        m = heap[0] // nn
        below = (m + 1) * nn  # the items at m are those under this
        found: dict[int, int | None] = {}
        while heap and heap[0] < below:
            key = heappop(heap) % nn
            if key not in found:
                found[key] = value(key, _scaled_value)
        ties = []
        for key, scaled in found.items():
            if scaled is not None:  # else the key left the table
                heappush(heap, scaled * nn + key)
                if scaled == m:
                    ties.append(key)
        return ties


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
    links_i, links_j = net._links[i], net._links[j]
    if j not in links_i:
        raise NotAdjacentError(f"no edge between {x!r} and {y!r}")
    triangles = len(links_i.keys() & links_j.keys())
    possible = min(len(links_i) - 1, len(links_j) - 1)
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
    mn: list[dict[int, int]] = list(net._query_maps(alpha))
    table = CleccTable(net._node_index, net._node_labels, net._links, mn)
    bits = _bitmasks(mn)
    for i, mn_i in enumerate(mn):
        keys_i, bits_i = mn_i.keys(), bits.get(i)
        for j in mn_i:
            if j > i:
                if bits_i is None or j not in bits:
                    mn_i[j] = mn[j][i] = len(keys_i & mn[j].keys())
                else:
                    mn_i[j] = mn[j][i] = (bits_i & bits[j]).bit_count()
    return table


def clecc_rows(
    net: MultiLayerNetwork, alpha: int
) -> Iterator[tuple[tuple[str, str], float]]:
    """The rows of ``clecc_table(net, alpha).items()``, built without a table.

    Same pairs, values and order; no count is stored and, at alpha 1,
    no adjacency is copied: the link maps serve as the neighbourhoods.
    Common neighbours are counted as ``clecc_table`` counts them.  The
    alpha range and the node limit for exact floats are checked here,
    before the first row is asked for.
    """
    net._check_alpha(alpha)
    _check_float_exact(net.node_count)
    return _rows(net, alpha)


def _rows(net: MultiLayerNetwork, alpha: int) -> Iterator[tuple[tuple[str, str], float]]:
    labels = net._node_labels
    if alpha == 1:  # every linked pair is a candidate
        mn = net._links
    else:
        mn = list(net._query_maps(alpha))
    by_rank, rank = _label_ranks(labels)
    bits = _bitmasks(mn)
    for i, higher in _rank_walk(mn, rank, by_rank):
        keys_i, label_i, bits_i = mn[i].keys(), labels[i], bits.get(i)
        size_i = len(keys_i)
        for j in higher:
            if bits_i is None or j not in bits:
                c = len(keys_i & mn[j].keys())
            else:
                c = (bits_i & bits[j]).bit_count()
            yield (label_i, labels[j]), _candidate_value(c, size_i, len(mn[j]))


def update_after_removal(
    table: CleccTable, net: MultiLayerNetwork, x: str, y: str
) -> CleccTable:
    """Repair a table right after ``net.remove_pair_edges(x, y)``.

    Drops the {x, y} entry and recomputes every entry containing x or
    y.  No other entry can have changed: a value depends only on the
    neighbourhoods of its own two nodes, and deleting x–y edges alters
    only the neighbourhoods of x and y.  The table must match the
    network as it was before this removal (its own adjacency and counts
    are what it repairs); then it ends up identical to a from-scratch
    rebuild.  The repair is the detector's own: it keeps up whichever
    selection structures earlier selections built, and no others.
    Mutates and returns ``table``.
    """
    i = net.node_index(x)
    j = net.node_index(y)
    if j not in table._mn[i]:
        raise InconsistentTableError(
            f"pair ({x!r}, {y!r}) has no table entry; the table does not "
            "match the network this removal was applied to"
        )
    _repair(table, (i, j))
    return table


def _repair(table: CleccTable, pair: tuple[int, int]) -> None:
    """Drop ``pair`` from the table's adjacency, fix the rest.

    Each shared entry loses one common neighbour, under both its nodes,
    and its lower value goes onto the lower-bound heap if there is one.
    Every other touched entry only rises, so its bound stays valid.
    After the first random draw the repair also stamps both endpoints
    and keeps ``_zeros``: the pair leaves it, a shared entry whose count
    reaches 0 is appended as a rebuilt ``MN(e)`` lists it, for the
    smaller endpoint e first, and a new isolated dyad (value 1) is dropped.
    """
    i, j = pair = sorted(pair)
    mn, bounds, zeros, rank, n = (
        table._mn, table._bounds, table._zeros, table._rank, table._n
    )
    del mn[i][j], mn[j][i]
    table._live -= 1
    if zeros is not None:
        zeros.pop(table._key(i, j), None)
        table._repairs += 1
        table._touched[i] = table._touched[j] = table._repairs
    heappush, nn = heapq.heappush, n * n
    shared = mn[i].keys() & mn[j].keys()
    for e in pair:
        mn_e, rank_e = mn[e], rank[e]
        size_e = len(mn_e)
        emptied = []
        for z in shared:
            mn_z = mn[z]
            c = mn_e[z] = mn_z[e] = mn_e[z] - 1
            if bounds is not None:
                rank_z = rank[z]
                key = rank_e * n + rank_z if rank_e < rank_z else rank_z * n + rank_e
                heappush(bounds, _scaled_value(c, size_e, len(mn_z)) * nn + key)
            if not c:
                emptied.append(z)
        if zeros is None:
            continue
        for z in table._query_order(e, emptied):
            zeros[table._key(e, z)] = None
        if size_e == 1:
            (z,) = mn_e
            if len(mn[z]) == 1:  # e and z are left with only each other
                del zeros[table._key(e, z)]
