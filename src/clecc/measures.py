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

The table stores each pair's common-neighbour count ``c`` and owns
the working alpha adjacency ``MN`` the counts refer to.  A value is
derived when needed as ``c / (|MN(x)| + |MN(y)| - 2 - c)``, or 1.0
when that denominator is 0.  The floats are exact: a value is a
fraction in [0, 1] whose denominator is at most n - 2 < N = n.  Two
distinct such fractions differ by at least 1/N**2; a correctly rounded
quotient lies within 2**-54 of its fraction.  While N < 2**26 (checked
when a table is built) 1/N**2 > 2**-52, so equal fractions give equal
floats, distinct ones distinct floats in the same order, and each float
is nearer its fraction than any other with denominator <= N.  So
``CleccTable.value`` and ``min_value`` return the exact
:class:`fractions.Fraction` via ``limit_denominator(n)``, and ``items``
yields the derived floats in sorted pair order, each pair label-sorted.

``clecc_table`` counts common neighbours with bitmasks where a bitmask
is no larger than the set it sits beside.  A node with at least n / 256
alpha-neighbours gets an int whose bit j is set for each neighbour
index j; a pair of two such nodes counts ``(bits_i & bits_j).bit_count()``,
any other pair takes ``len(a & b)`` of the two neighbour sets.  An
n-bit int takes about n / 8 bytes and a set about 40 bytes per member,
so at least n / 6.4 bytes here; a sparse input builds no bitmask.

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
move one way (Minoux 1978; Leskovec et al. 2007, CELF).  Deleted keys
leave their items behind until they surface; no key returns.
``min_value`` reads the same heap.

A ``SeededRandom`` draw picks by position among the keys at the
minimum, listed in the order they took that value since the first
random draw: first as the counts were built, then as repairs visited
them, the smaller endpoint first and each endpoint's entries in the
order a rebuilt ``MN(e)`` lists them (``_rebuilt``: a fresh query's
order).  That order needs no index of keys by value:

* A key at value 0 has c = 0 and stays at 0 when touched, unless it is
  left as an isolated dyad (value 1).  ``_zeros`` lists these keys: the
  first draw takes them in count order; a repair appends each shared
  entry whose count reaches 0 and drops a new dyad; ``_delete`` drops a
  key.
* Every touch of a key with c > 0 changes its value: c / den becomes
  (c - 1) / den for a shared entry, c / (den - 1) otherwise.  Counts
  never rise, so such a key had c > 0 at every touch, and a dyad is
  never touched again.  A positive key thus took its value at the last
  repair of either of its nodes.  Each node records its last repair,
  counted from the first draw, so a key's place is (that repair, the
  node it repaired, the other node's place in that node's rebuilt
  set).  The set has not changed since, so it is rebuilt only when a
  draw needs it.  A key that no counted repair touched keeps its build
  place: its smaller node, then the other's place in that node's
  ``MN``, whose order discards keep.

A draw at a positive minimum m reads the live keys at m off the lower
bound heap (see ``_min_ties``), sorts them by place and picks by
position, so it makes the same ``randrange`` call and returns the same
key as the eager index did.
"""

from __future__ import annotations

import heapq
import random
from itertools import islice
from typing import TYPE_CHECKING, Iterator

from .errors import (
    EmptyTableError,
    InconsistentTableError,
    NotAdjacentError,
    TooManyNodesError,
)
from .network import MultiLayerNetwork

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

    The table owns the working alpha adjacency ``_mn`` and stores each
    pair's common-neighbour count, from which its value is derived.
    Selection structures are built on first use, from the counts:
    a lazy heap of lower bounds serves every selection at a positive
    value and ``min_value``; random selection also keeps the value-0
    pairs in order and each node's last repair (see the module
    docstring).  It reads its network's link maps for the order of a
    rebuilt neighbourhood.  A pair is
    keyed by one int, ``lo * n + hi`` with ``lo < hi`` the ranks of its
    nodes in label order, so keys sort as label pairs do.  The node set
    is fixed when the table is built; the public surface speaks labels.
    """

    def __init__(
        self,
        alpha: int,
        index_of: dict[str, int],
        label_of: list[str],
        links: list[dict[int, int]],
        mn: list[set[int]],
    ):
        n = len(label_of)
        _check_float_exact(n)
        self.alpha = alpha
        self._index_of = index_of
        self._label_of = label_of
        self._n = n
        self._by_rank = sorted(range(n), key=label_of.__getitem__)
        self._rank = sorted(range(n), key=self._by_rank.__getitem__)  # inverse
        self._mn = mn
        self._links = links
        self._counts: dict[int, int] = {}
        # lazy min-heap of (lower bound on value, key); built on first
        # selection at a positive value or min_value
        self._bounds: list[tuple[float, int]] | None = None
        # built on first random selection: the keys at value 0 in the
        # order they took it, each node's last repair since then (0 if
        # none), and the count of those repairs
        self._zeros: dict[int, None] | None = None
        self._touched: list[int] = []
        self._repairs = 0

    # -- public, label-based ------------------------------------------

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return self._key_from_labels(pair) in self._counts

    def value(self, x: str, y: str) -> Fraction:
        key = self._key_from_labels((x, y))
        if key not in self._counts:
            raise KeyError(f"no table entry for pair ({x!r}, {y!r})")
        from fractions import Fraction

        return Fraction(self._value(key)).limit_denominator(self._n)

    def items(self) -> Iterator[tuple[tuple[str, str], float]]:
        """Yield ((label_a, label_b), value), each pair label-sorted, in pair order.

        Keys over label ranks sort as their label pairs do, so this is
        ``sorted`` order on the pairs.  One walk over the sorted keys
        reads labels and neighbourhood sizes from arrays indexed by
        rank, taken when the walk starts, and derives each value as
        ``_candidate_value`` does.
        """
        n, counts = self._n, self._counts
        label_of, mn = self._label_of, self._mn
        labels = [label_of[i] for i in self._by_rank]
        sizes = [len(mn[i]) for i in self._by_rank]
        for key in sorted(counts):
            lo, hi = divmod(key, n)
            c = counts[key]
            den = sizes[lo] + sizes[hi] - c - 2
            yield (labels[lo], labels[hi]), c / den if den else 1.0

    def pairs(self) -> list[tuple[str, str]]:
        return [self._labels(key) for key in sorted(self._counts)]

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

    def _value(self, key: int) -> float:
        """Value of a stored pair, from its count and the current sizes."""
        lo, hi = divmod(key, self._n)
        mn, by_rank = self._mn, self._by_rank
        return _candidate_value(
            self._counts[key], len(mn[by_rank[lo]]), len(mn[by_rank[hi]])
        )

    def _delete(self, key: int) -> None:
        """Drop a key; its bounds leave the lex heap when they surface."""
        if self._zeros is not None:
            self._zeros.pop(key, None)
        del self._counts[key]

    def _rebuilt(self, i: int) -> set[int]:
        """``MN(i)`` built afresh from the link map, as a new query builds it."""
        mn_i = self._mn[i]
        return {z for z in self._links[i] if z in mn_i}

    def _select_min_lex(self) -> int:
        """Key of the smallest (value, key), from the lazy lower-bound heap.

        A top whose key has left the table is dropped; a top below its
        key's current value is raised to it.  The first top that is
        exact is the answer (see the module docstring).
        """
        heap = self._bounds
        if heap is None:
            heap = self._bounds = [(self._value(key), key) for key in self._counts]
            heapq.heapify(heap)
        counts = self._counts
        while heap:
            bound, key = heap[0]
            if key not in counts:
                heapq.heappop(heap)
                continue
            value = self._value(key)
            if value == bound:
                return key
            heapq.heapreplace(heap, (value, key))
        raise EmptyTableError("the table has no entries")

    def _select_min_random(self, rng: random.Random) -> int:
        """Key drawn uniformly from the minimum's keys, in the order they took it.

        The first call starts the random-tie bookkeeping (see the module
        docstring).  At value 0 the keys are ``_zeros``; at a positive
        minimum they are ordered by their last repair.
        """
        zeros = self._zeros
        if zeros is None:
            value = self._value
            zeros = self._zeros = {
                key: None for key, c in self._counts.items() if not c and not value(key)
            }
            self._touched = [0] * self._n
        if zeros:
            return next(islice(zeros, rng.randrange(len(zeros)), None))
        ties = self._min_ties()
        pick = rng.randrange(len(ties))
        # group the ties by (last repair, the endpoint it repaired): the
        # pair is index-sorted, so its smaller node went first; keys
        # untouched since the first draw sort first, by smaller node, as
        # the counts were built
        touched, by_rank, n = self._touched, self._by_rank, self._n
        groups: dict[tuple[int, int], list[int]] = {}
        for key in ties:
            lo, hi = divmod(key, n)
            a, b = by_rank[lo], by_rank[hi]
            ta, tb = touched[a], touched[b]
            if ta < tb or (ta == tb and b < a):
                a, b, ta = b, a, tb
            groups.setdefault((ta, a), []).append(b)
        for (t, f), members in sorted(groups.items()):
            if pick < len(members):
                break
            pick -= len(members)
        if len(members) > 1:
            # one repair visited these in its rebuilt MN(f); the build
            # visited them in MN(f), whose order discards keep
            order = self._rebuilt(f) if t else self._mn[f]
            inside = set(members)
            members = [z for z in order if z in inside]
        return self._key(f, members[pick])

    def _min_ties(self) -> list[int]:
        """Live keys at the minimum value, from the lower-bound heap.

        Once ``_select_min_lex`` leaves an exact top at value m, no item
        is below m, so each live key at m has an item at exactly m.  All
        items at m are popped, and each live key gets one item back at
        its current value: the next draw finds only live keys at m.
        """
        self._select_min_lex()
        heap, counts, value = self._bounds, self._counts, self._value
        heappop, heappush = heapq.heappop, heapq.heappush
        m = heap[0][0]
        found: dict[int, float] = {}
        while heap and heap[0][0] == m:
            key = heappop(heap)[1]
            if key in counts and key not in found:
                found[key] = value(key)
        ties = []
        for key, v in found.items():
            heappush(heap, (v, key))
            if v == m:
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
    mn = net._alpha_adjacency(alpha)
    table = CleccTable(alpha, net._node_index, net._node_labels, net._links, mn)
    counts, key = table._counts, table._key
    bits = _bitmasks(mn)
    for i, a in enumerate(mn):
        bits_i = bits.get(i)
        for j in a:
            if j > i:
                if bits_i is None or j not in bits:
                    counts[key(i, j)] = len(a & mn[j])
                else:
                    counts[key(i, j)] = (bits_i & bits[j]).bit_count()
    return table


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
    if table._key(i, j) not in table._counts:
        raise InconsistentTableError(
            f"pair ({x!r}, {y!r}) has no table entry; the table does not "
            "match the network this removal was applied to"
        )
    _repair(table, (i, j) if i < j else (j, i))
    return table


def _repair(table: CleccTable, pair: tuple[int, int]) -> None:
    """Drop index-sorted ``pair`` from the table and its adjacency, fix the rest.

    The entry goes while both sizes predate the removal.  Each shared
    entry loses one common neighbour; its lower value is pushed onto the
    lower-bound heap when there is one.  Every other touched entry only rises,
    so its bound stays valid.  Once a random draw has started the
    random-tie bookkeeping, the repair also stamps both endpoints, and
    keeps ``_zeros``: a shared entry whose count reaches 0 is appended
    in the order a rebuilt ``MN(e)`` lists it, endpoint by endpoint,
    and an entry left as an isolated dyad (value 1) is dropped.
    """
    i, j = pair
    table._delete(table._key(i, j))
    mn = table._mn
    mn[i].discard(j)
    mn[j].discard(i)
    counts, bounds, zeros, rank, n = (
        table._counts, table._bounds, table._zeros, table._rank, table._n
    )
    heappush = heapq.heappush
    shared = mn[i] & mn[j]
    if zeros is not None:
        table._repairs += 1
        table._touched[i] = table._touched[j] = table._repairs
    for e in pair:
        mn_e, rank_e = mn[e], rank[e]
        size_e = len(mn_e)
        emptied = []
        for z in shared:
            rank_z = rank[z]
            key = rank_e * n + rank_z if rank_e < rank_z else rank_z * n + rank_e
            c = counts[key] = counts[key] - 1
            if bounds is not None:
                heappush(bounds, (_candidate_value(c, size_e, len(mn[z])), key))
            if not c:
                emptied.append(z)
        if zeros is None:
            continue
        if len(emptied) > 1:
            inside = set(emptied)
            emptied = [z for z in table._rebuilt(e) if z in inside]
        for z in emptied:
            zeros[table._key(e, z)] = None
        if size_e == 1:
            (z,) = mn_e
            if len(mn[z]) == 1:  # e and z are left with only each other
                del zeros[table._key(e, z)]
