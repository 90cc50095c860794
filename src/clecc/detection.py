"""Divisive extraction of multi-layered groups.

The algorithm works on the alpha-flattened view of the network: the
undirected graph whose edges are the node pairs connected on at least
``alpha`` layers.  It repeatedly

1. looks up the candidate pair with the lowest cross-layer edge
   clustering value (ties broken lexicographically or by a seeded
   uniform draw),
2. drops that pair from the alpha-flattened adjacency,
3. repairs the value table incrementally (only entries containing one
   of the two endpoints can change), and
4. when the deletion separates a working component, checks each side
   against the configured validity condition, evaluated on the
   *original* network: sides that qualify are frozen as groups and see
   no further removals, one-node sides become singletons, and failing
   sides stay in play.

A spanning forest of the working graph tells whether a removal split a
component.  Removing a non-tree edge cannot; removing a tree edge cuts
off the child's subtree, and only then are the subtree's edges searched
for one that leads back out (see ``_SpanningForest``).  So a removal
costs no search unless it takes a tree edge.

The loop ends when every node sits in a frozen group or is a
singleton.  Pairs below the alpha threshold never enter the working
graph: they are not candidates and do not count for connectivity, so
every iteration shrinks a finite edge set and termination is
guaranteed.

Validity conditions: ``MinSize(k)`` accepts components with at least
``k`` members; ``WeakCommunity`` requires the summed internal degree of
the member set to exceed its summed external degree; ``StrongCommunity``
requires that node-by-node.  Degrees are counted on the alpha=1
flattening of the original network.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Union

from .errors import EmptyNetworkError, InvalidParamsError
from .measures import CleccTable, _repair, clecc_table
from .network import MultiLayerNetwork

__all__ = [
    "MinSize",
    "WeakCommunity",
    "StrongCommunity",
    "ValidityCondition",
    "Lexicographic",
    "SeededRandom",
    "TiePolicy",
    "DetectionConfig",
    "RemovalRecord",
    "DetectionResult",
    "validity_tag",
    "parse_validity",
    "validate_group",
    "select_min_pair",
    "run_detection",
]


@dataclass(frozen=True)
class MinSize:
    """Accept a component once it has at least k members."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParamsError(f"MinSize needs k >= 1, got {self.k}")


@dataclass(frozen=True)
class WeakCommunity:
    """Summed internal degree strictly exceeds summed external degree."""


@dataclass(frozen=True)
class StrongCommunity:
    """Every member's internal degree strictly exceeds its external degree."""


ValidityCondition = Union[MinSize, WeakCommunity, StrongCommunity]


@dataclass(frozen=True)
class Lexicographic:
    """Break value ties by the label-wise smallest pair."""


@dataclass(frozen=True)
class SeededRandom:
    """Break value ties uniformly at random, driven by a fixed seed."""

    seed: int


TiePolicy = Union[Lexicographic, SeededRandom]


@dataclass(frozen=True)
class DetectionConfig:
    alpha: int = 1
    validity: ValidityCondition = WeakCommunity()
    tie_policy: TiePolicy = Lexicographic()
    log_removals: bool = True


@dataclass(frozen=True)
class RemovalRecord:
    """One edge-removal step: which pair went, at what value, how many edges."""

    step: int
    pair: tuple[str, str]
    clecc: float
    edges_removed: int


@dataclass
class DetectionResult:
    """Partition of the nodes into groups and singletons, plus the removal log."""

    config: DetectionConfig
    groups: list[set[str]]
    singletons: list[str]
    removals: list[RemovalRecord] = field(default_factory=list)

    def partition(self) -> list[set[str]]:
        """Groups plus one block per singleton; covers every node exactly once."""
        return [set(g) for g in self.groups] + [{s} for s in self.singletons]


def validity_tag(condition: ValidityCondition) -> str:
    """Stable string form of a validity condition ("min-size:3", "weak", ...)."""
    if isinstance(condition, MinSize):
        return f"min-size:{condition.k}"
    if isinstance(condition, WeakCommunity):
        return "weak"
    if isinstance(condition, StrongCommunity):
        return "strong"
    raise TypeError(f"not a validity condition: {condition!r}")


def parse_validity(tag: str) -> ValidityCondition:
    """Inverse of :func:`validity_tag`."""
    if tag == "weak":
        return WeakCommunity()
    if tag == "strong":
        return StrongCommunity()
    if tag.startswith("min-size:"):
        try:
            k = int(tag.split(":", 1)[1])
        except ValueError:
            raise InvalidParamsError(f"bad min-size value in {tag!r}") from None
        return MinSize(k)
    raise InvalidParamsError(
        f"unknown validity condition {tag!r}; expected min-size:K, weak or strong"
    )


def _condition_holds(
    condition: ValidityCondition,
    members: set[int],
    links: list[dict[int, int]],
) -> bool:
    """Evaluate a condition for a member set on the original network.

    ``links`` is the network's ``_links``: the keys of ``links[v]`` are
    v's alpha=1 neighbours.
    """
    if isinstance(condition, MinSize):
        return len(members) >= condition.k
    strong = isinstance(condition, StrongCommunity)
    if not strong and not isinstance(condition, WeakCommunity):
        raise TypeError(f"not a validity condition: {condition!r}")
    internal = 0
    external = 0
    for v in members:
        nbrs = links[v]
        inside = len(members.intersection(nbrs))
        if strong and inside <= len(nbrs) - inside:
            return False
        internal += inside
        external += len(nbrs) - inside
    return len(members) > 0 if strong else internal > external


def validate_group(
    net: MultiLayerNetwork,
    members: Iterable[str],
    condition: ValidityCondition,
) -> bool:
    """Does the member set qualify as a group in this (original) network?

    Degree-based conditions count internal and external neighbours on
    the alpha=1 flattening, i.e. a pair is adjacent when any layer
    connects it in any direction.
    """
    idx = {net.node_index(label) for label in members}
    return _condition_holds(condition, idx, net._links)


def select_min_pair(
    table: CleccTable,
    policy: TiePolicy,
    rng: random.Random | None = None,
) -> tuple[str, str]:
    """Pair attaining the table's minimum value, label-sorted.

    Under :class:`SeededRandom` the draw among tied pairs is uniform;
    pass ``rng`` to continue an existing sequence, otherwise a fresh
    generator is seeded from the policy.
    """
    return table._labels(_select_min_key(table, policy, rng))


def _select_min_key(
    table: CleccTable,
    policy: TiePolicy,
    rng: random.Random | None,
) -> int:
    if isinstance(policy, Lexicographic):
        return table._select_min_lex()
    if isinstance(policy, SeededRandom):
        if rng is None:
            rng = random.Random(policy.seed)
        return table._select_min_random(rng)
    raise TypeError(f"not a tie policy: {policy!r}")


class _SpanningForest:
    """Spanning forest of a graph that only loses edges; it decides splits.

    Each node keeps its tree parent (-1 at a root), and each node with
    children a list of them (most nodes are leaves).  Every tree spans
    one connected component of ``adj``.
    When an edge leaves ``adj``, ``split`` restores that: a non-tree
    edge leaves every tree intact, so the graph is still connected.  A
    tree edge cuts off the child's subtree.  If some edge joins a node
    x of the subtree to a node y outside it, the subtree is re-rooted
    at x and hung under y, and the component stays whole; otherwise the
    subtree is a component of its own.  This is the replacement-edge
    search of decremental connectivity (Even & Shiloach 1981; Holm, de
    Lichtenberg & Thorup 2001), without their bound on the search.
    """

    def __init__(self, adj: list[set[int]]):
        n = len(adj)
        parent = self._parent = [-1] * n
        children: dict[int, list[int]] = {}
        self._children = children
        self._adj = adj
        seen = [False] * n
        for root in range(n):
            if seen[root]:
                continue
            seen[root] = True
            stack = [root]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        parent[v] = u
                        children.setdefault(u, []).append(v)
                        stack.append(v)

    def split(self, a: int, b: int) -> tuple[set[int], set[int]] | None:
        """Components of a and b once their edge has left ``adj``.

        Must be called for every edge that leaves ``adj``, right after
        it goes.  Returns ``None`` while a and b are still connected,
        else the pair (component of a, component of b).
        """
        parent, children, adj = self._parent, self._children, self._adj
        if parent[a] == b:
            child, top = a, b
        elif parent[b] == a:
            child, top = b, a
        else:
            return None
        children[top].remove(child)
        parent[child] = -1
        cut = self._tree(child)
        for x in cut:
            for y in adj[x]:
                if y not in cut:
                    self._reroot(x)
                    parent[x] = y
                    children.setdefault(y, []).append(x)
                    return None
        while parent[top] != -1:
            top = parent[top]
        rest = self._tree(top)
        return (cut, rest) if child == a else (rest, cut)

    def _tree(self, root: int) -> set[int]:
        """Nodes of the tree below ``root``, root included."""
        children = self._children
        nodes = {root}
        stack = [root]
        while stack:
            kids = children.get(stack.pop(), ())
            nodes.update(kids)
            stack.extend(kids)
        return nodes

    def _reroot(self, x: int) -> None:
        """Make x the root of its tree by reversing the path above it."""
        parent, children = self._parent, self._children
        below, u = -1, x
        while u != -1:
            up = parent[u]
            parent[u] = below
            if up != -1:
                children[up].remove(u)
                children.setdefault(u, []).append(up)
            below, u = u, up


def run_detection(net: MultiLayerNetwork, config: DetectionConfig) -> DetectionResult:
    """Run the divisive algorithm and return the extracted partition.

    The input network is never mutated: removals only drop pairs from
    the alpha adjacency, and validity is judged on the input.  With
    ``Lexicographic`` ties the run is fully deterministic; with
    ``SeededRandom`` it is a pure function of the seed.
    """
    n = net.node_count
    if n == 0:
        raise EmptyNetworkError("detection needs at least one node")
    if isinstance(config.tie_policy, SeededRandom):
        rng = random.Random(config.tie_policy.seed)
    else:
        rng = None

    table = clecc_table(net, config.alpha)
    adj = table._mn
    forest = _SpanningForest(adj)
    labels, links = net._node_labels, net._links

    frozen = [False] * n
    groups_idx: list[list[int]] = []
    removals: list[RemovalRecord] = []
    step = 0

    def freeze(members: set[int]) -> None:
        for v in members:
            frozen[v] = True
            for w in adj[v]:
                if w > v:
                    table._delete(table._key(v, w))
        groups_idx.append(sorted(members))

    while len(table):
        step += 1
        key = _select_min_key(table, config.tie_policy, rng)
        i, j = table._pair(key)
        if config.log_removals:
            value, edges_removed = table._value(key), net._pair_edge_count(i, j)
            removals.append(RemovalRecord(step, table._labels(key), value, edges_removed))
        _repair(table, (i, j))

        split = forest.split(i, j)
        if split is None:
            continue
        comp_i, comp_j = split
        # inspect the side holding the label-wise smaller endpoint first
        if labels[i] <= labels[j]:
            sides = (comp_i, comp_j)
        else:
            sides = (comp_j, comp_i)
        for comp in sides:
            # one-node sides are terminal singletons, never groups
            if len(comp) > 1 and _condition_holds(config.validity, comp, links):
                freeze(comp)

    # the table is empty: every unfrozen node is now isolated in the
    # working graph, i.e. a singleton
    groups = [{labels[v] for v in comp} for comp in groups_idx]
    singletons = [labels[v] for v in range(n) if not frozen[v]]
    return DetectionResult(
        config=config,
        groups=groups,
        singletons=singletons,
        removals=removals,
    )
