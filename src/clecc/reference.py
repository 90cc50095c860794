"""Brute-force reference implementations for cross-checking.

Everything here recomputes from raw (source, target, layer) triples on
every call and shares no computation code with the optimized measure
and detector modules — that independence is the point.  Runtime is
quadratic or worse; keep inputs small (tests stay at or below a few
dozen nodes).  The ``detect`` and ``measure`` commands expose these
paths behind the ``--oracle`` flag to cross-check field reports.
"""

from __future__ import annotations

from .detection import (
    DetectionConfig,
    DetectionResult,
    Lexicographic,
    MinSize,
    RemovalRecord,
    StrongCommunity,
    WeakCommunity,
)
from .errors import EmptyNetworkError
from .network import MultiLayerNetwork

__all__ = ["naive_clecc", "naive_detect"]

Pair = tuple[str, str]


def _ordered(a: str, b: str) -> Pair:
    return (a, b) if a < b else (b, a)


def _scan_mn(
    edges: list[tuple[str, str, str]], x: str, alpha: int
) -> set[str]:
    """Multi-layered neighbourhood of x, rebuilt from the raw edge list."""
    layers_by_other: dict[str, set[str]] = {}
    for source, target, layer in edges:
        if source == x:
            layers_by_other.setdefault(target, set()).add(layer)
        elif target == x:
            layers_by_other.setdefault(source, set()).add(layer)
    return {other for other, layers in layers_by_other.items() if len(layers) >= alpha}


def naive_clecc(net: MultiLayerNetwork, x: str, y: str, alpha: int) -> float:
    """Literal re-derivation of the cross-layer clustering value.

    Scans every edge of every layer per query.  Same conventions as
    the optimized path: direction-insensitive, pair excluded from the
    denominator set, 0/0 defined as 1.0.
    """
    if x == y:
        raise ValueError(f"pair must consist of two distinct nodes, got {x!r} twice")
    net.node_index(x)
    net.node_index(y)
    net._check_alpha(alpha)
    edges = list(net.edges())
    mn_x = _scan_mn(edges, x, alpha)
    mn_y = _scan_mn(edges, y, alpha)
    numerator = len(mn_x & mn_y)
    denominator = len((mn_x | mn_y) - {x, y})
    if denominator == 0:
        return 1.0
    return numerator / denominator


def _pair_layer_counts(edges: list[tuple[str, str, str]]) -> dict[Pair, set[str]]:
    counts: dict[Pair, set[str]] = {}
    for source, target, layer in edges:
        counts.setdefault(_ordered(source, target), set()).add(layer)
    return counts


def _flat_adjacency(
    edges: list[tuple[str, str, str]], alpha: int, active: set[str]
) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {node: set() for node in active}
    for (a, b), layers in _pair_layer_counts(edges).items():
        if len(layers) >= alpha and a in active and b in active:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def _components(adj: dict[str, set[str]]) -> dict[str, frozenset[str]]:
    comp_of: dict[str, frozenset[str]] = {}
    for start in adj:
        if start in comp_of:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        frozen = frozenset(comp)
        for node in comp:
            comp_of[node] = frozen
    return comp_of


def _naive_valid(
    original_edges: list[tuple[str, str, str]],
    members: frozenset[str],
    condition,
) -> bool:
    if isinstance(condition, MinSize):
        return len(members) >= condition.k
    # degree counting on the alpha=1 flattening of the original network
    adjacency: dict[str, set[str]] = {}
    for source, target, _ in original_edges:
        adjacency.setdefault(source, set()).add(target)
        adjacency.setdefault(target, set()).add(source)
    internal_total = 0
    external_total = 0
    for v in members:
        nbrs = adjacency.get(v, set())
        internal = len(nbrs & members)
        external = len(nbrs) - internal
        if isinstance(condition, StrongCommunity) and internal <= external:
            return False
        internal_total += internal
        external_total += external
    if isinstance(condition, StrongCommunity):
        return len(members) > 0
    if isinstance(condition, WeakCommunity):
        return internal_total > external_total
    raise TypeError(f"not a validity condition: {condition!r}")


def naive_detect(net: MultiLayerNetwork, config: DetectionConfig) -> DetectionResult:
    """Divisive detection with everything recomputed from scratch.

    Rebuilds the full value table and all connected components on
    every iteration.  Only the deterministic ``Lexicographic`` tie
    policy is supported, so the output is directly comparable with
    the optimized detector.
    """
    from fractions import Fraction  # here, so importing this module skips it

    if not isinstance(config.tie_policy, Lexicographic):
        raise ValueError("naive_detect only supports the Lexicographic tie policy")
    if net.node_count == 0:
        raise EmptyNetworkError("detection needs at least one node")
    net._check_alpha(config.alpha)

    original_edges = list(net.edges())
    working_edges = list(original_edges)
    alpha = config.alpha
    frozen: set[str] = set()
    groups: list[set[str]] = []
    removals: list[RemovalRecord] = []
    step = 0

    while True:
        active = {node for node in net.nodes() if node not in frozen}
        mn = {x: _scan_mn(working_edges, x, alpha) for x in active}
        table: dict[Pair, Fraction] = {}
        for x in active:
            for y in mn[x]:
                if y in active and x < y:
                    numerator = len(mn[x] & mn[y])
                    denominator = len((mn[x] | mn[y]) - {x, y})
                    table[(x, y)] = (
                        Fraction(1)
                        if denominator == 0
                        else Fraction(numerator, denominator)
                    )
        if not table:
            break

        step += 1
        pair = min(table, key=lambda p: (table[p], p))
        x, y = pair
        edges_removed = sum(
            1 for s, t, _ in original_edges if _ordered(s, t) == pair
        )
        working_edges = [
            (s, t, l) for s, t, l in working_edges if _ordered(s, t) != pair
        ]
        if config.log_removals:
            removals.append(
                RemovalRecord(step, pair, float(table[pair]), edges_removed)
            )

        adj = _flat_adjacency(working_edges, alpha, active)
        comp_of = _components(adj)
        if comp_of[x] is not comp_of[y]:
            for comp in (comp_of[x], comp_of[y]):
                if len(comp) > 1 and _naive_valid(original_edges, comp, config.validity):
                    frozen |= comp
                    groups.append(set(comp))

    singletons = [node for node in net.nodes() if node not in frozen]
    return DetectionResult(
        config=config,
        groups=groups,
        singletons=singletons,
        removals=removals,
    )
