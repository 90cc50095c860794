"""Multi-layered social network model.

The core container of the library: a set of labelled nodes, a set of
named layers, and directed edges tagged with the layer they belong to.
Loops are rejected and an ordered (source, target) pair carries at most
one edge per layer, so two nodes are joined by at most ``2 * |L|``
directed edges in total.

Neighbourhood queries deliberately ignore edge direction: two nodes
count as neighbours on a layer as soon as an edge runs between them
either way.  ``multilayer_neighborhood(x, alpha)`` collects the nodes
tied to ``x`` on at least ``alpha`` distinct layers.

Externally nodes and layers are identified by opaque string labels;
internally everything runs on dense integer indices.  Each node keeps
one link map holding a layer-bitmask per linked pair, so threshold
queries are single scans of one dict.
"""

from __future__ import annotations

from typing import Iterator

from .errors import (
    AlphaOutOfRangeError,
    DuplicateEdgeError,
    SelfLoopError,
    UnknownLayerError,
    UnknownNodeError,
)

__all__ = ["MultiLayerNetwork"]


class MultiLayerNetwork:
    """Directed multi-layer network over string-labelled nodes and layers.

    Nodes and layers register automatically on first use in
    :meth:`add_edge`; isolated nodes and empty layers can be declared
    explicitly with :meth:`add_node` / :meth:`add_layer`.

    ``_links[x][y]`` has bit ``2l`` set for an edge x -> y on layer l
    and bit ``2l + 1`` for y -> x; the key exists only while an edge
    joins the pair.  The pair's edge count is the mask's popcount, and
    the number of layers linking it either way is the popcount of
    ``(m | m >> 1) & _even_bits``, the mask of bit 2l for every layer.
    """

    def __init__(self):
        self._node_index: dict[str, int] = {}
        self._node_labels: list[str] = []
        self._layer_index: dict[str, int] = {}
        self._layer_labels: list[str] = []
        # per node: neighbour index -> layer-bitmask of the pair's edges
        self._links: list[dict[int, int]] = []
        self._even_bits = 0
        self._edge_count = 0

    # -- registration -------------------------------------------------

    def add_node(self, label: str) -> int:
        """Register a node label (idempotent) and return its index."""
        idx = self._node_index.get(label)
        if idx is None:
            idx = len(self._node_labels)
            self._node_index[label] = idx
            self._node_labels.append(label)
            self._links.append({})
        return idx

    def add_layer(self, label: str) -> int:
        """Register a layer label (idempotent) and return its index."""
        idx = self._layer_index.get(label)
        if idx is None:
            idx = len(self._layer_labels)
            self._layer_index[label] = idx
            self._layer_labels.append(label)
            self._even_bits |= 1 << 2 * idx
        return idx

    def add_edge(self, source: str, target: str, layer: str) -> None:
        """Add the directed edge (source, target) on the given layer.

        Unknown node and layer labels are registered on the fly through
        :meth:`add_node` and :meth:`add_layer`.  This is the only code
        that sets link bits and adds to the edge count; the edge-list
        parser builds through it too.  Raises :class:`SelfLoopError` when
        source equals target and :class:`DuplicateEdgeError` when the
        triple is already stored.
        """
        if source == target:
            raise SelfLoopError(f"self-loop on node {source!r} is not allowed")
        # a known label costs one lookup, not a registration call
        x = self._node_index.get(source)
        if x is None:
            x = self.add_node(source)
        y = self._node_index.get(target)
        if y is None:
            y = self.add_node(target)
        l = self._layer_index.get(layer)
        if l is None:
            l = self.add_layer(layer)
        bit = 1 << 2 * l
        out = self._links[x]
        mask = out.get(y, 0)
        if mask & bit:
            raise DuplicateEdgeError(
                f"edge ({source!r}, {target!r}, {layer!r}) already present"
            )
        out[y] = mask | bit
        back = self._links[y]
        back[x] = back.get(x, 0) | bit << 1
        self._edge_count += 1

    def remove_pair_edges(self, x: str, y: str) -> int:
        """Delete every edge between x and y, all layers and directions.

        Returns the number of directed edges removed (0 when the pair
        was not connected at all).
        """
        i = self._require_node(x)
        j = self._require_node(y)
        if i == j:
            raise SelfLoopError(f"cannot remove pair edges of {x!r} with itself")
        removed = self._links[i].pop(j, 0).bit_count()
        self._links[j].pop(i, None)
        self._edge_count -= removed
        return removed

    # -- basic accessors ----------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._node_labels)

    @property
    def layer_count(self) -> int:
        return len(self._layer_labels)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def nodes(self) -> list[str]:
        """Node labels in registration order."""
        return list(self._node_labels)

    def layers(self) -> list[str]:
        """Layer labels in registration order."""
        return list(self._layer_labels)

    def has_node(self, label: str) -> bool:
        return label in self._node_index

    def has_layer(self, label: str) -> bool:
        return label in self._layer_index

    def has_edge(self, source: str, target: str, layer: str) -> bool:
        x = self._node_index.get(source)
        y = self._node_index.get(target)
        l = self._layer_index.get(layer)
        if x is None or y is None or l is None:
            return False
        return bool(self._links[x].get(y, 0) >> 2 * l & 1)

    def edges(self) -> Iterator[tuple[str, str, str]]:
        """Yield (source, target, layer) triples in sorted label order.

        This is ``sorted(net.edges())``, the order ``write_edge_list`` writes.
        """
        labels, layer_labels = self._node_labels, self._layer_labels
        by_rank, rank = _label_ranks(labels)
        layer_order = _label_ranks(layer_labels)[0]
        # per link mask present: the labels of its outgoing layers, sorted
        masks = set().union(*(links.values() for links in self._links))
        outgoing = {m: [layer_labels[l] for l in layer_order if m >> 2 * l & 1] for m in masks}
        for x in by_rank:
            source, links = labels[x], self._links[x]
            for y in sorted(links, key=rank.__getitem__):
                for layer in outgoing[links[y]]:
                    yield source, labels[y], layer

    def node_label(self, index: int) -> str:
        return self._node_labels[index]

    def node_index(self, label: str) -> int:
        return self._require_node(label)

    def layer_label(self, index: int) -> str:
        return self._layer_labels[index]

    def layer_index(self, label: str) -> int:
        return self._require_layer(label)

    def layers_connecting(self, x: str, y: str) -> int:
        """Number of layers carrying an edge between x and y, either way."""
        i = self._require_node(x)
        j = self._require_node(y)
        m = self._links[i].get(j, 0)
        return ((m | m >> 1) & self._even_bits).bit_count()

    # -- neighbourhoods ------------------------------------------------

    def neighborhood(self, x: str, layer: str) -> set[str]:
        """Nodes connected to x on the given layer, in either direction."""
        i = self._require_node(x)
        shift = 2 * self._require_layer(layer)
        labels = self._node_labels
        return {labels[j] for j, m in self._links[i].items() if m >> shift & 3}

    def multilayer_neighborhood(self, x: str, alpha: int) -> set[str]:
        """Nodes connected to x on at least ``alpha`` distinct layers."""
        i = self._require_node(x)
        self._check_alpha(alpha)
        labels = self._node_labels
        return {labels[j] for j in self._mn_idx(i, alpha)}

    def project_layer(self, layer: str) -> "MultiLayerNetwork":
        """Single-layer network: all nodes, and this layer's edges in :meth:`edges` order."""
        self._require_layer(layer)
        net = MultiLayerNetwork()
        for label in self._node_labels:
            net.add_node(label)
        net.add_layer(layer)
        for source, target, on in self.edges():
            if on == layer:
                net.add_edge(source, target, layer)
        return net

    def copy(self) -> "MultiLayerNetwork":
        """Independent deep copy (labels, layers, adjacency)."""
        net = MultiLayerNetwork()
        net._node_index = dict(self._node_index)
        net._node_labels = list(self._node_labels)
        net._layer_index = dict(self._layer_index)
        net._layer_labels = list(self._layer_labels)
        net._links = [dict(d) for d in self._links]
        net._even_bits = self._even_bits
        net._edge_count = self._edge_count
        return net

    # -- internals ------------------------------------------------------

    def _require_node(self, label: str) -> int:
        idx = self._node_index.get(label)
        if idx is None:
            raise UnknownNodeError(f"unknown node {label!r}")
        return idx

    def _require_layer(self, label: str) -> int:
        idx = self._layer_index.get(label)
        if idx is None:
            raise UnknownLayerError(f"unknown layer {label!r}")
        return idx

    def _check_alpha(self, alpha: int) -> None:
        count = len(self._layer_labels)
        if not 1 <= alpha <= count:
            raise AlphaOutOfRangeError(
                f"alpha must be in [1, {count}] for a network with "
                f"{count} layer(s); got {alpha}"
            )

    def _pair_edge_count(self, i: int, j: int) -> int:
        """Directed edges between node indices i and j, all layers."""
        return self._links[i].get(j, 0).bit_count()

    def _mn_idx(self, i: int, alpha: int) -> set[int]:
        """Multi-layered neighbourhood of node index i, as indices."""
        linked = _AlphaLinked(self._even_bits, alpha)
        return {j for j, m in self._links[i].items() if linked[m]}

    def _query_maps(self, alpha: int) -> Iterator[dict[int, None]]:
        """Each node's ``_mn_idx(i, alpha)`` as a map, made one node at a time.

        At alpha 1 the map is presized from the link map, which builds
        fastest.  At alpha >= 2, where a neighbourhood often holds a few
        nodes or none, it is grown key by key: 64 B empty and 224 B with
        one to four keys, where a presized map takes 224 B and 352 B.
        The layer count is taken once per distinct link mask.  The
        detector's table and ``clecc_rows`` at alpha >= 2 read the
        neighbourhoods from here.
        """
        if alpha == 1:
            for links in self._links:
                yield dict.fromkeys(links)
            return
        linked = _AlphaLinked(self._even_bits, alpha)
        for links in self._links:
            yield {j: None for j, m in links.items() if linked[m]}


def _label_ranks(label_of: list[str]) -> tuple[list[int], list[int]]:
    """Indices in label order, and each index's rank in it (the inverse)."""
    indices = list(range(len(label_of)))  # one int object per index, shared by both
    by_rank = sorted(indices, key=label_of.__getitem__)
    return by_rank, sorted(indices, key=by_rank.__getitem__)


class _AlphaLinked(dict):
    """Whether a link mask joins its pair on at least ``alpha`` layers, per mask."""

    def __init__(self, even_bits: int, alpha: int):
        super().__init__()
        self._even = even_bits
        self._alpha = alpha

    def __missing__(self, m: int) -> bool:
        linked = self[m] = ((m | m >> 1) & self._even).bit_count() >= self._alpha
        return linked
