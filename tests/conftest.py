"""Shared fixture networks.

Hand-sized graphs with known measure values, plus a seeded random
network builder for the property harnesses.  Reciprocal helpers add
both directions of an edge, matching how the generators sample.
"""

import os
import random
from pathlib import Path

import pytest

from clecc import MultiLayerNetwork

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict[str, str]:
    """Environment for a child Python that imports this checkout's ``clecc``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def reciprocal(net, a, b, layer):
    net.add_edge(a, b, layer)
    net.add_edge(b, a, layer)


def triangle():
    """Reciprocal 3-clique a,b,c on one layer."""
    net = MultiLayerNetwork()
    for a, b in [("a", "b"), ("a", "c"), ("b", "c")]:
        reciprocal(net, a, b, "l1")
    return net


def path3():
    """Path a-b-c on one layer."""
    net = MultiLayerNetwork()
    reciprocal(net, "a", "b", "l1")
    reciprocal(net, "b", "c", "l1")
    return net


def square_diag():
    """4-cycle a,b,c,d plus the diagonal a-c."""
    net = MultiLayerNetwork()
    for a, b in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]:
        reciprocal(net, a, b, "l1")
    return net


def toy2():
    """Two layers: l1 has x-y, x-u, y-u; l2 has x-y, x-u. All reciprocal."""
    net = MultiLayerNetwork()
    for a, b in [("x", "y"), ("x", "u"), ("y", "u")]:
        reciprocal(net, a, b, "l1")
    for a, b in [("x", "y"), ("x", "u")]:
        reciprocal(net, a, b, "l2")
    return net


def dyad():
    """Two nodes joined reciprocally on one layer, nothing else."""
    net = MultiLayerNetwork()
    reciprocal(net, "a", "b", "l1")
    return net


def barbell():
    """Two reciprocal triangles {a,b,c} and {d,e,f} bridged by c-d."""
    net = MultiLayerNetwork()
    for a, b in [("a", "b"), ("a", "c"), ("b", "c"), ("d", "e"), ("d", "f"), ("e", "f"), ("c", "d")]:
        reciprocal(net, a, b, "l1")
    return net


def random_network(rng: random.Random, max_nodes=32, max_layers=4) -> MultiLayerNetwork:
    """Seeded random network with mixed per-layer densities.

    Samples ordered pairs independently, so one-directional and
    reciprocal edges both occur.
    """
    n = rng.randint(2, max_nodes)
    layers = rng.randint(1, max_layers)
    net = MultiLayerNetwork()
    labels = [f"n{i}" for i in range(n)]
    for label in labels:
        net.add_node(label)
    for l in range(layers):
        layer = f"l{l + 1}"
        net.add_layer(layer)
        density = rng.choice([0.02, 0.05, 0.15, 0.3, 0.5])
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < density:
                    net.add_edge(labels[i], labels[j], layer)
    return net


def shuffled_labels(base: MultiLayerNetwork, seed: int) -> MultiLayerNetwork:
    """Copy of ``base`` whose node i gets a seeded random new label.

    Nodes are registered in the original index order, so the indices
    keep the structure while the labels' sort order is permuted.
    """
    labels = base.nodes()
    ranks = list(range(len(labels)))
    random.Random(seed).shuffle(ranks)
    rename = {label: f"v{k:03d}" for label, k in zip(labels, ranks)}
    net = MultiLayerNetwork()
    for layer in base.layers():
        net.add_layer(layer)
    for label in labels:
        net.add_node(rename[label])
    for source, target, layer in base.edges():
        net.add_edge(rename[source], rename[target], layer)
    return net


@pytest.fixture
def barbell_net():
    return barbell()


@pytest.fixture
def triangle_net():
    return triangle()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of a run."""
    lines = {}
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                lines[nodeid.split("::")[-1]] = label
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(lines):
            terminalreporter.write_line(f"{name}: {lines[name]}")
