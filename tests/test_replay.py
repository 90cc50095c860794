"""Step-by-step check of logged SeededRandom runs, independent of the fast path.

``replay`` rebuilds the alpha adjacency from ``net.edges()``, keeps
each candidate pair's value as an exact ``Fraction`` and walks a
``detect --log-removals`` result.  Each step must take a candidate pair
at the minimum value with its edge count; after a split, each side of
two or more nodes must be frozen exactly when it is valid; the log must
end when no candidate pair is left, and the partition must be the one
the replay derives.  It shares no code with ``measures.py`` or
``detection.py``, so it checks a random run whatever order its ties
were listed in.
"""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from clecc import (
    PlantedParams,
    clecc_table,
    generate_planted,
    parse_edge_list,
    parse_validity,
    validate_group,
    write_edge_list,
)
from clecc.cli import cli_main
from conftest import random_network, shuffled_labels

INPUTS = {
    "planted-4x12": (PlantedParams(sizes=(12,) * 4, layers=2, p_in=0.4, p_out=0.03, seed=9), 4),
    "planted-3x10": (PlantedParams(sizes=(10,) * 3, layers=2, p_in=0.6, p_out=0.08, seed=2), 1),
    "planted-4x8-3l": (PlantedParams(sizes=(8,) * 4, layers=3, p_in=0.7, p_out=0.1, seed=5), 2),
}


def _valid(tag, members, adj1):
    """Whether ``members`` meets the condition ``tag`` on the alpha-1 adjacency."""
    if tag.startswith("min-size:"):
        return len(members) >= int(tag[len("min-size:"):])
    internal = external = 0
    for v in members:
        inside = len(adj1[v] & members)
        outside = len(adj1[v]) - inside
        if tag == "strong" and inside <= outside:
            return False
        internal += inside
        external += outside
    return tag == "strong" or internal > external


def _component(adj, start):
    seen = {start}
    stack = [start]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def replay(net, result):
    """Check a logged result against ``net``; an AssertionError names the first fault."""
    alpha, tag = result["alpha"], result["validity"]
    layers, edges = {}, Counter()
    for source, target, layer in net.edges():
        pair = (min(source, target), max(source, target))
        layers.setdefault(pair, set()).add(layer)
        edges[pair] += 1
    nodes = net.nodes()
    adj1 = {v: set() for v in nodes}  # any layer: validity counts degrees here
    adj = {v: set() for v in nodes}
    for (a, b), on in layers.items():
        adj1[a].add(b)
        adj1[b].add(a)
        if len(on) >= alpha:
            adj[a].add(b)
            adj[b].add(a)

    def value(a, b):
        union = (adj[a] | adj[b]) - {a, b}
        return Fraction(len(adj[a] & adj[b]), len(union)) if union else Fraction(1)

    values = {(a, b): value(a, b) for a in nodes for b in adj[a] if a < b}
    groups = []
    for step, record in enumerate(result["removals"], 1):
        where = f"step {step}"
        assert record["step"] == step, where
        assert values, f"{where}: no candidate pair is left"
        pair = tuple(record["pair"])
        low = min(values.values())
        assert values.get(pair) == low, f"{where}: {pair} is not a candidate at the minimum {low}"
        assert record["clecc"] == float(low), f"{where}: clecc"
        assert record["edges_removed"] == edges[pair], f"{where}: edges_removed"
        x, y = pair
        del values[pair]
        adj[x].remove(y)
        adj[y].remove(x)
        for e in pair:  # only entries with an endpoint change value
            for z in adj[e]:
                values[min(e, z), max(e, z)] = value(e, z)
        side_x = _component(adj, x)
        if y in side_x:
            continue
        for side in (side_x, _component(adj, y)):
            if len(side) > 1 and _valid(tag, side, adj1):
                groups.append(sorted(side))
                for v in side:
                    for z in adj[v]:
                        values.pop((min(v, z), max(v, z)), None)
                for v in side:
                    adj[v] = set()
    assert not values, f"the log ends with {len(values)} candidate pairs left"
    assert [group["nodes"] for group in result["groups"]] == groups, "groups"
    grouped = {v for group in groups for v in group}
    assert result["singletons"] == sorted(v for v in nodes if v not in grouped), "singletons"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Each input's edge-list path and the network ``detect`` parses from it."""
    directory = tmp_path_factory.mktemp("replay")
    found = {}
    for name, (params, relabel) in INPUTS.items():
        path = directory / f"{name}.csv"
        path.write_text(write_edge_list(shuffled_labels(generate_planted(params).network, relabel)))
        found[name] = str(path), parse_edge_list(path.read_text()).network
    return found


def logged_run(tmp_path, path, alpha, seed, validity="weak"):
    out = tmp_path / "result.json"
    argv = ["detect", "--input", path, "--alpha", str(alpha), "--validity", validity]
    argv += ["--ties", "random", "--seed", str(seed), "--log-removals", "--output", str(out)]
    assert cli_main(argv) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_seeded_random_logs_replay(inputs, tmp_path, name, alpha):
    path, net = inputs[name]
    splits = 0
    for seed in range(6):
        validity = ("weak", "strong", "min-size:4")[seed % 3]
        result = logged_run(tmp_path, path, alpha, seed, validity)
        assert result["tie_policy"] == "random" and result["removals"]
        replay(net, result)
        splits += bool(result["groups"])
    assert splits


def test_validity_restates_validate_group():
    rng = random.Random(7)
    for _ in range(20):
        net = random_network(rng, max_nodes=16, max_layers=2)
        adj1 = {v: set() for v in net.nodes()}
        for source, target, _ in net.edges():
            adj1[source].add(target)
            adj1[target].add(source)
        for tag in ("weak", "strong", "min-size:3"):
            for _ in range(10):
                members = set(rng.sample(net.nodes(), rng.randint(1, net.node_count)))
                assert _valid(tag, members, adj1) == validate_group(
                    net, members, parse_validity(tag)
                )


class TestRejects:
    @pytest.fixture
    def run(self, inputs, tmp_path):
        path, net = inputs["planted-4x12"]
        result = logged_run(tmp_path, path, 1, 1)
        replay(net, result)
        return net, result

    def test_a_pair_swapped_for_a_non_minimal_one(self, run):
        net, result = run
        values = clecc_table(net, 1).as_dict()
        highest = max(values, key=values.get)
        assert values[highest] > min(values.values())
        result["removals"][0]["pair"] = list(highest)
        with pytest.raises(AssertionError, match="step 1: .* is not a candidate at the minimum"):
            replay(net, result)

    def test_a_wrong_edge_count(self, run):
        net, result = run
        result["removals"][0]["edges_removed"] += 1
        with pytest.raises(AssertionError, match="step 1: edges_removed"):
            replay(net, result)

    def test_a_log_cut_short(self, run):
        net, result = run
        del result["removals"][-1]
        with pytest.raises(AssertionError, match="candidate pairs left"):
            replay(net, result)

    def test_a_valid_side_left_unfrozen(self, run):
        net, result = run
        unfrozen = result["groups"].pop(0)["nodes"]
        result["singletons"] = sorted(result["singletons"] + unfrozen)
        with pytest.raises(AssertionError, match="groups"):
            replay(net, result)
