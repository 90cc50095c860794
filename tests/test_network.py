"""Core network model: construction rules, neighbourhoods, flattening."""

import ast
import random
import sys
from pathlib import Path

import pytest

import clecc
from clecc import (
    AlphaOutOfRangeError,
    DuplicateEdgeError,
    MultiLayerNetwork,
    SelfLoopError,
    UnknownLayerError,
    UnknownNodeError,
    PlantedParams,
    clecc_table,
    demo_network,
    generate_planted,
    write_edge_list,
)
from clecc.detection import _SpanningForest
from conftest import barbell, random_network, reciprocal, toy2


class TestAddEdge:
    def test_construction(self):
        net = MultiLayerNetwork()
        net.add_edge("x", "y", "l1")
        assert net.node_count == 2
        assert net.layer_count == 1
        assert net.edge_count == 1
        assert net.has_edge("x", "y", "l1")
        assert not net.has_edge("y", "x", "l1")

    def test_self_loop_rejected(self):
        net = MultiLayerNetwork()
        with pytest.raises(SelfLoopError):
            net.add_edge("x", "x", "l1")

    def test_duplicate_triple_rejected(self):
        net = MultiLayerNetwork()
        net.add_edge("x", "y", "l1")
        with pytest.raises(DuplicateEdgeError):
            net.add_edge("x", "y", "l1")

    def test_reverse_and_other_layer_allowed(self):
        net = MultiLayerNetwork()
        net.add_edge("x", "y", "l1")
        net.add_edge("y", "x", "l1")
        net.add_edge("x", "y", "l2")
        assert net.edge_count == 3


class TestNeighborhood:
    def test_demo_values(self):
        net = demo_network()
        assert net.neighborhood("x", "l1") == {"y", "z"}
        # one-directional u->z still counts
        assert net.neighborhood("z", "l1") == {"x", "y", "u"}

    def test_isolated_node(self):
        net = demo_network()
        net.add_node("w")
        assert net.neighborhood("w", "l1") == set()

    def test_unknown_node_and_layer(self):
        net = demo_network()
        with pytest.raises(UnknownNodeError):
            net.neighborhood("nope", "l1")
        with pytest.raises(UnknownLayerError):
            net.neighborhood("x", "l9")


class TestMultilayerNeighborhood:
    def test_single_layer_reduces_to_neighborhood(self):
        net = demo_network()
        for node in net.nodes():
            assert net.multilayer_neighborhood(node, 1) == net.neighborhood(node, "l1")

    def test_toy_two_layers(self):
        net = toy2()
        assert net.multilayer_neighborhood("x", 2) == {"y", "u"}
        assert net.multilayer_neighborhood("y", 2) == {"x"}

    def test_edgeless(self):
        net = MultiLayerNetwork()
        net.add_node("a")
        net.add_layer("l1")
        assert net.multilayer_neighborhood("a", 1) == set()

    @pytest.mark.parametrize("alpha", [0, -1, 3])
    def test_alpha_range(self, alpha):
        net = toy2()
        with pytest.raises(AlphaOutOfRangeError):
            net.multilayer_neighborhood("x", alpha)


class TestProjectLayer:
    def test_keeps_all_nodes_single_layer_edges(self):
        net = toy2()
        proj = net.project_layer("l2")
        assert set(proj.nodes()) == set(net.nodes())
        assert proj.layers() == ["l2"]
        assert sorted(proj.edges()) == sorted(
            e for e in net.edges() if e[2] == "l2"
        )

    def test_identity_on_single_layer(self):
        net = demo_network()
        proj = net.project_layer("l1")
        assert sorted(proj.edges()) == sorted(net.edges())
        assert proj.nodes() == net.nodes()

    def test_empty_layer(self):
        net = demo_network()
        net.add_layer("l2")
        proj = net.project_layer("l2")
        assert set(proj.nodes()) == set(net.nodes())
        assert proj.edge_count == 0

    def test_unknown_layer(self):
        with pytest.raises(UnknownLayerError):
            demo_network().project_layer("l7")


class TestEdgeOrder:
    def test_edges_are_sorted_whatever_the_registration_order(self):
        # " " < "!" < "#" < ",": joined rows would sort "a b,..." before "a,..."
        net = MultiLayerNetwork()
        for label in ("b", "a#", "a", "a b", "a!"):
            net.add_node(label)
        for layer in ("l2", "l10", "l1"):
            net.add_layer(layer)
        pairs = [("a#", "a"), ("a", "a b"), ("b", "a!"), ("a!", "a"), ("a b", "a#")]
        for k, (x, y) in enumerate(pairs):
            for layer in ("l1", "l2", "l10")[k % 2:]:
                net.add_edge(x, y, layer)
                net.add_edge(y, x, layer)
        edges = list(net.edges())
        assert len(edges) == net.edge_count
        assert edges == sorted(edges)
        assert write_edge_list(net).splitlines()[1:] == [",".join(e) for e in edges]
        proj = net.project_layer("l10")
        assert proj.nodes() == net.nodes()
        assert list(proj.edges()) == [e for e in edges if e[2] == "l10"]


class TestFlattenAlpha:
    """The alpha-flattened pairs: those connected on at least alpha layers."""

    def test_toy_alpha2(self):
        assert clecc_table(toy2(), 2).pairs() == [("u", "x"), ("x", "y")]

    def test_alpha1_single_layer(self):
        assert clecc_table(demo_network(), 1).pairs() == [
            ("u", "v"),
            ("u", "z"),
            ("x", "y"),
            ("x", "z"),
            ("y", "z"),
        ]

    def test_no_pair_spans_all_layers(self):
        net = MultiLayerNetwork()
        net.add_edge("a", "b", "l1")
        net.add_edge("b", "c", "l2")
        assert len(clecc_table(net, 2)) == 0
        assert all(not net.multilayer_neighborhood(x, 2) for x in net.nodes())

    def test_agrees_with_multilayer_neighborhood(self):
        rng = random.Random(5)
        for _ in range(25):
            net = random_network(rng, max_nodes=14, max_layers=3)
            for alpha in range(1, net.layer_count + 1):
                flat = {x: set() for x in net.nodes()}
                for a, b in clecc_table(net, alpha).pairs():
                    flat[a].add(b)
                    flat[b].add(a)
                for x in net.nodes():
                    assert flat[x] == net.multilayer_neighborhood(x, alpha)

    def test_adjacency_holds_each_neighbourhood(self):
        # the query maps and the table's maps hold each neighbourhood,
        # and the table each pair's count under both of its nodes; the
        # maps may list their keys in any order
        rng = random.Random(6)
        for _ in range(5):
            net = MultiLayerNetwork()
            for _ in range(2000):
                a, b = rng.sample(range(400), 2)
                for layer in rng.sample(["l1", "l2", "l3", "l4"], rng.randint(1, 4)):
                    if not net.has_edge(f"n{a}", f"n{b}", layer):
                        net.add_edge(f"n{a}", f"n{b}", layer)
            for alpha in range(1, net.layer_count + 1):
                adjacency = list(net._query_maps(alpha))
                assert len(adjacency) == net.node_count
                queries = [net._mn_idx(i, alpha) for i in range(net.node_count)]
                assert [query.keys() for query in adjacency] == queries
                mn = clecc_table(net, alpha)._mn
                assert [mn_i.keys() for mn_i in mn] == queries
                assert all(
                    c == len(queries[i] & queries[j]) == mn[j][i]
                    for i, mn_i in enumerate(mn)
                    for j, c in mn_i.items()
                )

    @pytest.mark.parametrize("layers, p_in", [(2, 0.4), (3, 0.55)])
    def test_small_maps_are_not_presized(self, layers, p_in):
        # at alpha >= 2 a neighbourhood often holds a few nodes or none;
        # a map presized from its set (dict.fromkeys) is larger there
        # than one grown key by key
        net = generate_planted(
            PlantedParams(sizes=(12,) * 4, layers=layers, p_in=p_in, p_out=0.05, seed=3)
        ).network
        alpha = layers
        queries = [net._mn_idx(i, alpha) for i in range(net.node_count)]
        seen = set()
        for maps in (clecc_table(net, alpha)._mn, list(net._query_maps(alpha))):
            for query, mn_i in zip(queries, maps):
                if len(query) <= 4:
                    grown = {j: None for j in query}
                    assert mn_i.keys() == query
                    assert sys.getsizeof(mn_i) <= sys.getsizeof(grown), len(query)
                    seen.add(len(query))
        assert seen == {0, 1, 2, 3, 4}


class TestRemovePairEdges:
    def test_reciprocal_two_layers(self):
        net = MultiLayerNetwork()
        reciprocal(net, "a", "b", "l1")
        reciprocal(net, "a", "b", "l2")
        assert net.remove_pair_edges("a", "b") == 4
        assert net.edge_count == 0
        assert net.multilayer_neighborhood("a", 1) == set()

    def test_noop_when_disconnected(self):
        net = demo_network()
        before = sorted(net.edges())
        assert net.remove_pair_edges("x", "u") == 0
        assert sorted(net.edges()) == before

    def test_single_directed_edge(self):
        net = MultiLayerNetwork()
        net.add_edge("a", "b", "l1")
        assert net.remove_pair_edges("a", "b") == 1

    def test_unknown_node(self):
        with pytest.raises(UnknownNodeError):
            demo_network().remove_pair_edges("x", "nope")

    def test_same_node_twice(self):
        with pytest.raises(SelfLoopError):
            demo_network().remove_pair_edges("x", "x")


def bfs_distances(adj, start):
    """Hop distance from start to every node it reaches: the split oracle."""
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def assert_spanning(forest, adj):
    """Parent and child links agree, and each tree spans one component."""
    parent, children = forest._parent, forest._children
    for v, p in enumerate(parent):
        if p != -1:
            assert p in adj[v] and children[p].count(v) == 1
        assert all(parent[c] == v for c in children.get(v, ()))
    covered = 0
    for root in (v for v, p in enumerate(parent) if p == -1):
        tree = forest._tree(root)
        assert tree == set(bfs_distances(adj, root))
        covered += len(tree)
    assert covered == len(adj)


def drop_edge(adj, a, b):
    adj[a].discard(b)
    adj[b].discard(a)


class TestConnectedComponents:
    """The spanning forest that decides when the detector's graph splits."""

    def test_barbell_bridge(self):
        net = barbell()
        adj = [set(query) for query in net._query_maps(1)]
        forest = _SpanningForest(adj)
        a, b, c, d = (net.node_index(x) for x in "abcd")
        # the path through c still joins a and b
        drop_edge(adj, a, b)
        assert forest.split(a, b) is None
        drop_edge(adj, c, d)
        comp_c, comp_d = forest.split(c, d)
        assert sorted(net.node_label(v) for v in comp_c) == ["a", "b", "c"]
        assert sorted(net.node_label(v) for v in comp_d) == ["d", "e", "f"]
        assert_spanning(forest, adj)

    def test_edgeless(self):
        adj = [set() for _ in range(5)]
        forest = _SpanningForest(adj)
        assert forest._parent == [-1] * 5
        assert [forest._tree(v) for v in range(5)] == [{v} for v in range(5)]

    def test_edge_plus_isolated(self):
        # 0-1 joined, 2 isolated: the cut side is the child, the other
        # side comes back in the order the endpoints were given
        for a, b in ((0, 1), (1, 0)):
            adj = [{1}, {0}, set()]
            forest = _SpanningForest(adj)
            assert forest._parent == [-1, 0, -1]
            drop_edge(adj, a, b)
            assert forest.split(a, b) == ({a}, {b})
            assert_spanning(forest, adj)

    def test_reroots_the_cut_subtree(self):
        # a 6-cycle: the forest is 0-1 and 0-5-4-3-2, and 1-2 is not a
        # tree edge; cutting 0-5 leaves 1-2 as the only way back
        adj = [set() for _ in range(6)]
        for v in range(6):
            adj[v].add((v + 1) % 6)
            adj[(v + 1) % 6].add(v)
        forest = _SpanningForest(adj)
        assert forest._parent == [-1, 0, 3, 4, 5, 0]
        drop_edge(adj, 1, 2)  # a non-tree edge
        assert forest.split(1, 2) is None
        assert forest._parent == [-1, 0, 3, 4, 5, 0]
        adj[1].add(2)
        adj[2].add(1)
        drop_edge(adj, 5, 0)
        assert forest.split(5, 0) is None
        assert forest._parent == [-1, 0, 1, 2, 3, 4]
        assert_spanning(forest, adj)
        drop_edge(adj, 3, 4)
        assert forest.split(3, 4) == ({0, 1, 2, 3}, {4, 5})
        assert_spanning(forest, adj)

    def test_matches_bfs_under_random_deletions(self):
        rng = random.Random(23)
        outcomes = {"non-tree": 0, "replaced": 0, "separated": 0}
        for _ in range(40):
            n = rng.randint(4, 40)
            p = rng.choice([0.08, 0.15, 0.3])
            adj = [set() for _ in range(n)]
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < p:
                        adj[a].add(b)
                        adj[b].add(a)
            forest = _SpanningForest(adj)
            assert_spanning(forest, adj)
            edges = [(a, b) for a in range(n) for b in adj[a] if a < b]
            rng.shuffle(edges)
            for a, b in edges:
                if rng.random() < 0.5:
                    a, b = b, a
                tree_edge = b == forest._parent[a] or a == forest._parent[b]
                drop_edge(adj, a, b)
                dist = bfs_distances(adj, a)
                got = forest.split(a, b)
                if b in dist:
                    assert got is None
                    outcomes["replaced" if tree_edge else "non-tree"] += 1
                else:
                    assert tree_edge
                    assert got == (set(dist), set(bfs_distances(adj, b)))
                    outcomes["separated"] += 1
                assert_spanning(forest, adj)
        assert all(outcomes.values()), outcomes


class TestNeighbourhoodLaws:
    """Seeded-random property harness for the neighbourhood identities."""

    def test_symmetry_monotonicity_union_irreflexivity(self):
        rng = random.Random(99)
        for _ in range(40):
            net = random_network(rng, max_nodes=20, max_layers=4)
            nodes = net.nodes()
            mn = {
                alpha: {x: net.multilayer_neighborhood(x, alpha) for x in nodes}
                for alpha in range(1, net.layer_count + 1)
            }
            for alpha, by_node in mn.items():
                for x in nodes:
                    assert x not in by_node[x]
                    for y in by_node[x]:
                        assert x in by_node[y]
                    if alpha > 1:
                        assert by_node[x] <= mn[alpha - 1][x]
            for x in nodes:
                union = set()
                for layer in net.layers():
                    union |= net.neighborhood(x, layer)
                assert mn[1][x] == union

    def test_empty_layer_changes_nothing(self):
        net = toy2()
        before = {x: net.multilayer_neighborhood(x, 1) for x in net.nodes()}
        before_l1 = {x: net.neighborhood(x, "l1") for x in net.nodes()}
        net.add_layer("l3")
        assert before == {x: net.multilayer_neighborhood(x, 1) for x in net.nodes()}
        assert before_l1 == {x: net.neighborhood(x, "l1") for x in net.nodes()}


class TestCopy:
    def test_copy_is_independent(self):
        net = barbell()
        dup = net.copy()
        dup.remove_pair_edges("c", "d")
        assert net.layers_connecting("c", "d") == 1
        assert dup.layers_connecting("c", "d") == 0
        dup.add_edge("new", "c", "l1")
        assert not net.has_node("new")

    def test_in_out_consistency_audit(self):
        rng = random.Random(3)
        for _ in range(10):
            net = random_network(rng, max_nodes=12, max_layers=3)
            for src, dst, layer in net.edges():
                i, j = net.node_index(src), net.node_index(dst)
                l = net.layer_index(layer)
                assert net._links[i][j] >> 2 * l & 1
                assert net._links[j][i] >> 2 * l + 1 & 1
            popcounts = sum(m.bit_count() for links in net._links for m in links.values())
            assert net.edge_count == popcounts // 2


def _assert_matches_model(net, triples, nodes, layers):
    """Every query on ``net`` agrees with the plain set of (source, target, layer)."""
    assert net.nodes() == nodes
    assert net.layers() == layers
    assert [net.layer_label(l) for l in range(len(layers))] == layers
    assert all(map(net.has_layer, layers)) and not net.has_layer("no such layer")
    assert net.edge_count == len(triples)
    assert list(net.edges()) == sorted(triples)
    linked = {}
    for x, y, layer in triples:
        linked.setdefault(frozenset((x, y)), set()).add(layer)
    for x in nodes:
        for layer in layers:
            assert net.neighborhood(x, layer) == {
                y for y in nodes if layer in linked.get(frozenset((x, y)), ())
            }
        for y in nodes:
            if x == y:
                continue
            for layer in layers:
                assert net.has_edge(x, y, layer) == ((x, y, layer) in triples)
            assert net.layers_connecting(x, y) == len(linked.get(frozenset((x, y)), ()))
        for alpha in range(1, len(layers) + 1):
            assert net.multilayer_neighborhood(x, alpha) == {
                y for y in nodes if len(linked.get(frozenset((x, y)), ())) >= alpha
            }


class TestPlainModel:
    """The network against a plain set of triples, including many layers."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_build_removals_and_copy(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        width = 40 if seed == 0 else rng.randint(1, 5)
        pool = [f"{c}{k}" for k, c in enumerate(rng.sample("qwertyuiopasdf", n))]
        layer_pool = [f"L{rng.randrange(100)}_{k}" for k in range(width)]
        candidates = [(x, y, l) for x in pool for y in pool if x != y for l in layer_pool]
        triples = set(rng.sample(candidates, rng.randint(0, len(candidates) // 2)))

        net = MultiLayerNetwork()
        nodes, layers = [], []
        for label in rng.sample(pool, rng.randint(0, n)):
            net.add_node(label)
            nodes.append(label)
        for label in rng.sample(layer_pool, rng.randint(0, width)):
            net.add_layer(label)
            layers.append(label)
        for x, y, l in rng.sample(sorted(triples), len(triples)):
            net.add_edge(x, y, l)
            for label, seen in ((x, nodes), (y, nodes), (l, layers)):
                if label not in seen:
                    seen.append(label)
        for x, y, l in rng.sample(sorted(triples), min(5, len(triples))):
            with pytest.raises(DuplicateEdgeError):
                net.add_edge(x, y, l)
        _assert_matches_model(net, triples, nodes, layers)

        for _ in range(rng.randint(1, 2 * n)):
            if len(nodes) < 2:
                break
            snapshot, dup = set(triples), net.copy()
            x, y = rng.sample(nodes, 2)
            between = {t for t in triples if {t[0], t[1]} == {x, y}}
            assert net.remove_pair_edges(x, y) == len(between)
            triples -= between
            _assert_matches_model(net, triples, nodes, layers)
            _assert_matches_model(dup, snapshot, nodes, layers)


# the fields that hold a MultiLayerNetwork's labels, layers and link maps
NETWORK_FIELDS = {
    "_node_index", "_node_labels", "_layer_index", "_layer_labels",
    "_links", "_even_bits", "_edge_count",
}
SOURCES = Path(clecc.__file__).parent


def field_writes(tree):
    """Lines that assign or delete a network field of an object other than self.

    A write through a subscript (``net._links[x][y] = m``) counts too.
    """
    for node in ast.walk(tree):
        if not (
            isinstance(node, (ast.Attribute, ast.Subscript))
            and isinstance(node.ctx, (ast.Store, ast.Del))
        ):
            continue
        while isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and node.attr in NETWORK_FIELDS
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ):
            yield node.lineno


class TestLayoutOwnership:
    """The link-map layout is written in network.py alone."""

    def test_only_the_network_writes_its_fields(self):
        paths = sorted(SOURCES.glob("*.py"))
        assert "network.py" in {path.name for path in paths}
        writes = [
            f"{path.name}:{line}"
            for path in paths
            if path.name != "network.py"
            for line in field_writes(ast.parse(path.read_text(encoding="utf-8")))
        ]
        assert writes == []

    def test_the_parser_names_no_field(self):
        tree = ast.parse((SOURCES / "formats.py").read_text(encoding="utf-8"))
        named = [
            node.lineno
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr in NETWORK_FIELDS)
            or (isinstance(node, ast.Name) and node.id in NETWORK_FIELDS)
        ]
        assert named == []

    def test_the_check_sees_writes_through_other_objects(self):
        code = (
            "net._edge_count = 1\n"
            "net._links[x][y] |= 2\n"
            "del other._node_index[k]\n"
            "a, net._layer_labels = 1, []\n"
            "self._links = []\n"
            "links = net._links\n"
        )
        assert list(field_writes(ast.parse(code))) == [1, 2, 3, 4]
