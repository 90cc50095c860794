"""Measure values on the closed-form fixtures, table maintenance."""

import heapq
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from clecc import (
    AlphaOutOfRangeError,
    DetectionConfig,
    EmptyTableError,
    InconsistentTableError,
    Lexicographic,
    MinSize,
    MultiLayerNetwork,
    NotAdjacentError,
    PlantedParams,
    SeededRandom,
    TooManyNodesError,
    UnknownNodeError,
    WeakCommunity,
    clecc,
    clecc_table,
    ecc,
    generate_planted,
    run_detection,
    select_min_pair,
    update_after_removal,
)
from clecc import measures
from clecc.measures import _bitmasks, _check_float_exact, clecc_rows
from clecc.reference import naive_clecc
from conftest import (
    barbell,
    dyad,
    path3,
    random_network,
    reciprocal,
    shuffled_labels,
    square_diag,
    toy2,
    triangle,
)


def naive_value(net, x, y, alpha):
    """|MN(x) & MN(y)| / |(MN(x) | MN(y)) - {x, y}| as a Fraction, 0/0 = 1."""
    a = net.multilayer_neighborhood(x, alpha)
    b = net.multilayer_neighborhood(y, alpha)
    den = len((a | b) - {x, y})
    return Fraction(len(a & b), den) if den else Fraction(1)


class TestEcc:
    def test_triangle(self):
        assert ecc(triangle(), "a", "b") == 2.0

    def test_path_undefined(self):
        assert ecc(path3(), "a", "b") is None

    def test_square_with_diagonal(self):
        assert ecc(square_diag(), "a", "c") == 1.5

    def test_not_adjacent(self):
        with pytest.raises(NotAdjacentError):
            ecc(square_diag(), "b", "d")

    def test_one_directional_edge_counts(self):
        net = MultiLayerNetwork()
        net.add_edge("a", "b", "l1")
        net.add_edge("b", "c", "l1")
        net.add_edge("c", "a", "l1")
        assert ecc(net, "a", "b") == 2.0

    def test_requires_single_layer(self):
        with pytest.raises(ValueError):
            ecc(toy2(), "x", "y")


class TestClecc:
    def test_triangle(self):
        assert clecc(triangle(), "a", "b", 1) == 1.0

    def test_path(self):
        assert clecc(path3(), "a", "b", 1) == 0.0

    def test_square_with_diagonal(self):
        net = square_diag()
        assert clecc(net, "a", "b", 1) == 0.5
        assert clecc(net, "a", "c", 1) == 1.0

    def test_toy_alpha2(self):
        assert clecc(toy2(), "x", "y", 2) == 0.0

    def test_isolated_dyad_convention(self):
        assert clecc(dyad(), "a", "b", 1) == 1.0

    def test_symmetry(self):
        rng = random.Random(11)
        for _ in range(15):
            net = random_network(rng, max_nodes=12, max_layers=3)
            nodes = net.nodes()
            for _ in range(10):
                x, y = rng.sample(nodes, 2)
                for alpha in range(1, net.layer_count + 1):
                    assert clecc(net, x, y, alpha) == clecc(net, y, x, alpha)

    def test_range(self):
        rng = random.Random(12)
        for _ in range(15):
            net = random_network(rng, max_nodes=14, max_layers=3)
            for alpha in range(1, net.layer_count + 1):
                for _, value in clecc_table(net, alpha).items():
                    assert 0 <= value <= 1

    def test_layer_replication_invariance(self):
        # identical edge sets on every layer: alpha must not matter
        net = MultiLayerNetwork()
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
        for layer in ("l1", "l2", "l3"):
            for a, b in edges:
                net.add_edge(a, b, layer)
        for alpha in (2, 3):
            assert clecc(net, "a", "b", alpha) == clecc(net, "a", "b", 1)
            assert clecc(net, "c", "d", alpha) == clecc(net, "c", "d", 1)

    def test_errors(self):
        net = triangle()
        with pytest.raises(UnknownNodeError):
            clecc(net, "a", "zz", 1)
        with pytest.raises(AlphaOutOfRangeError):
            clecc(net, "a", "b", 2)
        with pytest.raises(ValueError):
            clecc(net, "a", "a", 1)


class TestCleccTable:
    def test_triangle_all_ones(self):
        table = clecc_table(triangle(), 1)
        assert len(table) == 3
        assert all(v == 1 for _, v in table.items())

    def test_toy_alpha2_entries(self):
        table = clecc_table(toy2(), 2)
        assert table.as_dict() == {("x", "y"): Fraction(0), ("u", "x"): Fraction(0)}

    def test_edgeless(self):
        net = MultiLayerNetwork()
        net.add_node("a")
        net.add_layer("l1")
        assert len(clecc_table(net, 1)) == 0

    def test_single_layer_candidates_are_the_edges(self):
        rng = random.Random(21)
        for _ in range(10):
            net = random_network(rng, max_nodes=15, max_layers=1)
            table = clecc_table(net, 1)
            undirected = {tuple(sorted((src, dst))) for src, dst, _ in net.edges()}
            assert table.pairs() == sorted(undirected)

    def test_values_match_pointwise_clecc(self):
        rng = random.Random(22)
        for _ in range(10):
            net = random_network(rng, max_nodes=15, max_layers=3)
            for alpha in range(1, net.layer_count + 1):
                for (x, y), value in clecc_table(net, alpha).items():
                    assert float(value) == clecc(net, x, y, alpha)

    def test_exact_fractions_stored(self):
        table = clecc_table(square_diag(), 1)
        assert table.value("a", "b") == Fraction(1, 2)
        assert isinstance(table.value("a", "b"), Fraction)

    def test_min_value_empty(self):
        net = MultiLayerNetwork()
        net.add_node("a")
        net.add_layer("l1")
        with pytest.raises(EmptyTableError):
            clecc_table(net, 1).min_value()

    def test_alpha_validated(self):
        with pytest.raises(AlphaOutOfRangeError):
            clecc_table(triangle(), 0)
        with pytest.raises(AlphaOutOfRangeError):
            clecc_table(triangle(), 2)

    def test_items_yield_label_sorted_pairs_in_ascending_order(self):
        rng = random.Random(23)
        for seed in range(5):
            net = shuffled_labels(random_network(rng, max_nodes=30, max_layers=2), seed)
            table = clecc_table(net, 1)
            pairs = [pair for pair, _ in table.items()]
            assert all(a < b for a, b in pairs)
            assert pairs == sorted(pairs) == table.pairs()
            assert len(set(pairs)) == len(table)

    def test_items_lazy_and_equal_naive_through_removals_and_freezes(self):
        rng = random.Random(37)
        for seed in range(15):
            net = shuffled_labels(random_network(rng, max_nodes=24, max_layers=3), seed)
            alpha = rng.randint(1, net.layer_count)
            table = clecc_table(net, alpha)
            work = net.copy()
            frozen: set[str] = set()
            for step in range(rng.randint(0, 12)):
                if not len(table):
                    break
                x, y = rng.choice(table.pairs())
                work.remove_pair_edges(x, y)
                update_after_removal(table, work, x, y)
                if step % 3 == 2:  # freeze x's component, as the detector does
                    frozen |= freeze_component(table, work.node_index(x))
            items = table.items()
            assert iter(items) is items and not isinstance(items, (list, tuple))
            got = list(items)
            pairs = [pair for pair, _ in got]
            assert all(a < b for a, b in pairs) and pairs == sorted(pairs)
            live = sorted(set(work.nodes()) - frozen)
            expected = [
                ((x, y), naive_clecc(work, x, y, alpha))
                for k, x in enumerate(live)
                for y in live[k + 1:]
                if work.layers_connecting(x, y) >= alpha
            ]
            assert got == expected

    def test_freeze_takes_out_exactly_the_group(self):
        # the public surface and both selections skip the frozen group's
        # pairs and no others; odd seeds keep the random-tie bookkeeping
        rng = random.Random(38)
        frozen_pairs = 0
        for seed in range(30):
            net = shuffled_labels(random_network(rng, max_nodes=24, max_layers=2), seed)
            alpha = rng.randint(1, net.layer_count)
            work = net.copy()
            table = clecc_table(work, alpha)
            if seed % 2 and len(table):
                table._select_min_random(random.Random(seed))
            for _ in range(rng.randint(0, 6)):
                if not len(table):
                    break
                x, y = rng.choice(table.pairs())
                work.remove_pair_edges(x, y)
                update_after_removal(table, work, x, y)
            if not len(table):
                continue
            before = table.as_dict()
            group = freeze_component(table, work.node_index(rng.choice(list(before))[0]))
            kept = {pair: value for pair, value in before.items() if pair[0] not in group}
            frozen_pairs += len(before) - len(kept)
            assert len(table) == len(kept) < len(before)
            assert all((pair in table) == (pair in kept) for pair in before)
            assert all(((b, a) in table) == ((a, b) in kept) for a, b in before)
            assert list(table.items()) == list(kept.items())
            assert table.pairs() == list(kept)
            draws, drawn = random.Random(seed), []
            while len(table):
                if seed % 2:
                    key = table._select_min_random(draws)
                else:
                    key = table._select_min_lex()
                drawn.append(table._labels(key))
                work.remove_pair_edges(*drawn[-1])
                update_after_removal(table, work, *drawn[-1])
            assert sorted(drawn) == list(kept)
        assert frozen_pairs > 30

    def test_table_holds_one_map_per_node(self):
        # the benchmark's planted input at alpha 1.  A neighbour set per
        # node beside a dict of counts by pair key held 2.51 MiB; one
        # {neighbour: count} dict per node holds 1.24 MiB (Python 3.11)
        net = generate_planted(
            PlantedParams(sizes=(100,) * 12, layers=2, p_in=0.1, p_out=0.002, seed=1)
        ).network
        tracemalloc.start()
        try:
            table = clecc_table(net, 1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(table) == 14027
        assert held < 1.15 * 1.24 * 2**20


def freeze_component(table, start: int) -> set[str]:
    """Freeze ``start``'s working component, as the detector does."""
    mn, component, stack = table._mn, {start}, [start]
    while stack:
        for w in mn[stack.pop()]:
            if w not in component:
                component.add(w)
                stack.append(w)
    table._freeze(component)
    return {table._label_of[v] for v in component}


def table_keys(table):
    """The table's keys in build order: smaller node ascending, then its map's order."""
    return [table._key(i, j) for i, mn_i in enumerate(table._mn) for j in mn_i if j > i]


def hub_path():
    """An 800-node path and a 4-clique of hubs, each hub joined to 12 path nodes.

    The path lies on l1.  The hubs' clique and the first 6 path nodes
    of each hub are on both layers, the other hub-path edges on l1
    only.  A path node has at most 3 alpha-neighbours and 3 * 256 < 804,
    so only the hubs get neighbour bitmasks; node indices put the path
    first and labels put the hubs first.
    """
    net = MultiLayerNetwork()
    path = [f"p{i:04d}" for i in range(800)]
    hubs = [f"h{k}" for k in range(4)]
    for a, b in zip(path, path[1:]):
        reciprocal(net, a, b, "l1")
    for k, hub in enumerate(hubs):
        for other in hubs[k + 1:]:
            reciprocal(net, hub, other, "l1")
            reciprocal(net, hub, other, "l2")
        for offset in range(12):
            spoke = path[150 * k + 40 + offset]
            reciprocal(net, hub, spoke, "l1")
            if offset < 6:
                reciprocal(net, hub, spoke, "l2")
    return net


class TestCountingBranches:
    """Bitmask counts between hubs, set counts for every other pair."""

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_only_hubs_get_bitmasks(self, alpha):
        net = hub_path()
        masked = _bitmasks(list(net._query_maps(alpha)))
        assert sorted(net.nodes()[i] for i in masked) == ["h0", "h1", "h2", "h3"]

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_values_equal_naive_clecc(self, alpha):
        net = hub_path()
        table = clecc_table(net, alpha)
        assert ("h0", "h1") in table and ("h0", "p0040") in table
        for (x, y), value in table.items():
            assert value == naive_clecc(net, x, y, alpha)

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_repairs_match_a_fresh_table(self, alpha):
        net = hub_path()
        table = clecc_table(net, alpha)
        for pair in [("h0", "h1"), ("h2", "p0340"), ("h1", "h3"), ("h3", "p0490")]:
            net.remove_pair_edges(*pair)
            update_after_removal(table, net, *pair)
            assert table.as_dict() == clecc_table(net, alpha).as_dict()


def sparse_network(rng: random.Random, n=1100, layers=3) -> MultiLayerNetwork:
    """Seeded n-node network in which no node gets a neighbour bitmask.

    On layer l1, cliques of 1 to 4 nodes are joined by a random matching
    of some nodes, so every node has at most 4 < n / 256 neighbours and
    the cliques close triangles.  Each later layer keeps a random part
    of the previous one's pairs, so at higher alphas more nodes have no
    alpha-neighbour.
    """
    net = MultiLayerNetwork()
    labels = [f"s{i}" for i in range(n)]
    for label in labels:
        net.add_node(label)
    order = rng.sample(labels, n)
    pairs, start = set(), 0
    while start < n:
        size = rng.randint(1, 4)
        block = order[start:start + size]
        pairs |= {(a, b) for a in block for b in block if a < b}
        start += size
    matched = rng.sample(labels, n // 2)
    pairs |= {tuple(sorted(matched[k:k + 2])) for k in range(0, len(matched) - 1, 2)}
    pairs = sorted(pairs)
    for l in range(layers):
        for a, b in pairs:
            net.add_edge(a, b, f"l{l + 1}")
            if rng.random() < 0.5:
                net.add_edge(b, a, f"l{l + 1}")
        pairs = [pair for pair in pairs if rng.random() < 0.7]
    return net


class TestRows:
    """``clecc_rows`` yields ``clecc_table(net, alpha).items()`` without a table."""

    @staticmethod
    def assert_rows_equal_table(net):
        for alpha in range(1, net.layer_count + 1):
            rows = clecc_rows(net, alpha)
            assert iter(rows) is rows
            assert list(rows) == list(clecc_table(net, alpha).items())

    def test_dense_inputs_take_the_bitmask_branch(self):
        rng = random.Random(51)
        for seed in range(20):
            net = shuffled_labels(random_network(rng, max_nodes=32, max_layers=4), seed)
            self.assert_rows_equal_table(net)
        assert _bitmasks(list(net._query_maps(1)))

    def test_sparse_inputs_take_the_set_branch(self):
        rng = random.Random(52)
        for seed in range(3):
            net = shuffled_labels(sparse_network(rng), seed)
            assert _bitmasks(list(net._query_maps(1))) == {}
            self.assert_rows_equal_table(net)

    def test_mixed_input_takes_both_branches(self):
        for seed in range(2):
            self.assert_rows_equal_table(shuffled_labels(hub_path(), seed))

    def test_nodes_without_alpha_neighbours(self):
        net = toy2()
        net.add_node("lone")
        net.add_edge("lone", "y", "l3")
        for alpha in (2, 3):
            assert any(not net.multilayer_neighborhood(x, alpha) for x in net.nodes())
        self.assert_rows_equal_table(net)
        assert list(clecc_rows(net, 3)) == []

    def test_checks_run_before_the_first_row(self, monkeypatch):
        net = triangle()
        with pytest.raises(AlphaOutOfRangeError):
            clecc_rows(net, 2)

        def too_many(n):
            raise TooManyNodesError(f"{n} nodes")

        monkeypatch.setattr(measures, "_check_float_exact", too_many)
        with pytest.raises(TooManyNodesError):
            clecc_rows(net, 1)

    def test_peak_memory_is_a_fraction_of_the_tables(self):
        # the stream keeps no count per pair and, at alpha 1, no copy of
        # the adjacency; at 12 x 100 it peaked near 0.4 MiB against 3.9
        net = generate_planted(
            PlantedParams(sizes=(100,) * 12, layers=2, p_in=0.1, p_out=0.002, seed=1)
        ).network

        def traced_peak(walk):
            tracemalloc.start()
            try:
                for _ in walk():
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        stream = traced_peak(lambda: clecc_rows(net, 1))
        table = traced_peak(lambda: clecc_table(net, 1).items())
        assert stream * 4 < table


def layered_path(labels, layers=3):
    """Reciprocal path through ``labels``, repeated on each layer."""
    net = MultiLayerNetwork()
    for l in range(layers):
        for a, b in zip(labels, labels[1:]):
            reciprocal(net, a, b, f"l{l + 1}")
    return net


class TestUpdateAfterRemoval:
    def test_barbell_bridge_removal(self):
        net = barbell()
        table = clecc_table(net, 1)
        net.remove_pair_edges("c", "d")
        update_after_removal(table, net, "c", "d")
        got = table.as_dict()
        # the two triangles are now mutually isolated cliques
        for pair in [("a", "c"), ("b", "c"), ("d", "e"), ("d", "f")]:
            assert got[pair] == 1
        assert ("c", "d") not in got
        assert got == clecc_table(net, 1).as_dict()

    def test_dyad_removal_empties_table(self):
        net = dyad()
        table = clecc_table(net, 1)
        net.remove_pair_edges("a", "b")
        update_after_removal(table, net, "a", "b")
        assert len(table) == 0

    def test_missing_entry_is_inconsistent(self):
        net = barbell()
        table = clecc_table(net, 1)
        net.remove_pair_edges("c", "d")
        update_after_removal(table, net, "c", "d")
        with pytest.raises(InconsistentTableError):
            update_after_removal(table, net, "c", "d")

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_removal_isolates_a_dyad(self, alpha):
        # a-b-c-d-e-f: dropping b-c leaves a-b as an isolated dyad (1.0),
        # while c-d stays at 0 with a smaller neighbourhood
        net = layered_path("abcdef")
        table = clecc_table(net, alpha)
        net.remove_pair_edges("b", "c")
        update_after_removal(table, net, "b", "c")
        assert table.value("a", "b") == 1
        assert table.value("c", "d") == 0
        assert table.as_dict() == clecc_table(net, alpha).as_dict()

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_shared_neighbours_lower_values(self, alpha):
        # a 5-clique on every layer, plus a tail and a layer-1 chord
        net = MultiLayerNetwork()
        for l in ("l1", "l2", "l3"):
            for k, a in enumerate("abcde"):
                for b in "abcde"[k + 1 :]:
                    reciprocal(net, a, b, l)
            reciprocal(net, "e", "f", l)
        reciprocal(net, "a", "f", "l1")
        table = clecc_table(net, alpha)
        before = table.as_dict()
        net.remove_pair_edges("a", "b")
        update_after_removal(table, net, "a", "b")
        after = table.as_dict()
        for z in "cde":
            assert after[("a", z)] < before[("a", z)]
            assert after[("b", z)] < before[("b", z)]
        assert after == clecc_table(net, alpha).as_dict()

    def test_matches_rebuild_on_random_networks(self):
        rng = random.Random(31)
        for _ in range(12):
            net = random_network(rng, max_nodes=16, max_layers=3)
            for alpha in range(1, net.layer_count + 1):
                work = net.copy()
                table = clecc_table(work, alpha)
                while len(table):
                    pair = rng.choice(table.pairs())
                    work.remove_pair_edges(*pair)
                    update_after_removal(table, work, *pair)
                    assert table.as_dict() == clecc_table(work, alpha).as_dict()

    def test_pair_order_does_not_matter(self):
        # the repair orders its pair itself: (x, y) and (y, x) leave the
        # same counts, the same lex pick and the same next random draw,
        # with the random-tie bookkeeping kept from the first draw on
        rng = random.Random(33)
        for seed in range(6):
            base = shuffled_labels(random_network(rng, max_nodes=28, max_layers=3), seed)
            for alpha in range(1, base.layer_count + 1):
                nets = [base.copy(), base.copy()]
                tables = [clecc_table(net, alpha) for net in nets]
                draws = [random.Random(seed), random.Random(seed)]
                while len(tables[0]):
                    picks = [
                        select_min_pair(table, SeededRandom(seed), draw)
                        for table, draw in zip(tables, draws)
                    ]
                    assert picks[0] == picks[1]
                    x, y = picks[0]
                    for net, table, pair in zip(nets, tables, [(x, y), (y, x)]):
                        net.remove_pair_edges(*pair)
                        update_after_removal(table, net, *pair)
                    assert list(tables[0].items()) == list(tables[1].items())
                    if len(tables[0]):
                        lex = [select_min_pair(table, Lexicographic()) for table in tables]
                        assert lex[0] == lex[1]

    def test_adjacency_matches_a_fresh_query(self):
        # set contents, and the iteration order of each node's rebuilt
        # set, which must be a fresh query's: SeededRandom draws read
        # ties in that order
        rng = random.Random(32)
        for _ in range(12):
            net = random_network(rng, max_nodes=24, max_layers=3)
            for alpha in range(1, net.layer_count + 1):
                work = net.copy()
                table = clecc_table(work, alpha)
                if len(table):
                    table._select_min_random(random.Random(0))
                while len(table):
                    pair = rng.choice(table.pairs())
                    work.remove_pair_edges(*pair)
                    update_after_removal(table, work, *pair)
                    fresh = list(work._query_maps(alpha))
                    assert [mn_v.keys() for mn_v in table._mn] == [q.keys() for q in fresh]
                    rebuilt = [list(table._rebuilt(v)) for v in range(len(fresh))]
                    assert rebuilt == [list(work._mn_idx(v, alpha)) for v in range(len(fresh))]


def scaled(value):
    """An exact value as the lex heap's items hold it: floor(value * 2**53)."""
    return math.floor(value * 2**53)


def heap_items(table):
    """The lex heap's items as (scaled bound, key), in heap order."""
    return [divmod(item, table._n**2) for item in table._bounds]


def assert_lower_bounds(table):
    """Every live key has a lex-heap entry at or below its current value."""
    lowest = {}
    for bound, key in heap_items(table):
        lowest[key] = min(bound, lowest.get(key, bound))
    assert all(
        lowest[key] <= scaled(table.value(*table._labels(key))) for key in table_keys(table)
    )


def fresh_lex_min(net, alpha, frozen=frozenset()):
    """Smallest (Fraction value, label pair) over a fresh table, frozen nodes left out."""
    table = clecc_table(net, alpha)
    return min((table.value(*p), p) for p in table.pairs() if p[0] not in frozen)


def is_component(net, alpha, group):
    """Is ``group`` a whole connected component of the alpha-flattened graph?"""
    seen = {min(group)}
    stack = list(seen)
    while stack:
        for v in net.multilayer_neighborhood(stack.pop(), alpha):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == group


@pytest.fixture
def refreshes(monkeypatch):
    """Items lex selection re-pushes: stale tops raised to their value."""
    raised = []

    def heapreplace(heap, item):
        raised.append(item)
        return heapq.heapreplace(heap, item)

    counting = SimpleNamespace(
        heappush=heapq.heappush,
        heappop=heapq.heappop,
        heapify=heapq.heapify,
        heapreplace=heapreplace,
    )
    monkeypatch.setattr(measures, "heapq", counting)
    return raised


class TestLexSelection:
    """Lex selection from the lazy lower-bound heap picks the smallest (value, pair)."""

    def test_random_removals(self, refreshes):
        rng = random.Random(17)
        for _ in range(30):
            net = random_network(rng, max_nodes=24, max_layers=3)
            for alpha in range(1, net.layer_count + 1):
                work = net.copy()
                table = clecc_table(work, alpha)
                while len(table):
                    key = table._select_min_lex()
                    # keys over label ranks sort as their label pairs
                    assert key == min(table_keys(table), key=lambda k: (table._value(k), k))
                    if rng.random() < 0.5:
                        pair = table._labels(key)
                    else:
                        pair = rng.choice(table.pairs())
                    work.remove_pair_edges(*pair)
                    update_after_removal(table, work, *pair)
                    assert_lower_bounds(table)
                with pytest.raises(EmptyTableError):
                    table._select_min_lex()
                assert table._bounds == []
        assert refreshes

    @pytest.mark.parametrize(
        "validity", [WeakCommunity(), MinSize(3)], ids=["weak", "min-size-3"]
    )
    def test_picks_are_fresh_minima(self, refreshes, validity):
        # every step of a detection run and of a public select/repair
        # run removes the smallest (value, pair) of a fresh table
        rng = random.Random(19)
        in_detection = 0
        for _ in range(25):
            net = random_network(rng, max_nodes=20, max_layers=3)
            for alpha in range(1, net.layer_count + 1):
                before = len(refreshes)
                result = run_detection(net, DetectionConfig(alpha=alpha, validity=validity))
                in_detection += len(refreshes) - before
                work, frozen = net.copy(), set()
                groups = [set(g) for g in result.groups]
                for rec in result.removals:
                    value, pair = fresh_lex_min(work, alpha, frozen)
                    assert (rec.pair, rec.clecc) == (pair, float(value))
                    work.remove_pair_edges(*pair)
                    # a group froze when the removal made it a component
                    for group in groups:
                        if not group <= frozen and is_component(work, alpha, group):
                            frozen |= group
                assert frozen == set().union(*groups)

                work = net.copy()
                table = clecc_table(work, alpha)
                while len(table):
                    pair = select_min_pair(table, Lexicographic())
                    assert (table.value(*pair), pair) == fresh_lex_min(work, alpha)
                    work.remove_pair_edges(*pair)
                    update_after_removal(table, work, *pair)
        assert in_detection and len(refreshes) > in_detection

    def test_keys_leave_and_return(self):
        # a path p-q-r, whose two entries are 0, and two triangles, whose
        # entries are 1 until one of their edges goes
        net = MultiLayerNetwork()
        for a, b in ["pq", "qr", "ab", "bc", "ac", "de", "ef", "df"]:
            reciprocal(net, a, b, "l1")
        table = clecc_table(net, 1)
        key = {p: table._key_from_labels(tuple(p)) for p in ["pq", "ab", "ac", "bc", "de", "df"]}
        assert table._select_min_lex() == key["pq"]
        # p-q is left an isolated dyad and rises to 1; its bound of 0 is
        # stale until selection raises it
        net.remove_pair_edges("q", "r")
        update_after_removal(table, net, "q", "r")
        assert table._select_min_lex() == key["ab"]
        assert [b for b, k in heap_items(table) if k == key["pq"]] == [scaled(1)]
        # a-c and b-c fall to 0: new bounds beside their old ones of 1
        net.remove_pair_edges("a", "b")
        update_after_removal(table, net, "a", "b")
        assert table._select_min_lex() == key["ac"]
        assert sorted(b for b, k in heap_items(table) if k == key["ac"]) == [
            scaled(0),
            scaled(1),
        ]
        # a frozen group's keys leave their bounds behind, dropped as they
        # surface; a-c and b-c are the last pairs of {a, b, c}
        table._freeze({net.node_index(x) for x in "abc"})
        assert table._select_min_lex() == key["de"]
        assert heap_items(table)[0] == (scaled(1), key["de"])
        net.remove_pair_edges("d", "e")
        update_after_removal(table, net, "d", "e")
        assert table._select_min_lex() == key["df"]

    def test_index_built_on_first_selection(self):
        table = clecc_table(barbell(), 1)
        assert len(table) == 7 and ("c", "d") in table and table.pairs()
        assert table.as_dict()[("c", "d")] == table.value("c", "d") == 0
        assert table._zeros is None and table._bounds is None
        cd = table._key_from_labels(("c", "d"))
        assert table._select_min_lex() == cd
        # lex selection and min_value build the heap only; a random
        # draw starts the zero-value order
        assert table._zeros is None
        assert sorted(heap_items(table)) == sorted(
            (scaled(table.value(*table._labels(k))), k) for k in table_keys(table)
        )
        assert table.min_value() == 0
        assert table._zeros is None
        assert table._select_min_random(random.Random(0)) == cd
        assert table._zeros == {cd: None}
        # a random draw at a positive minimum builds the heap
        table = clecc_table(triangle(), 1)
        table._select_min_random(random.Random(0))
        assert table._zeros == {} and len(table._bounds) == 3


class ValueBuckets:
    """Reference model of the SeededRandom draw: eager value buckets.

    Each value maps to the keys at that value in the order they took it.
    The first draw builds the buckets from the live keys, walking the
    nodes ascending, each over the later neighbours a fresh query of
    the network lists.  After each repair every entry of both endpoints is
    revisited, the smaller endpoint index first and each endpoint's
    neighbours in the order a fresh query lists them; an entry whose
    value changed moves to the end of its new value's bucket.  A draw
    picks by position from the lowest bucket.  Values come from
    ``clecc`` on the network, not from the table.
    """

    def __init__(self, table, net, alpha):
        self.table, self.net, self.alpha = table, net, alpha
        self.buckets = None
        self.at = {}
        self.emptied_together = 0  # repairs that set 2+ entries of one endpoint to 0

    def _value(self, key):
        return clecc(self.net, *self.table._labels(key), self.alpha)

    def _put(self, key, value):
        self.at[key] = value
        self.buckets.setdefault(value, {})[key] = None

    def _drop(self, key):
        value = self.at.pop(key)
        bucket = self.buckets[value]
        del bucket[key]
        if not bucket:
            del self.buckets[value]

    def draw(self, rng):
        if self.buckets is None:
            self.buckets = {}
            live = set(table_keys(self.table))
            for i in range(self.net.node_count):
                for j in self.net._mn_idx(i, self.alpha):
                    key = self.table._key(i, j)
                    if j > i and key in live:
                        self._put(key, self._value(key))
        bucket = list(self.buckets[min(self.buckets)])
        return bucket[rng.randrange(len(bucket))]

    def sync(self, endpoints=()):
        """Follow the table after a repair of ``endpoints``; drop deleted keys."""
        if self.buckets is None:
            return
        live = set(table_keys(self.table))
        for key in [k for k in self.at if k not in live]:
            self._drop(key)
        for e in sorted(endpoints):
            emptied = 0
            for z in self.net._mn_idx(e, self.alpha):
                key = self.table._key(e, z)
                value = self._value(key)
                if value != self.at[key]:
                    self._drop(key)
                    self._put(key, value)
                    emptied += value == 0
            self.emptied_together += emptied > 1


class TestRandomSelection:
    """Random draws from the lower-bound heap follow the eager buckets' order."""

    @staticmethod
    def run(net, alpha, seed, rng, seen):
        """One public run of table and model side by side.

        Most steps remove the pair a selection returns; some remove any
        pair, as the public path allows, which empties several entries
        of one endpoint at once far more often.  Now and then a split
        side is frozen.
        """
        work = net.copy()
        table = clecc_table(work, alpha)
        model = ValueBuckets(table, work, alpha)
        draws, model_draws = random.Random(seed), random.Random(seed)
        lex_first = rng.randrange(4)
        step = 0
        while len(table):
            step += 1
            if step <= lex_first or rng.random() < 0.1:
                key = table._key_from_labels(select_min_pair(table, Lexicographic()))
                assert table.min_value() == table.value(*table._labels(key))
            else:
                key = table._select_min_random(draws)
                assert key == model.draw(model_draws)
                bucket = model.buckets[min(model.buckets)]
                if min(model.buckets) == 0:
                    seen["zero draw"] += 1
                else:
                    seen["positive draw"] += 1
                    nodes = [v for k in bucket for v in table._pair(k)]
                    if len(nodes) > len(set(nodes)):
                        seen["positive ties sharing a node"] += 1
            if rng.random() < 0.2:
                key = table._key_from_labels(rng.choice(table.pairs()))
            x, y = table._labels(key)
            i, j = table._pair(key)
            work.remove_pair_edges(x, y)
            update_after_removal(table, work, x, y)
            before = dict(model.at)
            emptied = model.emptied_together
            model.sync((i, j))
            if model.emptied_together > emptied:
                seen["entries of one endpoint emptied together"] += 1
            for k, v in model.at.items():
                if v == 1.0 and before.get(k) == 0.0:
                    seen["dyad"] += 1
            # now and then freeze the side of x, if the removal split it off
            side = {i}
            stack = [i]
            while stack:
                for v in work._mn_idx(stack.pop(), alpha):
                    if v not in side:
                        side.add(v)
                        stack.append(v)
            if j not in side and len(side) > 1 and rng.random() < 0.5:
                table._freeze(side)
                model.sync()
                seen["freeze"] += 1

    def test_draws_match_the_value_bucket_model(self):
        rng = random.Random(41)
        seen = Counter()
        nets = [random_network(rng, max_nodes=32, max_layers=3) for _ in range(30)]
        nets += [
            generate_planted(
                PlantedParams(sizes=(10,) * 3, layers=2, p_in=0.5, p_out=0.05, seed=s)
            ).network
            for s in range(4)
        ]
        for net in nets:
            for alpha in range(1, net.layer_count + 1):
                for seed in (1, 2, 3):
                    self.run(net, alpha, seed, rng, seen)
        assert set(seen) == {
            "zero draw",
            "positive draw",
            "positive ties sharing a node",
            "entries of one endpoint emptied together",
            "dyad",
            "freeze",
        }, seen

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_first_draw_after_repairs_lists_fresh_queries(self, alpha):
        # public repairs before the first draw shrink some neighbourhoods,
        # and a query of fewer members can iterate in another order than
        # the build's; the first draw lists each node's keys as a query
        # of the network as it stands lists them
        net = generate_planted(
            PlantedParams(sizes=(40,) * 5, layers=2, p_in=0.6, p_out=0.02, seed=5)
        ).network
        rng = random.Random(3)
        work = net.copy()
        table = clecc_table(work, alpha)
        for _ in range(len(table) // 3):
            x, y = table._labels(rng.choice(table_keys(table)))
            work.remove_pair_edges(x, y)
            update_after_removal(table, work, x, y)

        def live(f, order):
            return [z for z in order if z > f and z in table._mn[f]]

        table._select_min_random(random.Random(0))
        build_differs = 0
        for f in range(net.node_count):
            fresh = live(f, work._mn_idx(f, alpha))
            assert table._query_order(f, live(f, table._mn[f])) == fresh
            build_differs += live(f, net._mn_idx(f, alpha)) != fresh
        # the input tells the two orders apart
        assert build_differs

    def test_first_listing_is_the_query_walk(self):
        # the first draw lists the value-0 keys, and with or without
        # early repairs each node's untouched keys, as a walk of the
        # nodes ascending, each over its later neighbours in a query of
        # the network as it stands
        rng = random.Random(45)
        nets = [random_network(rng, max_nodes=28, max_layers=2) for _ in range(12)]
        nets += [
            generate_planted(
                PlantedParams(sizes=(15,) * 3, layers=2, p_in=0.5, p_out=0.05, seed=s)
            ).network
            for s in range(3)
        ]
        seen = Counter()
        for net in nets:
            labels = net.nodes()
            for alpha in range(1, net.layer_count + 1):
                work = net.copy()
                table = clecc_table(work, alpha)
                repairs = rng.randrange(len(table) // 2 + 1)
                for _ in range(repairs):
                    x, y = rng.choice(table.pairs())
                    work.remove_pair_edges(x, y)
                    update_after_removal(table, work, x, y)
                if not len(table):
                    continue
                table._select_min_random(random.Random(0))
                walk = [
                    [j for j in work._mn_idx(i, alpha) if j > i] for i in range(net.node_count)
                ]
                zeros = [
                    table._key(i, j)
                    for i, later in enumerate(walk)
                    for j in later
                    if clecc(work, labels[i], labels[j], alpha) == 0
                ]
                assert list(table._zeros) == zeros
                seen["zeros"] += len(zeros) > 1
                listed = [
                    table._query_order(i, [j for j in table._mn[i] if j > i])
                    for i in range(net.node_count)
                ]
                assert listed == walk
                seen["early repairs" if repairs else "no repair"] += 1
        assert min(seen[k] for k in ("zeros", "early repairs", "no repair")) >= 5, seen


class TestExactness:
    def test_farey_floats_strictly_increasing(self):
        # every value has a denominator of at most n - 2; two distinct
        # such fractions must map to distinct, ordered floats and back
        order = 300
        farey = sorted(
            {Fraction(p, q) for q in range(1, order + 1) for p in range(q + 1)}
        )
        floats = [f.numerator / f.denominator for f in farey]
        assert all(a < b for a, b in zip(floats, floats[1:]))
        assert all(Fraction(v).limit_denominator(order) == f for v, f in zip(floats, farey))

    def test_values_equal_naive_fractions_through_repairs(self):
        rng = random.Random(41)
        for _ in range(12):
            net = random_network(rng, max_nodes=18, max_layers=3)
            for alpha in range(1, net.layer_count + 1):
                work = net.copy()
                table = clecc_table(work, alpha)
                while True:
                    for x, y in table.pairs():
                        assert table.value(x, y) == naive_value(work, x, y, alpha)
                        assert isinstance(table.value(x, y), Fraction)
                    if not len(table):
                        break
                    assert table.min_value() == min(
                        naive_value(work, x, y, alpha) for x, y in table.pairs()
                    )
                    pair = rng.choice(table.pairs())
                    work.remove_pair_edges(*pair)
                    update_after_removal(table, work, *pair)

    def test_node_added_after_build_is_not_found(self):
        net = triangle()
        table = clecc_table(net, 1)
        net.add_edge("a", "late", "l1")
        assert ("a", "late") not in table
        assert ("late", "a") not in table
        with pytest.raises(KeyError):
            table.value("a", "late")
        assert ("a", "b") in table

    def test_float_exactness_bound_guarded(self):
        _check_float_exact((1 << 26) - 1)
        with pytest.raises(ValueError):
            _check_float_exact(1 << 26)
        with pytest.raises(TooManyNodesError):
            _check_float_exact(1 << 26)

    def test_no_fraction_built_by_table_or_detector(self, monkeypatch):
        made = []
        original = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        rng = random.Random(43)
        for _ in range(5):
            net = random_network(rng, max_nodes=20, max_layers=2)
            clecc_table(net, 1)
            run_detection(net, DetectionConfig(alpha=1, tie_policy=SeededRandom(1)))
        assert made == []
        clecc_table(triangle(), 1).min_value()
        assert made
