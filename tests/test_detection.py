"""Divisive detector: fixtures with known outcomes, policies, invariants."""

import random

import pytest

from clecc import (
    AlphaOutOfRangeError,
    CleccTable,
    DetectionConfig,
    EmptyNetworkError,
    EmptyTableError,
    Lexicographic,
    MinSize,
    MultiLayerNetwork,
    PlantedParams,
    SeededRandom,
    StrongCommunity,
    TiePolicy,
    ValidityCondition,
    WeakCommunity,
    clecc,
    clecc_table,
    generate_planted,
    run_detection,
    select_min_pair,
    update_after_removal,
    validate_group,
    write_result,
)
from clecc import detection
from clecc.reference import _naive_valid
from conftest import barbell, random_network, shuffled_labels, triangle


def groups_sorted(result):
    return sorted(sorted(g) for g in result.groups)


class TestRunDetection:
    @pytest.mark.parametrize(
        "policy",
        [Lexicographic()] + [SeededRandom(seed) for seed in range(10)],
    )
    def test_barbell_two_triangles(self, policy):
        config = DetectionConfig(alpha=1, validity=MinSize(3), tie_policy=policy)
        result = run_detection(barbell(), config)
        assert groups_sorted(result) == [["a", "b", "c"], ["d", "e", "f"]]
        assert result.singletons == []
        # the bridge is the unique minimum, removed first whatever the policy
        assert result.removals[0].pair == ("c", "d")
        assert result.removals[0].clecc == 0.0

    def test_triangle_dissolves_to_singletons(self):
        config = DetectionConfig(alpha=1, validity=MinSize(3))
        result = run_detection(triangle(), config)
        assert result.groups == []
        assert sorted(result.singletons) == ["a", "b", "c"]
        assert [(r.step, r.pair, r.clecc) for r in result.removals] == [
            (1, ("a", "b"), 1.0),
            (2, ("a", "c"), 0.0),
            (3, ("b", "c"), 1.0),
        ]

    def test_edgeless_network(self):
        net = MultiLayerNetwork()
        net.add_layer("l1")
        for i in range(4):
            net.add_node(f"n{i}")
        result = run_detection(net, DetectionConfig(alpha=1))
        assert result.groups == []
        assert sorted(result.singletons) == ["n0", "n1", "n2", "n3"]
        assert result.removals == []

    def test_empty_network(self):
        with pytest.raises(EmptyNetworkError):
            run_detection(MultiLayerNetwork(), DetectionConfig(alpha=1))

    def test_alpha_out_of_range(self):
        with pytest.raises(AlphaOutOfRangeError):
            run_detection(triangle(), DetectionConfig(alpha=2))

    def test_input_network_untouched(self):
        net = barbell()
        edges_before = sorted(net.edges())
        run_detection(net, DetectionConfig(alpha=1, validity=MinSize(3)))
        assert sorted(net.edges()) == edges_before

    def test_log_removals_off(self):
        config = DetectionConfig(alpha=1, validity=MinSize(3), log_removals=False)
        result = run_detection(barbell(), config)
        assert result.removals == []
        assert groups_sorted(result) == [["a", "b", "c"], ["d", "e", "f"]]

    def test_weak_validity_freezes_whole_side(self, barbell_net):
        # under weak validity both triangles also qualify
        result = run_detection(barbell_net, DetectionConfig(alpha=1))
        assert groups_sorted(result) == [["a", "b", "c"], ["d", "e", "f"]]


class TestPartitionInvariants:
    def test_groups_and_singletons_partition_nodes(self):
        rng = random.Random(7)
        for _ in range(20):
            net = random_network(rng, max_nodes=18, max_layers=3)
            alpha = rng.randint(1, net.layer_count)
            validity = rng.choice(
                [MinSize(2), MinSize(3), WeakCommunity(), StrongCommunity()]
            )
            result = run_detection(net, DetectionConfig(alpha=alpha, validity=validity))
            seen = []
            for group in result.groups:
                assert validate_group(net, group, validity)
                seen.extend(group)
            seen.extend(result.singletons)
            assert sorted(seen) == sorted(net.nodes())

    def test_frozen_groups_never_resplit(self):
        # replay the removal log against the working graph: once a final
        # group's members form exactly their own component it is frozen,
        # and no later removal may touch a pair inside it
        rng = random.Random(8)
        for _ in range(20):
            net = random_network(rng, max_nodes=16, max_layers=2)
            result = run_detection(
                net, DetectionConfig(alpha=1, validity=MinSize(2))
            )
            adj = {x: net.multilayer_neighborhood(x, 1) for x in net.nodes()}
            groups = [frozenset(g) for g in result.groups]
            frozen: set[frozenset] = set()
            for rec in result.removals:
                a, b = rec.pair
                for g in frozen:
                    assert not (a in g and b in g), (rec, sorted(g))
                adj[a].discard(b)
                adj[b].discard(a)
                for g in groups:
                    if g in frozen:
                        continue
                    start = next(iter(g))
                    comp = {start}
                    stack = [start]
                    while stack:
                        u = stack.pop()
                        for v in adj[u]:
                            if v not in comp:
                                comp.add(v)
                                stack.append(v)
                    if comp == set(g):
                        frozen.add(g)
            assert frozen == set(groups)

    def test_candidate_count_monotone_in_alpha(self):
        rng = random.Random(9)
        for _ in range(15):
            net = random_network(rng, max_nodes=18, max_layers=4)
            sizes = [
                len(clecc_table(net, alpha))
                for alpha in range(1, net.layer_count + 1)
            ]
            assert sizes == sorted(sizes, reverse=True)


class TestDeterminism:
    def test_lexicographic_reproducible(self):
        rng = random.Random(10)
        for _ in range(5):
            net = random_network(rng, max_nodes=14, max_layers=2)
            config = DetectionConfig(alpha=1, validity=MinSize(2))
            first = write_result(run_detection(net, config))
            second = write_result(run_detection(net, config))
            assert first == second

    def test_seeded_random_reproducible(self):
        rng = random.Random(11)
        for _ in range(5):
            net = random_network(rng, max_nodes=14, max_layers=2)
            config = DetectionConfig(
                alpha=1, validity=MinSize(2), tie_policy=SeededRandom(123)
            )
            first = write_result(run_detection(net, config))
            second = write_result(run_detection(net, config))
            assert first == second

    def test_seeded_random_runs_ignore_the_maps_order(self, monkeypatch):
        # random ties are listed as fresh queries list them, so maps that
        # hold their keys in reverse give the same runs
        runs = [
            (
                generate_planted(
                    PlantedParams(sizes=(12,) * 4, layers=2, p_in=0.5, p_out=0.05, seed=s)
                ).network,
                DetectionConfig(alpha=alpha, tie_policy=SeededRandom(seed)),
            )
            for s in range(3)
            for alpha in (1, 2)
            for seed in range(4)
        ]
        expected = [write_result(run_detection(net, config)) for net, config in runs]
        query_maps = MultiLayerNetwork._query_maps

        def reversed_maps(net, alpha):
            for map_i in query_maps(net, alpha):
                yield dict.fromkeys(reversed(map_i))

        monkeypatch.setattr(MultiLayerNetwork, "_query_maps", reversed_maps)
        assert [write_result(run_detection(net, config)) for net, config in runs] == expected


class TestValidateGroup:
    def test_barbell_triangle_is_weak_community(self):
        assert validate_group(barbell(), {"a", "b", "c"}, WeakCommunity())

    def test_min_size_rejects_singleton(self):
        assert not validate_group(barbell(), {"a"}, MinSize(3))

    def test_whole_network_is_weak_community(self):
        net = barbell()
        assert validate_group(net, set(net.nodes()), WeakCommunity())

    def test_strong_community(self):
        net = barbell()
        # c has 2 internal (a, b) and 1 external (d) neighbour: still strong
        assert validate_group(net, {"a", "b", "c"}, StrongCommunity())
        # a split pair inside a triangle is not strong
        assert not validate_group(net, {"a", "b"}, StrongCommunity())

    def test_unknown_member(self):
        from clecc import UnknownNodeError

        with pytest.raises(UnknownNodeError):
            validate_group(barbell(), {"a", "zz"}, MinSize(1))

    def test_rejects_a_non_condition(self):
        with pytest.raises(TypeError):
            validate_group(barbell(), {"a", "b"}, "weak")
        with pytest.raises(TypeError):
            detection.validity_tag(object())

    @pytest.mark.parametrize("condition", [MinSize(3), WeakCommunity(), StrongCommunity()])
    def test_tag_parses_back(self, condition):
        assert detection.parse_validity(detection.validity_tag(condition)) == condition

    def test_agrees_with_the_reference_on_random_networks(self):
        # validity reads the network's link maps, which removals edit in
        # place; the reference rebuilds its adjacency from the edge list
        rng = random.Random(23)
        conditions = [WeakCommunity(), StrongCommunity(), MinSize(3)]
        verdicts = set()
        for _ in range(40):
            net = random_network(rng, max_nodes=16, max_layers=3)
            nodes = net.nodes()
            for _ in range(6):
                edges = list(net.edges())
                for _ in range(10):
                    members = frozenset(rng.sample(nodes, rng.randint(1, len(nodes))))
                    for condition in conditions:
                        verdict = validate_group(net, members, condition)
                        assert verdict == _naive_valid(edges, members, condition)
                        verdicts.add((type(condition), verdict))
                if edges:
                    net.remove_pair_edges(*rng.choice(edges)[:2])
        assert len(verdicts) == 2 * len(conditions)


class TestPolicyAliases:
    """``ValidityCondition`` and ``TiePolicy`` name their members for ``isinstance``."""

    VALIDITY = [MinSize(2), WeakCommunity(), StrongCommunity()]
    TIES = [Lexicographic(), SeededRandom(0)]

    def test_members_are_instances(self):
        assert all(isinstance(c, ValidityCondition) for c in self.VALIDITY)
        assert all(isinstance(t, TiePolicy) for t in self.TIES)

    def test_neither_alias_takes_the_others_members(self):
        assert not any(isinstance(c, TiePolicy) for c in self.VALIDITY)
        assert not any(isinstance(t, ValidityCondition) for t in self.TIES)


class TestSelectMinPair:
    def test_unique_minimum_any_policy(self):
        net = barbell()
        table = clecc_table(net, 1)
        assert select_min_pair(table, Lexicographic()) == ("c", "d")
        assert select_min_pair(table, SeededRandom(0)) == ("c", "d")
        with pytest.raises(TypeError):
            select_min_pair(table, object())

    def test_lexicographic_tie(self):
        table = clecc_table(triangle(), 1)
        assert select_min_pair(table, Lexicographic()) == ("a", "b")

    def test_seeded_tie_is_stable(self):
        table = clecc_table(triangle(), 1)
        picks = {select_min_pair(table, SeededRandom(42)) for _ in range(5)}
        assert len(picks) == 1

    def test_seeds_cover_ties(self):
        table = clecc_table(triangle(), 1)
        picks = {select_min_pair(table, SeededRandom(seed)) for seed in range(50)}
        assert picks == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_empty_table(self):
        net = MultiLayerNetwork()
        net.add_node("a")
        net.add_layer("l1")
        with pytest.raises(EmptyTableError):
            select_min_pair(clecc_table(net, 1), Lexicographic())


class TestPublicReplay:
    @pytest.mark.parametrize(
        "seed, alpha", [(1, 1), (2, 1), (1, 2), (2, 2)], ids=["1", "2", "1-a2", "2-a2"]
    )
    def test_seeded_random_run_replays_through_public_repair(self, seed, alpha):
        # label order differs from index order; a never-satisfied validity
        # keeps every removal in the log, so the replay covers the whole run
        base = generate_planted(
            PlantedParams(sizes=(12,) * 4, layers=2, p_in=0.4, p_out=0.03, seed=9)
        ).network
        net = shuffled_labels(base, seed=4)
        config = DetectionConfig(
            alpha=alpha,
            validity=MinSize(net.node_count + 1),
            tie_policy=SeededRandom(seed),
        )
        log = run_detection(net, config).removals
        assert log and len(log) == len(clecc_table(net, alpha))

        work = net.copy()
        table = clecc_table(work, alpha)
        rng = random.Random(seed)
        for rec in log:
            pair = select_min_pair(table, config.tie_policy, rng)
            assert (pair, float(table.value(*pair))) == (rec.pair, rec.clecc)
            assert work.remove_pair_edges(*pair) == rec.edges_removed
            update_after_removal(table, work, *pair)
        assert table.as_dict() == clecc_table(work, alpha).as_dict()


class TestSelectionStructures:
    @pytest.mark.parametrize(
        "validity",
        [WeakCommunity(), StrongCommunity(), MinSize(3)],
        ids=["weak", "strong", "min-size"],
    )
    def test_run_builds_one_alpha_adjacency(self, monkeypatch, validity):
        # the table's working graph is the only one; validity reads the input
        built = []
        original = MultiLayerNetwork._query_maps

        def counting(net, alpha):
            built.append(alpha)
            return original(net, alpha)

        monkeypatch.setattr(MultiLayerNetwork, "_query_maps", counting)
        net = generate_planted(
            PlantedParams(sizes=(12,) * 4, layers=2, p_in=0.6, p_out=0.03, seed=9)
        ).network
        result = run_detection(net, DetectionConfig(alpha=2, validity=validity))
        assert result.groups and built == [2]

    def test_public_lex_run_builds_no_value_buckets(self):
        # the public select/repair path is the detector's: lex selection
        # and min_value read the lower-bound heap alone
        net = generate_planted(
            PlantedParams(sizes=(12,) * 4, layers=2, p_in=0.4, p_out=0.03, seed=9)
        ).network
        table = clecc_table(net, 1)
        while len(table):
            pair = select_min_pair(table, Lexicographic())
            assert table.min_value() == table.value(*pair)
            net.remove_pair_edges(*pair)
            update_after_removal(table, net, *pair)
        assert table._zeros is None and table._bounds is not None
        assert table._touched == [] and not table._repairs

    def test_lex_run_builds_no_value_buckets(self, monkeypatch):
        # lex detection keeps only its lower-bound heap; random ties also
        # keep the value-0 keys in order and each node's last repair
        tables = []

        def recording_table(net, alpha):
            tables.append(clecc_table(net, alpha))
            return tables[-1]

        monkeypatch.setattr(detection, "clecc_table", recording_table)
        first = []  # the value-0 keys as the first random draw lists them
        draw = CleccTable._select_min_random

        def recording_draw(table, rng):
            starts = table._zeros is None
            key = draw(table, rng)
            if starts:
                first.append(list(table._zeros))
            return key

        monkeypatch.setattr(CleccTable, "_select_min_random", recording_draw)
        net = generate_planted(
            PlantedParams(sizes=(12,) * 4, layers=2, p_in=0.4, p_out=0.03, seed=9)
        ).network
        for policy in (Lexicographic(), SeededRandom(1)):
            result = run_detection(net, DetectionConfig(alpha=1, tie_policy=policy))
            assert result.removals and result.groups
        lex, seeded = tables
        assert len(lex) == len(seeded) == 0
        assert lex._zeros is None and lex._bounds is not None and not lex._repairs
        assert seeded._zeros == {} and seeded._bounds is not None and seeded._repairs
        # the detector draws before its first repair, so that draw lists
        # the value-0 keys of the network as built, in its build walk
        labels = net.nodes()
        built = [
            seeded._key(i, j)
            for i in range(net.node_count)
            for j in net._mn_idx(i, 1)
            if j > i and clecc(net, labels[i], labels[j], 1) == 0
        ]
        assert len(built) > 1 and first == [built]
