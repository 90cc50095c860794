"""Fixture and synthetic generators: shapes, reproducibility, audits."""

import hashlib
from collections import Counter

import pytest

from clecc import (
    InvalidParamsError,
    PlantedParams,
    demo_network,
    generate_density_scenario,
    generate_planted,
    write_edge_list,
)


class TestDemoNetwork:
    def test_counts(self):
        net = demo_network()
        assert net.node_count == 5
        assert net.edge_count == 8
        assert net.layer_count == 1

    def test_neighborhoods(self):
        net = demo_network()
        assert net.neighborhood("x", "l1") == {"y", "z"}
        assert net.neighborhood("z", "l1") == {"x", "y", "u"}
        assert net.neighborhood("v", "l1") == {"u"}

    def test_construction_is_clean(self):
        # no loops, no duplicate triples: building twice must both succeed
        first = sorted(demo_network().edges())
        second = sorted(demo_network().edges())
        assert first == second


class TestGeneratePlanted:
    def test_full_clique_at_p_one(self):
        planted = generate_planted(
            PlantedParams(sizes=(3,), layers=1, p_in=1.0, p_out=0.0, seed=1)
        )
        net = planted.network
        assert net.node_count == 3
        assert net.edge_count == 6  # reciprocal pairs of a 3-clique

    def test_reproducible_from_seed(self):
        params = PlantedParams(sizes=(16, 16), layers=3, p_in=0.5, p_out=0.05, seed=7)
        first = sorted(generate_planted(params).network.edges())
        second = sorted(generate_planted(params).network.edges())
        assert first == second
        other = PlantedParams(sizes=(16, 16), layers=3, p_in=0.5, p_out=0.05, seed=8)
        assert sorted(generate_planted(other).network.edges()) != first

    def test_edgeless_at_p_zero(self):
        planted = generate_planted(
            PlantedParams(sizes=(4, 3), layers=2, p_in=0.0, p_out=0.0, seed=5)
        )
        assert planted.network.node_count == 7
        assert planted.network.edge_count == 0

    def test_truth_covers_all_nodes(self):
        planted = generate_planted(
            PlantedParams(sizes=(5, 4, 3), layers=2, p_in=0.6, p_out=0.1, seed=2)
        )
        assert sorted(planted.truth) == sorted(planted.network.nodes())
        blocks = planted.truth_partition()
        assert [len(b) for b in blocks] == [5, 4, 3]

    def test_edges_are_reciprocal(self):
        planted = generate_planted(
            PlantedParams(sizes=(6, 6), layers=2, p_in=0.5, p_out=0.2, seed=3)
        )
        net = planted.network
        for src, dst, layer in net.edges():
            assert net.has_edge(dst, src, layer)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sizes=(), layers=1, p_in=0.5, p_out=0.1, seed=0),
            dict(sizes=(0, 3), layers=1, p_in=0.5, p_out=0.1, seed=0),
            dict(sizes=(3,), layers=0, p_in=0.5, p_out=0.1, seed=0),
            dict(sizes=(3,), layers=1, p_in=1.5, p_out=0.1, seed=0),
            dict(sizes=(3,), layers=1, p_in=0.5, p_out=-0.1, seed=0),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(InvalidParamsError):
            PlantedParams(**kwargs)


class TestDensityScenario:
    def test_shape_and_reproducibility(self):
        net = generate_density_scenario(7)
        assert net.node_count == 1000
        assert net.layer_count == 4
        assert net.edge_count == 110_000
        per_layer = Counter(layer for _, _, layer in net.edges())
        assert sorted(per_layer.values()) == [5_000, 5_000, 50_000, 50_000]
        again = generate_density_scenario(7)
        assert again.edge_count == 110_000
        assert sorted(again.edges()) == sorted(net.edges())

    def test_negative_seed_is_rejected(self):
        # random.Random(-5) would draw exactly what random.Random(5) draws
        with pytest.raises(InvalidParamsError, match="seed must be >= 0, got -5"):
            generate_density_scenario(-5)


def _sha(value) -> str:
    text = value if isinstance(value, str) else repr(value)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _link_order(net) -> list:
    """Each node's link map as (neighbour, mask) items in insertion order.

    ``SeededRandom`` reads that order, so a generator that adds the same
    edges in another order changes random-tie results.
    """
    return [list(links.items()) for links in net._links]


class TestGeneratorPins:
    """sha256 of generated output, recorded before the sampling loop changed.

    Each planted case pins three things: the ``write_edge_list`` bytes,
    the truth map's items in order, and the link maps' insertion order.
    The cases are the benchmark's planted input, uneven blocks (one of
    size 1) on three layers, int probabilities, and a single community.
    """

    @pytest.mark.parametrize(
        "params, edges, truth, links",
        [
            (
                PlantedParams((100,) * 12, 2, 0.1, 0.002, 1),
                "7357934e03375d670a82d26bc978fd443f09c76be317f69416810571b1c59eab",
                "2962022a7f751b7282f4d6906e5ca3965ac6c60e42dff1f441c599dcb277debd",
                "8f2c5cfd9e1e3d4f72e89aa28fcd61898b29aad8bfb22e584b8ea2a852533938",
            ),
            (
                PlantedParams((40, 1, 60, 2), 3, 0.5, 0.25, 5),
                "585b15bb4916cc17e3b6e42280dda83da970c915d08677f0434743e9bd7beab5",
                "195438e9fc31ea3c9434c7cc42e013336a4ec7587fe6dad7171a6b288ebb8aa7",
                "32f8e99246f8c1ab55513fa32a33b292b02ec5984438a6b5acee361f6a56833c",
            ),
            (
                PlantedParams((16, 16), 1, 1, 0, 3),
                "7b20d95b1925ee18710a7748706be5bfab7060c61ee629f2e822ec2c5c88c513",
                "7f5f3c95715e59c3e60d3f40e2ca4baa1d3eb2600cc6f2a50034663e0f905293",
                "5b25d5fbbea52d8e4e38aa607191ff8b8a251a1ef31b31897151dba177aee6b0",
            ),
            (
                PlantedParams((30,), 2, 0.4, 0.1, 9),
                "432b984f5f90bd2ecfb0e37ce64cc4e3930aada097f74b3f8cc795446a1569ff",
                "361a7d6d01103e1ee65105915b629b2fab9318db6682d3f30acf8486b46c4e56",
                "d800a6e9ab6f30a259c89cd78692266eb4c7cfd2983f4db2be0299d07b2096a2",
            ),
        ],
        ids=["benchmark", "uneven-3-layers", "int-probabilities", "one-community"],
    )
    def test_planted(self, params, edges, truth, links):
        planted = generate_planted(params)
        assert _sha(write_edge_list(planted.network)) == edges
        assert _sha(list(planted.truth.items())) == truth
        assert _sha(_link_order(planted.network)) == links

    def test_density_scenario(self):
        net = generate_density_scenario(7)
        assert _sha(write_edge_list(net)) == (
            "199cbc5241a5aec5860a62714371444066d9b7e96db0d8adc07a2eb521e80c1a"
        )
        assert _sha(_link_order(net)) == (
            "4341ca9351aaa2d24646a3550b7bf303de4cc4ede23ad7c690b5a3644128697b"
        )
