"""Brute-force reference vs. optimized paths."""

import random

import pytest

from clecc import (
    DetectionConfig,
    EmptyNetworkError,
    Lexicographic,
    MinSize,
    MultiLayerNetwork,
    PlantedParams,
    SeededRandom,
    StrongCommunity,
    WeakCommunity,
    clecc,
    generate_planted,
    naive_clecc,
    naive_detect,
    run_detection,
    write_result,
)
from conftest import barbell, dyad, path3, random_network, square_diag, toy2, triangle


class TestNaiveClecc:
    def test_fixture_values(self):
        assert naive_clecc(triangle(), "a", "b", 1) == 1.0
        assert naive_clecc(path3(), "a", "b", 1) == 0.0
        assert naive_clecc(square_diag(), "a", "b", 1) == 0.5
        assert naive_clecc(square_diag(), "a", "c", 1) == 1.0
        assert naive_clecc(toy2(), "x", "y", 2) == 0.0
        assert naive_clecc(dyad(), "a", "b", 1) == 1.0

    def test_same_node_twice(self):
        with pytest.raises(ValueError, match="two distinct nodes"):
            naive_clecc(triangle(), "a", "a", 1)

    def test_agrees_with_optimized_on_random_samples(self):
        rng = random.Random(17)
        checked = 0
        while checked < 500:
            net = random_network(rng, max_nodes=16, max_layers=3)
            nodes = net.nodes()
            for _ in range(10):
                x, y = rng.sample(nodes, 2)
                alpha = rng.randint(1, net.layer_count)
                assert naive_clecc(net, x, y, alpha) == clecc(net, x, y, alpha)
                checked += 1


class TestNaiveDetect:
    def test_barbell(self):
        config = DetectionConfig(alpha=1, validity=MinSize(3))
        assert write_result(naive_detect(barbell(), config)) == write_result(
            run_detection(barbell(), config)
        )

    def test_triangle(self):
        config = DetectionConfig(alpha=1, validity=MinSize(3))
        assert write_result(naive_detect(triangle(), config)) == write_result(
            run_detection(triangle(), config)
        )

    def test_requires_lexicographic(self):
        with pytest.raises(ValueError):
            naive_detect(
                triangle(),
                DetectionConfig(alpha=1, tie_policy=SeededRandom(1)),
            )

    def test_empty_network(self):
        with pytest.raises(EmptyNetworkError):
            naive_detect(MultiLayerNetwork(), DetectionConfig(alpha=1))

    def test_rejects_a_non_condition(self):
        # the barbell's first removal splits it into two triangles to judge
        with pytest.raises(TypeError):
            naive_detect(barbell(), DetectionConfig(alpha=1, validity="weak"))

    def test_random_planted_equivalence(self):
        rng = random.Random(18)
        validities = [MinSize(2), MinSize(3), WeakCommunity(), StrongCommunity()]
        for trial in range(25):
            sizes = rng.choice([(8, 8), (6, 6, 6), (12, 5), (10, 10)])
            layers = rng.randint(1, 3)
            planted = generate_planted(
                PlantedParams(
                    sizes=sizes,
                    layers=layers,
                    p_in=rng.uniform(0.3, 0.7),
                    p_out=rng.uniform(0.0, 0.2),
                    seed=rng.randrange(10**6),
                )
            )
            config = DetectionConfig(
                alpha=rng.randint(1, layers),
                validity=validities[trial % len(validities)],
                tie_policy=Lexicographic(),
            )
            fast = write_result(run_detection(planted.network, config))
            slow = write_result(naive_detect(planted.network, config))
            assert fast == slow

    def test_one_directional_and_isolated_equivalence(self):
        # random_network samples ordered pairs, so these instances mix
        # one-way edges, reciprocal edges, and isolated nodes
        rng = random.Random(19)
        validities = [MinSize(2), MinSize(4), WeakCommunity(), StrongCommunity()]
        for trial in range(25):
            net = random_network(rng, max_nodes=18, max_layers=3)
            net.add_node("isolated")
            config = DetectionConfig(
                alpha=rng.randint(1, net.layer_count),
                validity=validities[trial % len(validities)],
            )
            fast = write_result(run_detection(net, config))
            slow = write_result(naive_detect(net, config))
            assert fast == slow
