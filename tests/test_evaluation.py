"""Partition scoring."""

import random

import pytest

from clecc import DomainMismatchError, nmi


def test_identical_partitions():
    a = [{"a", "b"}, {"c"}, {"d", "e", "f"}]
    assert nmi(a, a) == 1.0


def test_label_permutation_invariance():
    a = [{"a", "b"}, {"c", "d"}]
    b = [{"c", "d"}, {"a", "b"}]
    assert nmi(a, b) == 1.0


def test_one_block_vs_singletons():
    nodes = [f"n{i}" for i in range(6)]
    one = [set(nodes)]
    singles = [{n} for n in nodes]
    assert nmi(one, singles) == 0.0
    assert nmi(singles, one) == 0.0


def test_symmetry():
    rng = random.Random(4)
    nodes = [f"n{i}" for i in range(20)]
    for _ in range(10):
        a = _random_partition(rng, nodes)
        b = _random_partition(rng, nodes)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)
        assert 0.0 <= nmi(a, b) <= 1.0


def test_domain_mismatch():
    with pytest.raises(DomainMismatchError, match="node 'c' is only in the second"):
        nmi([{"a", "b"}], [{"a", "b", "c"}])
    with pytest.raises(DomainMismatchError, match="node 'b' is only in the first"):
        nmi([{"a"}, {"c", "b"}], [{"a", "c", "d"}])


def test_overlapping_blocks_rejected():
    with pytest.raises(ValueError):
        nmi([{"a", "b"}, {"b", "c"}], [{"a", "b", "c"}])


def test_against_sklearn():
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    rng = random.Random(6)
    nodes = [f"n{i}" for i in range(30)]
    for _ in range(20):
        a = _random_partition(rng, nodes)
        b = _random_partition(rng, nodes)
        labels_a = _as_labels(a, nodes)
        labels_b = _as_labels(b, nodes)
        expected = sklearn_metrics.normalized_mutual_info_score(
            labels_a, labels_b, average_method="arithmetic"
        )
        assert nmi(a, b) == pytest.approx(expected, abs=1e-9)


def _random_partition(rng, nodes):
    block_count = rng.randint(1, 6)
    blocks = [set() for _ in range(block_count)]
    for node in nodes:
        blocks[rng.randrange(block_count)].add(node)
    return [b for b in blocks if b]


def _as_labels(partition, nodes):
    mapping = {}
    for index, block in enumerate(partition):
        for node in block:
            mapping[node] = index
    return [mapping[n] for n in nodes]
