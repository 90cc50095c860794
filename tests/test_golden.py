"""Golden outputs: pinned result bytes that must survive any refactor.

Each case runs the detector on a fixed planted instance and compares
the sha256 of the compact ``write_result`` text, removal log included,
with a hash recorded from an earlier version of the library.  Under
``SeededRandom`` the draw indexes into insertion-ordered value buckets,
so these hashes also pin the order in which the table repair visits
pairs: a change to that order changes the random-tie output even when
every value stays exact.

The dense cases run alpha 1 on four blocks of 40 whose three layers
are half filled inside each block, so most removed pairs share many
neighbours and the repair lowers the common-neighbour count of many
entries, not only their neighbourhood sizes.

The density cases run alpha 2 on the 1000-node density scenario
(seed 7): about 3,000 removals under random ties, most of them at a
positive minimum value, and hundreds of them cut a working component's
spanning tree.  They pin the order of positive-value ties, where the
dense cases mostly tie at 0.

The shuffled cases run the same instance with its node labels permuted
but its node indices kept, so label order and index order disagree:
they pin how the detector maps between the two, both in the
lexicographic tie-break and in the order in which a pair's endpoints
are visited.  The shuffled dense cases do the same to the dense
instance: under random ties they pin the draw order a second time on
an input where many draws tie at a positive minimum among keys that no
repair has touched.

The pretty cases pin the ``clecc detect`` standard output, the
indented JSON the command line writes, on the planted instance.

The positive-tie case runs seeded random ties on the benchmark's
planted input (twelve blocks of 100 on two sparse layers), where
hundreds of draws fall at a positive minimum shared by dozens of
pairs, so it pins the order of those ties on a second input.

The measure cases pin the ``clecc measure`` CSV (the whole table, as
the command line prints it) on the same instances and on a sparse one
whose nodes all have fewer than n / 256 alpha-neighbours.
"""

import hashlib
import random

import pytest

from clecc import (
    DetectionConfig,
    Lexicographic,
    MultiLayerNetwork,
    PlantedParams,
    SeededRandom,
    WeakCommunity,
    generate_density_scenario,
    generate_planted,
    run_detection,
    write_edge_list,
    write_result,
)
from clecc.cli import cli_main
from conftest import shuffled_labels

# six blocks of 25 on three sparse layers: large minimum buckets at
# alpha 1, several groups and singletons at alpha 2
PLANTED = PlantedParams(sizes=(25,) * 6, layers=3, p_in=0.3, p_out=0.01, seed=5)

GOLDEN = {
    (1, Lexicographic()): "fe100b45b199ab4c6a7a8db7dc7fc140f986634649d8fe9298f76115044560ed",
    (1, SeededRandom(1)): "9ccad9f52bbc6d119d164717bfea327a2682706362b29ac5c9b2cf93f0f234d8",
    (1, SeededRandom(2)): "658891ee4c713a1026b28c8cb38aca3515549951ccf1ddc8b32aa65ffb0f5d1f",
    (2, Lexicographic()): "17ab61538453e66fa420bafd28bc9030369cd4daa789621a6e848a77779a3529",
    (2, SeededRandom(1)): "fbe7619c9b68979a0f4da9acb1980d671bd2a5f79b79bb5108abc028ff364f11",
    (2, SeededRandom(2)): "4d2b866a1da7ac63ff24f44bb8abfff2526263acfc505b00464f66f0012b80f9",
}

# four dense blocks of 40: most removals hit pairs with shared neighbours
DENSE = PlantedParams(sizes=(40,) * 4, layers=3, p_in=0.5, p_out=0.02, seed=9)

# alpha 1 on DENSE
GOLDEN_DENSE = {
    Lexicographic(): "168a399023fa87b4de55e84ab51eefcb424c7816790eb82564cf3e3655a30e9d",
    SeededRandom(1): "d54b66a144579349fec09d58d709296dd489b6169b7cbbbe8ea89539a1ff7794",
    SeededRandom(2): "09eafc9339480c2534e23a0ac6665b82f40d1c1b0af1549dd3dd00b412937c97",
}

# alpha 2 on the density scenario, seed 7
GOLDEN_DENSITY = {
    SeededRandom(1): "7351dcb2a2437ed52cbc2deed35328a08490cb5f1165819f20b640a8516d36fc",
    SeededRandom(2): "59d45aa7991645a449c261f59ce848075b383d1fe084fd7416c63faa656d801d",
}

# ``clecc detect --log-removals`` stdout on PLANTED, weak validity
GOLDEN_PRETTY = {
    (1, Lexicographic()): "e8b7f16b5fa94d7c02290f085ed4755fd574f43bd06c343d5c7777c0ea3a5fde",
    (1, SeededRandom(1)): "d45ca047e618b34640ebc185613e9cd87857c0759b0dbeccfb3e74d7ad26c52a",
    (2, Lexicographic()): "d2a1492169b9ad6c87ccd6e4d5d637d1948b7e3dd7d641fca40633ade591e89d",
    (2, SeededRandom(1)): "6f930fa2382b8df879b65951b4ae0269ec85c485737cf573f97a1771eeac3669",
}

# the benchmark's planted input: twelve blocks of 100 on two sparse layers
BENCH_PLANTED = PlantedParams(sizes=(100,) * 12, layers=2, p_in=0.1, p_out=0.002, seed=1)

# alpha 1 on BENCH_PLANTED; most non-zero draws tie at a positive minimum
GOLDEN_POSITIVE_TIES = {
    SeededRandom(11): "71f76ac457284629677366de2e48149fca1625070a1482480b15d22474fc324f",
}

# alpha 1 on a label-shuffled copy of PLANTED (see shuffled_labels)
GOLDEN_SHUFFLED = {
    Lexicographic(): "8950d757d72880cbc791c5547ea3e9d85abafc64585e2faddc2c0f9fb49d0904",
    SeededRandom(1): "296809e6926ca90ac4854a0cdcc59481190bf08d5636f21ebb866474c6b966b4",
    SeededRandom(2): "3e7927abbd5fd050af7c8f373d7fc505286bb486cc726afe2fd03fcabff87b0b",
}

# alpha 1 on a label-shuffled copy of DENSE (see shuffled_labels)
GOLDEN_DENSE_SHUFFLED = {
    SeededRandom(1): "a495c4289b8eeed7a9c626172bd017c3bda95abfa0ceeef6b1674f9d122cf31c",
    SeededRandom(2): "388cf4be7b0c41b31b7cac21b903d4f8a9ecd0d25da74e05b57d0a2e20b7f529",
}


def result_hash(net, alpha: int, policy) -> str:
    config = DetectionConfig(
        alpha=alpha, validity=WeakCommunity(), tie_policy=policy, log_removals=True
    )
    text = write_result(run_detection(net, config))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def planted_net():
    return generate_planted(PLANTED).network


@pytest.mark.parametrize(
    "alpha, policy", list(GOLDEN), ids=[f"a{a}-{p!r}" for a, p in GOLDEN]
)
def test_detection_bytes_pinned(planted_net, alpha, policy):
    assert result_hash(planted_net, alpha, policy) == GOLDEN[(alpha, policy)]


@pytest.mark.parametrize(
    "policy", list(GOLDEN_SHUFFLED), ids=[f"a1-shuffled-{p!r}" for p in GOLDEN_SHUFFLED]
)
def test_detection_bytes_pinned_label_shuffled(planted_net, policy):
    net = shuffled_labels(planted_net, seed=3)
    assert net.nodes() != sorted(net.nodes())
    assert result_hash(net, 1, policy) == GOLDEN_SHUFFLED[policy]


@pytest.mark.parametrize(
    "policy", list(GOLDEN_DENSE), ids=[f"a1-dense-{p!r}" for p in GOLDEN_DENSE]
)
def test_detection_bytes_pinned_dense(policy):
    net = generate_planted(DENSE).network
    assert result_hash(net, 1, policy) == GOLDEN_DENSE[policy]


@pytest.mark.parametrize(
    "policy",
    list(GOLDEN_DENSE_SHUFFLED),
    ids=[f"a1-dense-shuffled-{p!r}" for p in GOLDEN_DENSE_SHUFFLED],
)
def test_detection_bytes_pinned_dense_label_shuffled(policy):
    net = shuffled_labels(generate_planted(DENSE).network, seed=3)
    assert net.nodes() != sorted(net.nodes())
    assert result_hash(net, 1, policy) == GOLDEN_DENSE_SHUFFLED[policy]


@pytest.mark.parametrize(
    "policy", list(GOLDEN_DENSITY), ids=[f"a2-density-{p!r}" for p in GOLDEN_DENSITY]
)
def test_detection_bytes_pinned_density_scenario(policy):
    net = generate_density_scenario(7)
    assert result_hash(net, 2, policy) == GOLDEN_DENSITY[policy]


@pytest.mark.parametrize(
    "policy",
    list(GOLDEN_POSITIVE_TIES),
    ids=[f"a1-bench-planted-{p!r}" for p in GOLDEN_POSITIVE_TIES],
)
def test_detection_bytes_pinned_positive_ties(policy):
    net = generate_planted(BENCH_PLANTED).network
    assert result_hash(net, 1, policy) == GOLDEN_POSITIVE_TIES[policy]


@pytest.mark.parametrize(
    "alpha, policy", list(GOLDEN_PRETTY), ids=[f"a{a}-{p!r}" for a, p in GOLDEN_PRETTY]
)
def test_detect_stdout_pinned(planted_net, alpha, policy, tmp_path, capsys):
    path = tmp_path / "net.csv"
    path.write_text(write_edge_list(planted_net), encoding="utf-8")
    ties = []
    if isinstance(policy, SeededRandom):
        ties = ["--ties", "random", "--seed", str(policy.seed)]
    argv = ["detect", "--input", str(path), "--alpha", str(alpha), "--log-removals"]
    assert cli_main(argv + ties) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_PRETTY[(alpha, policy)]


# ``clecc measure`` CSV output; keys name the instance and alpha
GOLDEN_MEASURE = {
    ("planted", 1): "33b6e6ac3109d3534ae48d2230ac1dfe71eff1e025c52dd9666796ff727e0963",
    ("planted", 2): "3d3d33f4815cee62ea3a92518b6f32d0a2acf0a0ee6619917bda3c89cfa86a37",
    ("shuffled", 1): "e980e29d78e7488d684429e812e070ba31c162d390f92de09a6370244d4737c1",
    ("sparse", 1): "c298af9cb9ce7aca8947835d7759d097a8975c5bf4e6834a6249ff2bbb18b1ce",
}


def sparse_net() -> MultiLayerNetwork:
    """2400 nodes on two layers, each node linked to a few close successors.

    Every alpha-1 neighbourhood has at most 8 members, so n is more
    than 256 times the largest degree.
    """
    n = 2400
    rng = random.Random(11)
    labels = [f"s{i:04d}" for i in range(n)]
    net = MultiLayerNetwork()
    for label in labels:
        net.add_node(label)
    for layer in ("l1", "l2"):
        net.add_layer(layer)
        for i in range(n):
            j = (i + rng.randint(1, 6)) % n
            if not net.has_edge(labels[i], labels[j], layer):
                net.add_edge(labels[i], labels[j], layer)
                net.add_edge(labels[j], labels[i], layer)
    return net


def measure_hash(net, alpha: int, tmp_path, capsys) -> str:
    path = tmp_path / "net.csv"
    path.write_text(write_edge_list(net), encoding="utf-8")
    assert cli_main(["measure", "--input", str(path), "--alpha", str(alpha)]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "case, alpha", list(GOLDEN_MEASURE), ids=[f"{c}-a{a}" for c, a in GOLDEN_MEASURE]
)
def test_measure_bytes_pinned(planted_net, case, alpha, tmp_path, capsys):
    if case == "planted":
        net = planted_net
    elif case == "shuffled":
        net = shuffled_labels(planted_net, seed=3)
    else:
        net = sparse_net()
        degrees = [len(net.multilayer_neighborhood(x, alpha)) for x in net.nodes()]
        assert max(degrees) * 256 < net.node_count
    assert measure_hash(net, alpha, tmp_path, capsys) == GOLDEN_MEASURE[(case, alpha)]
