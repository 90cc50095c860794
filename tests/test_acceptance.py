"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines as they happen; a summary block is printed at
the end of every run either way).
"""

import random
import subprocess
import sys
import time

from clecc import (
    DetectionConfig,
    Lexicographic,
    MinSize,
    PlantedParams,
    SeededRandom,
    StrongCommunity,
    WeakCommunity,
    clecc,
    clecc_table,
    demo_network,
    generate_density_scenario,
    generate_planted,
    naive_detect,
    nmi,
    run_detection,
    update_after_removal,
    write_result,
)
from conftest import (
    barbell,
    dyad,
    path3,
    random_network,
    square_diag,
    src_env,
    toy2,
    triangle,
)

BARBELL_CSV = "".join(
    f"{a},{b},l1\n{b},{a},l1\n"
    for a, b in [("a", "b"), ("a", "c"), ("b", "c"), ("d", "e"), ("d", "f"), ("e", "f"), ("c", "d")]
)


def _report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS — {detail}")


def test_c1_demo_fixture_shape_and_neighborhoods():
    start = time.perf_counter()
    net = demo_network()
    assert net.node_count == 5
    assert net.edge_count == 8
    assert net.neighborhood("x", "l1") == {"y", "z"}
    assert net.neighborhood("z", "l1") == {"x", "y", "u"}
    assert net.neighborhood("v", "l1") == {"u"}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"demo fixture exact ({elapsed:.3f}s)")


def test_c2_closed_form_clecc_values():
    start = time.perf_counter()
    assert clecc(triangle(), "a", "b", 1) == 1.0
    assert clecc(path3(), "a", "b", 1) == 0.0
    assert clecc(square_diag(), "a", "b", 1) == 0.5
    assert clecc(square_diag(), "a", "c", 1) == 1.0
    assert clecc(toy2(), "x", "y", 2) == 0.0
    assert clecc(dyad(), "a", "b", 1) == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"six closed-form values exact ({elapsed:.3f}s)")


def test_c3_neighbourhood_laws_on_200_networks():
    start = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(200):
        net = random_network(rng, max_nodes=32, max_layers=4)
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
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"zero violations on 200 networks ({elapsed:.1f}s)")


def test_c4_incremental_exactness_vs_rebuild():
    start = time.perf_counter()
    rng = random.Random(4040)
    for _ in range(50):
        net = random_network(rng, max_nodes=24, max_layers=3)
        for alpha in range(1, net.layer_count + 1):
            work = net.copy()
            table = clecc_table(work, alpha)
            for _ in range(20):
                if not len(table):
                    break
                pair = rng.choice(table.pairs())
                work.remove_pair_edges(*pair)
                update_after_removal(table, work, *pair)
                rebuilt = clecc_table(work, alpha)
                assert table.as_dict() == rebuilt.as_dict()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"50 networks, every interleaved step rebuild-exact ({elapsed:.1f}s)")


def test_c5_detector_matches_reference_everywhere():
    start = time.perf_counter()
    config = DetectionConfig(alpha=1, validity=MinSize(3))
    for net in (barbell(), triangle()):
        assert write_result(run_detection(net, config)) == write_result(
            naive_detect(net, config)
        )
    rng = random.Random(5050)
    validities = [MinSize(2), MinSize(3), WeakCommunity(), StrongCommunity()]
    for trial in range(100):
        sizes = rng.choice([(8, 8), (12, 12), (6, 6, 6), (12, 5), (10, 8), (24,)])
        layers = rng.randint(1, 3)
        planted = generate_planted(
            PlantedParams(
                sizes=sizes,
                layers=layers,
                p_in=rng.uniform(0.35, 0.7),
                p_out=rng.uniform(0.0, 0.2),
                seed=rng.randrange(10**6),
            )
        )
        cfg = DetectionConfig(
            alpha=rng.randint(1, layers),
            validity=validities[trial % len(validities)],
        )
        fast = write_result(run_detection(planted.network, cfg))
        slow = write_result(naive_detect(planted.network, cfg))
        assert fast == slow
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(5, f"byte-identical on fixtures + 100 planted instances ({elapsed:.1f}s)")


def test_c6_barbell_recovery_under_every_policy():
    start = time.perf_counter()
    policies = [Lexicographic()] + [SeededRandom(seed) for seed in range(10)]
    for policy in policies:
        result = run_detection(
            barbell(),
            DetectionConfig(alpha=1, validity=MinSize(3), tie_policy=policy),
        )
        assert sorted(sorted(g) for g in result.groups) == [
            ["a", "b", "c"],
            ["d", "e", "f"],
        ]
        assert result.singletons == []
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(6, f"two triangles under lex + 10 seeds ({elapsed:.3f}s)")


def test_c7_planted_partition_recovery():
    # reference pre-run on these exact instances (naive_detect, seeds
    # 1..20) scored mean NMI 0.9527, so the 0.8 bound stands
    start = time.perf_counter()
    config = DetectionConfig(alpha=2, validity=WeakCommunity())
    scores = []
    for seed in range(1, 21):
        planted = generate_planted(
            PlantedParams(sizes=(16, 16), layers=3, p_in=0.5, p_out=0.05, seed=seed)
        )
        result = run_detection(planted.network, config)
        scores.append(nmi(planted.truth_partition(), result.partition()))
    mean = sum(scores) / len(scores)
    elapsed = time.perf_counter() - start
    assert mean >= 0.8, scores
    assert elapsed < 300.0
    _report(7, f"mean NMI {mean:.4f} over 20 seeds ({elapsed:.1f}s)")


def test_c8_density_scenario_scale():
    from collections import Counter

    start = time.perf_counter()
    net = generate_density_scenario(7)
    assert net.node_count == 1000
    assert net.edge_count == 110_000
    per_layer = Counter(layer for _, _, layer in net.edges())
    assert sorted(per_layer.values()) == [5_000, 5_000, 50_000, 50_000]

    pair_counts = []
    for alpha in (1, 2, 3, 4):
        table_start = time.perf_counter()
        table = clecc_table(net, alpha)
        table_elapsed = time.perf_counter() - table_start
        assert table_elapsed < 60.0, f"alpha={alpha} table took {table_elapsed:.1f}s"
        pair_counts.append(len(table))
    assert pair_counts == sorted(pair_counts, reverse=True)

    detect_start = time.perf_counter()
    result = run_detection(net, DetectionConfig(alpha=2))
    detect_elapsed = time.perf_counter() - detect_start
    assert detect_elapsed < 600.0
    covered = sum(len(g) for g in result.groups) + len(result.singletons)
    assert covered == 1000
    elapsed = time.perf_counter() - start
    _report(
        8,
        f"110k edges, pair counts {pair_counts}, detection {detect_elapsed:.1f}s "
        f"(total {elapsed:.1f}s)",
    )


def test_c9_cli_byte_determinism(tmp_path):
    start = time.perf_counter()
    source = tmp_path / "barbell.csv"
    source.write_text(BARBELL_CSV)
    flag_sets = [
        ["--ties", "lex"],
        ["--ties", "random", "--seed", "11"],
    ]
    for extra in flag_sets:
        outputs = []
        for _ in range(3):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "clecc", "detect",
                    "--input", str(source), "--alpha", "1",
                    "--validity", "min-size:3", "--log-removals", *extra,
                ],
                capture_output=True,
                check=True,
                env=src_env(),
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        assert b'"groups"' in outputs[0]
    elapsed = time.perf_counter() - start
    _report(9, f"3x byte-identical for both tie policies ({elapsed:.1f}s)")
