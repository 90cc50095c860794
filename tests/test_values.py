"""The value classes' contract: constructors, ==, hash, repr, copy and pickle.

Covers every small record class of the public API: the validity
conditions, the tie policies, ``DetectionConfig``, ``RemovalRecord``,
``DetectionResult``, ``ParsedEdgeList``, ``PlantedParams`` and
``PlantedNetwork``.  The frozen ones compare and hash by their field
tuple and refuse assignment; ``DetectionResult`` and ``ParsedEdgeList``
are mutable and unhashable.  ``repr`` spells every field as
``name=value``, and test ids elsewhere are built from it.
"""

import copy
import pickle

import pytest

from clecc import (
    DetectionConfig,
    DetectionResult,
    InvalidParamsError,
    Lexicographic,
    MinSize,
    ParsedEdgeList,
    PlantedNetwork,
    PlantedParams,
    RemovalRecord,
    SeededRandom,
    StrongCommunity,
    WeakCommunity,
    generate_planted,
    parse_edge_list,
)

CONFIG = DetectionConfig(
    alpha=2, validity=MinSize(3), tie_policy=SeededRandom(7), log_removals=False
)
RECORD = RemovalRecord(1, ("a", "b"), 0.5, 2)
PARAMS = PlantedParams(sizes=(2, 3), layers=1, p_in=0.5, p_out=0.25, seed=4)

# frozen value -> (its repr, its field tuple, an unequal value of its class)
FROZEN = {
    MinSize(3): ("MinSize(k=3)", (3,), MinSize(4)),
    WeakCommunity(): ("WeakCommunity()", (), None),
    StrongCommunity(): ("StrongCommunity()", (), None),
    Lexicographic(): ("Lexicographic()", (), None),
    SeededRandom(7): ("SeededRandom(seed=7)", (7,), SeededRandom(8)),
    CONFIG: (
        "DetectionConfig(alpha=2, validity=MinSize(k=3), "
        "tie_policy=SeededRandom(seed=7), log_removals=False)",
        (2, MinSize(3), SeededRandom(7), False),
        DetectionConfig(alpha=2, validity=MinSize(3), tie_policy=SeededRandom(8)),
    ),
    RECORD: (
        "RemovalRecord(step=1, pair=('a', 'b'), clecc=0.5, edges_removed=2)",
        (1, ("a", "b"), 0.5, 2),
        RemovalRecord(1, ("a", "b"), 0.5, 3),
    ),
    PARAMS: (
        "PlantedParams(sizes=(2, 3), layers=1, p_in=0.5, p_out=0.25, seed=4)",
        ((2, 3), 1, 0.5, 0.25, 4),
        PlantedParams(sizes=(2, 3), layers=1, p_in=0.5, p_out=0.25, seed=5),
    ),
}
FROZEN_IDS = [type(v).__name__ for v in FROZEN]


def result() -> DetectionResult:
    return DetectionResult(CONFIG, [{"a", "b"}], ["c"], [RECORD])


def parsed() -> ParsedEdgeList:
    return parse_edge_list("source,target,layer\na,b,l1\nb,a,l1\n")


def planted() -> PlantedNetwork:
    return generate_planted(PlantedParams((2, 2), 1, 1.0, 0.0, 1))


def fields(value) -> tuple:
    """Comparable fields; a network is compared by its edges."""
    if isinstance(value, ParsedEdgeList):
        return (sorted(value.network.edges()), value.records, value.had_header,
                value.duplicates_dropped)
    if isinstance(value, PlantedNetwork):
        return sorted(value.network.edges()), value.truth
    return (value.config, value.groups, value.singletons, value.removals)


def copies(value):
    yield "copy", copy.copy(value)
    yield "deepcopy", copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield f"pickle-{protocol}", pickle.loads(pickle.dumps(value, protocol))


class TestFrozen:
    @pytest.mark.parametrize("value", list(FROZEN), ids=FROZEN_IDS)
    def test_repr(self, value):
        assert repr(value) == FROZEN[value][0]

    @pytest.mark.parametrize("value", list(FROZEN), ids=FROZEN_IDS)
    def test_hash_is_the_field_tuple_hash(self, value):
        assert hash(value) == hash(FROZEN[value][1])

    @pytest.mark.parametrize("value", list(FROZEN), ids=FROZEN_IDS)
    def test_equality_is_field_wise_within_one_class(self, value):
        other = FROZEN[value][2]
        twin = copy.copy(value)
        assert value == twin and not value != twin
        if other is not None:
            assert value != other and not value == other
        assert value != FROZEN[value][1]
        for stranger in FROZEN:
            if type(stranger) is not type(value):
                assert value != stranger and not value == stranger
                assert value.__eq__(stranger) is NotImplemented

    def test_conditions_and_policies_without_fields_differ(self):
        assert WeakCommunity() != StrongCommunity()
        assert WeakCommunity() == WeakCommunity()
        assert Lexicographic() != WeakCommunity()
        assert MinSize(1) != SeededRandom(1)
        assert len({WeakCommunity(), StrongCommunity(), Lexicographic()}) == 3

    @pytest.mark.parametrize("value", list(FROZEN), ids=FROZEN_IDS)
    def test_assignment_raises(self, value):
        for name in ("k", "seed", "alpha", "step", "sizes", "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == FROZEN[value][0]

    @pytest.mark.parametrize("value", list(FROZEN), ids=FROZEN_IDS)
    def test_copy_and_pickle_round_trip(self, value):
        for how, twin in copies(value):
            assert type(twin) is type(value), how
            assert twin == value and hash(twin) == hash(value), how
            assert repr(twin) == repr(value), how

    def test_planted_network_is_frozen_but_unhashable(self):
        net = planted()
        with pytest.raises(AttributeError):
            net.truth = {}
        with pytest.raises(TypeError):
            hash(net)
        assert net == PlantedNetwork(net.network, dict(net.truth))
        assert net != PlantedNetwork(planted().network, net.truth)  # another object
        assert repr(net) == f"PlantedNetwork(network={net.network!r}, truth={net.truth!r})"
        for how, twin in copies(net):
            assert type(twin) is PlantedNetwork and fields(twin) == fields(net), how
        assert copy.copy(net) == net


class TestConstructors:
    def test_detection_config_defaults(self):
        config = DetectionConfig()
        assert config.alpha == 1
        assert config.validity == WeakCommunity()
        assert config.tie_policy == Lexicographic()
        assert config.log_removals is True
        assert config == DetectionConfig(1, WeakCommunity(), Lexicographic(), True)
        assert DetectionConfig(3) == DetectionConfig(alpha=3)

    def test_positional_and_keyword_forms_agree(self):
        assert MinSize(2) == MinSize(k=2)
        assert SeededRandom(5) == SeededRandom(seed=5)
        assert RECORD == RemovalRecord(step=1, pair=("a", "b"), clecc=0.5, edges_removed=2)
        assert PARAMS == PlantedParams((2, 3), 1, 0.5, 0.25, 4)
        assert result() == DetectionResult(
            config=CONFIG, groups=[{"a", "b"}], singletons=["c"], removals=[RECORD]
        )
        with pytest.raises(TypeError):
            MinSize()
        with pytest.raises(TypeError):
            SeededRandom(1, 2)
        with pytest.raises(TypeError):
            DetectionConfig(beta=1)

    def test_class_patterns_bind_fields_by_position(self):
        match CONFIG:
            case DetectionConfig(alpha, MinSize(k), SeededRandom(seed), logged):
                assert (alpha, k, seed, logged) == (2, 3, 7, False)
            case _:
                pytest.fail("no match")
        match RECORD:
            case RemovalRecord(step, pair):
                assert (step, pair) == (1, ("a", "b"))
            case _:
                pytest.fail("no match")

    def test_detection_result_removals_default_to_a_fresh_list(self):
        first = DetectionResult(CONFIG, [], [])
        second = DetectionResult(CONFIG, [], [])
        assert first.removals == [] and first.removals is not second.removals

    @pytest.mark.parametrize("k", [0, -1])
    def test_min_size_below_one_is_rejected(self, k):
        with pytest.raises(InvalidParamsError, match=f"MinSize needs k >= 1, got {k}"):
            MinSize(k)

    @pytest.mark.parametrize("seed", [-1, -5])
    def test_seeded_random_below_zero_is_rejected(self, seed):
        # random.Random(-s) would draw exactly what random.Random(s) draws
        with pytest.raises(InvalidParamsError, match=f"seed must be >= 0, got {seed}"):
            SeededRandom(seed)
        assert SeededRandom(0).seed == 0

    @pytest.mark.parametrize(
        "changes",
        [
            {"sizes": ()},
            {"sizes": (2, 0)},
            {"layers": 0},
            {"p_in": 1.5},
            {"p_out": -0.1},
            {"seed": -1},
        ],
    )
    def test_planted_params_checks(self, changes):
        kwargs = dict(sizes=(2, 3), layers=1, p_in=0.5, p_out=0.25, seed=4)
        kwargs.update(changes)
        with pytest.raises(InvalidParamsError):
            PlantedParams(**kwargs)


class TestMutable:
    @pytest.mark.parametrize("make", [result, parsed], ids=["DetectionResult", "ParsedEdgeList"])
    def test_unhashable(self, make):
        with pytest.raises(TypeError):
            hash(make())

    def test_detection_result(self):
        value = result()
        assert repr(value) == (
            f"DetectionResult(config={CONFIG!r}, groups={value.groups!r}, "
            f"singletons=['c'], removals=[{RECORD!r}])"
        )
        assert value == result() and not value != result()
        other = result()
        other.singletons = ["d"]
        assert value != other
        value.groups.append({"d"})
        value.groups = [{"x", "y"}]
        assert value.groups == [{"x", "y"}]
        assert value.partition() == [{"x", "y"}, {"c"}]

    def test_parsed_edge_list(self):
        value = parsed()
        assert repr(value) == (
            f"ParsedEdgeList(network={value.network!r}, records=2, "
            "had_header=True, duplicates_dropped=0)"
        )
        assert value == ParsedEdgeList(value.network, 2, True, 0)
        assert value != ParsedEdgeList(value.network, 2, False, 0)
        value.records = 5
        assert value.records == 5

    def test_copy_and_pickle_round_trip(self):
        for make in (result, parsed):
            value = make()
            for how, twin in copies(value):
                assert type(twin) is type(value) and fields(twin) == fields(value), how
            assert copy.copy(value) == value
            deep = copy.deepcopy(value)
            if isinstance(value, DetectionResult):
                assert deep == value
                assert deep.groups is not value.groups
                assert deep.groups[0] is not value.groups[0]
            else:
                assert deep.network is not value.network
