"""Edge-list parsing, writing, and result JSON."""

import io
import json
import random
from types import SimpleNamespace

import pytest

from clecc import (
    CleccError,
    DetectionConfig,
    DetectionResult,
    DuplicateEdgeError,
    Lexicographic,
    MalformedLineError,
    MinSize,
    MultiLayerNetwork,
    PlantedParams,
    RemovalRecord,
    SeededRandom,
    SelfLoopError,
    StrongCommunity,
    WeakCommunity,
    demo_network,
    generate_planted,
    parse_edge_list,
    partition_from_json,
    partition_to_dict,
    result_to_dict,
    run_detection,
    write_edge_list,
    write_result,
)
from clecc import formats
from conftest import barbell, random_network, triangle

DEMO_CSV = """\
x,y,l1
y,x,l1
x,z,l1
z,x,l1
y,z,l1
u,z,l1
u,v,l1
v,u,l1
"""


class TestParseEdgeList:
    def test_demo_csv_matches_fixture(self):
        parsed = parse_edge_list(DEMO_CSV)
        assert sorted(parsed.network.edges()) == sorted(demo_network().edges())
        assert parsed.records == 8
        assert not parsed.had_header
        assert parsed.duplicates_dropped == 0

    def test_accepts_file_objects(self):
        parsed = parse_edge_list(io.StringIO(DEMO_CSV))
        assert parsed.network.edge_count == 8

    def test_header_is_skipped(self):
        parsed = parse_edge_list("source,target,layer\na,b,l1\n")
        assert parsed.had_header
        assert parsed.network.edge_count == 1

    @pytest.mark.parametrize("text", ["source,target,layer\na,b,l1\n", "# c\na,b,l1\n"])
    def test_byte_order_mark_dropped_from_the_first_line(self, text):
        for source in ("\ufeff" + text, io.StringIO("\ufeff" + text)):
            parsed = parse_edge_list(source)
            assert list(parsed.network.edges()) == [("a", "b", "l1")]
            assert parsed.had_header == text.startswith("source")
        # only one mark, and only on the first line, is dropped
        assert parse_edge_list("\ufeff\ufeffx,y,l1\n").network.nodes() == ["\ufeffx", "y"]
        assert parse_edge_list("a,b,l1\n\ufeffb,a,l1\n").network.nodes() == ["a", "b", "\ufeffb"]

    def test_blank_lines_and_comments_ignored(self):
        parsed = parse_edge_list("# a comment\n\na,b,l1\n\n# more\nb,a,l1\n")
        assert parsed.network.edge_count == 2

    def test_self_loop_names_line(self):
        with pytest.raises(SelfLoopError) as err:
            parse_edge_list("a,b,l1\na,a,l1\n")
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_duplicate_names_line(self):
        with pytest.raises(DuplicateEdgeError) as err:
            parse_edge_list("x,y,l1\nx,y,l1\n")
        assert err.value.line == 2

    def test_dedupe_drops_and_counts(self):
        parsed = parse_edge_list("x,y,l1\nx,y,l1\n", dedupe=True)
        assert parsed.network.edge_count == 1
        assert parsed.duplicates_dropped == 1

    @pytest.mark.parametrize("bad", ["a,b\n", "a,b,l1,extra\n", "a,,l1\n"])
    def test_malformed_line(self, bad):
        with pytest.raises(MalformedLineError) as err:
            parse_edge_list("a,b,l1\n" + bad)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, error, line, message",
        [
            (
                "# c\n\nsource,target,layer\na,b,l1\n\n# c\na,b\n",
                MalformedLineError,
                7,
                "line 7: expected 3 non-empty fields separated by ',', got 'a,b'",
            ),
            (
                "a,b,l1\n a , b , l1 , x \n",
                MalformedLineError,
                2,
                "line 2: expected 3 non-empty fields separated by ',', "
                "got ' a , b , l1 , x '",
            ),
            (
                "a,b,l1\n\n#\na, ,l1\n",
                MalformedLineError,
                4,
                "line 4: expected 3 non-empty fields separated by ',', got 'a, ,l1'",
            ),
            (
                " , b ,l1\n",
                MalformedLineError,
                1,
                "line 1: expected 3 non-empty fields separated by ',', got ' , b ,l1'",
            ),
            (
                "a,b,\n",
                MalformedLineError,
                1,
                "line 1: expected 3 non-empty fields separated by ',', got 'a,b,'",
            ),
            (
                "source,target\n",
                MalformedLineError,
                1,
                "line 1: expected 3 non-empty fields separated by ',', "
                "got 'source,target'",
            ),
            (
                "a;b;l1\n",
                MalformedLineError,
                1,
                "line 1: expected 3 non-empty fields separated by ',', got 'a;b;l1'",
            ),
            (
                "x,y,l1\n# c\n\n  a , a , l1  \n",
                SelfLoopError,
                4,
                "line 4: self-loop on node 'a'",
            ),
            (
                "source , target , layer\nx,y,l1\n\n x ,y, l1\n",
                DuplicateEdgeError,
                4,
                "line 4: duplicate edge ('x', 'y', 'l1')",
            ),
            (
                "\n\nsource,target,layer\nsource,target,layer\nsource,target,layer\n",
                DuplicateEdgeError,
                5,
                "line 5: duplicate edge ('source', 'target', 'layer')",
            ),
        ],
    )
    def test_errors_keep_line_and_message(self, text, error, line, message):
        with pytest.raises(error) as err:
            parse_edge_list(text)
        assert (err.value.line, str(err.value)) == (line, message)
        # lines read from a file keep their newline; the quote drops it
        with pytest.raises(error) as err:
            parse_edge_list(io.StringIO(text))
        assert (err.value.line, str(err.value)) == (line, message)

    @pytest.mark.parametrize("newline", [None, ""], ids=["text-mode", "untranslated"])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", ""], ids=["LF", "CRLF", "CR", "EOF"])
    def test_malformed_line_from_a_file_quoted_without_its_terminator(
        self, tmp_path, newline, end
    ):
        path = tmp_path / "edges.csv"
        path.write_bytes(f"x,y,l1\na,b {end}".encode())
        with open(path, encoding="utf-8", newline=newline) as handle:
            with pytest.raises(MalformedLineError) as err:
                parse_edge_list(handle)
        assert str(err.value) == (
            "line 2: expected 3 non-empty fields separated by ',', got 'a,b '"
        )

    @pytest.mark.parametrize(
        "brk",
        ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r", "\r\n"],
        ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS", "CR", "CRLF"],
    )
    @pytest.mark.parametrize(
        "template",
        ["x,a{}b,l1\n", "a,b,l1{}\nc,c,l1\n", "a,b,l1{}c,c,l1\n", "a,b,l1\n{}a,b,l1\n"],
        ids=["in-a-label", "before-a-newline", "between-records", "alone"],
    )
    def test_a_string_breaks_lines_where_a_file_does(self, tmp_path, brk, template):
        # a file opened in text mode breaks lines at \n, \r\n and \r only
        def outcome(source):
            try:
                parsed = parse_edge_list(source)
            except (MalformedLineError, SelfLoopError, DuplicateEdgeError) as exc:
                return type(exc), exc.line
            net = parsed.network
            return net.nodes(), net.layers(), list(net.edges()), parsed.records

        text = template.format(brk)
        path = tmp_path / "net.csv"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as handle:
            assert outcome(text) == outcome(handle)

    def test_custom_delimiter(self):
        parsed = parse_edge_list("source;target;layer\na;b;l1\n", delimiter=";")
        assert parsed.had_header
        assert parsed.network.has_edge("a", "b", "l1")

    def test_empty_delimiter_is_a_library_error(self):
        with pytest.raises(CleccError) as err:
            parse_edge_list("a,b,l1\n", delimiter="")
        assert "delimiter" in str(err.value) and "\n" not in str(err.value)

    def test_labels_stay_text(self):
        parsed = parse_edge_list("01,1,l1\n")
        assert set(parsed.network.nodes()) == {"01", "1"}

    def test_builds_what_add_edge_builds(self):
        # the parser registers nodes and layers itself; the network must
        # equal one built by add_edge in line order, down to the link maps
        rng = random.Random(41)
        for _ in range(20):
            edges = list(random_network(rng, max_nodes=20, max_layers=3).edges())
            rng.shuffle(edges)
            repeats = rng.sample(edges, min(3, len(edges)))
            lines = [",".join(e) for e in edges + repeats]
            parsed = parse_edge_list("\n".join(lines), dedupe=True)
            expected = MultiLayerNetwork()
            for edge in edges:
                expected.add_edge(*edge)
            net = parsed.network
            assert net._node_labels == expected._node_labels
            assert net._node_index == expected._node_index
            assert net._layer_labels == expected._layer_labels
            assert net._layer_index == expected._layer_index
            assert net._even_bits == expected._even_bits
            assert net._links == expected._links
            assert net.edge_count == expected.edge_count == parsed.records == len(edges)
            assert parsed.duplicates_dropped == len(repeats)


class TestWriteEdgeList:
    def test_round_trip_demo(self):
        net = demo_network()
        text = write_edge_list(net)
        parsed = parse_edge_list(text)
        assert parsed.had_header
        assert sorted(parsed.network.edges()) == sorted(net.edges())

    def test_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(10):
            net = random_network(rng, max_nodes=12, max_layers=3)
            back = parse_edge_list(write_edge_list(net)).network
            assert sorted(back.edges()) == sorted(net.edges())

    def test_rejects_unwritable_labels(self):
        from clecc import MultiLayerNetwork

        cases = [
            ("a,comma", "b", "l1"),
            (" a", "b", "l1"),
            ("a", "b ", "l1"),
            ("a", "b", "\tl1"),
            ("", "b", "l1"),
            ("a", "b", ""),
            ("a\nz", "b", "l1"),
            ("a", "b\rz", "l1"),
            ("#a", "b", "l1"),
        ]
        for edge in cases:
            net = MultiLayerNetwork()
            net.add_edge(*edge)
            with pytest.raises(ValueError):
                write_edge_list(net)

    @pytest.mark.parametrize(
        "brk",
        ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"],
    )
    def test_other_breaks_inside_a_label_round_trip(self, tmp_path, brk):
        # the parser splits lines only at \n and \r, so these stay in a label
        from clecc import MultiLayerNetwork

        net = MultiLayerNetwork()
        net.add_edge(f"a{brk}z", "b", f"l{brk}1")
        net.add_edge("b", f"a{brk}z", "l2")
        text = write_edge_list(net)
        path = tmp_path / "net.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as handle:
            from_file = parse_edge_list(handle).network
        for back in (parse_edge_list(text).network, from_file):
            assert sorted(back.edges()) == sorted(net.edges())
            assert back.nodes() == net.nodes() and back.layers() == net.layers()

    def test_names_the_first_hash_led_source(self):
        from clecc import MultiLayerNetwork

        net = MultiLayerNetwork()
        net.add_edge("#b", "a", "l1")
        net.add_edge("#a", "b", "l1")
        with pytest.raises(ValueError, match=r"^source label '#a' starts with '#'"):
            write_edge_list(net)

    def test_hash_led_target_and_layer_round_trip(self):
        # a line starts with its source, so only a source reads as a comment
        from clecc import MultiLayerNetwork

        net = MultiLayerNetwork()
        net.add_edge("b", "#a", "#l")
        net.add_edge("a", "#a", "l1")
        text = write_edge_list(net)
        assert text == "source,target,layer\na,#a,l1\nb,#a,#l\n"
        back = parse_edge_list(text).network
        assert list(back.edges()) == list(net.edges())
        assert sorted(back.nodes()) == sorted(net.nodes())
        assert sorted(back.layers()) == sorted(net.layers())

    def test_header_like_row_round_trips_with_header(self):
        # with the header first, neither row is read as a header or a BOM
        from clecc import MultiLayerNetwork

        for edge in [("source", "target", "layer"), ("\ufeffa", "b", "l1")]:
            net = MultiLayerNetwork()
            net.add_edge(*edge)
            back = parse_edge_list(write_edge_list(net)).network
            assert list(back.edges()) == [edge]


class TestWriteResult:
    def test_barbell_document(self):
        result = run_detection(
            barbell(), DetectionConfig(alpha=1, validity=MinSize(3))
        )
        doc = json.loads(write_result(result))
        assert doc["alpha"] == 1
        assert doc["validity"] == "min-size:3"
        assert doc["tie_policy"] == "lex"
        assert doc["seed"] is None
        assert doc["groups"] == [
            {"id": 0, "nodes": ["a", "b", "c"]},
            {"id": 1, "nodes": ["d", "e", "f"]},
        ]
        assert doc["singletons"] == []
        assert doc["removals"] == [
            {"step": 1, "pair": ["c", "d"], "clecc": 0.0, "edges_removed": 2}
        ]

    def test_triangle_document(self):
        result = run_detection(
            triangle(), DetectionConfig(alpha=1, validity=MinSize(3))
        )
        doc = json.loads(write_result(result))
        assert doc["groups"] == []
        assert doc["singletons"] == ["a", "b", "c"]
        assert len(doc["removals"]) == 3

    def test_empty_result_document(self):
        from clecc import DetectionResult

        result = DetectionResult(
            config=DetectionConfig(alpha=1), groups=[], singletons=[], removals=[]
        )
        doc = json.loads(write_result(result))
        assert doc["groups"] == []
        assert doc["singletons"] == []
        assert doc["removals"] == []

    def test_byte_determinism(self):
        config = DetectionConfig(alpha=1, validity=MinSize(3))
        first = write_result(run_detection(barbell(), config), pretty=True)
        second = write_result(run_detection(barbell(), config), pretty=True)
        assert first.encode() == second.encode()

    def test_streamed_batches_equal_the_text(self):
        # no side ever qualifies, so every pair is logged: a removal log
        # long enough to take several batches of encoder chunks
        planted = generate_planted(
            PlantedParams(sizes=(20, 20), layers=2, p_in=0.3, p_out=0.02, seed=3)
        )
        config = DetectionConfig(alpha=1, validity=MinSize(1000))
        result = run_detection(planted.network, config)
        for pretty in (True, False):
            writes = []
            handle = SimpleNamespace(write=writes.append)
            assert write_result(result, pretty=pretty, file=handle) is None
            assert "".join(writes) == write_result(result, pretty=pretty)
            assert len(writes) > 1

    def test_multi_batch_log_equals_the_text(self):
        records = 2 * formats._REMOVAL_BATCH + 1
        result = DetectionResult(
            config=DetectionConfig(alpha=1),
            groups=[],
            singletons=["a"],
            removals=[
                RemovalRecord(k, (f"n{k}", f"m{k}"), k / (records + 1), 1)
                for k in range(1, records + 1)
            ],
        )
        writes = []
        write_result(result, pretty=True, file=SimpleNamespace(write=writes.append))
        assert "".join(writes) == write_result(result, pretty=True) == encoder_text(result)
        # head, three batches of records, tail
        assert len(writes) == 5

    def test_key_order_fixed(self):
        result = run_detection(barbell(), DetectionConfig(alpha=1))
        keys = list(json.loads(write_result(result)).keys())
        assert keys == [
            "alpha",
            "validity",
            "tie_policy",
            "seed",
            "groups",
            "singletons",
            "removals",
        ]


def encoder_text(result) -> str:
    """The indented form as the standard encoder writes it."""
    return json.JSONEncoder(indent=2).encode(result_to_dict(result))


# labels the encoder escapes: non-ASCII (also outside the BMP), quote,
# backslash, control characters and the JavaScript line separators
ODD_LABELS = [
    "\u00e9t\u00e9", "\u6f22\u5b57", "\U0001f600", 'say "hi"', "back\\slash",
    "tab\there", "nul\x00", "bell\x07", "del\x7f", "line\u2028sep",
]


def hand_built(groups, singletons, removals, **config) -> DetectionResult:
    return DetectionResult(
        config=DetectionConfig(**config),
        groups=groups,
        singletons=singletons,
        removals=removals,
    )


HAND_BUILT = {
    "odd-labels-and-values": hand_built(
        [set(ODD_LABELS[:4]), {"b", "a"}],
        ODD_LABELS[4:],
        [
            RemovalRecord(1, ("z", "a"), 0.0, 2),  # pair given unsorted
            RemovalRecord(2, (ODD_LABELS[5], ODD_LABELS[0]), 1.0, 1),
            RemovalRecord(3, ("m", "n"), 1, 3),  # an int value
            RemovalRecord(4, ("b", "a"), 1 / 3, 4),
            RemovalRecord(5, ("c", "d"), 2.5e-05, 1),
            RemovalRecord(6, ("e", "f"), float("nan"), 1),
        ],
        alpha=2,
        validity=MinSize(3),
        tie_policy=SeededRandom(7),
    ),
    "no-groups": hand_built(
        [], ["x", "y"], [RemovalRecord(1, ("y", "x"), 0.5, 2)], tie_policy=SeededRandom(0)
    ),
    "no-singletons": hand_built(
        [{"x", "y"}], [], [RemovalRecord(1, ("x", "y"), 0.25, 1)], validity=StrongCommunity()
    ),
    "no-groups-no-singletons-empty-log": hand_built([], [], []),
    "empty-log": hand_built([{"p", "q"}], ["r"], [], validity=MinSize(12)),
}


class TestPrettyTemplate:
    """The indented form is the standard encoder's text, byte for byte."""

    def check(self, result) -> None:
        expected = encoder_text(result)
        assert write_result(result, pretty=True) == expected
        writes = []
        assert write_result(result, True, SimpleNamespace(write=writes.append)) is None
        assert "".join(writes) == expected

    @pytest.mark.parametrize("name", list(HAND_BUILT))
    def test_hand_built_results(self, name):
        self.check(HAND_BUILT[name])

    @pytest.mark.parametrize(
        "policy", [Lexicographic(), SeededRandom(3)], ids=["seed-null", "seed-int"]
    )
    @pytest.mark.parametrize("log_removals", [True, False], ids=["log", "no-log"])
    @pytest.mark.parametrize(
        "validity", [MinSize(3), WeakCommunity(), StrongCommunity()], ids=repr
    )
    def test_detection_results(self, policy, log_removals, validity):
        for net in (barbell(), triangle(), demo_network()):
            config = DetectionConfig(
                alpha=1, validity=validity, tie_policy=policy, log_removals=log_removals
            )
            result = run_detection(net, config)
            assert bool(result.removals) == log_removals
            self.check(result)

    def test_odd_labels_through_detection(self):
        rng = random.Random(5)
        base = random_network(rng, max_nodes=len(ODD_LABELS), max_layers=2)
        rename = dict(zip(base.nodes(), ODD_LABELS))
        net = MultiLayerNetwork()
        for source, target, layer in base.edges():
            net.add_edge(rename[source], rename[target], layer)
        self.check(run_detection(net, DetectionConfig(alpha=1, validity=MinSize(2))))


class TestPartitionJson:
    def test_round_trip(self):
        partition = [{"a", "b"}, {"c"}, {"d", "e"}]
        text = json.dumps(partition_to_dict(partition))
        back = partition_from_json(text)
        assert sorted(sorted(b) for b in back) == [["a", "b"], ["c"], ["d", "e"]]

    def test_accepts_detection_output(self):
        result = run_detection(
            barbell(), DetectionConfig(alpha=1, validity=MinSize(3))
        )
        blocks = partition_from_json(write_result(result))
        assert sorted(sorted(b) for b in blocks) == [["a", "b", "c"], ["d", "e", "f"]]

    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            partition_from_json("[1, 2]")
