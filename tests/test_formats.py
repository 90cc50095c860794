"""Edge-list parsing, writing, and result JSON."""

import io
import json
import random
from types import SimpleNamespace

import pytest

from clecc import (
    CleccError,
    DetectionConfig,
    DuplicateEdgeError,
    MalformedLineError,
    MinSize,
    PlantedParams,
    SelfLoopError,
    demo_network,
    generate_planted,
    parse_edge_list,
    partition_from_json,
    partition_to_dict,
    run_detection,
    write_edge_list,
    write_result,
)
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
        # lines read from a file keep their newline, and so does the quote
        if error is MalformedLineError:
            message = message[:-1] + "\\n'"
        with pytest.raises(error) as err:
            parse_edge_list(io.StringIO(text))
        assert (err.value.line, str(err.value)) == (line, message)

    def test_custom_delimiter(self):
        parsed = parse_edge_list("source;target;layer\na;b;l1\n", delimiter=";")
        assert parsed.had_header
        assert parsed.network.has_edge("a", "b", "l1")

    def test_empty_delimiter_is_a_library_error(self):
        with pytest.raises(CleccError) as err:
            parse_edge_list("a,b,l1\n", delimiter="")
        assert "delimiter" in str(err.value) and "\n" not in str(err.value)
        with pytest.raises(CleccError):
            write_edge_list(demo_network(), delimiter="")

    def test_labels_stay_text(self):
        parsed = parse_edge_list("01,1,l1\n")
        assert set(parsed.network.nodes()) == {"01", "1"}


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
            (("a,comma", "b", "l1"), True),
            ((" a", "b", "l1"), True),
            (("a", "b ", "l1"), True),
            (("a", "b", "\tl1"), True),
            (("", "b", "l1"), True),
            (("a", "b", ""), True),
            (("a\u2028z", "b", "l1"), True),
            (("source", "target", "layer"), False),
            (("\ufeffa", "b", "l1"), False),
        ]
        for edge, header in cases:
            net = MultiLayerNetwork()
            net.add_edge(*edge)
            with pytest.raises(ValueError):
                write_edge_list(net, header=header)

    def test_header_like_row_round_trips_with_header(self):
        from clecc import MultiLayerNetwork

        net = MultiLayerNetwork()
        net.add_edge("source", "target", "layer")
        back = parse_edge_list(write_edge_list(net)).network
        assert list(back.edges()) == [("source", "target", "layer")]


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
