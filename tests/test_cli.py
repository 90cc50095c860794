"""Command-line surface: flags, exit codes, stdout/stderr discipline."""

import json

import pytest

from clecc import (
    DetectionConfig,
    MinSize,
    PlantedParams,
    cli,
    generate_planted,
    parse_edge_list,
    run_detection,
    write_edge_list,
    write_result,
)
from clecc.cli import cli_main
from conftest import toy2

BARBELL_CSV = """\
source,target,layer
a,b,l1
b,a,l1
a,c,l1
c,a,l1
b,c,l1
c,b,l1
d,e,l1
e,d,l1
d,f,l1
f,d,l1
e,f,l1
f,e,l1
c,d,l1
d,c,l1
"""


@pytest.fixture
def barbell_csv(tmp_path):
    path = tmp_path / "barbell.csv"
    path.write_text(BARBELL_CSV)
    return str(path)


@pytest.fixture
def toy2_csv(tmp_path):
    path = tmp_path / "toy2.csv"
    path.write_text(write_edge_list(toy2()))
    return str(path)


def test_detect_barbell(barbell_csv, capsys):
    code = cli_main(
        ["detect", "--input", barbell_csv, "--alpha", "1", "--validity", "min-size:3"]
    )
    out = capsys.readouterr()
    assert code == 0
    doc = json.loads(out.out)
    assert [g["nodes"] for g in doc["groups"]] == [["a", "b", "c"], ["d", "e", "f"]]
    assert doc["removals"] == []  # --log-removals not given


def test_detect_log_removals(barbell_csv, capsys):
    code = cli_main(
        [
            "detect", "--input", barbell_csv, "--alpha", "1",
            "--validity", "min-size:3", "--log-removals",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["removals"][0]["pair"] == ["c", "d"]


def test_detect_alpha_out_of_range(tmp_path, capsys):
    path = tmp_path / "three_layer.csv"
    path.write_text("a,b,l1\na,b,l2\na,b,l3\n")
    code = cli_main(["detect", "--input", str(path), "--alpha", "5"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""  # no partial results on stdout
    assert "[1, 3]" in out.err


def test_detect_random_needs_seed(barbell_csv, capsys):
    code = cli_main(["detect", "--input", barbell_csv, "--alpha", "1", "--ties", "random"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert "--seed" in out.err


def test_detect_seed_without_random(barbell_csv, capsys):
    code = cli_main(["detect", "--input", barbell_csv, "--alpha", "1", "--seed", "3"])
    assert code == 1


def test_detect_output_file(barbell_csv, tmp_path, capsys):
    dest = tmp_path / "result.json"
    code = cli_main(
        [
            "detect", "--input", barbell_csv, "--alpha", "1",
            "--validity", "min-size:3", "--output", str(dest),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(dest.read_text())["alpha"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "--alpha", "1"],
        [
            "generate", "planted", "--sizes", "4,4", "--layers", "1",
            "--p-in", "0.5", "--p-out", "0.1", "--seed", "5",
        ],
    ],
    ids=["detect", "generate-planted"],
)
def test_unwritable_output_is_data_error(barbell_csv, tmp_path, capsys, argv):
    if argv[0] == "detect":
        argv = argv + ["--input", barbell_csv]
    code = cli_main(argv + ["--output", str(tmp_path / "missing-dir" / "out")])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("validity", ["bogus", "min-size:0", "min-size:x"])
def test_detect_bad_validity_is_usage_error(barbell_csv, capsys, validity):
    code = cli_main(
        ["detect", "--input", barbell_csv, "--alpha", "1", "--validity", validity]
    )
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith("usage error: ") and out.err.count("\n") == 1


def test_detect_oracle_flag(barbell_csv, capsys):
    code = cli_main(
        [
            "detect", "--input", barbell_csv, "--alpha", "1",
            "--validity", "min-size:3", "--oracle",
        ]
    )
    out = capsys.readouterr()
    assert code == 0
    assert "oracle check passed" in out.err


def test_detect_stdout_output_and_oracle_bytes_agree(tmp_path, capsys):
    # no side ever qualifies, so every pair is logged: a removal log long
    # enough to be written in several batches
    planted = generate_planted(
        PlantedParams(sizes=(20, 20), layers=2, p_in=0.3, p_out=0.02, seed=3)
    )
    path = tmp_path / "planted.csv"
    path.write_text(write_edge_list(planted.network))
    argv = [
        "detect", "--input", str(path), "--alpha", "1",
        "--validity", "min-size:1000", "--log-removals",
    ]
    config = DetectionConfig(alpha=1, validity=MinSize(1000), log_removals=True)
    net = parse_edge_list(path.read_text()).network
    expected = write_result(run_detection(net, config), pretty=True) + "\n"
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == expected
    dest = tmp_path / "result.json"
    assert cli_main(argv + ["--output", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert dest.read_bytes() == expected.encode()
    assert cli_main(argv + ["--oracle"]) == 0
    out = capsys.readouterr()
    assert out.out == expected and "oracle check passed" in out.err


def test_detect_missing_input_file(tmp_path, capsys):
    code = cli_main(["detect", "--input", str(tmp_path / "nope.csv"), "--alpha", "1"])
    assert code == 2


def test_detect_dedupe(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("x,y,l1\nx,y,l1\ny,x,l1\n")
    code = cli_main(["detect", "--input", str(path), "--alpha", "1", "--dedupe"])
    out = capsys.readouterr()
    assert code == 0
    assert "1 duplicate" in out.err


def test_detect_delimiter(tmp_path, capsys):
    path = tmp_path / "semi.csv"
    path.write_text("a;b;l1\nb;a;l1\n")
    code = cli_main(
        ["detect", "--input", str(path), "--alpha", "1", "--delimiter", ";"]
    )
    assert code == 0


def test_measure_pair(toy2_csv, capsys):
    code = cli_main(["measure", "--input", toy2_csv, "--alpha", "2", "--pair", "x,y"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == "0.0\n"


def test_measure_table(toy2_csv, capsys):
    code = cli_main(["measure", "--input", toy2_csv, "--alpha", "2"])
    out = capsys.readouterr()
    assert code == 0
    lines = out.out.strip().split("\n")
    assert lines[0] == "x,y,clecc"
    assert lines[1:] == ["u,x,0.0", "x,y,0.0"]


def test_measure_oracle(toy2_csv, capsys):
    code = cli_main(["measure", "--input", toy2_csv, "--alpha", "2", "--oracle"])
    assert code == 0


def test_measure_unknown_pair(toy2_csv, capsys):
    code = cli_main(["measure", "--input", toy2_csv, "--alpha", "1", "--pair", "x,zz"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""


def test_measure_pair_same_node_is_usage_error(toy2_csv, capsys):
    code = cli_main(["measure", "--input", toy2_csv, "--alpha", "1", "--pair", "x,x"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith("usage error: ") and "distinct" in out.err


def test_measure_delimiter_and_dedupe(tmp_path, capsys):
    path = tmp_path / "semi_dup.csv"
    path.write_text("x;y;l1\nx;y;l1\ny;x;l1\ny;u;l1\n")
    argv = ["measure", "--input", str(path), "--alpha", "1"]
    assert cli_main(argv) == 2  # a ';' line is one malformed field
    capsys.readouterr()
    assert cli_main([*argv, "--delimiter", ";"]) == 2  # duplicate edge
    capsys.readouterr()
    assert cli_main([*argv, "--delimiter", ";", "--dedupe"]) == 0
    out = capsys.readouterr()
    assert out.out == "x,y,clecc\nu,y,0.0\nx,y,0.0\n"
    assert "1 duplicate" in out.err


def test_measure_empty_delimiter(toy2_csv, capsys):
    code = cli_main(["measure", "--input", toy2_csv, "--alpha", "1", "--delimiter", ""])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert "usage error" in out.err and "--delimiter" in out.err


@pytest.mark.parametrize("command", ["detect", "measure"])
def test_non_utf8_input_is_data_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.csv"
    path.write_bytes("caf\xe9,b,l1\n".encode("latin-1"))
    code = cli_main([command, "--input", str(path), "--alpha", "1"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: ") and "UTF-8" in out.err
    assert out.err.count("\n") == 1


def test_internal_value_error_is_not_a_data_error(toy2_csv, monkeypatch):
    def broken(net, alpha):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "clecc_table", broken)
    with pytest.raises(ValueError, match="internal bug"):
        cli_main(["measure", "--input", toy2_csv, "--alpha", "1"])


def test_generate_planted_round_trip(tmp_path, capsys):
    edge_file = tmp_path / "net.csv"
    truth_file = tmp_path / "truth.json"
    code = cli_main(
        [
            "generate", "planted", "--sizes", "6,6", "--layers", "2",
            "--p-in", "0.9", "--p-out", "0.1", "--seed", "5",
            "--output", str(edge_file), "--truth", str(truth_file),
        ]
    )
    assert code == 0
    net = parse_edge_list(edge_file.read_text()).network
    assert net.node_count == 12
    truth = json.loads(truth_file.read_text())
    assert [g["id"] for g in truth["groups"]] == [0, 1]


def test_generate_planted_bad_probability(tmp_path, capsys):
    code = cli_main(
        [
            "generate", "planted", "--sizes", "4", "--layers", "1",
            "--p-in", "1.5", "--p-out", "0.1", "--seed", "5",
            "--output", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 1


def test_generate_scenario4(tmp_path):
    dest = tmp_path / "scenario.csv"
    code = cli_main(["generate", "scenario4", "--seed", "7", "--output", str(dest)])
    assert code == 0
    # 110k edge lines plus header
    assert sum(1 for _ in dest.open()) == 110_001


def test_eval_nmi(tmp_path, capsys):
    truth = tmp_path / "truth.json"
    predicted = tmp_path / "pred.json"
    truth.write_text(json.dumps({"groups": [{"id": 0, "nodes": ["a", "b"]}], "singletons": ["c"]}))
    predicted.write_text(json.dumps({"groups": [{"id": 0, "nodes": ["a", "b"]}], "singletons": ["c"]}))
    code = cli_main(["eval", "nmi", "--truth", str(truth), "--predicted", str(predicted)])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == "1.0\n"


def test_eval_nmi_domain_mismatch(tmp_path, capsys):
    truth = tmp_path / "truth.json"
    predicted = tmp_path / "pred.json"
    truth.write_text(json.dumps({"groups": [], "singletons": ["a", "b"]}))
    predicted.write_text(json.dumps({"groups": [], "singletons": ["a", "c"]}))
    code = cli_main(["eval", "nmi", "--truth", str(truth), "--predicted", str(predicted)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == (
        "error: --truth and --predicted cover different node sets: "
        "node 'b' is only in --truth (2 vs 2 nodes)\n"
    )
    predicted.write_text(json.dumps({"groups": [], "singletons": ["a", "b", "c"]}))
    code = cli_main(["eval", "nmi", "--truth", str(truth), "--predicted", str(predicted)])
    assert code == 2
    assert "node 'c' is only in --predicted (2 vs 3 nodes)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, complaint",
    [
        ('{"groups": [{"id": 0}]}', "no list of nodes"),
        ('{"groups": 5}', "must be lists"),
        ('{"groups": [', "not valid JSON"),
        ('{"groups": ' + "[" * 100_000 + "]" * 100_000 + "}", "nested too deeply"),
        ('{"groups": [["a", null]]}', "group 0 has a node that is not a string"),
        ('{"groups": [["a"], [true, "b"]]}', "group 1 has a node that is not a string"),
        ('{"groups": [{"nodes": [{"x": 1}]}]}', "group 0 has a node that is not a string"),
        ('{"singletons": ["a", ["c"]]}', "singleton 1 is not a string"),
        ('{"singletons": [1]}', "singleton 0 is not a string"),
        ('{"groups": [["a", "a", "b"]], "singletons": ["c"]}', "group 0 lists node 'a' twice"),
        ('{"groups": [["a"], []]}', "group 1 is empty"),
        ('{"groups": [["a", "b"], ["c", "b"]]}', "node 'b' is in both group 0 and group 1"),
        ('{"groups": [["a", "b"]], "singletons": ["b"]}', "node 'b' is in both group 0 and singleton 0"),
        ('{"singletons": ["a", "c", "a"]}', "node 'a' is in both singleton 0 and singleton 2"),
    ],
    ids=[
        "group-without-nodes",
        "groups-not-a-list",
        "invalid-json",
        "nested-too-deeply",
        "null-node",
        "boolean-node",
        "object-node",
        "list-singleton",
        "number-singleton",
        "node-twice-in-a-group",
        "empty-group",
        "node-in-two-groups",
        "node-in-a-group-and-a-singleton",
        "node-in-two-singletons",
    ],
)
def test_eval_nmi_malformed_partition(tmp_path, capsys, text, complaint):
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    good.write_text(json.dumps({"groups": [], "singletons": ["a"]}))
    bad.write_text(text)
    # the message names the flag that gave the bad file, on either side
    for flag, argv in [
        ("--predicted", ["--truth", str(good), "--predicted", str(bad)]),
        ("--truth", ["--truth", str(bad), "--predicted", str(good)]),
    ]:
        code = cli_main(["eval", "nmi", *argv])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err.startswith(f"error: {flag}: ") and complaint in out.err
        assert out.err.count("\n") == 1


def test_byte_order_mark_is_not_part_of_the_input(tmp_path, capsys):
    # spreadsheet "CSV UTF-8" exports start the file with U+FEFF; it must
    # not turn the header into an edge, nor a JSON file into an error
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(BARBELL_CSV, encoding="utf-8")
    marked.write_text("\ufeff" + BARBELL_CSV, encoding="utf-8")
    outputs = {}
    for path in (plain, marked):
        for argv in [
            ["detect", "--input", str(path), "--alpha", "1", "--log-removals"],
            ["measure", "--input", str(path), "--alpha", "1"],
        ]:
            assert cli_main(argv) == 0
            outputs.setdefault(argv[0], []).append(capsys.readouterr().out)
    assert outputs["detect"][0] == outputs["detect"][1]
    assert outputs["measure"][0] == outputs["measure"][1]
    assert "\ufeff" not in outputs["measure"][1] and "target" not in outputs["measure"][1]

    truth = json.dumps({"groups": [["a", "b", "c", "d"]], "singletons": ["e", "f"]})
    truth_path, predicted_path = tmp_path / "truth.json", tmp_path / "predicted.json"
    scores = []
    for mark in ("", "\ufeff"):
        truth_path.write_text(mark + truth, encoding="utf-8")
        predicted_path.write_text(mark + outputs["detect"][0], encoding="utf-8")
        argv = ["eval", "nmi", "--truth", str(truth_path), "--predicted", str(predicted_path)]
        assert cli_main(argv) == 0
        scores.append(capsys.readouterr().out)
    assert scores[0] == scores[1] and 0 < float(scores[0]) < 1


def test_detect_empty_delimiter(barbell_csv, capsys):
    code = cli_main(["detect", "--input", barbell_csv, "--alpha", "1", "--delimiter", ""])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert "usage error" in out.err and "--delimiter" in out.err


def test_unicode_labels_round_trip(tmp_path, capsys):
    # an isolated dyad always dissolves: its pair is removed (value 1.0
    # by the 0/0 convention) and both size-1 sides become singletons
    path = tmp_path / "uni.csv"
    path.write_text("ánna,– bob –,приязнь\n– bob –,ánna,приязнь\n", encoding="utf-8")
    code = cli_main(["detect", "--input", str(path), "--alpha", "1", "--validity", "min-size:2"])
    out = capsys.readouterr()
    assert code == 0
    doc = json.loads(out.out)
    assert doc["groups"] == []
    assert doc["singletons"] == sorted(["ánna", "– bob –"])


def test_detect_empty_input(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("# nothing but comments\n")
    code = cli_main(["detect", "--input", str(path), "--alpha", "1"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""


@pytest.mark.parametrize("text", ["# only a comment\n", "\ufeff"], ids=["comments", "bom"])
@pytest.mark.parametrize("pair", [[], ["--pair", "a,b"]], ids=["table", "pair"])
def test_measure_edgeless_input(tmp_path, capsys, text, pair):
    path = tmp_path / "edgeless.csv"
    path.write_text(text, encoding="utf-8")
    code = cli_main(["measure", "--input", str(path), "--alpha", "1", *pair])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == f"error: {path} holds no edges, so there is nothing to measure\n"


def test_unknown_flag(capsys):
    assert cli_main(["detect", "--nope"]) == 1


def test_missing_command(capsys):
    code = cli_main([])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
