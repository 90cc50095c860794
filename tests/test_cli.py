"""Command-line surface: flags, exit codes, stdout/stderr discipline."""

import json
import os
import stat
import subprocess
import sys
from collections import Counter

import pytest

from clecc import (
    CleccTable,
    DetectionConfig,
    DetectionResult,
    MinSize,
    PlantedParams,
    cli,
    clecc_table,
    generate_planted,
    parse_edge_list,
    reference,
    run_detection,
    write_edge_list,
    write_result,
)
from clecc.cli import cli_main
from conftest import src_env, toy2

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


def test_measure_alpha_out_of_range(tmp_path, capsys):
    # the range is checked before the writer starts, so not even the
    # header reaches stdout
    path = tmp_path / "three_layer.csv"
    path.write_text("a,b,l1\na,b,l2\na,b,l3\n")
    code = cli_main(["measure", "--input", str(path), "--alpha", "5"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "[1, 3]" in out.err


@pytest.mark.parametrize("command", ["detect", "measure"])
@pytest.mark.parametrize("alpha", ["0", "-1"])
@pytest.mark.parametrize("source", ["file", "missing"])
def test_alpha_below_one_is_usage_error(barbell_csv, tmp_path, capsys, command, alpha, source):
    # refused while the flags are parsed: the input is not opened and an
    # existing output is left as it was
    path = barbell_csv if source == "file" else str(tmp_path / "missing.csv")
    output = tmp_path / "out.txt"
    output.write_bytes(b"earlier output\n")
    for extra in ([], ["--output", str(output)]):
        code = cli_main([command, "--input", path, "--alpha", alpha, *extra])
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        message = f"must be an integer of at least 1, got {alpha!r}"
        assert out.err == f"usage error: argument --alpha: {message}\n"
        assert output.read_bytes() == b"earlier output\n"


def seed_argv(command: str, seed: str, tmp_path, source: str) -> list[str]:
    """A run of ``command`` that draws from ``--seed``, writing under ``tmp_path``."""
    output = ["--output", str(tmp_path / "out.txt")]
    return {
        "detect": ["detect", "--input", source, "--alpha", "1", "--ties", "random"],
        "planted": [
            "generate", "planted", "--sizes", "6,6", "--layers", "1",
            "--p-in", "0.9", "--p-out", "0.1", "--truth", str(tmp_path / "truth.json"),
        ],
        "scenario4": ["generate", "scenario4"],
    }[command] + ["--seed", seed, *output]


@pytest.mark.parametrize("command", ["detect", "planted", "scenario4"])
@pytest.mark.parametrize("seed", ["-5", "-1"])
def test_negative_seed_is_usage_error(barbell_csv, tmp_path, capsys, command, seed):
    # random.Random(-5) would draw what random.Random(5) draws; the seed is
    # refused before any input is read, even a missing one, or anything made
    for source in (barbell_csv, str(tmp_path / "missing.csv")):
        code = cli_main(seed_argv(command, seed, tmp_path, source))
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert out.err == f"usage error: seed must be >= 0, got {seed}\n"
        assert not (tmp_path / "out.txt").exists()
        assert not (tmp_path / "truth.json").exists()


@pytest.mark.parametrize("command", ["detect", "planted", "scenario4"])
def test_seed_zero_is_a_seed(barbell_csv, tmp_path, command):
    assert cli_main(seed_argv(command, "0", tmp_path, barbell_csv)) == 0
    assert (tmp_path / "out.txt").stat().st_size


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
    a_file = tmp_path / "a-file"
    a_file.write_text("kept\n")
    for dest in (tmp_path / "missing-dir" / "out", a_file / "out.json"):
        code = cli_main(argv + ["--output", str(dest)])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert a_file.read_text() == "kept\n"


def test_output_through_a_link_keeps_the_file_mode(barbell_csv, tmp_path):
    # as open(path, "w") does: the link's file is rewritten, mode and all
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_text("earlier\n")
    real.chmod(0o640)
    link.symlink_to(real)
    assert cli_main(["detect", "--input", barbell_csv, "--alpha", "1", "--output", str(link)]) == 0
    assert link.is_symlink() and json.loads(real.read_text())["groups"]
    assert real.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["barbell.csv", "link.json", "real.json"]


def detect_to(barbell_csv, output) -> int:
    return cli_main(["detect", "--input", barbell_csv, "--alpha", "1", "--output", str(output)])


def test_output_skips_a_temporary_name_in_use(barbell_csv, tmp_path):
    dest = tmp_path / "out.json"
    taken = tmp_path / f".out.json.{os.getpid()}.0.tmp"
    taken.write_text("someone else's\n")
    assert detect_to(barbell_csv, dest) == 0
    assert json.loads(dest.read_text())["groups"]
    assert taken.read_text() == "someone else's\n"
    assert {p.name for p in tmp_path.iterdir()} == {"barbell.csv", taken.name, "out.json"}


def test_output_to_the_null_device_keeps_the_device(barbell_csv, capsys):
    # a device is written in place, never replaced by a regular file
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert detect_to(barbell_csv, os.devnull) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert capsys.readouterr().out == ""
    left = os.listdir(os.path.dirname(os.devnull))
    assert not [name for name in left if name.endswith(".tmp")]


def test_output_keeps_the_exact_mode(barbell_csv, tmp_path):
    # a mode the umask would mask stays as it was
    dest = tmp_path / "out.json"
    dest.write_text("earlier\n")
    dest.chmod(0o664)
    umask = os.umask(0o022)
    try:
        assert detect_to(barbell_csv, dest) == 0
    finally:
        os.umask(umask)
    assert dest.stat().st_mode & 0o777 == 0o664 and json.loads(dest.read_text())["groups"]


def test_read_only_output_is_written_as_open_would(barbell_csv, tmp_path, capsys):
    # refused where open(path, "w") is refused, and left as it was;
    # written where it may be written, still read-only
    dest = tmp_path / "out.json"
    dest.write_text("earlier\n")
    dest.chmod(0o444)
    writable = os.access(dest, os.W_OK)
    code = detect_to(barbell_csv, dest)
    err = capsys.readouterr().err
    if writable:
        assert code == 0 and json.loads(dest.read_text())["groups"]
    else:
        assert code == 2 and err.startswith("error: ") and str(dest) in err
        assert dest.read_text() == "earlier\n"
    assert dest.stat().st_mode & 0o777 == 0o444
    assert sorted(p.name for p in tmp_path.iterdir()) == ["barbell.csv", "out.json"]


def test_output_keeps_hard_links(barbell_csv, tmp_path):
    dest, other = tmp_path / "out.json", tmp_path / "other.json"
    dest.write_text("earlier\n")
    os.link(dest, other)
    assert detect_to(barbell_csv, dest) == 0
    assert os.path.samefile(dest, other) and json.loads(other.read_text())["groups"]


def test_output_in_a_read_only_directory(barbell_csv, tmp_path):
    # a writable file in a directory that takes no new file is written
    # in place
    directory = tmp_path / "fixed"
    directory.mkdir()
    dest = directory / "out.json"
    dest.write_text("earlier\n")
    directory.chmod(0o555)
    try:
        assert detect_to(barbell_csv, dest) == 0
        assert json.loads(dest.read_text())["groups"]
        assert [p.name for p in directory.iterdir()] == ["out.json"]
    finally:
        directory.chmod(0o755)


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


def test_detect_oracle_needs_lex_ties(barbell_csv, capsys):
    argv = ["detect", "--input", barbell_csv, "--alpha", "1", "--ties", "random"]
    code = cli_main([*argv, "--seed", "1", "--oracle"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith("usage error: --oracle needs --ties lex")


def test_detect_oracle_mismatch_writes_nothing(barbell_csv, capsys, monkeypatch):
    def no_groups(net, config):
        return DetectionResult(config=config, groups=[], singletons=net.nodes(), removals=[])

    monkeypatch.setattr(reference, "naive_detect", no_groups)
    code = cli_main(
        [
            "detect", "--input", barbell_csv, "--alpha", "1",
            "--validity", "min-size:3", "--oracle",
        ]
    )
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == "error: optimized detection and brute-force reference disagree\n"


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


@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["plain", "oracle"])
def test_measure_table_builds_no_table(toy2_csv, capsys, monkeypatch, oracle):
    def refused(self, *args):
        raise AssertionError("measure built a CleccTable")

    monkeypatch.setattr(CleccTable, "__init__", refused)
    code = cli_main(["measure", "--input", toy2_csv, "--alpha", "1", *oracle])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == "x,y,clecc\nu,x,1.0\nu,y,1.0\nx,y,1.0\n"


def test_measure_oracle(toy2_csv, capsys):
    code = cli_main(["measure", "--input", toy2_csv, "--alpha", "2", "--oracle"])
    assert code == 0


def test_measure_oracle_mismatch_writes_nothing(toy2_csv, capsys, monkeypatch):
    # only the last row disagrees: a check made while writing would
    # already have sent the rows before it
    real = reference.naive_clecc

    def last_row_wrong(net, x, y, alpha):
        return -1.0 if (x, y) == ("x", "y") else real(net, x, y, alpha)

    monkeypatch.setattr(reference, "naive_clecc", last_row_wrong)
    code = cli_main(["measure", "--input", toy2_csv, "--alpha", "1", "--oracle"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == "error: optimized and reference values disagree for pair ('x', 'y')\n"


def test_measure_table_in_several_batches(tmp_path, capsys):
    # more rows than one write takes; the rows are the table's items
    net = generate_planted(
        PlantedParams(sizes=(50, 50, 50), layers=2, p_in=0.4, p_out=0.05, seed=4)
    ).network
    path = tmp_path / "net.csv"
    path.write_text(write_edge_list(net))
    table = cli.clecc_table(net, 1)
    assert len(table) > 2 * cli._MEASURE_BATCH
    assert cli_main(["measure", "--input", str(path), "--alpha", "1"]) == 0
    rows = [f"{a},{b},{value!r}" for (a, b), value in table.items()]
    assert capsys.readouterr().out == "\n".join(["x,y,clecc", *rows]) + "\n"


def test_traced_cli_names_are_called(barbell_csv, capsys, monkeypatch):
    # the benchmark's traced pass times these four clecc.cli bindings by
    # name; a command that stopped calling one would read 0 s there
    names = ("parse_edge_list", "clecc_table", "run_detection", "write_result")
    # measure no longer calls clecc_table, but the traced pass still wraps it
    assert cli.clecc_table is clecc_table
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    assert cli_main(["detect", "--input", barbell_csv, "--alpha", "1"]) == 0
    assert calls == {"parse_edge_list": 1, "run_detection": 1, "write_result": 1}
    calls.clear()
    assert cli_main(["measure", "--input", barbell_csv, "--alpha", "1"]) == 0
    assert calls == {"parse_edge_list": 1}  # the rows come from no table
    # the traced pass's probe takes the indented text back positionally
    result = run_detection(parse_edge_list(BARBELL_CSV).network, DetectionConfig(alpha=1))
    assert json.loads(write_result(result, True))["removals"]


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


@pytest.mark.parametrize("pair", ["a", "a,", "a,b,c"])
def test_measure_pair_needs_two_labels(toy2_csv, capsys, pair):
    code = cli_main(["measure", "--input", toy2_csv, "--alpha", "1", "--pair", pair])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err == "usage error: --pair expects two comma-separated node labels\n"


def test_measure_pair_oracle_mismatch(toy2_csv, capsys, monkeypatch):
    monkeypatch.setattr(reference, "naive_clecc", lambda net, x, y, alpha: -1.0)
    argv = ["measure", "--input", toy2_csv, "--alpha", "1", "--pair", "x,y", "--oracle"]
    code = cli_main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == "error: optimized and reference values disagree for pair ('x', 'y')\n"


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


def test_malformed_file_line_quoted_as_written(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("a,b\n")
    assert cli_main(["detect", "--input", str(path), "--alpha", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: line 1: expected 3 non-empty fields separated by ',', got 'a,b'\n"
    )


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

    monkeypatch.setattr(cli, "clecc_rows", broken)
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


def test_generate_planted_unopenable_output_writes_no_truth(tmp_path, capsys):
    truth_file = tmp_path / "truth.json"
    code = cli_main(
        [
            "generate", "planted", "--sizes", "6,6", "--layers", "1",
            "--p-in", "0.9", "--p-out", "0.1", "--seed", "5",
            "--output", str(tmp_path / "missing" / "net.csv"),
            "--truth", str(truth_file),
        ]
    )
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert not truth_file.exists()


@pytest.mark.parametrize(
    "exists,truth",
    [
        pytest.param(exists, truth, id=f"{'existing' if exists else 'new'}-{truth}")
        for exists in (False, True)
        for truth in ("same", "dot", "link")
    ]
    # two names of one file, each given as --output in turn
    + [pytest.param(True, order, id=order) for order in ("hardlink", "hardlink-swapped")],
)
def test_generate_planted_truth_onto_output_is_usage_error(tmp_path, capsys, truth, exists):
    edge_file = tmp_path / "net.csv"
    if exists:
        edge_file.write_text("kept\n")
    output, truth_path = str(edge_file), {
        "same": str(edge_file),
        "dot": os.path.join(str(tmp_path), ".", "net.csv"),
    }.get(truth, str(tmp_path / "link.csv"))
    if truth == "link":
        os.symlink(edge_file, truth_path)
    elif truth.startswith("hardlink"):
        os.link(edge_file, truth_path)
        if truth == "hardlink-swapped":
            output, truth_path = truth_path, output

    def files():  # each name and its bytes (None for a dangling link)
        return {
            name: (tmp_path / name).read_bytes() if (tmp_path / name).exists() else None
            for name in os.listdir(tmp_path)
        }

    before = files()
    code = cli_main(
        [
            "generate", "planted", "--sizes", "6,6", "--layers", "1",
            "--p-in", "0.9", "--p-out", "0.1", "--seed", "5",
            "--output", output, "--truth", truth_path,
        ]
    )
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith("usage error: ") and out.err.count("\n") == 1
    # no file is written: only the files made above are there, as they were
    assert files() == before


def test_generate_planted_bad_probability(tmp_path, capsys):
    code = cli_main(
        [
            "generate", "planted", "--sizes", "4", "--layers", "1",
            "--p-in", "1.5", "--p-out", "0.1", "--seed", "5",
            "--output", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 1


def test_generate_planted_bad_sizes(tmp_path, capsys):
    code = cli_main(
        [
            "generate", "planted", "--sizes", "4,x", "--layers", "1",
            "--p-in", "0.5", "--p-out", "0.1", "--seed", "5",
            "--output", str(tmp_path / "x.csv"),
        ]
    )
    out = capsys.readouterr()
    assert code == 1
    assert out.err == "usage error: --sizes expects comma-separated integers, got '4,x'\n"
    assert not (tmp_path / "x.csv").exists()


def test_generate_scenario4(tmp_path):
    dest = tmp_path / "scenario.csv"
    code = cli_main(["generate", "scenario4", "--seed", "7", "--output", str(dest)])
    assert code == 0
    # 110k edge lines plus header
    assert dest.read_text(encoding="utf-8").count("\n") == 110_001


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


@pytest.mark.parametrize(
    "argv, name",
    [([], "COMMAND"), (["generate"], "MODEL"), (["eval"], "METRIC")],
    ids=["top", "generate", "eval"],
)
def test_missing_subcommand_is_one_usage_line(argv, name, capsys):
    code = cli_main(argv)
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err == f"usage error: the following arguments are required: {name}\n"


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0


@pytest.fixture(scope="module")
def planted_1200_csv(tmp_path_factory):
    """Twelve blocks of 100: measure and detect outputs of about 400 KB."""
    planted = generate_planted(
        PlantedParams(sizes=(100,) * 12, layers=2, p_in=0.1, p_out=0.002, seed=1)
    )
    path = tmp_path_factory.mktemp("pipe") / "planted.csv"
    path.write_text(write_edge_list(planted.network))
    return str(path)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["measure", "detect"])
@pytest.mark.parametrize("reader", ["first-line", "none"])
def test_closed_stdout_is_a_one_line_error(
    command, unbuffered, reader, planted_1200_csv, barbell_csv
):
    # "first-line" reads one line and leaves, as ``| head -1`` does, from
    # an output several times the pipe's capacity, so later writes fail;
    # "none" closes the pipe before the small barbell output is written,
    # so buffered output fails only on the last flush
    argv = [command, "--input", planted_1200_csv, "--alpha", "1"]
    if reader == "none":
        argv[2] = barbell_csv
    elif command == "detect":
        argv.append("--log-removals")
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_fd, write_fd = os.pipe()
    if reader == "none":
        os.close(read_fd)
    proc = subprocess.Popen(
        [sys.executable, "-m", "clecc", *argv],
        stdout=write_fd,
        stderr=subprocess.PIPE,
        env=env,
    )
    os.close(write_fd)
    if reader == "first-line":
        with open(read_fd, "rb") as pipe:
            first = pipe.readline()
        assert first == (b"x,y,clecc\n" if command == "measure" else b"{\n")
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err == b"error: [Errno 32] Broken pipe\n"


def test_unencodable_output_is_a_one_line_error(tmp_path):
    path = tmp_path / "cafe.csv"
    path.write_text("café,b,l1\nb,café,l1\n", encoding="utf-8")
    env = src_env()
    env["PYTHONIOENCODING"] = "ascii"

    def run(command):
        argv = [sys.executable, "-m", "clecc", command, "--input", str(path), "--alpha", "1"]
        return subprocess.run(argv, capture_output=True, env=env, timeout=120)

    measure = run("measure")
    assert measure.returncode == 2
    assert measure.stdout == b""
    assert measure.stderr.startswith(b"error: output cannot be encoded: ")
    assert measure.stderr.count(b"\n") == 1 and b"Traceback" not in measure.stderr
    # detect's JSON escapes every non-ASCII label
    detect = run("detect")
    assert detect.returncode == 0 and b'"caf\\u00e9"' in detect.stdout


def test_unencodable_label_without_rows_is_not_an_error(tmp_path):
    # at alpha 2 only b and c are multi-layer neighbours, so no row names café
    path = tmp_path / "cafe.csv"
    path.write_text("café,b,l1\nb,c,l1\nc,b,l2\n", encoding="utf-8")
    env = src_env()
    env["PYTHONIOENCODING"] = "ascii"
    argv = [sys.executable, "-m", "clecc", "measure", "--input", str(path), "--alpha", "2"]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"x,y,clecc\nb,c,1.0\n"
