"""The A/B benchmark runner's summary, on synthetic results.

No test here runs the benchmark: git, the export and each benchmark run
are replaced by fakes.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
SPEC = importlib.util.spec_from_file_location("bench_ab", PATH)
bench_ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_ab)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "score", "unit": "1", "better": "higher", "bound": 0.1},
]


def runs(**sides):
    """``{side: [{"wall_s": v, "score": v} or None, ...]}`` from value lists."""
    return {
        side: [None if v is None else {"wall_s": v, "score": v} for v in values]
        for side, values in sides.items()
    }


def test_medians_and_quartiles():
    summary = bench_ab.summarize(runs(base=[5, 1, 4, 2, 3], head=[2, 2, 2, 2, 2]), METRICS)
    base = summary["wall_s"]["base"]
    assert base["values"] == [5, 1, 4, 2, 3]
    assert base["median"] == 3
    assert base["quartiles"] == [1.5, 3.0, 4.5]
    assert summary["wall_s"]["change"] == pytest.approx(-1 / 3)


def test_one_run_has_no_quartiles():
    summary = bench_ab.summarize(runs(base=[2.0], head=[1.0]), METRICS)
    assert summary["wall_s"]["head"] == {"values": [1.0], "median": 1.0, "quartiles": None}
    assert summary["wall_s"]["change"] == -0.5


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    summary = bench_ab.summarize(runs(base=[1, 2, 3, 4], head=[0.5, 2, 4, 4]), METRICS)
    assert summary["wall_s"]["head_won"] == 1
    assert summary["score"]["head_won"] == 1


def test_bound_and_direction_are_copied():
    summary = bench_ab.summarize(runs(base=[1], head=[1]), METRICS)
    assert [(s["bound"], s["better"]) for s in summary.values()] == [
        (0.25, "lower"),
        (0.1, "higher"),
    ]


def test_a_failed_run_wins_for_neither_side():
    summary = bench_ab.summarize(runs(base=[1, None, 3], head=[0.5, 0.5, None]), METRICS)
    wall = summary["wall_s"]
    assert wall["base"]["values"] == [1, None, 3]
    assert wall["base"]["median"] == 2
    assert wall["head"]["median"] == 0.5
    assert wall["head_won"] == 1


def test_all_runs_failed():
    summary = bench_ab.summarize(runs(base=[None], head=[1]), METRICS)
    assert summary["wall_s"]["base"]["median"] is None
    assert summary["wall_s"]["change"] is None
    assert summary["wall_s"]["head_won"] == 0


def test_report_from_fake_runs(monkeypatch, tmp_path):
    calls = []

    def fake_run(tree, workload, seconds):
        side = "base" if tree == trees["base"] else "head"
        calls.append(side)
        if side == "head" and len(calls) == 3:  # pair 2 runs the head first
            return None, "exit code 2: error: boom"
        value = 1.0 if side == "base" else 0.9
        return {"wall_s": value, "peak_rss_mib": 10 * value, "setup_s": value}, ""

    exported = {}
    trees = {"base": tmp_path / "a", "head": tmp_path / "b"}
    monkeypatch.setattr(bench_ab, "TREES", trees)
    replies = {"stash": "stash1", "ls-files": ""}
    monkeypatch.setattr(bench_ab, "git", lambda *args: replies.get(args[0], "c0"))
    monkeypatch.setattr(bench_ab, "export", lambda commit, tree: exported.update({tree: commit}))
    monkeypatch.setattr(bench_ab, "run_once", fake_run)
    output = tmp_path / "ab.json"
    argv = ["--workload", "planted-a1-lex", "--pairs", "3", "--seconds", "2", "--output", str(output)]
    assert bench_ab.main(argv) == 0

    assert calls == ["base", "head", "head", "base", "base", "head"]
    assert exported == {trees["base"]: "c0", trees["head"]: "stash1"}
    report = json.loads(output.read_text(encoding="utf-8"))
    assert set(report) == {
        "base", "head", "python", "nproc", "seconds", "pairs", "workloads", "failed",
    }
    assert report["base"] == {"rev": "HEAD", "commit": "c0"}
    assert report["head"] == {"rev": "working tree", "commit": "c0", "dirty": True}
    assert (report["seconds"], report["pairs"]) == (2.0, 3)
    assert report["failed"] == [
        {"side": "head", "workload": "planted-a1-lex", "pair": 2, "error": "exit code 2: error: boom"}
    ]
    bench = json.loads((PATH.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = report["workloads"]["planted-a1-lex"]
    assert list(metrics) == [metric["name"] for metric in bench["end_to_end"]]
    wall = metrics["wall_s"]
    assert set(wall) == {"base", "head", "head_won", "change", "better", "bound"}
    assert wall["head"]["values"] == [0.9, None, 0.9]
    assert wall["head_won"] == 2


def test_untracked_files_stop_a_working_tree_run(monkeypatch, tmp_path, capsys):
    replies = {"ls-files": "notes.txt"}
    monkeypatch.setattr(bench_ab, "git", lambda *args: replies.get(args[0], "c0"))
    monkeypatch.setattr(bench_ab, "export", lambda commit, tree: pytest.fail("exported"))
    output = tmp_path / "ab.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_ab.main(["--workload", "planted-a1-lex", "--output", str(output)])
    assert exit_info.value.code == 2
    assert "notes.txt" in capsys.readouterr().err
    assert not output.exists()
