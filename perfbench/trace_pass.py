"""Traced pass: per-layer times and counts for one workload.

The pass runs, one after another:

1. set-up, timing ``generators`` on its own;
2. ``python -c "import clecc"`` children, for ``cli.import_s``;
3. one plain CLI job and one job under ``traced_cli.py``, which records
   spans around the calls ``cli`` makes into ``formats``, ``measures``
   and ``detection``; the difference of their wall times is the
   tracing overhead, and both outputs are checked like any job's;
4. a replay of the logged detection through the public functions
   ``MultiLayerNetwork.copy``, ``clecc_table``, ``select_min_pair``,
   ``remove_pair_edges`` and ``update_after_removal``, with a span
   around each call.  Every step must select the logged pair at the
   logged value and remove the logged number of edges, and the repaired
   table must end equal to a fresh ``clecc_table`` of the replayed
   network; any mismatch fails the run.  The replay is exact because
   in these workloads no group freezes before the last removal, which
   the per-step check confirms;
5. a memory pass under ``tracemalloc`` over parse, table build and
   detection, after all timings, so its slowdown touches none of them.

Spans and counts are written to ``.bench_work/trace/`` at the end.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from run import (
    HERE,
    PER_LAYER,
    SETUP_REPEATS,
    WORK,
    Input,
    Launcher,
    OutputChecker,
    Workload,
    cli_argv,
    import_clecc,
    make_input,
    metric,
)

IMPORT_REPEATS = 3
MIB = 1024.0 * 1024.0


class ReplayError(Exception):
    """The replay diverged from the logged run."""


class Spans:
    """Spans kept in memory: name, start, end, parent id, workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.records: list[dict] = []

    def add(self, name: str, start: float, end: float, parent: int | None) -> int:
        self.records.append(
            {
                "id": len(self.records),
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "workload": self.workload,
            }
        )
        return len(self.records) - 1

    def adopt(self, child_spans: list[dict]) -> int:
        """Add spans recorded by ``traced_cli.py``; returns the root's id."""
        base = len(self.records)
        for span in child_spans:
            parent = None if span["parent"] is None else base + span["parent"]
            self.add(span["name"], span["start"], span["end"], parent)
        return base

    def _named(self, name: str, parent: int | None):
        return [
            s
            for s in self.records
            if s["name"] == name and (parent is None or s["parent"] == parent)
        ]

    def total(self, name: str, parent: int | None = None) -> float:
        return sum(s["end"] - s["start"] for s in self._named(name, parent))

    def count(self, name: str, parent: int | None = None) -> int:
        return len(self._named(name, parent))

    def self_time(self, span_id: int) -> float:
        """Duration minus the time covered by its (sequential) children."""
        span = self.records[span_id]
        children = sum(
            s["end"] - s["start"] for s in self.records if s["parent"] == span_id
        )
        return span["end"] - span["start"] - children


def _timed(spans: Spans, parent: int, name: str, fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    spans.add(name, start, time.perf_counter(), parent)
    return result


def detection_config(clecc, workload: Workload):
    """The configuration the replay and memory pass run detection with."""
    cli = workload.cli
    if workload.probe_alpha is not None:
        return clecc.DetectionConfig(alpha=workload.probe_alpha)
    ties = (
        clecc.SeededRandom(int(cli[cli.index("--seed") + 1]))
        if "--ties" in cli
        else clecc.Lexicographic()
    )
    return clecc.DetectionConfig(
        alpha=int(cli[cli.index("--alpha") + 1]),
        validity=clecc.parse_validity(cli[cli.index("--validity") + 1]),
        tie_policy=ties,
    )


def replay(clecc, net, config, removals: list[dict], spans: Spans) -> dict:
    """Re-run the logged removals through public functions, checking each."""
    policy, alpha = config.tie_policy, config.alpha
    rng = random.Random(policy.seed) if isinstance(policy, clecc.SeededRandom) else None
    root = spans.add("detection.replay", time.perf_counter(), 0.0, None)
    counts = {"root": root, "repair_entries": 0}
    work = _timed(spans, root, "network.copy", net.copy)
    table = _timed(spans, root, "measures.table_build", clecc.clecc_table, work, alpha)
    for rec in removals:
        pair = _timed(spans, root, "measures.select", clecc.select_min_pair, table, policy, rng)
        x, y = pair
        if list(pair) != rec["pair"] or float(table.value(x, y)) != rec["clecc"]:
            raise ReplayError(
                f"step {rec['step']}: replay selected {pair} at {float(table.value(x, y))}, "
                f"log has {rec['pair']} at {rec['clecc']}"
            )
        removed = _timed(spans, root, "network.remove_pair", work.remove_pair_edges, x, y)
        if removed != rec["edges_removed"]:
            raise ReplayError(
                f"step {rec['step']}: removed {removed} edges, log has {rec['edges_removed']}"
            )
        counts["repair_entries"] += len(work.multilayer_neighborhood(x, alpha))
        counts["repair_entries"] += len(work.multilayer_neighborhood(y, alpha))
        _timed(spans, root, "measures.repair", clecc.update_after_removal, table, work, x, y)
    spans.records[root]["end"] = time.perf_counter()
    if table.as_dict() != clecc.clecc_table(work, alpha).as_dict():
        raise ReplayError("repaired table differs from a fresh table of the replayed network")
    return counts


def memory_pass(clecc, path: Path, alpha: int, config) -> dict:
    """tracemalloc peaks of parse, table build and detection, in MiB
    above the level at each call; also the table's entry count."""
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as handle:
            net = clecc.parse_edge_list(handle).network
        parse_peak = tracemalloc.get_traced_memory()[1]
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        entries = len(clecc.clecc_table(net, alpha))
        build_peak = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        clecc.run_detection(net, config)
        run_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {
        "formats.parse_peak_mib": parse_peak / MIB,
        "measures.table_build_peak_mib": build_peak / MIB,
        "measures.table_entries": entries,
        "detection.run_peak_mib": run_peak / MIB,
    }


def _partition(doc: dict) -> list[set[str]]:
    return [set(g["nodes"]) for g in doc["groups"]] + [{s} for s in doc["singletons"]]


def traced(launcher: Launcher, workload: Workload, seed: int, workdir: Path) -> dict:
    clecc = import_clecc()
    spans = Spans(workload.name)
    values: dict[str, float] = {}

    inp: Input = make_input(workload, seed, workdir, SETUP_REPEATS)
    values["generators.generate_s"] = statistics.median(inp.generate_times)
    imports = [
        launcher.run([sys.executable, "-c", "import clecc"], workdir / "out", workdir / "err")
        for _ in range(IMPORT_REPEATS)
    ]
    values["cli.import_s"] = statistics.median(j.wall_s for j in imports)

    checker = OutputChecker(workload, inp, seed)
    plain = launcher.run(cli_argv(workload, inp.path), workdir / "out", workdir / "err")
    span_file = workdir / "cli_spans.json"
    traced_argv = [sys.executable, str(HERE / "traced_cli.py"), str(span_file)]
    traced_job = launcher.run(
        traced_argv + cli_argv(workload, inp.path)[3:], workdir / "out", workdir / "err"
    )
    good = [checker.ok(plain), checker.ok(traced_job)]
    attempted = len(good) + 1
    failed = good.count(False)
    if failed:
        return _failure(workload, attempted, failed, checker.problems)
    values["trace.overhead_s"] = traced_job.wall_s - plain.wall_s
    cli_root = spans.adopt(json.loads(span_file.read_text(encoding="utf-8")))
    values["cli.self_s"] = spans.self_time(cli_root)
    values["formats.parse_s"] = spans.total("formats.parse")
    values["formats.output_bytes"] = len(traced_job.output)

    net = inp.network
    values["formats.records"] = inp.records
    config = detection_config(clecc, workload)
    if workload.probe_alpha is None:
        doc = json.loads(traced_job.output)
        values["detection.run_s"] = spans.total("detection.run")
        values["formats.write_result_s"] = spans.total("formats.write_result")
        cli_build_s = None
    else:
        cli_build_s = spans.total("measures.table_build")
        probe_root = spans.add("detection.probe", time.perf_counter(), 0.0, None)
        result = _timed(spans, probe_root, "detection.run", clecc.run_detection, net, config)
        text = _timed(spans, probe_root, "formats.write_result", clecc.write_result, result, True)
        spans.records[probe_root]["end"] = time.perf_counter()
        doc = json.loads(text)
        values["detection.run_s"] = spans.total("detection.run")
        values["formats.write_result_s"] = spans.total("formats.write_result")

    try:
        counts = replay(clecc, net, config, doc["removals"], spans)
    except ReplayError as exc:
        return _failure(workload, attempted, 1, [f"replay: {exc}"])
    replayed = {
        name: spans.total(name, counts["root"])
        for name in (
            "network.copy",
            "measures.table_build",
            "measures.select",
            "network.remove_pair",
            "measures.repair",
        )
    }
    values["detection.self_s"] = values["detection.run_s"] - sum(replayed.values())
    if cli_build_s is not None:
        replayed["measures.table_build"] = cli_build_s
    values["network.copy_s"] = replayed["network.copy"]
    values["measures.table_build_s"] = replayed["measures.table_build"]
    values["measures.select_s"] = replayed["measures.select"]
    values["network.remove_pair_s"] = replayed["network.remove_pair"]
    values["measures.repair_s"] = replayed["measures.repair"]
    values["measures.repair_calls"] = spans.count("measures.repair", counts["root"])
    values["measures.repair_entries"] = counts["repair_entries"]
    entries = counts["repair_entries"]
    values["measures.repair_us_per_entry"] = (
        1e6 * replayed["measures.repair"] / entries if entries else 0.0
    )
    values["detection.removals"] = len(doc["removals"])
    values["detection.groups"] = len(doc["groups"])
    values["detection.singletons"] = len(doc["singletons"])
    # 0 on the density scenario, which has no ground truth
    values["evaluation.nmi"] = (
        clecc.nmi(inp.truth, _partition(doc)) if inp.truth is not None else 0.0
    )

    job_alpha = int(workload.cli[workload.cli.index("--alpha") + 1])
    values.update(memory_pass(clecc, inp.path, job_alpha, config))

    _write_trace(workload, seed, spans, values)
    units = dict(PER_LAYER)
    print(f"workload {workload.name} seed {seed} (traced): {attempted} checks, 0 failed")
    for name, unit in PER_LAYER:
        print(f"  {name:32s} {values[name]:14.6f} {unit}")
    print(f"  tracing overhead: traced {traced_job.wall_s:.4f} s - untraced {plain.wall_s:.4f} s")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: metric(values[name], units[name]) for name, _ in PER_LAYER},
    }


def _failure(workload: Workload, attempted: int, failed: int, problems: list[str]) -> dict:
    print(f"workload {workload.name} (traced): {failed} of {attempted} checks failed")
    for problem in problems:
        print(f"  FAILED: {problem}")
    return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}


def _write_trace(workload: Workload, seed: int, spans: Spans, values: dict) -> None:
    out_dir = WORK / "trace"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload.name}-seed{seed}.json"
    path.write_text(
        json.dumps({"workload": workload.name, "seed": seed, "spans": spans.records, "values": values}),
        encoding="utf-8",
    )
    print(f"spans and counts written to {path.relative_to(WORK.parent)}")
