"""End-to-end benchmark of the clecc command line, with a traced pass.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest

Each workload writes its edge-list file from ``--seed`` (a fixed
reference network whose node labels the seed permutes; see
``generate``), then runs the real ``python -m clecc`` command line on it
in a fresh child process, one job at a time, for about ``--seconds``
seconds.  Jobs are started by ``launcher.py``.  Every
job's output bytes are checked: against ``golden.json`` (sha256 of the
output at commit f4f1900) when the seed has an entry there, otherwise
by structural checks against the generated input and the naive
reference.  A job that exits non-zero or writes other bytes counts as
failed.

``--trace 0`` reports the end-to-end metrics (median job wall time,
median child peak RSS, median set-up time).  ``--trace 1`` runs the
traced pass in ``trace_pass.py`` instead and reports per-layer metrics.
The last line of standard output is always one JSON object.

``--write-manifest`` regenerates ``BENCHMARK.json`` at the checkout
root and ``manifest.json`` here (Python version, ``nproc``, default
seeds and input sizes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = HERE / "golden.json"

RUN_SECONDS = 30
DEFAULT_SEED = 1
SCENARIO_SEED = 7
PLANTED_SEED = 1
SETUP_REPEATS = 3
RANDOM_TIE_SEED = 11


@dataclass(frozen=True)
class Workload:
    """One CLI job shape on one kind of generated input.

    ``input_kind`` is ``"scenario"`` (``generate_density_scenario``)
    or ``"planted"`` (``generate_planted`` with ``planted_sizes``).
    ``cli`` is the argument list after ``python -m clecc``, without
    ``--input``.  ``probe_alpha`` is set for a job that runs no
    detection: the traced pass then times the detection layers on a
    ``detect`` at that alpha of the same input, so every per-layer
    metric is measured on every workload.
    """

    name: str
    why: str
    input_kind: str
    cli: tuple[str, ...]
    planted_sizes: tuple[int, ...] = (100,) * 12
    probe_alpha: int | None = None


_DETECT_A1 = ("detect", "--alpha", "1", "--validity", "weak", "--log-removals")

# Each workload puts a different layer at the top of the profile; the
# ``why`` strings are also written into BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "planted-a1-lex",
            "sparse 12-block planted graph, lex ties: large min-value buckets make "
            "the O(bucket) lex scan ~40% of detection",
            "planted",
            _DETECT_A1,
        ),
        Workload(
            "planted-a1-random",
            "same input with seeded random ties: selection is ~3%, repair ~80%; "
            "shows a selection change that slows or reorders the random path",
            "planted",
            _DETECT_A1 + ("--ties", "random", "--seed", str(RANDOM_TIE_SEED)),
        ),
        Workload(
            "scenario-a1-measure",
            "full alpha-1 table on the density scenario: build, parse and export, "
            "no repair; shows work moved into the build or the parser",
            "scenario",
            ("measure", "--alpha", "1"),
            probe_alpha=2,
        ),
    )
}

# wall_s and setup_s get the widest bound allowed: on a 2-vCPU virtual
# machine the speed of the same job drifted by 15-40% over minutes, and
# the quartile spread of 10 runs reached 0.13-0.27.
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.05},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

# (name, unit); only evaluation.nmi is better when higher.
PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("formats.parse_s", "s"),
    ("formats.records", "count"),
    ("formats.parse_peak_mib", "MiB"),
    ("formats.write_result_s", "s"),
    ("formats.output_bytes", "bytes"),
    ("measures.table_build_s", "s"),
    ("measures.table_entries", "count"),
    ("measures.table_build_peak_mib", "MiB"),
    ("measures.repair_s", "s"),
    ("measures.repair_calls", "count"),
    ("measures.repair_entries", "count"),
    ("measures.repair_us_per_entry", "us"),
    ("measures.select_s", "s"),
    ("network.copy_s", "s"),
    ("network.remove_pair_s", "s"),
    ("detection.run_s", "s"),
    ("detection.self_s", "s"),
    ("detection.removals", "count"),
    ("detection.groups", "count"),
    ("detection.singletons", "count"),
    ("detection.run_peak_mib", "MiB"),
    ("generators.generate_s", "s"),
    ("evaluation.nmi", "1"),
    ("trace.overhead_s", "s"),
]


class BenchError(Exception):
    """The benchmark cannot run here: the checkout has no clecc sources."""


def import_clecc():
    """Import the library from this checkout's ``src``."""
    if not (SRC / "clecc" / "__init__.py").is_file():
        raise BenchError(f"no clecc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import clecc

    return clecc


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # fixed string hashing, so set iteration order is the same in every job
    env["PYTHONHASHSEED"] = "0"
    return env


# -- inputs -------------------------------------------------------------


@dataclass
class Input:
    """An edge-list file, the network parsed from it, and set-up times."""

    path: Path
    network: object
    records: int
    truth: list[set[str]] | None
    setup_times: list[float]
    generate_times: list[float]


def generate(workload: Workload, seed: int):
    """The workload's reference network with its node labels permuted by ``seed``.

    Returns the network and the ground-truth partition (None for the
    density scenario).  The structure is the fixed reference instance,
    so every seed does about the same work; the seed changes the
    labels, the line order of the file, the node index order the
    parser assigns and so the tie order.  Drawing a new structure per
    seed would not do: the number of removals before the first split
    varies by a quarter between density-scenario seeds.
    """
    clecc = import_clecc()
    if workload.input_kind == "scenario":
        base, truth = clecc.generate_density_scenario(SCENARIO_SEED), None
    else:
        params = clecc.PlantedParams(
            sizes=workload.planted_sizes, layers=2, p_in=0.1, p_out=0.002, seed=PLANTED_SEED
        )
        planted = clecc.generate_planted(params)
        base, truth = planted.network, planted.truth_partition()
    labels = base.nodes()
    order = list(range(len(labels)))
    random.Random(seed).shuffle(order)
    width = len(str(len(labels) - 1))
    rename = {label: f"n{k:0{width}d}" for label, k in zip(labels, order)}
    net = clecc.MultiLayerNetwork()
    for layer in base.layers():
        net.add_layer(layer)
    for label in sorted(rename.values()):
        net.add_node(label)
    for source, target, layer in base.edges():
        net.add_edge(rename[source], rename[target], layer)
    if truth is not None:
        truth = [{rename[v] for v in block} for block in truth]
    return net, truth


def make_input(workload: Workload, seed: int, workdir: Path, repeats: int) -> Input:
    """Generate and write the edge list ``repeats`` times; keep the last."""
    clecc = import_clecc()
    path = workdir / "input.csv"
    setup_times, generate_times = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        net, truth = generate(workload, seed)
        t1 = time.perf_counter()
        path.write_text(clecc.write_edge_list(net), encoding="utf-8")
        t2 = time.perf_counter()
        generate_times.append(t1 - t0)
        setup_times.append(t2 - t0)
    # the network as the command line reads it: nodes without edges drop out
    parsed = clecc.parse_edge_list(path.read_text(encoding="utf-8"))
    net = parsed.network
    if truth is not None:
        truth = [block & set(net.nodes()) for block in truth]
        truth = [block for block in truth if block]
    return Input(path, net, parsed.records, truth, setup_times, generate_times)


# -- jobs ---------------------------------------------------------------


@dataclass
class Job:
    wall_s: float
    peak_rss_mib: float
    returncode: int
    output: bytes
    stderr: str


class Launcher:
    """Runs jobs one at a time through ``launcher.py``.

    Create it before generating any input, while this process is still
    small, and close it when done; see ``launcher.py`` for why.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )

    def run(self, argv: list[str], out_path: Path, err_path: Path) -> Job:
        """Run one child to completion; wall time and ``ru_maxrss`` via wait4."""
        request = {"argv": argv, "out": str(out_path), "err": str(err_path)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise BenchError("the job launcher exited")
        reply = json.loads(line)
        return Job(
            wall_s=reply["wall_s"],
            peak_rss_mib=reply["maxrss_kib"] / 1024.0,
            returncode=reply["returncode"],
            output=out_path.read_bytes(),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def cli_argv(workload: Workload, input_path: Path) -> list[str]:
    return [sys.executable, "-m", "clecc", *workload.cli, "--input", str(input_path)]


# -- output checks ------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_hash(workload: Workload, seed: int) -> str | None:
    table = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return table.get(workload.name, {}).get(str(seed))


def _pair_edge_counts(net) -> dict[tuple[str, str], int]:
    counts: dict[tuple[str, str], int] = {}
    for source, target, _ in net.edges():
        key = (source, target) if source < target else (target, source)
        counts[key] = counts.get(key, 0) + 1
    return counts


def check_detect_output(workload: Workload, inp: Input, data: bytes) -> None:
    """Partition covers every node once; the removal log fits the input."""
    doc = json.loads(data)
    alpha = int(workload.cli[workload.cli.index("--alpha") + 1])
    ties = "random" if "--ties" in workload.cli else "lex"
    if doc["alpha"] != alpha or doc["tie_policy"] != ties:
        raise ValueError("result header does not match the command line")
    seen: list[str] = list(doc["singletons"])
    for group in doc["groups"]:
        if len(group["nodes"]) < 2:
            raise ValueError(f"group {group['id']} has fewer than two nodes")
        seen.extend(group["nodes"])
    if sorted(seen) != sorted(inp.network.nodes()):
        raise ValueError("partition does not cover every node exactly once")
    edge_counts = _pair_edge_counts(inp.network)
    removed = set()
    for step, rec in enumerate(doc["removals"], start=1):
        pair = tuple(rec["pair"])
        if rec["step"] != step or pair in removed:
            raise ValueError(f"removal log broken at step {step}")
        removed.add(pair)
        if rec["edges_removed"] != edge_counts.get(pair):
            raise ValueError(f"step {step}: wrong edges_removed for {pair}")
        if not 0.0 <= rec["clecc"] <= 1.0:
            raise ValueError(f"step {step}: value out of range")


def check_measure_output(workload: Workload, inp: Input, data: bytes, rng) -> None:
    """Every candidate pair once, sorted, with spot checks against the oracle."""
    clecc = import_clecc()
    alpha = int(workload.cli[workload.cli.index("--alpha") + 1])
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != "x,y,clecc":
        raise ValueError("missing table header")
    rows = [line.split(",") for line in lines[1:]]
    pairs = [(a, b) for a, b, _ in rows]
    net = inp.network
    expected = sorted(
        (a, b)
        for a in net.nodes()
        for b in net.multilayer_neighborhood(a, alpha)
        if a < b
    )
    if pairs != expected:
        raise ValueError("table rows are not the sorted candidate pairs")
    for a, b, value in rng.sample(rows, min(8, len(rows))):
        if float(value) != clecc.naive_clecc(net, a, b, alpha):
            raise ValueError(f"value for ({a}, {b}) disagrees with naive_clecc")


def check_output(workload: Workload, inp: Input, seed: int, data: bytes) -> None:
    """Raise ValueError unless ``data`` is the right output for this input."""
    expected = golden_hash(workload, seed)
    if expected is not None:
        if sha256(data) != expected:
            raise ValueError("output bytes differ from the golden sha256")
        return
    if workload.cli[0] == "detect":
        check_detect_output(workload, inp, data)
    else:
        check_measure_output(workload, inp, data, random.Random(seed))


class OutputChecker:
    """Full check of the first good output; later outputs must match its bytes."""

    def __init__(self, workload: Workload, inp: Input, seed: int):
        self.workload, self.inp, self.seed = workload, inp, seed
        self.reference: str | None = None
        self.problems: list[str] = []

    def ok(self, job: Job) -> bool:
        if job.returncode != 0:
            self.problems.append(f"exit code {job.returncode}: {job.stderr.strip()[:200]}")
            return False
        digest = sha256(job.output)
        if self.reference is None:
            try:
                check_output(self.workload, self.inp, self.seed, job.output)
            except (ValueError, KeyError, TypeError) as exc:
                self.problems.append(f"wrong output: {exc}")
                return False
            self.reference = digest
            return True
        if digest != self.reference:
            self.problems.append("output bytes differ between jobs")
            return False
        return True


# -- the untraced pass ----------------------------------------------------


def run_jobs(
    launcher: Launcher, workload: Workload, inp: Input, checker: OutputChecker, seconds: float, workdir: Path
):
    """Run jobs one at a time while the next one still fits in ``seconds``."""
    jobs, good = [], []
    start = time.perf_counter()
    while True:
        job = launcher.run(cli_argv(workload, inp.path), workdir / "out", workdir / "err")
        jobs.append(job)
        good.append(checker.ok(job))
        elapsed = time.perf_counter() - start
        typical = statistics.median(j.wall_s for j in jobs)
        if elapsed + typical > seconds:
            return jobs, good


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(launcher: Launcher, workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    inp = make_input(workload, seed, workdir, SETUP_REPEATS)
    checker = OutputChecker(workload, inp, seed)
    jobs, good = run_jobs(launcher, workload, inp, checker, seconds, workdir)
    failed = good.count(False)
    walls = [j.wall_s for j in jobs]
    rss = [j.peak_rss_mib for j in jobs]
    print(f"workload {workload.name} seed {seed}: {len(jobs)} jobs, {failed} failed")
    print(f"  wall_s        {statistics.median(walls):10.4f} s    median of {len(walls)}: "
          + " ".join(f"{w:.3f}" for w in walls))
    print(f"  peak_rss_mib  {statistics.median(rss):10.2f} MiB  median of {len(rss)}")
    print(f"  setup_s       {statistics.median(inp.setup_times):10.4f} s    median of {len(inp.setup_times)}")
    print(f"  failed_frac   {failed / len(jobs):10.4f}      {failed} of {len(jobs)}")
    for problem in checker.problems:
        print(f"  FAILED: {problem}")
    return {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {
            "wall_s": metric(statistics.median(walls), "s"),
            "peak_rss_mib": metric(statistics.median(rss), "MiB"),
            "setup_s": metric(statistics.median(inp.setup_times), "s"),
        },
    }


# -- manifest -------------------------------------------------------------


def write_manifest() -> None:
    """Write BENCHMARK.json and manifest.json (input sizes at default seeds)."""
    clecc = import_clecc()
    bench = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": name, "unit": unit, "better": "higher" if name == "evaluation.nmi" else "lower"}
            for name, unit in PER_LAYER
        ],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    sizes = {}
    for w in WORKLOADS.values():
        # the index order of a parsed file, as the command line sees it
        net = clecc.parse_edge_list(clecc.write_edge_list(generate(w, DEFAULT_SEED)[0])).network
        alpha = int(w.cli[w.cli.index("--alpha") + 1])
        entry = {
            "golden_seeds": sorted(json.loads(GOLDEN.read_text())[w.name]),
            "cli": ["clecc", *w.cli],
            "nodes": net.node_count,
            "directed_edges": net.edge_count,
            "table_entries": len(clecc.clecc_table(net, alpha)),
            "removals": None,
            "why": w.why,
        }
        if w.cli[0] == "detect":
            ties = clecc.SeededRandom(RANDOM_TIE_SEED) if "--ties" in w.cli else clecc.Lexicographic()
            config = clecc.DetectionConfig(alpha=alpha, validity=clecc.WeakCommunity(), tie_policy=ties)
            entry["removals"] = len(clecc.run_detection(net, config).removals)
        sizes[w.name] = entry
    manifest = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "default_seed": DEFAULT_SEED,
        "base_seeds": {"scenario": SCENARIO_SEED, "planted": PLANTED_SEED},
        "workloads": sizes,
    }
    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)
    try:
        import_clecc()
        if args.write_manifest:
            write_manifest()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        workload = WORKLOADS[args.workload]
        seed = DEFAULT_SEED if args.seed is None else args.seed
        WORK.mkdir(exist_ok=True)
        workdir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        workdir.mkdir()
        try:
            with Launcher() as launcher:
                if args.trace:
                    from trace_pass import traced

                    result = traced(launcher, workload, seed, workdir)
                else:
                    result = end_to_end(launcher, workload, seed, args.seconds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
