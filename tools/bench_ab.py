"""A/B benchmark runner: the benchmark of two revisions, run in pairs.

Usage (from anywhere inside a checkout)::

    python3 tools/bench_ab.py --output BENCH.json [--base REV] [--head REV]
        [--workload NAME ...] [--pairs N] [--seconds S]

Each side is exported with ``git archive``: ``--base`` (default
``HEAD``) to ``.bench_build/a`` and ``--head`` to ``.bench_build/b``.
Without ``--head`` the head side is the working tree's tracked files,
taken with ``git stash create``, or ``HEAD`` when no tracked file has
changed; the runner refuses to start while the working tree has
untracked files that ``.gitignore`` does not list, since the export
would leave them out.  The two trees' paths have equal length, because the length of
a checkout's path alone has moved ``peak_rss_mib`` by about 0.1 MiB.

Pair k runs ``perfbench/run.py --workload W --seconds T --trace 0``
(the harness's default seed) once in each tree, the base first when k is odd and the
head first when it is even, and reads the JSON object on the last line
of its standard output.  A run that exits non-zero or does not report
``"correct": true`` has failed, and its pair is a win for neither side.

The output file holds both revisions, the Python version, ``nproc``,
the settings, every failed run, and for each workload and end-to-end
metric of ``BENCHMARK.json``: both sides' raw values, medians and
quartiles, the pairs the head won (ties count for neither), the
relative change of the median and the metric's bound.  It reports and
does not judge: no field says whether a change passes.  Both trees are
removed when the runner ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
TREES = {"base": ROOT / ".bench_build" / "a", "head": ROOT / ".bench_build" / "b"}


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True)
    return proc.stdout.strip()


def export(commit: str, tree: Path) -> None:
    """Replace ``tree`` with the files of ``commit``."""
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)


def run_once(tree: Path, workload: str, seconds: float) -> tuple[dict | None, str]:
    """One benchmark run in ``tree``: its metric values, or ``None`` and why it failed."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    if proc.returncode:
        last = proc.stderr.strip().rpartition("\n")[2]
        return None, f"exit code {proc.returncode}: {last}"
    try:
        result = json.loads(proc.stdout.strip().rpartition("\n")[2])
    except json.JSONDecodeError:
        return None, "no JSON object on the last line"
    if result.get("correct") is not True:
        return None, f"correct is {result.get('correct')!r}, {result.get('failed')} jobs failed"
    return {name: metric["value"] for name, metric in result["metrics"].items()}, ""


def describe(values: list[float | None]) -> dict:
    """Raw values (``None`` for a failed run), their median and their quartiles."""
    present = [value for value in values if value is not None]
    return {
        "values": values,
        "median": statistics.median(present) if present else None,
        "quartiles": statistics.quantiles(present, n=4) if len(present) > 1 else None,
    }


def summarize(runs: dict[str, list[dict | None]], metrics: list[dict]) -> dict:
    """Each end-to-end metric of one workload, over both sides' runs.

    ``runs[side]`` holds each pair's metric values, ``None`` for a
    failed run; ``metrics`` are ``BENCHMARK.json``'s ``end_to_end``
    entries.
    """
    summary = {}
    for metric in metrics:
        name = metric["name"]
        raw = {side: [None if run is None else run[name] for run in runs[side]] for side in SIDES}
        entry = {side: describe(raw[side]) for side in SIDES}
        sign = 1 if metric["better"] == "lower" else -1
        entry["head_won"] = sum(
            base is not None and head is not None and sign * (head - base) < 0
            for base, head in zip(raw["base"], raw["head"])
        )
        base, head = entry["base"]["median"], entry["head"]["median"]
        entry["change"] = None if not base or head is None else (head - base) / base
        entry["better"] = metric["better"]
        entry["bound"] = metric["bound"]
        summary[name] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    parser.add_argument(
        "--head", help="head revision (default: the working tree's tracked files)"
    )
    parser.add_argument(
        "--workload", action="append", choices=names, help="repeatable (default: all)"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or names

    if not args.head:
        untracked = git("ls-files", "--others", "--exclude-standard")
        if untracked:
            parser.error(
                "the working tree has untracked files that the export would leave out"
                " (add them, or pass --head):\n" + untracked
            )
    stash = "" if args.head else git("stash", "create")
    head_rev = args.head or "HEAD"
    commits = {
        "base": git("rev-parse", f"{args.base}^{{commit}}"),
        "head": git("rev-parse", f"{head_rev}^{{commit}}"),
    }
    runs = {workload: {side: [] for side in SIDES} for workload in workloads}
    failed = []
    try:
        export(commits["base"], TREES["base"])
        export(stash or commits["head"], TREES["head"])
        for workload in workloads:
            for pair in range(1, args.pairs + 1):
                for side in SIDES if pair % 2 else SIDES[::-1]:
                    run, error = run_once(TREES[side], workload, args.seconds)
                    runs[workload][side].append(run)
                    if error:
                        failed.append(
                            {"side": side, "workload": workload, "pair": pair, "error": error}
                        )
                    print(f"{workload} pair {pair} {side}: {error or run}", file=sys.stderr)
    finally:
        for tree in TREES.values():
            shutil.rmtree(tree, ignore_errors=True)

    report = {
        "base": {"rev": args.base, "commit": commits["base"]},
        "head": {
            "rev": "working tree" if stash else head_rev,
            "commit": commits["head"],  # with "dirty", the commit the changes sit on
            "dirty": bool(stash),
        },
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "pairs": args.pairs,
        "workloads": {
            workload: summarize(runs[workload], bench["end_to_end"]) for workload in workloads
        },
        "failed": failed,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
