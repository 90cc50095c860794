"""Run the clecc command line with spans around its calls into each layer.

Usage: ``python traced_cli.py SPANS.json CLECC-ARGS...``

Wraps the functions ``clecc.cli`` imported from the formats, measures
and detection layers, runs ``cli_main`` on the remaining arguments and
writes the spans as JSON to ``SPANS.json``.  The library itself is not
changed; only this process's bindings in the ``cli`` module are.
"""

import json
import sys
import time

import clecc.cli as cli

WRAPPED = {
    "parse_edge_list": "formats.parse",
    "clecc_table": "measures.table_build",
    "run_detection": "detection.run",
    "write_result": "formats.write_result",
}


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    spans = [{"name": "cli.main", "start": 0.0, "end": 0.0, "parent": None}]

    def wrap(name, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append(
                    {"name": name, "start": start, "end": time.perf_counter(), "parent": 0}
                )

        return timed

    for attr, name in WRAPPED.items():
        setattr(cli, attr, wrap(name, getattr(cli, attr)))
    spans[0]["start"] = time.perf_counter()
    code = cli.cli_main(argv)
    sys.stdout.flush()
    spans[0]["end"] = time.perf_counter()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
