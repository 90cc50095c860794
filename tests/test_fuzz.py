"""Seeded fuzz of the command line: every input ends in one exit code.

Each case mutates a small edge list, two partition files and an
argument list drawn from a fixed vocabulary, then calls ``cli_main`` in
process.  Whatever the input, no exception may leave ``cli_main``, the
exit code is 0, 1 (usage error) or 2 (data error), and a failing run
writes nothing to standard output and ends standard error with one
diagnostic line, after any ``note:`` lines.
"""

import copy
import json
import random
from collections import Counter

from clecc.cli import cli_main

SEED = 20261019
CASES = 1000

EDGE_LIST = b"""\
source,target,layer
a,b,l1
b,a,l1
a,c,l1
c,a,l1
b,c,l1
c,b,l1
a,b,l2
b,a,l2
c,d,l1
d,c,l1
d,e,l1
e,d,l1
d,f,l1
f,d,l1
e,f,l1
f,e,l1
e,f,l2
f,e,l2
"""

PARTITION = {
    "groups": [{"id": 0, "nodes": ["a", "b", "c"]}, {"id": 1, "nodes": ["d", "e", "f"]}],
    "singletons": [],
}

# byte strings spliced into an edge list
INSERTS = [
    b"\xef\xbb\xbf",  # BOM
    b"\xff",
    b"\x00",
    "\u2028".encode(),
    "\x85".encode(),
    b"\x85",  # not UTF-8 on its own
    b",",
    b";",
    b"\t",
    b"\n",
    b"\r",
    b"#",
    b" ",
    b"a,a,l1\n",  # self-loop
    b"a,b,l1\n",  # repeat
    b"a,b,l1,extra\n",
    b"a,b\n",
    b"g,h,l3\n",
    b"source,target,layer\n",
]

# good values of each flag, then bad ones
VALUES = {
    "--alpha": (["1", "2", "3"], ["0", "-1", "x", "", "1.5"]),
    "--validity": (
        ["weak", "strong", "min-size:2"],
        ["min-size:0", "min-size:x", "min-size:", "bogus", ""],
    ),
    "--ties": (["lex", "random"], ["rand", ""]),
    "--seed": (["0", "7"], ["-3", "x", ""]),
    "--pair": (["a,b", "b,a", "c,d", "a,e"], ["a,a", "a", "a,b,c", ",b", "a,zz"]),
    "--delimiter": ([","], [";", "", "\t", ",,"]),
    "--sizes": (["3,3", "4", "2,2,2"], ["x", "0,3", "3,,3", ""]),
    "--layers": (["1", "2"], ["0", "-1", "x"]),
    "--p-in": (["0.5", "1"], ["1.5", "-0.1", "nan", "x"]),
    "--p-out": (["0", "0.1"], ["2", "x"]),
}
SWITCHES = ["--dedupe", "--oracle"]
OWN_FLAGS = {
    "detect": ["--alpha", "--validity", "--ties", "--seed", "--delimiter"],
    "measure": ["--alpha", "--pair", "--delimiter"],
    "planted": ["--sizes", "--layers", "--p-in", "--p-out", "--seed"],
}
FIXED = [[], ["generate"], ["eval"], ["bogus"], ["eval", "bogus"], ["generate", "bogus"]]


def mutate_edges(rng: random.Random) -> bytes:
    data = EDGE_LIST
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        kind = rng.randrange(6)
        at = rng.randrange(len(data) + 1)
        if kind <= 1:
            data = data[:at] + rng.choice(INSERTS) + data[at:]
        elif kind == 2:
            data = data[:at] + data[at + rng.randrange(1, 8) :]
        elif kind == 3:
            data = data[:at]
        elif kind == 4:
            lines = data.splitlines(keepends=True) or [b""]
            line = rng.choice(lines)
            data = data + line * rng.randrange(1, 3)
        else:
            data = b"\xef\xbb\xbf" + data
    return data


def mutate_partition(rng: random.Random) -> bytes:
    doc = copy.deepcopy(PARTITION)
    groups = doc["groups"]
    kind = rng.randrange(12)  # 10 and 11 keep the document valid
    if kind == 0:
        label = rng.choice([1, None, True, 2.5, ["x"], {"n": 1}])
        groups[0]["nodes"][rng.randrange(3)] = label
    elif kind == 1:
        groups[1]["nodes"][0] = "INF"  # written as 1e999 below
    elif kind == 2:
        depth = rng.choice([50, 5_000, 100_000])
        return b'{"groups": ' + b"[" * depth + b"]" * depth + b"}"
    elif kind == 3:
        groups.append({"id": 2, "nodes": []})
    elif kind == 4:
        groups[1]["nodes"].append(rng.choice(["a", "d"]))  # listed twice
    elif kind == 5:
        doc["singletons"] = ["g"]  # a node the other file lacks
    elif kind == 6:
        doc["groups"] = [group["nodes"] for group in groups]  # bare lists
    elif kind == 7:
        doc = rng.choice([[], "x", 3, None, {"groups": {}}, {"singletons": "a"}])
    elif kind == 8:
        text = json.dumps(doc).encode()
        return text[: rng.randrange(len(text))]
    elif kind == 9:
        return rng.choice([b"\xef\xbb\xbf", b"\xff", b""]) + json.dumps(doc).encode()
    text = json.dumps(doc)
    return text.replace('"INF"', "1e999").encode()


def draw_case(rng: random.Random) -> tuple[list, dict[str, bytes]]:
    """One argument list and the files it names.

    A file argument is a ``(name,)`` tuple: the name of an entry of the
    returned files, or ``missing`` for a path that does not exist.
    """
    files = {"edges": mutate_edges(rng)}
    roll = rng.random()
    if roll < 0.05:
        return list(rng.choice(FIXED)), files
    if roll < 0.15:
        files["truth"], files["predicted"] = mutate_partition(rng), mutate_partition(rng)
        argv = ["eval", "nmi"]
        for flag in ("--truth", "--predicted"):
            if rng.random() < 0.95:
                name = flag[2:] if rng.random() < 0.95 else "missing"
                argv += [flag, (name,)]
        return argv, files
    if roll < 0.22:
        argv = ["generate", "planted", "--output", ("out",)]
        if rng.random() < 0.3:
            argv += ["--truth", ("truth-out",)]
        command = "planted"
    else:
        command = "detect" if roll < 0.65 else "measure"
        argv = [command]
        if rng.random() < 0.97:
            argv += ["--input", ("edges",) if rng.random() < 0.95 else ("missing",)]
    for flag in OWN_FLAGS[command]:
        required = command == "planted" or flag == "--alpha"
        if rng.random() < (0.95 if required else 0.4):  # required flags mostly given
            good, bad = VALUES[flag]
            argv += [flag, rng.choice(bad if rng.random() < 0.15 else good)]
    if command != "planted":
        argv += [switch for switch in SWITCHES if rng.random() < 0.3]
    if rng.random() < 0.04:
        other = rng.choice(["--pair", "--validity", "--nope", "extra"])
        argv += [other, "a,b"] if other in ("--pair", "--validity") else [other]
    return argv, files


def cases(seed: int = SEED, count: int = CASES):
    rng = random.Random(seed)
    return [draw_case(rng) for _ in range(count)]


def resolve(argv: list, files: dict[str, bytes], directory) -> list[str]:
    """Write the case's files under ``directory``; return its argument list."""
    for name, data in files.items():
        (directory / name).write_bytes(data)
    return [str(directory / arg[0]) if isinstance(arg, tuple) else arg for arg in argv]


def test_every_input_ends_in_one_exit_code(tmp_path, capsys):
    codes = Counter()
    for number, (argv, files) in enumerate(cases()):
        args = resolve(argv, files, tmp_path)
        try:
            code = cli_main(args)
        except BaseException as exc:
            raise AssertionError(f"case {number}: {args!r} raised {exc!r}") from exc
        out, err = capsys.readouterr()
        where = f"case {number}: {args!r}"
        assert code in (0, 1, 2), where
        codes[code] += 1
        if code:
            assert out == "", where
            assert err.endswith("\n"), (where, err)
            *notes, last = err[:-1].split("\n")
            assert last.startswith("usage error: " if code == 1 else "error: "), (where, err)
            assert all(line.startswith("note: ") for line in notes), (where, err)
    assert min(codes[code] for code in (0, 1, 2)) >= 50, codes
