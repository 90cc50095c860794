"""The package's lazy exports, and the modules a command-line job imports.

``import clecc`` loads no submodule: each public name is imported from
its module on first use.  A ``detect`` or ``measure`` job loads only
what it runs, so it never imports ``dataclasses`` (which pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``), ``fractions`` (which
pulls in ``decimal``), the generators or NMI scoring.
"""

import ast
import importlib
import subprocess
import sys

import pytest

import clecc
from conftest import src_env

# the modules whose ``__all__`` together make up the package's exports
LIBRARY = [
    "detection",
    "errors",
    "evaluation",
    "formats",
    "generators",
    "measures",
    "network",
    "reference",
]

# modules a detect or measure job must not add to a bare interpreter's
NOT_LOADED = [
    "dataclasses",
    "inspect",
    "fractions",
    "decimal",
    "clecc.generators",
    "clecc.evaluation",
]


def test_exports_are_their_home_modules_objects():
    homes = {}
    for module_name in LIBRARY:
        module = importlib.import_module(f"clecc.{module_name}")
        for name in module.__all__:
            assert name not in homes, f"{name} exported by two modules"
            homes[name] = module
    assert set(homes) == set(clecc.__all__) - {"__version__"}
    for name, module in homes.items():
        assert getattr(clecc, name) is getattr(module, name), name
    assert clecc.__version__ == "0.1.0"


def test_dir_covers_all():
    assert set(clecc.__all__) <= set(dir(clecc))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from clecc import *", namespace)
    for name in clecc.__all__:
        assert namespace[name] is getattr(clecc, name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        clecc.no_such_name
    assert not hasattr(clecc, "_private")
    with pytest.raises(ImportError):
        exec("from clecc import no_such_name", {})


def loaded_modules(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter once ``code`` has run."""
    script = f"import sys\n{code}\nprint(sorted(sys.modules), file=sys.stderr)\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return set(ast.literal_eval(proc.stderr.decode().splitlines()[-1]))


@pytest.fixture(scope="module")
def bare():
    # runpy stands in for ``python -m`` below, so the baseline has it too
    return loaded_modules("import runpy")


def test_import_clecc_loads_no_submodule(bare):
    added = loaded_modules("import runpy\nimport clecc") - bare
    assert added == {"clecc"}


def test_modules_are_attributes_on_first_use(bare):
    added = loaded_modules("import runpy\nimport clecc\nclecc.network.MultiLayerNetwork")
    assert {m for m in added - bare if m.startswith("clecc")} == {
        "clecc",
        "clecc.errors",
        "clecc.network",
    }


def test_import_cli_stays_within_budget(bare):
    added = loaded_modules("import runpy\nimport clecc.cli") - bare
    assert "clecc.detection" in added  # the probe sees the package's imports
    assert sorted(set(NOT_LOADED) & added) == []


@pytest.mark.parametrize("command", ["detect", "measure"])
def test_cli_job_stays_within_budget(bare, command, tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("a,b,l1\nb,c,l1\nc,a,l1\nc,d,l1\n", encoding="utf-8")
    argv = ["clecc", command, "--input", str(path), "--alpha", "1"]
    code = (
        "import runpy\n"
        f"sys.argv = {argv!r}\n"
        "try:\n"
        "    runpy.run_module('clecc', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "sys.stdout.flush()"
    )
    added = loaded_modules(code) - bare
    assert {"clecc.cli", "clecc.formats", "clecc.measures"} <= added
    assert sorted(set(NOT_LOADED) & added) == []
