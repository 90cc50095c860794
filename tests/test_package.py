"""The package's lazy exports, and the modules a command-line job imports.

``import clecc`` loads no submodule: each public name is imported from
its module on first use.  A ``detect`` or ``measure`` job loads only
what it runs, so it never imports ``dataclasses`` (which pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``), ``fractions`` (which
pulls in ``decimal``), ``pathlib``, ``typing``, the generators, NMI
scoring or, without ``--oracle``, the naive reference.  It loads
``random`` only for ``--ties random``.
"""

import ast
import builtins
import importlib
import subprocess
import sys
from pathlib import Path

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
    "pathlib",
    "typing",
    "random",
    "clecc.generators",
    "clecc.evaluation",
    "clecc.reference",
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
    # how ``clecc.<module>`` is served before the module is imported
    for module_name in LIBRARY:
        assert clecc.__getattr__(module_name) is importlib.import_module(f"clecc.{module_name}")
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
    """``sys.modules`` of a fresh interpreter once ``code`` has run.

    The child skips ``site`` (``-S``): a ``.pth`` hook there may import
    modules of its own, which would hide the same imports by the package.
    """
    script = f"import sys\n{code}\nprint(sorted(sys.modules), file=sys.stderr)\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, env=src_env(), timeout=120
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


def test_from_import_loads_the_home_module_and_its_imports(bare):
    added = loaded_modules("import runpy\nfrom clecc import MultiLayerNetwork") - bare
    assert {m for m in added if m.startswith("clecc")} == {
        "clecc",
        "clecc.errors",
        "clecc.network",
    }


def test_private_names_load_no_submodule(bare):
    code = (
        "import runpy\nimport clecc\n"
        "assert not hasattr(clecc, '_EXPORTS') and not hasattr(clecc, '__wrapped__')"
    )
    assert loaded_modules(code) - bare == {"clecc"}


def test_import_cli_stays_within_budget(bare):
    added = loaded_modules("import runpy\nimport clecc.cli") - bare
    assert "clecc.detection" in added  # the probe sees the package's imports
    assert sorted(set(NOT_LOADED) & added) == []


def job_modules(bare, tmp_path, *args: str) -> set[str]:
    """Modules a ``clecc`` job run through ``runpy`` adds to ``bare``."""
    path = tmp_path / "net.csv"
    path.write_text("a,b,l1\nb,c,l1\nc,a,l1\nc,d,l1\n", encoding="utf-8")
    argv = ["clecc", *args, "--input", str(path), "--alpha", "1"]
    code = (
        "import runpy\n"
        f"sys.argv = {argv!r}\n"
        "try:\n"
        "    runpy.run_module('clecc', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "sys.stdout.flush()"
    )
    return loaded_modules(code) - bare


@pytest.mark.parametrize("command", ["detect", "measure"])
def test_cli_job_stays_within_budget(bare, command, tmp_path):
    added = job_modules(bare, tmp_path, command)
    assert {"clecc.cli", "clecc.formats", "clecc.measures"} <= added
    assert sorted(set(NOT_LOADED) & added) == []


def test_random_ties_load_random(bare, tmp_path):
    added = job_modules(bare, tmp_path, "detect", "--ties", "random", "--seed", "1")
    assert "random" in added


SOURCES = Path(clecc.__file__).parent

BUILTIN_EXCEPTIONS = {
    name
    for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def exception_classes(tree, known=frozenset()):
    """``(line, name)`` of each class in ``tree`` that derives from an exception.

    A base counts when it is a builtin exception, one of ``known``, a
    class of the same tree that counts, or an attribute named like an
    exception (``argparse.ArgumentError``).
    """
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    found = {}
    grew = True
    while grew:
        names = BUILTIN_EXCEPTIONS | set(known) | {node.name for node in found.values()}
        grew = False
        for node in classes:
            if id(node) not in found and any(
                (isinstance(base, ast.Name) and base.id in names)
                or (
                    isinstance(base, ast.Attribute)
                    and base.attr.endswith(("Error", "Exception", "Warning"))
                )
                for base in node.bases
            ):
                found[id(node)] = node
                grew = True
    return sorted((node.lineno, node.name) for node in found.values())


class TestErrorOwnership:
    """Every exception type of the package is defined in errors.py."""

    def test_only_errors_defines_exception_classes(self):
        paths = sorted(SOURCES.glob("*.py"))
        assert {"cli.py", "errors.py"} <= {path.name for path in paths}
        defined = [
            f"{path.name}:{line} {name}"
            for path in paths
            if path.name != "errors.py"
            for line, name in exception_classes(
                ast.parse(path.read_text(encoding="utf-8")), clecc.errors.__all__
            )
        ]
        assert defined == []

    def test_the_check_finds_every_error_type(self):
        tree = ast.parse((SOURCES / "errors.py").read_text(encoding="utf-8"))
        assert set(clecc.errors.__all__) <= {name for _, name in exception_classes(tree)}

    def test_the_check_sees_every_kind_of_base(self):
        code = (
            "class A(Exception): pass\n"
            "class B(A): pass\n"
            "class C(CleccError, dict): pass\n"
            "class D(argparse.ArgumentError): pass\n"
            "class E: pass\n"
            "class F(dict): pass\n"
            "def f():\n"
            "    class G(ValueError): pass\n"
            "class H(I): pass\n"
            "class I(KeyError): pass\n"
        )
        found = exception_classes(ast.parse(code), {"CleccError"})
        assert found == [(1, "A"), (2, "B"), (3, "C"), (4, "D"), (8, "G"), (9, "H"), (10, "I")]
