"""Multi-layered social networks: cross-layer edge clustering and groups.

A multi-layered social network connects the same people through several
kinds of relationship at once — one layer per relationship type.  This
package models such networks, scores node pairs with the cross-layer
edge clustering coefficient (CLECC: the share of alpha-layer neighbours
a pair has in common), and extracts multi-layered groups by divisively
removing the weakest pairs until every component either qualifies as a
group or shrinks to a single node.

Also included: seeded benchmark generators with planted ground truth,
NMI partition scoring, edge-list and JSON formats with a CLI on top,
and deliberately naive reference implementations for cross-checking.

Importing the package loads none of its modules.  A public name is one
that a module of ``_MODULES`` lists in its own ``__all__``.  On first
use (PEP 562) the modules are imported in turn until one lists the
name, so ``from clecc import MultiLayerNetwork`` loads ``clecc.errors``
and ``clecc.network`` only.  A command-line job imports from the modules
themselves and loads only what its command runs.  ``__all__`` and
``dir()`` import every module.
"""

import importlib

__version__ = "0.1.0"

# the library modules, each after those it imports, so that finding a
# name loads little beyond the module that defines it
_MODULES = (
    "errors", "network", "evaluation", "generators",
    "measures", "detection", "formats", "reference",
)


def _module(name: str):
    return importlib.import_module(f".{name}", __name__)


def __getattr__(name: str):
    if name in _MODULES:  # a module, bound here once it is imported
        return _module(name)
    if name == "__all__":
        names = [n for module in map(_module, _MODULES) for n in module.__all__]
        value = globals()[name] = [*names, "__version__"]
        return value
    for module in () if name.startswith("_") else map(_module, _MODULES):
        if name in module.__all__:
            value = globals()[name] = getattr(module, name)  # later lookups skip this
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULES) | set(__getattr__("__all__")))
