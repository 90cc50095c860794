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

Importing the package loads none of its modules.  Each name below, and
each of those modules, is imported on first use (PEP 562), so a
command-line job loads only the modules its command runs.  ``_EXPORTS``
is the one list of public names: ``__all__``, ``dir()`` and the lazy
lookup are all derived from it.
"""

import importlib

__version__ = "0.1.0"

# the public names of each module, as its own ``__all__`` lists them
_EXPORTS = {
    "detection": (
        "DetectionConfig",
        "DetectionResult",
        "Lexicographic",
        "MinSize",
        "RemovalRecord",
        "SeededRandom",
        "StrongCommunity",
        "TiePolicy",
        "ValidityCondition",
        "WeakCommunity",
        "parse_validity",
        "run_detection",
        "select_min_pair",
        "validate_group",
        "validity_tag",
    ),
    "errors": (
        "AlphaOutOfRangeError",
        "CleccError",
        "DomainMismatchError",
        "DuplicateEdgeError",
        "EmptyNetworkError",
        "EmptyTableError",
        "InconsistentTableError",
        "InvalidParamsError",
        "MalformedLineError",
        "MalformedPartitionError",
        "NotAdjacentError",
        "OracleMismatchError",
        "SelfLoopError",
        "TooManyNodesError",
        "UnknownLayerError",
        "UnknownNodeError",
    ),
    "evaluation": ("nmi",),
    "formats": (
        "ParsedEdgeList",
        "parse_edge_list",
        "partition_from_json",
        "partition_to_dict",
        "result_to_dict",
        "write_edge_list",
        "write_result",
    ),
    "generators": (
        "PlantedNetwork",
        "PlantedParams",
        "demo_network",
        "generate_density_scenario",
        "generate_planted",
    ),
    "measures": ("CleccTable", "clecc", "clecc_table", "ecc", "update_after_removal"),
    "network": ("MultiLayerNetwork",),
    "reference": ("naive_clecc", "naive_detect"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:  # a module, bound here once it is imported
        return importlib.import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_HOME))
