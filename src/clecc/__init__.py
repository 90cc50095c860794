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
"""

from .detection import (
    DetectionConfig,
    DetectionResult,
    Lexicographic,
    MinSize,
    RemovalRecord,
    SeededRandom,
    StrongCommunity,
    TiePolicy,
    ValidityCondition,
    WeakCommunity,
    parse_validity,
    run_detection,
    select_min_pair,
    validate_group,
    validity_tag,
)
from .errors import (
    AlphaOutOfRangeError,
    CleccError,
    DomainMismatchError,
    DuplicateEdgeError,
    EmptyNetworkError,
    EmptyTableError,
    InconsistentTableError,
    InvalidParamsError,
    MalformedLineError,
    MalformedPartitionError,
    NotAdjacentError,
    OracleMismatchError,
    SelfLoopError,
    TooManyNodesError,
    UnknownLayerError,
    UnknownNodeError,
)
from .evaluation import nmi
from .formats import (
    ParsedEdgeList,
    parse_edge_list,
    partition_from_json,
    partition_to_dict,
    result_to_dict,
    write_edge_list,
    write_result,
)
from .generators import (
    PlantedNetwork,
    PlantedParams,
    demo_network,
    generate_density_scenario,
    generate_planted,
)
from .measures import CleccTable, clecc, clecc_table, ecc, update_after_removal
from .network import MultiLayerNetwork
from .reference import naive_clecc, naive_detect

__version__ = "0.1.0"

__all__ = [
    "MultiLayerNetwork",
    "CleccTable",
    "ecc",
    "clecc",
    "clecc_table",
    "update_after_removal",
    "MinSize",
    "WeakCommunity",
    "StrongCommunity",
    "ValidityCondition",
    "Lexicographic",
    "SeededRandom",
    "TiePolicy",
    "DetectionConfig",
    "DetectionResult",
    "RemovalRecord",
    "run_detection",
    "validate_group",
    "select_min_pair",
    "validity_tag",
    "parse_validity",
    "demo_network",
    "PlantedParams",
    "PlantedNetwork",
    "generate_planted",
    "generate_density_scenario",
    "nmi",
    "ParsedEdgeList",
    "parse_edge_list",
    "write_edge_list",
    "write_result",
    "result_to_dict",
    "partition_to_dict",
    "partition_from_json",
    "naive_clecc",
    "naive_detect",
    "CleccError",
    "SelfLoopError",
    "DuplicateEdgeError",
    "UnknownNodeError",
    "UnknownLayerError",
    "AlphaOutOfRangeError",
    "NotAdjacentError",
    "InconsistentTableError",
    "EmptyTableError",
    "TooManyNodesError",
    "EmptyNetworkError",
    "InvalidParamsError",
    "MalformedLineError",
    "MalformedPartitionError",
    "DomainMismatchError",
    "OracleMismatchError",
    "__version__",
]
