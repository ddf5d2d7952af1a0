"""Token-sliding independent-set reconfiguration on block graphs.

A structural polynomial-time decision procedure (block-cut tree pairs,
depth/ua invariants, capacities, fixed-point potentials, rigid vertices)
cross-validated against a brute-force state-space oracle.
"""

from .blocks import (
    BlockDecomposition,
    Pair,
    TO_BLOCK,
    TO_VERTEX,
    decompose,
    is_block_graph,
)
from .decide import CountMismatch, Reachable, RigidMismatch, UnequalSize
from .decide import Reason, Verdict, decide, decide_connected, rigid_vertices
from .errors import (
    BlockslideError,
    DuplicateEdgeError,
    InstanceFormatError,
    InternalError,
    InvalidPairError,
    InvalidParamsError,
    MissingSectionError,
    NotABlockGraphError,
    NotIndependentError,
    SelfLoopError,
    TruncatedSpaceError,
    VertexOutOfRangeError,
)
from .gen import GenParams, SplitMix64, gen_block_graph, gen_independent_set
from .graph import Graph, TokenSet, connected_components
from .instance import Instance, parse_instance, render_instance
from .invariants import compute_depths, compute_ua
from .oracle import (
    NO,
    UNKNOWN,
    YES,
    OracleLimits,
    StateSpace,
    enumerate_reachable,
    never_token_vertices,
    oracle_potential,
    oracle_potential_table,
    oracle_reachable,
    successors,
)
from .potential import capacity_table, compute_potentials

__all__ = [
    # blocks
    "BlockDecomposition", "Pair", "TO_BLOCK", "TO_VERTEX", "decompose",
    "is_block_graph",
    # decide
    "CountMismatch", "Reachable", "Reason", "RigidMismatch", "UnequalSize",
    "Verdict", "decide", "decide_connected", "rigid_vertices",
    # errors
    "BlockslideError", "DuplicateEdgeError", "InstanceFormatError",
    "InternalError", "InvalidPairError", "InvalidParamsError",
    "MissingSectionError", "NotABlockGraphError", "NotIndependentError",
    "SelfLoopError", "TruncatedSpaceError", "VertexOutOfRangeError",
    # gen
    "GenParams", "SplitMix64", "gen_block_graph", "gen_independent_set",
    # graph
    "Graph", "TokenSet", "connected_components",
    # instance
    "Instance", "parse_instance", "render_instance",
    # invariants
    "compute_depths", "compute_ua",
    # oracle
    "NO", "UNKNOWN", "YES", "OracleLimits", "StateSpace", "enumerate_reachable",
    "never_token_vertices", "oracle_potential", "oracle_potential_table",
    "oracle_reachable", "successors",
    # potential
    "capacity_table", "compute_potentials",
]
__version__ = "0.1.0"
