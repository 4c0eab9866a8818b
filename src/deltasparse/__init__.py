"""deltasparse: sparse (min,+) graph kernels with a bucketed shortest-path
solver on top, in unfused and fused flavors."""

from .core import (
    SparseMatrix,
    SparseVector,
    mask_from_indices,
    matrix_build,
    vector_build,
)
from .fused import BackendChoice, bucket_bounds
from .generate import random_connected_unit_graph, random_graph
from .io import (
    GraphFile,
    GraphLoadError,
    LabelMap,
    ParseError,
    ValidationError,
    load_edge_list,
    load_graph,
    load_matrix_market,
)
from .ops import (
    LESS,
    MIN,
    OR,
    TIMES,
    BinaryOp,
    ewise_add_vector,
    ewise_mult_vector,
    filter_matrix,
    filter_vector,
    greater_than,
    in_half_open,
    positive_at_most,
    vxm_min_plus,
)
from .sssp import (
    DeltaTooSmall,
    SsspResult,
    SsspState,
    compute_bucket,
    delta_stepping,
    dijkstra_oracle,
    relax_heavy,
    relax_light_phase,
    split_edges,
)

__version__ = "0.1.0"

__all__ = [
    "SparseMatrix",
    "SparseVector",
    "mask_from_indices",
    "matrix_build",
    "vector_build",
    "BackendChoice",
    "bucket_bounds",
    "random_connected_unit_graph",
    "random_graph",
    "GraphFile",
    "GraphLoadError",
    "LabelMap",
    "ParseError",
    "ValidationError",
    "load_edge_list",
    "load_graph",
    "load_matrix_market",
    "LESS",
    "MIN",
    "OR",
    "TIMES",
    "BinaryOp",
    "ewise_add_vector",
    "ewise_mult_vector",
    "filter_matrix",
    "filter_vector",
    "greater_than",
    "in_half_open",
    "positive_at_most",
    "vxm_min_plus",
    "DeltaTooSmall",
    "SsspResult",
    "SsspState",
    "compute_bucket",
    "delta_stepping",
    "dijkstra_oracle",
    "relax_heavy",
    "relax_light_phase",
    "split_edges",
    "__version__",
]
