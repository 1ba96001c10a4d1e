"""Graceful labelling of rooted symmetric trees.

Build a tree shape from its daughter degree sequence, label every vertex
with the closed-form graceful labelling, decode labels back to vertices,
and verify gracefulness and weak-separator structure against independent
oracles.
"""

from .errors import (
    CapacityError,
    ConsistencyError,
    DegreeSequenceError,
    InvalidVertexError,
    LabelRangeError,
    LabellingStreamError,
    SearchCapError,
)
from .inverse import DecodeState, invert_label, trace_inversion
from .labelling import (
    BLOCK,
    Block,
    LabelledVertex,
    enumerate_vertices,
    label_all,
    label_blocks,
    label_vertex,
    records_from_assignment,
)
from .shape import (
    TreeShape,
    VertexId,
    build_shape,
    format_vertex,
    parse_degree_sequence,
    validate_vertex,
)
from .verification import (
    Counterexample,
    VerificationReport,
    WeaklyAlphaReport,
    auxiliary_bitmap_bytes,
    brute_force_graceful,
    canonical_path_labelling,
    verify_with_weak_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCK",
    "Block",
    "CapacityError",
    "ConsistencyError",
    "Counterexample",
    "DecodeState",
    "DegreeSequenceError",
    "InvalidVertexError",
    "LabelRangeError",
    "LabelledVertex",
    "LabellingStreamError",
    "SearchCapError",
    "TreeShape",
    "VerificationReport",
    "VertexId",
    "WeaklyAlphaReport",
    "auxiliary_bitmap_bytes",
    "brute_force_graceful",
    "build_shape",
    "canonical_path_labelling",
    "enumerate_vertices",
    "format_vertex",
    "invert_label",
    "label_all",
    "label_blocks",
    "label_vertex",
    "parse_degree_sequence",
    "records_from_assignment",
    "trace_inversion",
    "validate_vertex",
    "verify_with_weak_alpha",
]
