"""Closed-form graceful labels for rooted symmetric trees.

The label of a vertex is pure arithmetic on its identifying child-index
sequence (x_1, ..., x_{r-1}) and the subtree sizes h_i: the root gets 0,
and a vertex at level r gets

    (k_1 - x_1)*h_2 - x_2*h_3 - ... - x_{r-1}*h_r - (r - 2)/2    r even
    x_1*h_2 + x_2*h_3 + ... + x_{r-1}*h_r + (r - 1)/2            r odd

The divisions by 2 are exact for the matching parity of r.  Every edge
then carries the absolute difference of its endpoint labels.  That this
assignment is graceful is machine-checked by the verification module
rather than taken on faith.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple

from .errors import ConsistencyError, InvalidVertexError, LabellingStreamError
from .shape import TreeShape, VertexId, validate_vertex


class LabelledVertex(NamedTuple):
    """One vertex of a labelling stream; the root has no parent label.

    The edge to the parent carries ``abs(label - parent_label)``.
    """

    vertex: VertexId
    label: int
    parent_label: int | None


def label_vertex(shape: TreeShape, vertex: VertexId) -> int:
    """Closed-form graceful label of one vertex, validated against the shape."""
    level = validate_vertex(shape, vertex)
    if level == 1:
        return 0
    sizes = shape.level_sizes
    if level % 2 == 0:
        # Head dominates the subtracted tail for every valid vertex; a
        # negative difference would mean a bug, not a data error.
        head = (shape.degrees[0] - vertex[0]) * sizes[1]
        tail = (level - 2) // 2
        for j in range(1, level - 1):
            tail += vertex[j] * sizes[j + 1]
        if tail > head:
            raise ConsistencyError(
                f"even-level tail {tail} exceeds head {head} at vertex {vertex}"
            )
        result = head - tail
    else:
        result = (level - 1) // 2
        for j in range(level - 1):
            result += vertex[j] * sizes[j + 1]
    if result > shape.edge_count:
        raise ConsistencyError(
            f"label {result} for vertex {vertex} exceeds edge count {shape.edge_count}"
        )
    return result


def edge_label(shape: TreeShape, child: VertexId) -> int:
    """Induced label of the edge between a non-root vertex and its parent."""
    if not child:
        raise InvalidVertexError("the root has no incoming edge")
    return abs(label_vertex(shape, child) - label_vertex(shape, child[:-1]))


def label_all(shape: TreeShape) -> Iterator[LabelledVertex]:
    """Stream one record per vertex in canonical breadth-first order.

    The root record carries no parent label.  State is a single
    mixed-radix odometer whose weighted digit sum is updated in place, so
    emitting a record costs O(1) arithmetic and memory never depends on
    the vertex count; multi-million-vertex trees stream in constant space.
    """
    yield LabelledVertex((), 0, None)
    degrees = shape.degrees
    sizes = shape.level_sizes
    edges = shape.edge_count
    for level in range(2, shape.levels + 1):
        width = level - 1
        weights = sizes[1:level]  # digit i multiplies h_{i+2}
        radices = degrees[:width]
        # A carry that stops at digit j bumps the weighted sum by the
        # digit's own weight minus everything released by the maxed-out
        # digits to its right.
        released = 0
        deltas = [0] * width
        for j in range(width - 1, -1, -1):
            deltas[j] = weights[j] - released
            released += (radices[j] - 1) * weights[j]
        last_weight = weights[-1]
        even = level % 2 == 0
        half = (level - 2) // 2 if even else (level - 1) // 2
        parent_half = (level - 2) // 2 if even else (level - 3) // 2
        digits = [0] * width
        dot = 0
        while True:
            parent_dot = dot - digits[-1] * last_weight
            if even:
                label = edges - dot - half
                parent_label = parent_dot + parent_half
            else:
                label = dot + half
                parent_label = edges - parent_dot - parent_half
            yield LabelledVertex(tuple(digits), label, parent_label)
            for j in reversed(range(width)):
                digits[j] += 1
                if digits[j] < radices[j]:
                    dot += deltas[j]
                    break
                digits[j] = 0
            else:
                break


def enumerate_vertices(shape: TreeShape) -> Iterator[VertexId]:
    """Yield every vertex in breadth-first order.

    Level by level, and within a level in lexicographic order of the
    child-index sequences.  This is the canonical order for all outputs.
    """
    for rec in label_all(shape):
        yield rec.vertex


def records_from_assignment(
    shape: TreeShape, assignment: Mapping[VertexId, int]
) -> Iterator[LabelledVertex]:
    """Stream records for an explicit vertex -> label mapping in canonical order.

    The mapping must cover every vertex exactly once; otherwise
    LabellingStreamError is raised.
    """
    if len(assignment) != shape.vertex_count:
        raise LabellingStreamError(
            f"assignment covers {len(assignment)} vertices, "
            f"expected {shape.vertex_count}"
        )
    for vertex in enumerate_vertices(shape):
        try:
            label = assignment[vertex]
        except KeyError:
            raise LabellingStreamError(
                f"assignment missing vertex {vertex}"
            ) from None
        parent_label = assignment[vertex[:-1]] if vertex else None
        yield LabelledVertex(vertex, label, parent_label)
