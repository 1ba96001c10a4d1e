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

Whole trees are labelled in blocks: runs of at most BLOCK vertices of one
level, contiguous in canonical order, whose labels are one precomputed
offset table shifted by a per-block base.  ``label_blocks`` is the core;
``label_all`` expands it into one record per vertex.
"""

from __future__ import annotations

from itertools import chain, product, repeat
from operator import mul
from typing import Iterator, Mapping, NamedTuple

from .errors import ConsistencyError, InvalidVertexError, LabellingStreamError
from .shape import TreeShape, VertexId, validate_vertex

# Most vertices in one block.  Per-block scratch (the offset tables here,
# the masks in the verifier) grows with it, while each block's fixed cost
# is spread over more vertices.
BLOCK = 1024


class LabelledVertex(NamedTuple):
    """One vertex of a labelling stream; the root has no parent label.

    The edge to the parent carries ``abs(label - parent_label)``.
    """

    vertex: VertexId
    label: int
    parent_label: int | None


class Block(NamedTuple):
    """A run of vertices of one level, contiguous in canonical order.

    The vertices are ``prefix + suffix`` for every ``suffix`` in
    ``itertools.product(*ranges)``, in that order; ``labels[i]`` and
    ``parent_labels[i]`` belong to the i-th of them.  Only the root's
    one-vertex block has ``parent_labels`` None.
    """

    prefix: VertexId
    ranges: tuple[range, ...]
    labels: list[int]
    parent_labels: list[int] | None

    def vertices(self) -> Iterator[VertexId]:
        """The block's vertex ids, built only when asked for."""
        return map(self.prefix.__add__, product(*self.ranges))


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


def label_blocks(shape: TreeShape) -> Iterator[Block]:
    """Stream the closed-form labelling as blocks in canonical order.

    Per level, the lowest digits whose combinations fit in BLOCK are
    expanded in full, and the digit above them (the split digit) in chunks
    of as many values as still fit; one offset table of weighted digit sums
    covers every block of the level.  A mixed-radix odometer over the
    remaining high digits moves the base, so labelling costs two C-level
    maps per block and memory never depends on the vertex count, however
    long a sibling run is.
    """
    yield Block((), (), [0], None)
    degrees = shape.degrees
    sizes = shape.level_sizes
    edges = shape.edge_count
    for level in range(2, shape.levels + 1):
        width = level - 1
        weights = sizes[1:level]  # digit i multiplies h_{i+2}
        # The parent's weighted sum drops the child digit.
        parent_weights = weights[:-1] + (0,)
        radices = degrees[:width]
        # Odd levels add the weighted digit sum to their base and even
        # levels subtract it; parents sit on the other side.
        half = (level - 1) // 2
        if level % 2:
            sign, base, parent_base = 1, half, edges - half + 1
        else:
            sign, base, parent_base = -1, edges - half, half
        split, span = width - 1, 1
        while split > 0 and span * radices[split] <= BLOCK:
            span *= radices[split]
            split -= 1
        chunk = min(BLOCK // span, radices[split])
        full_ranges = tuple(map(range, radices[split + 1:]))
        # Signed offsets of every vertex of a chunk that starts at split
        # digit 0, for its label and for its parent's label.
        dots, parent_dots = [0], [0]
        for j in range(split, width):
            values = range(chunk if j == split else radices[j])
            dots = [d + sign * x * weights[j] for d in dots for x in values]
            parent_dots = [
                d - sign * x * parent_weights[j] for d in parent_dots for x in values
            ]
        # An odometer over the digits above the split digit; each setting
        # is the shared prefix of one run of chunks.
        digits = [0] * split
        while True:
            prefix = tuple(digits)
            dot = sum(map(mul, digits, weights))
            for first in range(0, radices[split], chunk):
                last = min(first + chunk, radices[split])
                size = (last - first) * span
                label_shift = base + sign * (dot + first * weights[split])
                parent_shift = parent_base - sign * (dot + first * parent_weights[split])
                yield Block(
                    prefix,
                    (range(first, last),) + full_ranges,
                    list(map(label_shift.__add__, dots[:size])),
                    list(map(parent_shift.__add__, parent_dots[:size])),
                )
            for j in reversed(range(split)):
                digits[j] += 1
                if digits[j] < radices[j]:
                    break
                digits[j] = 0
            else:
                break


def label_all(shape: TreeShape) -> Iterator[LabelledVertex]:
    """Stream one record per vertex in canonical breadth-first order.

    The root record carries no parent label.  Records are the expansion
    of ``label_blocks``, built by C-level maps with no Python frame per
    record, so memory never depends on the vertex count.
    """
    return chain.from_iterable(map(_block_records, label_blocks(shape)))


def _block_records(block: Block) -> Iterator[LabelledVertex]:
    # tuple.__new__ builds each record without the Python-level __new__
    # of a NamedTuple.
    parents = block.parent_labels or (None,)
    return map(
        tuple.__new__,
        repeat(LabelledVertex),
        zip(block.vertices(), block.labels, parents),
    )


def enumerate_vertices(shape: TreeShape) -> Iterator[VertexId]:
    """Yield every vertex in breadth-first order.

    Level by level, and within a level in lexicographic order of the
    child-index sequences.  This is the canonical order for all outputs.
    """
    for block in label_blocks(shape):
        yield from block.vertices()


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
