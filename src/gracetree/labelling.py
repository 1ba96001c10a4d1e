"""Closed-form graceful labels for rooted symmetric trees.

The label of a vertex is pure arithmetic on its identifying child-index
sequence (x_1, ..., x_{r-1}) and the subtree sizes h_i.  A vertex at
level r gets

    offset + sign * (x_1*h_2 + x_2*h_3 + ... + x_{r-1}*h_r)

where ``level_form`` gives offset (r - 1)/2 and sign +1 for odd r, and
offset |E| - (r - 2)/2 and sign -1 for even r; the root, at level 1, gets
0.  The divisions by 2 are exact for the matching parity of r.  Every edge
then carries the absolute difference of its endpoint labels.  That this
assignment is graceful is machine-checked by the verification module
rather than taken on faith.

Whole trees are labelled in blocks: runs of at most BLOCK vertices of one
level, contiguous in canonical order, whose labels are one precomputed
offset table shifted by a per-block base.  ``label_blocks`` is the core;
``label_all`` expands it into one record per vertex.  ``level_runs`` cuts
a record stream back into runs of one level for the verifier and the
writers, and checks that it covers the tree once in canonical order.
"""

from __future__ import annotations

from itertools import chain, islice, product, repeat
from operator import add, mul
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import ConsistencyError, LabellingStreamError
from .shape import TreeShape, VertexId, validate_vertex

# Most vertices in one block.  The offset tables grow with it, while each
# block's fixed cost is spread over more vertices.
BLOCK = 1024
# Most records in one run of ``level_runs``.  A run of 256 records with
# 20-digit vertex ids (about 70 KB) stays in cache; 1024 ran about 25%
# slower in the verifier on the 2,097,151-vertex binary tree.
CHUNK = 256


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
        """The block's vertex ids, built only when asked for.

        Each id is one tuple from ``itertools.product``, which takes every
        prefix digit from a one-value tuple, so no prefix is concatenated
        to a suffix per vertex.
        """
        return product(*zip(self.prefix), *self.ranges)


def level_form(shape: TreeShape, level: int) -> tuple[int, int]:
    """The ``(offset, sign)`` of level ``level``'s labels.

    Level r labels its vertices ``offset + sign * dot``, where dot is the
    weighted digit sum x_1*h_2 + ... + x_{r-1}*h_r.  This is the only
    place that tells odd levels from even ones.
    """
    if level % 2:
        return (level - 1) // 2, 1
    return shape.edge_count - (level - 2) // 2, -1


def label_vertex(shape: TreeShape, vertex: VertexId) -> int:
    """Closed-form graceful label of one vertex, validated against the shape.

    It is ``offset + sign * dot`` from the vertex's ``level_form``; a label
    outside [0, |E|] would mean a bug, not a data error.
    """
    offset, sign = level_form(shape, validate_vertex(shape, vertex))
    result = offset + sign * sum(map(mul, vertex, shape.level_sizes[1:]))
    if not 0 <= result <= shape.edge_count:
        raise ConsistencyError(
            f"label {result} for vertex {vertex} outside [0, {shape.edge_count}]"
        )
    return result


def label_blocks(shape: TreeShape) -> Iterator[Block]:
    """Stream the closed-form labelling as blocks in canonical order.

    Per level, the lowest digits whose combinations fit in BLOCK are
    expanded in full, and the digit above them (the split digit) in chunks
    of as many values as still fit; one offset table of weighted digit sums
    covers every block of the level.  ``itertools.product`` walks the
    remaining high digits, whose weighted sum moves the base, so labelling
    costs two C-level maps per block and memory never depends on the
    vertex count, however long a sibling run is.
    """
    yield Block((), (), [0], None)
    degrees = shape.degrees
    sizes = shape.level_sizes
    for level in range(2, shape.levels + 1):
        width = level - 1
        weights = sizes[1:level]  # digit i multiplies h_{i+2}
        # The parent's weighted sum drops the child digit.
        parent_weights = weights[:-1] + (0,)
        radices = degrees[:width]
        base, sign = level_form(shape, level)
        parent_base, parent_sign = level_form(shape, level - 1)
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
                d + parent_sign * x * parent_weights[j] for d in parent_dots for x in values
            ]
        # Each setting of the digits above the split digit is the shared
        # prefix of one run of chunks.
        for prefix in product(*map(range, radices[:split])):
            dot = sum(map(mul, prefix, weights))
            for first in range(0, radices[split], chunk):
                last = min(first + chunk, radices[split])
                size = (last - first) * span
                label_shift = base + sign * (dot + first * weights[split])
                parent_shift = parent_base + parent_sign * (dot + first * parent_weights[split])
                yield Block(
                    prefix,
                    (range(first, last),) + full_ranges,
                    list(map(add, repeat(label_shift), dots[:size])),
                    list(map(add, repeat(parent_shift), parent_dots[:size])),
                )


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


def level_runs(shape: TreeShape, records: Iterable[LabelledVertex]) -> Iterator[tuple]:
    """Cut a record stream into runs of at most CHUNK records of one level.

    Yields ``(width, vertices, labels, parent_labels)``, a run's records
    taken apart into fields; the root is the single run of width 0.  Raises
    LabellingStreamError unless the stream is the root record (id ``()``, no
    parent label), then every level in full with parent labels, then nothing.
    """
    records = iter(records)
    vertex, label, parent_label = next(records, (None, None, None))
    if vertex != () or parent_label is not None:
        raise LabellingStreamError("label stream does not start with the root record")
    yield 0, ((),), (label,), (None,)
    size = 1
    for width, degree in enumerate(shape.degrees, start=1):
        size *= degree
        for left in range(size, 0, -CHUNK):
            count = min(left, CHUNK)
            run = list(islice(records, count))
            if len(run) < count:
                raise LabellingStreamError(f"label stream ends inside level {width + 1}")
            vertices, labels, parent_labels = zip(*run)
            if set(map(len, vertices)) != {width}:
                raise LabellingStreamError(f"label stream has a bad id length at level {width + 1}")
            if None in parent_labels:
                raise LabellingStreamError(f"label stream has no parent label at level {width + 1}")
            yield width, vertices, labels, parent_labels
    if next(records, None) is not None:
        raise LabellingStreamError(f"label stream runs past {shape.vertex_count} vertices")


def enumerate_vertices(shape: TreeShape) -> Iterator[VertexId]:
    """Yield every vertex in breadth-first order.

    Level by level, and within a level in lexicographic order of the
    child-index sequences.  This is the canonical order for all outputs.
    """
    for width in range(shape.levels):
        yield from product(*map(range, shape.degrees[:width]))


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
