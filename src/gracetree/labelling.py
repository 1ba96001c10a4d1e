"""Closed-form graceful labels for rooted symmetric trees.

A vertex at level r, named by its child indices (x_1, ..., x_{r-1}), gets
a label that is pure arithmetic on them and the subtree sizes h_i:

    offset + sign * (x_1*h_2 + x_2*h_3 + ... + x_{r-1}*h_r)

where ``level_form`` gives the weights (h_2, ..., h_r), offset (r - 1)/2
and sign +1 for odd r, and offset |E| - (r - 2)/2 and sign -1 for even r;
the root, at level 1, gets 0.  The divisions by 2 are exact for the
matching parity of r.  Every edge then carries the absolute difference of
its endpoint labels; the verification module machine-checks gracefulness.
The weighted sum is the vertex's preorder index p minus its depth d = r - 1,
so the label is p - d/2 at even depth and |E| - p + (d+1)/2 at odd depth:
Rosa's converging counters 0, |E|, 1, |E| - 1, ... for a path, run on a
depth-first walk, as ``verification.preorder_labelling`` does.

Whole trees are labelled in blocks: runs of at most BLOCK vertices of one
level, contiguous in canonical order, whose labels are one precomputed
offset table shifted by a per-block base.  ``label_blocks`` is the core;
``label_all`` pairs its labels with the ids of ``enumerate_vertices``, one
record per vertex.  ``level_runs`` cuts a record stream back into runs of
one level for the verifier and the writers.  It checks the root record,
each level's record count and id length, and that every other record
has a parent label and every label is an int; not which ids a level holds.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, islice, product, repeat
from operator import add, mul
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import ConsistencyError, LabellingStreamError
from .shape import TreeShape, VertexId, format_vertex, validate_vertex

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


def level_form(shape: TreeShape, level: int) -> tuple[int, int, tuple[int, ...]]:
    """The ``(offset, sign, weights)`` of level ``level``'s labels.

    Level r labels its vertices ``offset + sign * dot``, where dot is the
    digit sum x_1*h_2 + ... + x_{r-1}*h_r weighted by ``weights`` =
    (h_2, ..., h_r).  This is the only place that tells odd levels from
    even ones or reads the subtree sizes.
    """
    weights = shape.level_sizes[1:level]
    if level % 2:
        return (level - 1) // 2, 1, weights
    return shape.edge_count - (level - 2) // 2, -1, weights


def label_vertex(shape: TreeShape, vertex: VertexId) -> int:
    """Closed-form graceful label of one vertex, validated against the shape.

    It is ``offset + sign * dot`` from the vertex's ``level_form``; a label
    outside [0, |E|] would mean a bug, not a data error.
    """
    offset, sign, weights = level_form(shape, validate_vertex(shape, vertex))
    result = offset + sign * sum(map(mul, vertex, weights))
    if not 0 <= result <= shape.edge_count:
        raise ConsistencyError(
            f"label {result} for vertex {vertex} outside [0, {shape.edge_count}]"
        )
    return result


def label_blocks(shape: TreeShape) -> Iterator[tuple[list[int], list[int] | None]]:
    """Stream the closed-form labelling as ``(labels, parent_labels)`` blocks.

    A block is a run of vertices of one level, contiguous in canonical
    order: the blocks concatenate to the order of ``enumerate_vertices``, so
    ``labels[i]`` and ``parent_labels[i]`` belong to the vertex at that
    position.  Only the root's one-vertex block has ``parent_labels`` None.
    Each level is cut into blocks at its split digit (``_split_digit``),
    and one offset table of weighted digit sums covers all of them; the
    digits above the split digit move the base, so labelling costs two
    C-level maps per block and memory never depends on the vertex count.
    """
    root, _, _ = level_form(shape, 1)
    yield [root], None
    for level in range(2, shape.levels + 1):
        radices = shape.degrees[: level - 1]
        base, sign, weights = level_form(shape, level)
        parent_base, parent_sign, parent_weights = level_form(shape, level - 1)
        # The parent's weighted sum has no child digit.
        parent_weights += (0,)
        split, span, chunk = _split_digit(radices)
        # Signed offsets of every vertex of a chunk that starts at split
        # digit 0, for its label and its parent's; a one-value digit moves neither.
        dots, parent_dots = [0], [0]
        digits = zip((chunk, *radices[split + 1:]), weights[split:], parent_weights[split:])
        for radix, weight, parent_weight in digits:
            if radix > 1:
                values = range(radix)
                dots = [d + sign * x * weight for d in dots for x in values]
                parent_dots = [d + parent_sign * x * parent_weight for d in parent_dots for x in values]
        # Each setting of the digits above the split digit is the shared
        # prefix of one run of chunks.
        for prefix in _level_ids(radices[:split]):
            dot = sum(map(mul, prefix, weights))
            for first in range(0, radices[split], chunk):
                last = min(first + chunk, radices[split])
                size = (last - first) * span
                label_shift = base + sign * (dot + first * weights[split])
                parent_shift = parent_base + parent_sign * (dot + first * parent_weights[split])
                yield (
                    list(map(add, repeat(label_shift), dots[:size])),
                    list(map(add, repeat(parent_shift), parent_dots[:size])),
                )


def _split_digit(radices: tuple[int, ...]) -> tuple[int, int, int]:
    # ``(split, span, chunk)`` for ids with digit radices ``radices``: the
    # first digit whose prefix count reaches ceil(count / BLOCK) is split in
    # chunks of ``chunk`` values; the ``span`` settings after it fit in BLOCK.
    counts = list(accumulate(radices, mul))
    split = bisect_left(counts, -(-counts[-1] // BLOCK))
    span = counts[-1] // counts[split]
    return split, span, min(BLOCK // span, radices[split])


def _level_ids(radices: tuple[int, ...]) -> Iterator[VertexId]:
    # The ids with digit radices ``radices`` in lexicographic order, one
    # ``product`` per block.  ``product`` copies every range it is given, so
    # the digits above the split digit come from this function again.
    if not radices:
        return iter(((),))
    split, _, chunk = _split_digit(radices)
    low = tuple(map(range, radices[split + 1:]))
    return chain.from_iterable(
        product(*zip(prefix), range(first, min(first + chunk, radices[split])), *low)
        for prefix in _level_ids(radices[:split])
        for first in range(0, radices[split], chunk)
    )


def _level_text(radices: tuple[int, ...]) -> Iterator[str]:
    # ``format_vertex`` of each id of ``_level_ids(radices)``: the text after
    # the split digit (",3,1)") is built once and follows every head ("(0,2").
    if not radices:
        return iter(("()",))
    split = _split_digit(radices)[0]
    digits = (list(map(",%d".__mod__, range(k))) for k in radices[split + 1:])
    tails = list(map(add, map("".join, product(*digits)), repeat(")")))
    return chain.from_iterable(
        map(add, repeat(format_vertex(prefix)[:-1]), tails)
        for prefix in _level_ids(radices[: split + 1])
    )


def label_all(shape: TreeShape) -> Iterator[LabelledVertex]:
    """Stream one record per vertex in canonical breadth-first order.

    The root record carries no parent label.  Each block of
    ``label_blocks`` takes as many ids from one shared
    ``enumerate_vertices`` iterator as it has labels; records are built by
    C-level maps with no Python frame per record, so memory never depends
    on the vertex count.
    """
    vertices = enumerate_vertices(shape)
    # tuple.__new__ builds each record without the Python-level __new__
    # of a NamedTuple.  islice comes first in zip, so zip stops on it
    # without pulling an id that belongs to the next block.
    return chain.from_iterable(
        map(
            tuple.__new__,
            repeat(LabelledVertex),
            zip(islice(vertices, len(labels)), labels, parents or (None,)),
        )
        for labels, parents in label_blocks(shape)
    )


def level_runs(shape: TreeShape, records: Iterable[LabelledVertex]) -> Iterator[tuple]:
    """Cut a record stream into runs of at most CHUNK records of one level.

    Yields ``(width, vertices, labels, parent_labels)``, a run's records
    taken apart into fields; the root is the single run of width 0.  Raises
    LabellingStreamError unless the stream is the root record (id ``()``, no
    parent label), then each level's vertex count of records with ids of
    that level's length and parent labels, then nothing, and unless every
    label and parent label is an int.  Which ids a level holds is not checked.
    """
    records = iter(records)
    vertex, label, parent_label = next(records, (None, None, None))
    if vertex != () or parent_label is not None:
        raise LabellingStreamError("label stream does not start with the root record")
    if not _integers((label,)):
        raise LabellingStreamError("label stream has a non-integer label at level 1")
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
            if not (_integers(labels) and _integers(parent_labels)):
                raise LabellingStreamError(f"label stream has a non-integer label at level {width + 1}")
            yield width, vertices, labels, parent_labels
    if next(records, None) is not None:
        raise LabellingStreamError(f"label stream runs past {shape.vertex_count} vertices")


def _integers(values: tuple) -> bool:
    # Whether every value is an int (bools count): the sum of ints is one, a
    # float, Fraction or Decimal makes it one of those, and str or None raise.
    try:
        return type(sum(values)) is int
    except TypeError:
        return False


def enumerate_vertices(shape: TreeShape) -> Iterator[VertexId]:
    """Iterate over every vertex id in breadth-first order.

    Level by level, and within a level in lexicographic order of the
    child-index sequences.  This is the canonical order for all outputs.
    One ``itertools.product`` per block, so no Python frame runs per id
    and memory never depends on the vertex count.
    """
    return chain.from_iterable(_level_ids(shape.degrees[:width]) for width in range(shape.levels))


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
