"""Independent checks and oracles for graceful labellings.

Nothing here trusts the closed form or the stream: one pass of
``verify_with_weak_alpha`` over a record stream checks gracefulness against
two presence bitmaps, recomputing every edge label from its end labels,
and takes the weak separator interval from per-edge extremes.  The stream
is read through ``level_runs``, which cuts it into runs of one level and
checks its structure.  A run whose children all lie on one side of their
parents is marked through integer masks from plain label differences; any
other run, and one that could hold a fault, is checked record by record,
so every label is still tested against the bitmaps.
Paths have their own zig-zag oracle; small shapes can be searched exhaustively.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from operator import neg, sub
from typing import Iterable, NamedTuple, Sequence

from .errors import CapacityError, SearchCapError
from .labelling import LabelledVertex, enumerate_vertices, level_runs
from .shape import TreeShape, VertexId

# A run is marked through one scratch mask only when its values span at
# most MASK_BITS_PER_VALUE bits per value, plus one value's worth, which
# caps the mask's digit buffer near 16 KB at CHUNK = 256.  Sparser runs
# (the shallow levels of deep trees) are checked record by record.
MASK_BITS_PER_VALUE = 64
ONE_DIGIT = ord("1")


class Counterexample(NamedTuple):
    kind: str
    vertex: VertexId
    value: int


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a gracefulness check, with counterexamples on failure."""

    vertex_labels_distinct: bool
    labels_in_range: bool
    edge_label_multiset_complete: bool
    counterexamples: tuple[Counterexample, ...]

    @property
    def passed(self) -> bool:
        return (
            self.vertex_labels_distinct
            and self.labels_in_range
            and self.edge_label_multiset_complete
        )


@dataclass(frozen=True)
class WeaklyAlphaReport:
    """Separator feasibility for a graceful labelling.

    ``feasible_k_range`` is the closed interval of integers k such that
    every edge has min(end labels) <= k <= max(end labels), or None when
    no such k exists.  ``claimed_k`` is the second-level subtree size for
    shapes whose root has exactly two children, absent otherwise; the
    closed-form labelling guarantees it to be feasible, other graceful
    labellings need not.
    ``strict_alpha_feasible`` reports whether some k separates every edge
    strictly (min <= k < max); it is reported, never asserted.
    """

    feasible_k_range: tuple[int, int] | None
    claimed_k: int | None
    strict_alpha_feasible: bool


def auxiliary_bitmap_bytes(shape: TreeShape) -> int:
    """Bytes of presence-bitmap state one verification pass allocates."""
    e = shape.edge_count
    return (e + 8) // 8 + (e + 7) // 8


def _chunk_marks(
    bitmap: bytearray, values: Sequence[int], low: int, high: int, first: int, last: int
) -> tuple[int, int, int] | None:
    """The bitmap bytes one run's values would set, or None to check per record.

    ``values`` (min ``low``, max ``high``) map to bits ``value - first``, in [first, last].
    Returns ``(start, stop, window)``: ``window`` is ``bitmap[start:stop]``
    read as a little-endian integer with the values' bits added.  None when
    a value is out of range, repeats, is already marked, or the values are
    too sparse for a mask of bounded size; the bitmap is never written.
    """
    span = high - low + 1
    if low < first or high > last:
        return None
    if span > MASK_BITS_PER_VALUE * (len(values) + 1):
        return None
    # Base-2 digits, most significant first: the digit at high - v is bit
    # v - low of the mask.  int() reads power-of-two bases in linear time.
    digits = bytearray(b"0") * span
    for value in values:
        digits[high - value] = ONE_DIGIT
    if digits.count(ONE_DIGIT) != len(values):
        return None
    start = (low - first) // 8
    stop = (high - first) // 8 + 1
    window = int.from_bytes(bitmap[start:stop], "little")
    mask = int(digits, 2) << (low - first - 8 * start)
    if window & mask:
        return None
    return start, stop, window | mask


def verify_with_weak_alpha(
    shape: TreeShape, records: Iterable[LabelledVertex]
) -> tuple[VerificationReport, WeaklyAlphaReport | None]:
    """Check a full labelling stream for gracefulness and separators in one pass.

    Vertex labels must be pairwise distinct within [0, |E|] and the
    induced edge labels pairwise distinct within [1, |E|]; together that
    forces the edge labels to be exactly {1, ..., |E|}.  The stream must
    cover every vertex once in canonical level order, else LabellingStreamError;
    its parent labels are taken as given.

    Records are checked a run at a time, as ``level_runs`` cuts them.  A run
    whose children all lie above their parents (or all below) takes the label
    differences (or their negations) as edge labels and the parent (or child)
    labels as smaller ends; it is marked in the two presence bitmaps through
    one integer mask each, and its separator ends are max(smaller ends) and
    min(larger ends).  The root's run, and any run that is out of range,
    repeats or overlaps labels, or is too sparse for a bounded mask, is
    checked record by record, naming counterexamples in stream order.

    The weak-separator report is None when verification fails; its
    feasible interval is the intersection of the per-edge [min, max]
    intervals.  Memory is two bitmaps (vertex labels 0..|E|, edge labels
    1..|E|) plus per-run scratch bounded by CHUNK and
    MASK_BITS_PER_VALUE, so multi-million-vertex streams are fine.  CapacityError
    is raised before allocating bitmaps larger than physical memory.
    """
    needed = auxiliary_bitmap_bytes(shape)
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such figure
        physical = 0
    if 0 < physical < needed:  # such bitmaps would be zero-filled page by page
        raise CapacityError(f"bitmaps of {needed} bytes exceed the {physical} bytes of memory")
    edge_count = shape.edge_count
    vertex_bits = bytearray((edge_count + 8) // 8)
    edge_bits = bytearray((edge_count + 7) // 8)
    counterexamples: list[Counterexample] = []
    distinct = in_range = complete = True
    lo = 0  # max over edges of min(end labels)
    hi: int | None = None  # min over edges of max(end labels)
    for width, vertices, labels, parent_labels in level_runs(shape, records):
        edges = None
        if width:
            diffs = list(map(sub, labels, parent_labels))
            low, high = min(diffs), max(diffs)
            if low > 0:  # every child above its parent: parents are the smaller ends
                edges, smaller, larger = diffs, parent_labels, labels
            elif high < 0:  # every child below its parent: children are the smaller ends
                edges, smaller, larger = list(map(neg, diffs)), labels, parent_labels
                low, high = -high, -low
        # A run with children on both sides, or with a zero edge, keeps
        # edges None and is checked record by record.
        vertex_marks = edges and _chunk_marks(
            vertex_bits, labels, min(labels), max(labels), 0, edge_count
        )
        edge_marks = vertex_marks and _chunk_marks(edge_bits, edges, low, high, 1, edge_count)
        if edge_marks:
            for bitmap, (start, stop, window) in (
                (vertex_bits, vertex_marks),
                (edge_bits, edge_marks),
            ):
                bitmap[start:stop] = window.to_bytes(stop - start, "little")
            small, large = max(smaller), min(larger)
            if small > lo:
                lo = small
            if hi is None or large < hi:
                hi = large
            continue
        for vertex, label, parent_label in zip(vertices, labels, parent_labels):
            if 0 <= label <= edge_count:
                byte, bit = divmod(label, 8)
                mask = 1 << bit
                if vertex_bits[byte] & mask:
                    distinct = False
                    counterexamples.append(
                        Counterexample("duplicate vertex label", vertex, label)
                    )
                else:
                    vertex_bits[byte] |= mask
            else:
                in_range = False
                counterexamples.append(
                    Counterexample("vertex label out of range", vertex, label)
                )
            if parent_label is None:
                continue
            induced = abs(label - parent_label)
            if 1 <= induced <= edge_count:
                byte, bit = divmod(induced - 1, 8)
                mask = 1 << bit
                if edge_bits[byte] & mask:
                    complete = False
                    counterexamples.append(
                        Counterexample("duplicate edge label", vertex, induced)
                    )
                else:
                    edge_bits[byte] |= mask
            else:
                complete = False
                counterexamples.append(
                    Counterexample("edge label out of range", vertex, induced)
                )
            if label < parent_label:
                small, large = label, parent_label
            else:
                small, large = parent_label, label
            if small > lo:
                lo = small
            if hi is None or large < hi:
                hi = large
    report = VerificationReport(distinct, in_range, complete, tuple(counterexamples))
    if not report.passed:
        return report, None
    if edge_count == 0:
        # No edges: every k works; report the full label range.
        return report, WeaklyAlphaReport((0, 0), None, True)
    feasible = (lo, hi) if lo <= hi else None
    claimed = shape.level_sizes[1] if shape.degrees[0] == 2 else None
    strict = feasible is not None and lo < hi
    return report, WeaklyAlphaReport(feasible, claimed, strict)


def brute_force_graceful(
    shape: TreeShape, cap: int = 14
) -> dict[VertexId, int] | None:
    """Search for a graceful labelling, independent of the closed form.

    Backtracking over vertices in breadth-first order, trying labels
    0..|E| in increasing order and pruning duplicate vertex or edge
    labels, so the first hit is the lexicographically smallest label
    vector, returned as a vertex -> label dict.  Returns None if the
    search space is exhausted (not expected for any tree, but the search
    is honest about it).
    """
    if shape.vertex_count > cap:
        raise SearchCapError(
            f"{shape.vertex_count} vertices exceeds the search cap of {cap}"
        )
    order = list(enumerate_vertices(shape))
    index = {vertex: i for i, vertex in enumerate(order)}
    parents = [index[vertex[:-1]] if vertex else None for vertex in order]
    n = shape.vertex_count
    edge_count = shape.edge_count
    labels = [0] * n
    vertex_used = [False] * (edge_count + 1)
    edge_used = [False] * (edge_count + 1)

    # An explicit stack of next candidates, one per vertex, instead of one
    # Python frame per vertex: deep trees must not hit the recursion limit.
    next_candidate = [0] * (n + 1)
    i = 0
    while i < n:
        parent_index = parents[i]
        for candidate in range(next_candidate[i], edge_count + 1):
            if vertex_used[candidate]:
                continue
            if parent_index is not None:
                gap = abs(candidate - labels[parent_index])
                if gap == 0 or edge_used[gap]:
                    continue
                edge_used[gap] = True
            labels[i] = candidate
            vertex_used[candidate] = True
            next_candidate[i] = candidate + 1
            i += 1
            next_candidate[i] = 0
            break
        else:
            # Every candidate failed: undo the previous vertex and move on
            # to its next candidate.
            i -= 1
            if i < 0:
                return None
            vertex_used[labels[i]] = False
            if parents[i] is not None:
                edge_used[abs(labels[i] - labels[parents[i]])] = False
    return dict(zip(order, labels))


def canonical_path_labelling(n: int) -> list[int]:
    """Zig-zag graceful labels 0, n-1, 1, n-2, ... along an n-vertex path.

    Two converging counters, nothing else; serves as an independent oracle
    for the path special case.
    """
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    labels = []
    low, high = 0, n - 1
    while low < high:
        labels.append(low)
        labels.append(high)
        low += 1
        high -= 1
    if low == high:
        labels.append(low)
    return labels
