"""Independent checks and oracles for graceful labellings.

Nothing here trusts the closed form or the stream: one pass of
``verify_with_weak_alpha`` over a record stream checks gracefulness against
two presence bitmaps, recomputing every edge label from its end labels,
and takes the weak separator interval from per-edge extremes.  The stream
is read through ``level_runs``, which cuts it into runs of one level and
checks its structure; the root's run is read first.  A later run whose
children all lie on one side of their parents is marked through two
integer masks; any other is checked record by record and takes its
separator ends from whole-run extremes.  The report's flags follow from
the kinds of counterexample found.  The complement |E| - f of a graceful
labelling f is graceful too, so the verifier passes the parity-swapped
closed form; decoding fails it, and so does ``preorder_labelling``, exact
labels from a depth-first walk.  Small shapes can be searched exhaustively.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul, sub
from typing import Iterable, NamedTuple, Sequence

from .errors import CapacityError, SearchCapError
from .labelling import LabelledVertex, enumerate_vertices, level_runs, records_from_assignment
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
    no such k exists; with no edges it is (0, 0).
    ``strict_alpha_feasible`` reports whether some k separates every edge
    strictly (min <= k < max), which every k does when there are no edges;
    it is reported, never asserted.
    """

    feasible_k_range: tuple[int, int] | None
    strict_alpha_feasible: bool


def auxiliary_bitmap_bytes(shape: TreeShape) -> int:
    """Bytes of one verification pass's two presence bitmaps, |E| + 1 bits each."""
    e = shape.edge_count
    return 2 * ((e + 8) // 8)


def _mark_run(
    vertex_bits: bytearray,
    edge_bits: bytearray,
    edge_count: int,
    labels: Sequence[int],
    parent_labels: Sequence[int],
) -> tuple[int, int] | None:
    """Mark a run's labels and edge labels in both bitmaps, one mask each.

    Only a run whose children all lie above their parents, or all below, is
    marked; its separator ends ``(max(smaller ends), min(larger ends))`` are
    returned.  None, with neither bitmap written, when the children lie on
    both sides or a zero edge occurs, or when labels or edge labels are out
    of range, repeat, are already marked or are too sparse for a bounded
    mask: the caller then checks the run record by record.
    """
    diffs = list(map(sub, labels, parent_labels))
    diff_low, diff_high = min(diffs), max(diffs)
    if diff_low > 0:  # every child above: edge labels are the diffs
        edge_low, edge_high = diff_low, diff_high
    elif diff_high < 0:  # every child below: edge labels are the negated diffs
        edge_low, edge_high = -diff_high, -diff_low
    else:
        return None
    low, high = min(labels), max(labels)
    bound = MASK_BITS_PER_VALUE * (len(labels) + 1)
    if low < 0 or high > edge_count or edge_high > edge_count:
        return None
    if high - low >= bound or edge_high - edge_low >= bound:
        return None
    # Base-2 digits, most significant first: the digit at high - label is
    # bit label - low of the vertex mask.  The digit at diff_high - diff is
    # bit diff - edge_low of the edge mask on above runs; on below runs,
    # whose edge labels are -diff, that index is the bit number itself, so
    # those digits are least significant first and are turned round.
    label_digits = bytearray(b"0") * (high - low + 1)
    edge_digits = bytearray(b"0") * (edge_high - edge_low + 1)
    for label, diff in zip(labels, diffs):
        label_digits[high - label] = ONE_DIGIT
        edge_digits[diff_high - diff] = ONE_DIGIT
    if diff_high < 0:
        edge_digits.reverse()
    vertex_marks = _mask_window(vertex_bits, label_digits, len(labels), low)
    edge_marks = vertex_marks and _mask_window(edge_bits, edge_digits, len(labels), edge_low)
    if not edge_marks:
        return None
    for bitmap, (start, stop, window) in ((vertex_bits, vertex_marks), (edge_bits, edge_marks)):
        bitmap[start:stop] = window.to_bytes(stop - start, "little")
    # Above, the children's labels are the larger ends; below, the smaller.
    if diff_low > 0:
        return max(parent_labels), low
    return high, min(parent_labels)


def _mask_window(
    bitmap: bytearray, digits: bytearray, count: int, offset: int
) -> tuple[int, int, int] | None:
    """The bitmap bytes a mask of ``count`` values would set, or None.

    ``digits`` are the mask's base-2 digits, most significant first, whose
    lowest bit is bit ``offset`` of ``bitmap``.  Returns ``(start, stop,
    window)``: ``window`` is ``bitmap[start:stop]`` read as a little-endian
    integer with the mask's bits added.  None when fewer than ``count``
    digits are set (a value repeats) or a bit is already marked.
    """
    if digits.count(ONE_DIGIT) != count:
        return None
    start = offset // 8
    stop = (offset + len(digits) - 1) // 8 + 1
    window = int.from_bytes(bitmap[start:stop], "little")
    # int() reads power-of-two bases in linear time.
    mask = int(digits, 2) << (offset - 8 * start)
    if window & mask:
        return None
    return start, stop, window | mask


def verify_with_weak_alpha(
    shape: TreeShape, records: Iterable[LabelledVertex]
) -> tuple[VerificationReport, WeaklyAlphaReport | None]:
    """Check a full labelling stream for gracefulness and separators in one pass.

    Vertex labels must be pairwise distinct within [0, |E|] and the
    induced edge labels pairwise distinct within [1, |E|]; together that
    forces the edge labels to be exactly {1, ..., |E|}.  ``level_runs``
    raises LabellingStreamError unless the stream starts with the root
    record and holds each level's vertex count of ids of that level's
    length, each with a parent label; which ids those are is not checked,
    and parent labels are taken as given.

    The root's run is read first: its label goes into empty bitmaps, so it
    can only be out of range.  Every later run of ``level_runs`` goes to
    ``_mark_run``, which marks a one-sided run through two masks and returns
    its separator ends.  Any other run is checked record by record, naming
    counterexamples in stream order, and takes its ends from whole-run
    extremes: the largest smaller end and the smallest larger end.  One
    fold over the runs' ends gives the feasible interval, and each flag of
    the report holds when no counterexample of its kinds was found.

    The weak-separator report is None when verification fails.  Memory is
    two bitmaps of |E| + 1 bits, each indexed by label, plus per-run
    scratch bounded by CHUNK and MASK_BITS_PER_VALUE.  CapacityError is
    raised before allocating bitmaps larger than physical memory.
    """
    needed = auxiliary_bitmap_bytes(shape)
    try:
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such figure
        physical = 0
    if 0 < physical < needed:  # such bitmaps would be zero-filled page by page
        raise CapacityError(f"bitmaps of {needed} bytes exceed the {physical} bytes of memory")
    edge_count = shape.edge_count
    vertex_bits = bytearray(needed // 2)
    edge_bits = bytearray(needed // 2)
    counterexamples: list[Counterexample] = []
    runs = level_runs(shape, records)
    (root_label,) = next(runs)[2]
    if 0 <= root_label <= edge_count:
        vertex_bits[root_label // 8] |= 1 << root_label % 8
    else:
        counterexamples.append(Counterexample("vertex label out of range", (), root_label))
    lo, hi = 0, edge_count  # max over edges of min(end labels), min of max(end labels)
    for _, vertices, labels, parent_labels in runs:
        ends = _mark_run(vertex_bits, edge_bits, edge_count, labels, parent_labels)
        if ends is None:
            for vertex, label, parent_label in zip(vertices, labels, parent_labels):
                if not 0 <= label <= edge_count:
                    counterexamples.append(
                        Counterexample("vertex label out of range", vertex, label)
                    )
                elif vertex_bits[label // 8] & 1 << label % 8:
                    counterexamples.append(
                        Counterexample("duplicate vertex label", vertex, label)
                    )
                else:
                    vertex_bits[label // 8] |= 1 << label % 8
                induced = abs(label - parent_label)
                if not 1 <= induced <= edge_count:
                    counterexamples.append(
                        Counterexample("edge label out of range", vertex, induced)
                    )
                elif edge_bits[induced // 8] & 1 << induced % 8:
                    counterexamples.append(
                        Counterexample("duplicate edge label", vertex, induced)
                    )
                else:
                    edge_bits[induced // 8] |= 1 << induced % 8
            ends = max(map(min, labels, parent_labels)), min(map(max, labels, parent_labels))
        lo, hi = max(lo, ends[0]), min(hi, ends[1])
    kinds = {kind for kind, _, _ in counterexamples}
    report = VerificationReport(
        "duplicate vertex label" not in kinds,
        "vertex label out of range" not in kinds,
        kinds.isdisjoint(("duplicate edge label", "edge label out of range")),
        tuple(counterexamples),
    )
    if not report.passed:
        return report, None
    return report, WeaklyAlphaReport((lo, hi) if lo <= hi else None, lo < hi or not edge_count)


def brute_force_graceful(shape: TreeShape, cap: int = 14) -> list[LabelledVertex] | None:
    """Search for a graceful labelling, independent of the closed form.

    Backtracking over vertices in breadth-first order, trying labels
    0..|E| in increasing order and pruning duplicate vertex or edge
    labels, so the first hit is the lexicographically smallest label
    vector, returned as records in canonical order, the form of
    ``label_all``.  Returns None if the search space is exhausted (not
    expected for any tree, but the search is honest about it).
    """
    if shape.vertex_count > cap:
        raise SearchCapError(f"{shape.vertex_count} vertices exceeds the search cap of {cap}")
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
    return list(records_from_assignment(shape, dict(zip(order, labels))))


def preorder_labelling(degrees: Sequence[int]) -> list[int]:
    """The closed form's labels from Rosa's two counters, in canonical order.

    A depth-first walk counts preorder indices p: a vertex at depth d takes
    p - d/2 if d is even and |E| - p + (d+1)/2 if d is odd.  Child x of the
    vertex at index i of its level is stored at index i*k + x of the next, k
    its degree.  The walk keeps a stack, not Python frames, and reads no weight.
    """
    starts = [0, *accumulate(accumulate(degrees, mul, initial=1))]  # where each level begins
    edge_count = starts[-1] - 1
    labels = [0] * starts[-1]
    preorder = 0
    stack = [(0, 0)]  # the (depth, index in its level) of each vertex still to visit
    while stack:
        depth, index = stack.pop()
        label = edge_count - preorder + (depth + 1) // 2 if depth % 2 else preorder - depth // 2
        labels[starts[depth] + index] = label
        preorder += 1
        if depth < len(degrees):  # children pushed last first, so the first comes off first
            first = index * degrees[depth]
            stack += zip(repeat(depth + 1), reversed(range(first, first + degrees[depth])))
    return labels
