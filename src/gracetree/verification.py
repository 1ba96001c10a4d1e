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
the kinds of counterexample counted.  The complement |E| - f of a graceful
labelling f is graceful too, so the verifier passes the parity-swapped
closed form; decoding fails it, and so does ``preorder_labelling``, exact
labels from a depth-first walk.  Small shapes can be searched exhaustively.
"""

from __future__ import annotations

import os
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
# Each bitmap's counterexample kinds: a value out of range, a value repeated.
VERTEX_KINDS = ("vertex label out of range", "duplicate vertex label")
EDGE_KINDS = ("edge label out of range", "duplicate edge label")
# A report keeps the first counterexamples in stream order and counts them all.
COUNTEREXAMPLES_KEPT = 10
# Candidate labels the search may try, counted per step: the 1,101-vertex
# star needs about 0.6 M, and the 200-vertex path, whose search would
# backtrack without end, spends them in under a second.
SEARCH_BUDGET = 10**7


class Counterexample(NamedTuple):
    kind: str
    vertex: VertexId
    value: int


class VerificationReport(NamedTuple):
    """Outcome of a gracefulness check: on failure, the first
    COUNTEREXAMPLES_KEPT counterexamples in stream order and the count of all."""

    vertex_labels_distinct: bool
    labels_in_range: bool
    edge_label_multiset_complete: bool
    counterexamples: tuple[Counterexample, ...]
    counterexample_count: int = 0

    @property
    def passed(self) -> bool:
        return (
            self.vertex_labels_distinct
            and self.labels_in_range
            and self.edge_label_multiset_complete
        )


class WeaklyAlphaReport(NamedTuple):
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
    # Each mask must hold one bit per value and meet no marked bit of the
    # bitmap bytes it spans; both windows are written only when both fit.
    windows = []
    for bitmap, digits, offset in ((vertex_bits, label_digits, low), (edge_bits, edge_digits, edge_low)):
        if digits.count(ONE_DIGIT) != len(labels):  # a value repeats
            return None
        start = offset // 8
        stop = (offset + len(digits) - 1) // 8 + 1
        window = int.from_bytes(bitmap[start:stop], "little")
        # int() reads power-of-two bases in linear time.
        mask = int(digits, 2) << (offset - 8 * start)
        if window & mask:
            return None
        windows.append((bitmap, start, stop, window | mask))
    for bitmap, start, stop, window in windows:
        bitmap[start:stop] = window.to_bytes(stop - start, "little")
    # Above, the children's labels are the larger ends; below, the smaller.
    if diff_low > 0:
        return max(parent_labels), low
    return high, min(parent_labels)


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
    the report holds when no counterexample of its kinds was counted.

    The weak-separator report is None when verification fails.  Memory is
    two bitmaps of |E| + 1 bits, each indexed by label, plus per-run
    scratch bounded by CHUNK and MASK_BITS_PER_VALUE and at most
    COUNTEREXAMPLES_KEPT counterexamples.  CapacityError is raised before
    allocating bitmaps larger than physical memory.
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
    counts = dict.fromkeys(VERTEX_KINDS + EDGE_KINDS, 0)

    def mark(bits: bytearray, value: int, low: int, kinds: tuple[str, str], vertex: VertexId):
        # Mark a value within [low, |E|] not yet marked; any other is a
        # counterexample of the range kind or the duplicate kind, counted,
        # and kept if fewer than COUNTEREXAMPLES_KEPT are.
        if not low <= value <= edge_count:
            kind = kinds[0]
        elif bits[value // 8] & 1 << value % 8:
            kind = kinds[1]
        else:
            bits[value // 8] |= 1 << value % 8
            return
        counts[kind] += 1
        if len(counterexamples) < COUNTEREXAMPLES_KEPT:
            counterexamples.append(Counterexample(kind, vertex, value))

    runs = level_runs(shape, records)
    (root_label,) = next(runs)[2]
    mark(vertex_bits, root_label, 0, VERTEX_KINDS, ())
    lo, hi = 0, edge_count  # max over edges of min(end labels), min of max(end labels)
    for _, vertices, labels, parent_labels in runs:
        ends = _mark_run(vertex_bits, edge_bits, edge_count, labels, parent_labels)
        if ends is None:
            for vertex, label, parent_label in zip(vertices, labels, parent_labels):
                mark(vertex_bits, label, 0, VERTEX_KINDS, vertex)
                mark(edge_bits, abs(label - parent_label), 1, EDGE_KINDS, vertex)
            ends = max(map(min, labels, parent_labels)), min(map(max, labels, parent_labels))
        lo, hi = max(lo, ends[0]), min(hi, ends[1])
    report = VerificationReport(
        not counts[VERTEX_KINDS[1]],
        not counts[VERTEX_KINDS[0]],
        not (counts[EDGE_KINDS[0]] or counts[EDGE_KINDS[1]]),
        tuple(counterexamples),
        sum(counts.values()),
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
    expected for any tree, but the search is honest about it).  Raises
    SearchCapError past ``cap`` vertices, or once it has tried more than
    SEARCH_BUDGET candidate labels, counted at each step.
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
    i = tried = 0
    while i < n:
        if tried > SEARCH_BUDGET:
            raise SearchCapError(f"search budget of {SEARCH_BUDGET} candidate labels spent")
        parent_index = parents[i]
        first = next_candidate[i]
        for candidate in range(first, edge_count + 1):
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
            tried += candidate + 1 - first
            break
        else:
            # Every candidate failed: undo the previous vertex and move on
            # to its next candidate.
            tried += edge_count + 1 - first
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
