"""Independent checks and oracles for graceful labellings.

Nothing here trusts the closed form or the stream: one pass of
``verify_with_weak_alpha`` checks gracefulness against two presence
bitmaps, recomputing every edge label from its end labels, and takes the
weak separator interval from per-edge extremes.  Paths have their own
zig-zag oracle, and small shapes can be searched exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import LabellingStreamError, SearchCapError
from .labelling import LabelledVertex, enumerate_vertices
from .shape import TreeShape, VertexId


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


def verify_with_weak_alpha(
    shape: TreeShape, records: Iterable[LabelledVertex]
) -> tuple[VerificationReport, WeaklyAlphaReport | None]:
    """Check a full labelling stream for gracefulness and separators in one pass.

    Vertex labels must be pairwise distinct within [0, |E|] and the
    induced edge labels pairwise distinct within [1, |E|]; together that
    forces the edge labels to be exactly {1, ..., |E|}.  The stream must
    cover every vertex exactly once, else LabellingStreamError.

    The weak-separator report is None when verification fails; its
    feasible interval is the intersection of the per-edge [min, max]
    intervals.  Memory is two bitmaps (vertex labels 0..|E|, edge labels
    1..|E|) plus constant per-record state, so multi-million-vertex
    streams are fine.
    """
    expected = shape.vertex_count
    edge_count = shape.edge_count
    vertex_bits = bytearray((edge_count + 8) // 8)
    edge_bits = bytearray((edge_count + 7) // 8)
    counterexamples: list[Counterexample] = []
    distinct = in_range = complete = True
    count = 0
    edges_seen = 0
    lo = 0  # max over edges of min(end labels)
    hi: int | None = None  # min over edges of max(end labels)
    for vertex, label, parent_label in records:
        count += 1
        if count > expected:
            raise LabellingStreamError(f"stream longer than {expected} vertices")
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
        edges_seen += 1
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
    if count != expected:
        raise LabellingStreamError(
            f"stream covered {count} vertices, expected {expected}"
        )
    if edges_seen != edge_count:
        complete = False
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

    def extend(i: int) -> bool:
        if i == n:
            return True
        parent_index = parents[i]
        for candidate in range(edge_count + 1):
            if vertex_used[candidate]:
                continue
            if parent_index is None:
                gap = None
            else:
                gap = abs(candidate - labels[parent_index])
                if gap == 0 or edge_used[gap]:
                    continue
            labels[i] = candidate
            vertex_used[candidate] = True
            if gap is not None:
                edge_used[gap] = True
            if extend(i + 1):
                return True
            vertex_used[candidate] = False
            if gap is not None:
                edge_used[gap] = False
        return False

    if not extend(0):
        return None
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
