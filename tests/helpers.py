"""Shared goldens, sweep generators, and independent oracles for the tests."""

from collections import deque
from itertools import product

from hypothesis import strategies as st

from gracetree import Counterexample, VerificationReport, WeaklyAlphaReport

# Published worked-example tree: degrees (2,3,4), 33 vertices, labels in
# breadth-first order.
EXAMPLE_DEGREES = (2, 3, 4)
EXAMPLE_LEVEL_SIZES = (33, 16, 5, 1)
EXAMPLE_LABELS = (
    0, 32, 16,
    1, 6, 11, 17, 22, 27,
    31, 30, 29, 28, 26, 25, 24, 23, 21, 20, 19, 18,
    15, 14, 13, 12, 10, 9, 8, 7, 5, 4, 3, 2,
)

P7_DEGREES = (1, 1, 1, 1, 1, 1)
P7_LABELS = (0, 6, 1, 5, 2, 4, 3)


def vertex_count_by_products(degrees) -> int:
    """Independent vertex count: 1 + k_1 + k_1*k_2 + ... (sum of prefix products).

    Deliberately not the recurrence the package uses, so the two routes
    cross-check each other.
    """
    total = prefix = 1
    for k in degrees:
        prefix *= k
        total += prefix
    return total


def subtree_size_by_products(degrees, level: int) -> int:
    """Same expansion for the subtree hanging below one vertex of a level."""
    return vertex_count_by_products(degrees[level - 1:])


def sweep_degree_sequences(max_levels=6, max_degree=3, max_vertices=400):
    """Every daughter degree sequence with at most max_levels levels,
    entries in 1..max_degree, and at most max_vertices vertices."""
    out = [()]
    for width in range(1, max_levels):
        for combo in product(range(1, max_degree + 1), repeat=width):
            if vertex_count_by_products(combo) <= max_vertices:
                out.append(combo)
    return out


def degree_sequences_up_to(max_vertices):
    """Every daughter degree sequence (any length, any entries) whose tree
    has at most max_vertices vertices."""
    out = []

    def grow(seq, total, prefix):
        out.append(tuple(seq))
        k = 1
        while total + prefix * k <= max_vertices:
            seq.append(k)
            grow(seq, total + prefix * k, prefix * k)
            seq.pop()
            k += 1

    grow([], 1, 1)
    return out


small_degree_sequences = st.lists(
    st.integers(min_value=1, max_value=4), max_size=4
).map(tuple).filter(lambda d: vertex_count_by_products(d) <= 500)


def reference_reports(degrees, assignment):
    """Plain per-record check of a vertex -> label mapping.

    Walks the tree breadth-first from the root with a queue and tracks
    used labels in Python sets: no blocks, no bitmaps, no closed form.
    Returns the (VerificationReport, WeaklyAlphaReport | None) pair that
    verify_with_weak_alpha must return, counterexamples in the same order.
    """
    edge_count = vertex_count_by_products(degrees) - 1
    vertex_labels, edge_labels = set(), set()
    counterexamples = []
    distinct = in_range = complete = True
    smaller_ends, larger_ends = [], []
    queue = deque([()])
    while queue:
        vertex = queue.popleft()
        if len(vertex) < len(degrees):
            queue.extend(vertex + (x,) for x in range(degrees[len(vertex)]))
        label = assignment[vertex]
        if not 0 <= label <= edge_count:
            in_range = False
            counterexamples.append(("vertex label out of range", vertex, label))
        elif label in vertex_labels:
            distinct = False
            counterexamples.append(("duplicate vertex label", vertex, label))
        vertex_labels.add(label)
        if not vertex:
            continue
        parent_label = assignment[vertex[:-1]]
        edge = abs(label - parent_label)
        if not 1 <= edge <= edge_count:
            complete = False
            counterexamples.append(("edge label out of range", vertex, edge))
        elif edge in edge_labels:
            complete = False
            counterexamples.append(("duplicate edge label", vertex, edge))
        edge_labels.add(edge)
        smaller_ends.append(min(label, parent_label))
        larger_ends.append(max(label, parent_label))
    report = VerificationReport(
        distinct,
        in_range,
        complete,
        tuple(Counterexample(*ce) for ce in counterexamples),
    )
    if not report.passed:
        return report, None
    if edge_count == 0:
        return report, WeaklyAlphaReport((0, 0), None, True)
    lo, hi = max(smaller_ends), min(larger_ends)
    claimed = subtree_size_by_products(degrees, 2) if degrees[0] == 2 else None
    return report, WeaklyAlphaReport((lo, hi) if lo <= hi else None, claimed, lo < hi)
