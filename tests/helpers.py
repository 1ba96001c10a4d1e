"""Shared goldens, sweep generators, and independent oracles for the tests."""

from __future__ import annotations

import csv
import io
import json
from collections import deque
from itertools import chain, islice, product, repeat

from hypothesis import strategies as st

from gracetree import (
    BLOCK,
    Counterexample,
    LabelledVertex,
    TreeShape,
    VerificationReport,
    WeaklyAlphaReport,
    format_vertex,
    label_all,
    label_blocks,
)
from gracetree.verification import COUNTEREXAMPLES_KEPT

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


def zig_zag(n):
    """Rosa's graceful labels of the n-vertex path: 0, n-1, 1, n-2, ..."""
    return [n - 1 - i // 2 if i % 2 else i // 2 for i in range(n)]


# Levels longer than one run of the writers, levels that end mid-run, child
# indices of several digits, and levels of BLOCK (1024) vertices or just
# past it, where blocks and the writers' vertex text are cut.
RUN_EDGE_SHAPES = [
    (),
    (1,),
    (1,) * 40,
    (1500,),
    (2, 1500),
    (3000, 2),
    (12, 11, 13),
    (10,) * 4,
    (1024,),
    (1025,),
    (2, 512),
    (2, 513),
    (32, 32, 2),
]

# Digits of one value before the split digit of a level, at it, and after it:
# on level 5 of the first the split digit is the leading 1 (its one value is
# its one chunk), on level 4 of the second it is 1025 with two 1s after it, on
# level 6 of the third it is 3 between 1s, and on level 7 of the last it is 600.
UNIT_DIGIT_SHAPES = [(1, 1, 1024, 1), (1025, 1, 1), (1, 1, 3, 1, 700, 1), (2, 1, 1, 600, 1, 2)]


def block_labels(shape):
    """The labels of ``label_blocks``, concatenated in canonical order."""
    return list(chain.from_iterable(labels for labels, _ in label_blocks(shape)))


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


def split_digit_by_walk(radices):
    """``_split_digit`` as a walk from the last digit: the digits after the
    split digit are taken while their settings fit in BLOCK, and the split
    digit goes in chunks that fill a block."""
    split, span = len(radices) - 1, 1
    while split > 0 and span * radices[split] <= BLOCK:
        span *= radices[split]
        split -= 1
    return split, span, min(BLOCK // span, radices[split])


def reference_reports(degrees, assignment):
    """Plain per-record check of a vertex -> label mapping.

    Walks the tree breadth-first from the root with a queue and tracks
    used labels in Python sets: no blocks, no bitmaps, no closed form.
    Returns the (VerificationReport, WeaklyAlphaReport | None) pair that
    verify_with_weak_alpha must return: the first COUNTEREXAMPLES_KEPT
    counterexamples in the same order, and the count of all of them.
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
        tuple(Counterexample(*ce) for ce in counterexamples[:COUNTEREXAMPLES_KEPT]),
        len(counterexamples),
    )
    if not report.passed:
        return report, None
    if edge_count == 0:
        return report, WeaklyAlphaReport((0, 0), True)
    lo, hi = max(smaller_ends), min(larger_ends)
    return report, WeaklyAlphaReport((lo, hi) if lo <= hi else None, lo < hi)


# Faulty record streams for (2,3,4), each a stand-in for label_all.  The
# first is a closed form whose root is mislabelled, which the verifier
# reports; the others break the stream's structure, as the messages in
# STREAM_FAULTS say.


def _wrong_root(shape):
    records = label_all(shape)
    next(records)
    return chain([LabelledVertex((), 1, None)], records)


def _drop_root(shape):
    return islice(label_all(shape), 1, None)


def _root_with_parent_label(shape):
    return chain([LabelledVertex((), 0, 0)], islice(label_all(shape), 1, None))


def _short(shape):
    return islice(label_all(shape), shape.vertex_count - 1)


def _long(shape):
    deepest = tuple(k - 1 for k in shape.degrees)
    return chain(label_all(shape), [LabelledVertex(deepest, 0, 0)])


def _wrong_length(shape):
    # A level-3 vertex id in the middle of level 4.
    records = list(label_all(shape))
    vertex, label, parent_label = records[-5]
    records[-5] = LabelledVertex(vertex[:-1], label, parent_label)
    return iter(records)


def _no_parent_label(shape):
    # The sixth record of (2,3,4) lies on level 3.
    records = list(label_all(shape))
    vertex, label, _ = records[5]
    records[5] = LabelledVertex(vertex, label, None)
    return iter(records)


def _no_parent_label_after_a_float(shape):
    # A float label in record 4 and no parent label in record 5, both on
    # level 3: the missing parent label is reported.
    records = list(_no_parent_label(shape))
    records[4] = records[4]._replace(label=2.5)
    return iter(records)


def _replaced(index, field, value):
    # Record ``index`` of label_all with ``field`` set to ``value``.
    def stream(shape):
        records = list(label_all(shape))
        records[index] = records[index]._replace(**{field: value})
        return iter(records)

    stream.__name__ = f"_replaced({index}, {field}={value!r})"  # the pytest id
    return stream


def _renamed_id(shape):
    # Record 1, vertex (0,), renamed (1,): level 2 names (1,) twice and (0,)
    # never.  Counts and id lengths still fit, so only an exact id check,
    # which the writers make and the verifier does not, sees it.
    records = list(label_all(shape))
    _, label, parent_label = records[1]
    records[1] = LabelledVertex((1,), label, parent_label)
    return iter(records)


STREAM_FAULTS = [
    (_drop_root, "does not start with the root record"),
    (_root_with_parent_label, "does not start with the root record"),
    (_short, "ends inside level 4"),
    (_long, "runs past 33 vertices"),
    (_wrong_length, "bad id length at level 4"),
    (_no_parent_label, "no parent label at level 3"),
    (_no_parent_label_after_a_float, "no parent label at level 3"),
    # Labels that are not ints: the verifier would index its bitmaps with
    # them, and the writers' %d would print 11.5 as 11.
    (_replaced(5, "label", 2.5), "non-integer label at level 3"),
    (_replaced(5, "label", 11.5), "non-integer label at level 3"),
    (_replaced(5, "label", "7"), "non-integer label at level 3"),
    (_replaced(5, "label", None), "non-integer label at level 3"),
    (_replaced(5, "parent_label", 16.0), "non-integer label at level 3"),
    (_replaced(0, "label", 0.0), "non-integer label at level 1"),
]


# Record-at-a-time ``label`` writers: one Python body and one write per
# record, csv through the csv module.  reference_export holds the output
# of ``gracetree label --format F`` to byte identity with them.


def _write_table(shape: TreeShape, out) -> None:
    deepest = tuple(k - 1 for k in shape.degrees)
    vw = max(len("vertex"), len(format_vertex(deepest)))
    lw = max(len("label"), len(str(shape.edge_count)))
    rw = max(len("level"), len(str(shape.levels)))
    pw = max(len("parent_label"), lw)
    ew = max(len("edge_label"), lw)
    out.write(
        f"{'vertex':<{vw}}  {'level':>{rw}}  {'label':>{lw}}  "
        f"{'parent_label':>{pw}}  {'edge_label':>{ew}}\n"
    )
    for vertex, label, parent_label in label_all(shape):
        if parent_label is None:
            parent = edge = "-"
        else:
            parent, edge = str(parent_label), str(abs(label - parent_label))
        out.write(
            f"{format_vertex(vertex):<{vw}}  {len(vertex) + 1:>{rw}}  "
            f"{label:>{lw}}  {parent:>{pw}}  {edge:>{ew}}\n"
        )


def _write_csv(shape: TreeShape, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["vertex", "level", "label", "parent_label", "edge_label"])
    for vertex, label, parent_label in label_all(shape):
        if parent_label is None:
            parent = edge = ""
        else:
            parent, edge = parent_label, abs(label - parent_label)
        writer.writerow([format_vertex(vertex), len(vertex) + 1, label, parent, edge])


def _write_json(shape: TreeShape, out) -> None:
    # Records are written one by one so huge trees never materialise.
    out.write(
        '{"degree_sequence": %s, "level_sizes": %s, '
        '"vertex_count": %d, "edge_count": %d, "records": ['
        % (
            json.dumps(list(shape.degrees)),
            json.dumps(list(shape.level_sizes)),
            shape.vertex_count,
            shape.edge_count,
        )
    )
    for sep, (vertex, label, parent_label) in zip(
        chain(("\n",), repeat(",\n")), label_all(shape)
    ):
        if parent_label is None:
            parent = edge = "null"
        else:
            parent, edge = parent_label, abs(label - parent_label)
        # Vertex text is digits, commas and parentheses: nothing to escape.
        out.write(
            f'{sep}{{"vertex": "{format_vertex(vertex)}", "level": {len(vertex) + 1}, '
            f'"label": {label}, "parent_label": {parent}, "edge_label": {edge}}}'
        )
    out.write("\n]}\n")


def _write_dot(shape: TreeShape, out) -> None:
    out.write("digraph labelled_tree {\n")
    for vertex, label, parent_label in label_all(shape):
        name = format_vertex(vertex)
        out.write(f'  "{name}" [label="{label}"];\n')
        if parent_label is not None:
            parent_name = format_vertex(vertex[:-1])
            edge = abs(label - parent_label)
            out.write(f'  "{parent_name}" -> "{name}" [label="{edge}"];\n')
    out.write("}\n")


def reference_export(shape, fmt):
    """Text of ``gracetree label --format fmt``, written record by record."""
    writer = {"table": _write_table, "csv": _write_csv, "json": _write_json, "dot": _write_dot}
    out = io.StringIO()
    writer[fmt](shape, out)
    return out.getvalue()
