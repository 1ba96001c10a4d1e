"""Closed-form vertex labels, edge labels, and the streaming labeller."""

from itertools import accumulate, chain, islice, product
from math import prod
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gracetree import (
    BLOCK,
    InvalidVertexError,
    LabelledVertex,
    LabellingStreamError,
    build_shape,
    enumerate_vertices,
    format_vertex,
    label_all,
    label_blocks,
    label_vertex,
    records_from_assignment,
)
from gracetree.labelling import CHUNK, _level_ids, _level_text, _split_digit, level_runs
from helpers import (
    EXAMPLE_DEGREES,
    EXAMPLE_LABELS,
    P7_DEGREES,
    P7_LABELS,
    RUN_EDGE_SHAPES,
    UNIT_DIGIT_SHAPES,
    block_labels,
    split_digit_by_walk,
    sweep_degree_sequences,
    zig_zag,
)

@pytest.fixture
def example_shape():
    return build_shape(EXAMPLE_DEGREES)


class TestLabelVertex:
    def test_published_values(self, example_shape):
        assert label_vertex(example_shape, ()) == 0
        assert label_vertex(example_shape, (0,)) == 32
        assert label_vertex(example_shape, (0, 2)) == 11
        assert label_vertex(example_shape, (1, 2, 3)) == 2

    def test_path_is_zig_zag(self):
        shape = build_shape(P7_DEGREES)
        labels = [label_vertex(shape, v) for v in enumerate_vertices(shape)]
        assert labels == list(P7_LABELS)

    def test_invalid_vertex(self, example_shape):
        with pytest.raises(InvalidVertexError):
            label_vertex(example_shape, (2,))

    @pytest.mark.parametrize("vertex", [(0.5,), (1, 2.0), ("1",), (0, "2")])
    def test_non_integer_vertex(self, vertex):
        # (0.5,) once labelled 6.0, and a str digit raised a bare TypeError.
        with pytest.raises(InvalidVertexError):
            label_vertex(build_shape((2, 3)), vertex)

    def test_bool_digits_label_as_ints(self, example_shape):
        assert label_vertex(example_shape, (True, False)) == label_vertex(example_shape, (1, 0))

    def test_root_is_zero_everywhere(self):
        for degrees in sweep_degree_sequences(max_levels=4):
            assert label_vertex(build_shape(degrees), ()) == 0

    def test_first_child_gets_edge_count(self):
        # (k_1 - 0)*h_2 = h_1 - 1 = |E| for every multi-level shape.
        for degrees in sweep_degree_sequences(max_levels=4):
            if not degrees:
                continue
            shape = build_shape(degrees)
            assert label_vertex(shape, (0,)) == shape.edge_count


class TestEdgeLabel:
    def test_published_values(self, example_shape):
        # A record carries its edge as |label - parent_label|.
        edges = {
            rec.vertex: abs(rec.label - rec.parent_label)
            for rec in label_all(example_shape)
            if rec.parent_label is not None
        }
        assert edges[(0,)] == 32
        assert edges[(1, 0)] == 1
        assert edges[(1, 2, 3)] == 25


class TestLabelAll:
    def test_published_table(self, example_shape):
        records = list(label_all(example_shape))
        assert [r.label for r in records] == list(EXAMPLE_LABELS)
        assert len(records) == 33

    def test_single_vertex(self):
        records = list(label_all(build_shape(())))
        assert records == [((), 0, None)]

    def test_small_binary_edge_labels_complete(self):
        shape = build_shape((2, 2))
        records = list(label_all(shape))
        assert len(records) == 7
        edge_labels = [
            abs(r.label - r.parent_label) for r in records if r.parent_label is not None
        ]
        assert sorted(edge_labels) == [1, 2, 3, 4, 5, 6]

    def test_agrees_with_pointwise_over_sweep(self):
        # The stream and label_vertex both read level_form, so this checks
        # the block tables, the parent labels and the id order, not the
        # formula itself.  The formula is pinned by the published 33-label
        # example, the preorder walk (TestPreorderLabelling), the decoder
        # round trips and the verifier sweep.  Every record must agree with label_vertex, the
        # parent label with the parent's own label, and the order with the
        # canonical enumeration.
        for degrees in sweep_degree_sequences():
            shape = build_shape(degrees)
            order = enumerate_vertices(shape)
            for rec in label_all(shape):
                assert rec.vertex == next(order)
                assert rec.label == label_vertex(shape, rec.vertex)
                if rec.vertex:
                    assert rec.parent_label == label_vertex(shape, rec.vertex[:-1])
                    assert abs(rec.label - rec.parent_label) == abs(
                        label_vertex(shape, rec.vertex) - label_vertex(shape, rec.vertex[:-1])
                    )
                else:
                    assert rec.parent_label is None
            with pytest.raises(StopIteration):
                next(order)

    @pytest.mark.parametrize(
        "degrees", [(10**6,), (5000, 3), (2**40,), (2, 2**40), (2**64 - 2,)]
    )
    def test_ids_stay_in_step_across_blocks(self, degrees):
        # The first records cross three block boundaries: a zip that pulled
        # an id past the end of each block would drift by one id per block.
        # A sibling run of 2**40 or more would fail at once if its range
        # were ever handed to itertools.product, which copies it.
        shape = build_shape(degrees)
        count = 3 * BLOCK + 2
        records = list(islice(label_all(shape), count))
        assert [r.vertex for r in records] == list(islice(enumerate_vertices(shape), count))
        assert [r.label for r in records] == [label_vertex(shape, r.vertex) for r in records]

    def test_prefixes_hold_no_sibling_run(self):
        # Two digits of 2**40 values each: the digit above the split digit
        # is itself too wide to copy, as on level 3 of (2**30, 2**30).
        assert list(islice(_level_ids((2**40, 2**40)), 3)) == [(0, 0), (0, 1), (0, 2)]


class TestLevelText:
    def test_matches_format_vertex(self):
        # The sweep, and levels of BLOCK vertices or just past it.
        cuts = [(1024,), (1025,), (2, 512), (2, 513), (32, 32, 2)]
        for degrees in sweep_degree_sequences() + cuts:
            ids = enumerate_vertices(build_shape(degrees))
            for width in range(len(degrees) + 1):
                expected = map(format_vertex, islice(ids, prod(degrees[:width])))
                assert list(_level_text(degrees[:width])) == list(expected), (degrees, width)

    @pytest.mark.parametrize("degrees", [(2**40,), (2, 2**40)])
    def test_deepest_level_holds_no_sibling_run(self, degrees):
        # As in TestLabelAll: the text of a level cut at the wrong digit
        # would take a sibling run of 2**40 names.
        shape = build_shape(degrees)
        count = 3 * BLOCK + 2
        start = shape.vertex_count - prod(degrees)
        ids = islice(enumerate_vertices(shape), start, start + count)
        assert list(islice(_level_text(degrees), count)) == list(map(format_vertex, ids))


class TestSplitDigit:
    """``_split_digit`` by bisection against the walk from the last digit."""

    def test_every_prefix_matches_walk(self):
        # bisect_right in place of bisect_left splits (1, 1, 1024, 1) at
        # digit 2, past the leading 1s, whose prefix count 1 is exactly
        # ceil(1024 / BLOCK).
        longer = [(1,) * 300, (2,) * 40, (10**9,) * 3]
        for degrees in sweep_degree_sequences() + RUN_EDGE_SHAPES + UNIT_DIGIT_SHAPES + longer:
            for width in range(1, len(degrees) + 1):
                radices = degrees[:width]
                assert _split_digit(radices) == split_digit_by_walk(radices), radices

    @given(st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=40))
    def test_matches_walk(self, radices):
        radices = tuple(radices)
        assert _split_digit(radices) == split_digit_by_walk(radices)


def canonical_order(degrees):
    """Every vertex level by level, each level in lexicographic order."""
    return chain.from_iterable(
        product(*map(range, degrees[:width])) for width in range(len(degrees) + 1)
    )


def paired_blocks(shape):
    """Each ``(labels, parent_labels)`` pair of label_blocks with the ids of
    enumerate_vertices it covers."""
    vertices = enumerate_vertices(shape)
    for labels, parents in label_blocks(shape):
        yield list(islice(vertices, len(labels))), labels, parents


class TestLabelBlocks:
    @pytest.mark.parametrize("degrees", [(5000, 3), (3, 5000), (1,) * 60, (2, 3, 4)])
    def test_partition(self, degrees):
        # Blocks hold 1..BLOCK labels of one level: paired by position with
        # the canonical order, each covers ids of one length, and the
        # running lengths hit every level boundary.
        shape = build_shape(degrees)
        pairs = list(paired_blocks(shape))
        for vertices, labels, parents in pairs:
            assert type(labels) is list
            assert 1 <= len(labels) == len(vertices) <= BLOCK
            assert len({len(vertex) for vertex in vertices}) == 1
            assert (parents is None) == (vertices == [()])
            if parents is not None:
                assert type(parents) is list
                assert len(parents) == len(labels)
        ends = set(accumulate(len(labels) for _, labels, _ in pairs))
        level_counts = accumulate((1,) + degrees, mul)
        assert set(accumulate(level_counts)) <= ends
        streamed = chain.from_iterable(vertices for vertices, _, _ in pairs)
        assert list(streamed) == list(canonical_order(degrees))

    def test_long_sibling_run_is_split(self):
        # A million children of the root: only the first blocks are built.
        shape = build_shape((10**6,))
        root, *firsts = islice(label_blocks(shape), 4)
        assert root == ([0], None)
        for index, (labels, parents) in enumerate(firsts):
            vertices = [(x,) for x in range(index * BLOCK, (index + 1) * BLOCK)]
            assert labels == [label_vertex(shape, v) for v in vertices]
            assert parents == [0] * BLOCK

    def test_labels_agree_with_pointwise_over_sweep(self):
        # Both sides read level_form: this checks the offset tables and the
        # block shifts against label_vertex, not the formula itself (see
        # TestLabelAll.test_agrees_with_pointwise_over_sweep).
        # UNIT_DIGIT_SHAPES put digits of one value, which the offset tables
        # skip, around the split digit.
        for degrees in sweep_degree_sequences() + UNIT_DIGIT_SHAPES:
            shape = build_shape(degrees)
            for vertices, labels, parents in paired_blocks(shape):
                assert labels == [label_vertex(shape, v) for v in vertices]
                if parents is not None:
                    assert parents == [label_vertex(shape, v[:-1]) for v in vertices]

    def test_long_path_is_zig_zag(self):
        assert block_labels(build_shape((1,) * 1999)) == zig_zag(2000)

    def test_records_expand_blocks(self):
        for degrees in sweep_degree_sequences():
            shape = build_shape(degrees)
            blocks = list(label_blocks(shape))
            labels = chain.from_iterable(labels for labels, _ in blocks)
            parents = chain.from_iterable(parents or [None] for _, parents in blocks)
            expanded = list(zip(enumerate_vertices(shape), labels, parents))
            records = list(label_all(shape))
            assert len(expanded) == shape.vertex_count, degrees
            assert records == expanded, degrees
            assert all(type(r) is LabelledVertex for r in records), degrees


class TestLevelRuns:
    @pytest.mark.parametrize("degrees", [(5000, 3), (3, 5000), (1,) * 60, (2, 3, 4)])
    def test_partition(self, degrees):
        # The root's run comes first, every other run holds at most CHUNK
        # records of one level, and the runs concatenate to label_all.
        shape = build_shape(degrees)
        runs = list(level_runs(shape, label_all(shape)))
        assert runs[0] == (0, ((),), (0,), (None,))
        for width, vertices, labels, parent_labels in runs[1:]:
            assert 1 <= len(vertices) <= CHUNK
            assert {len(vertex) for vertex in vertices} == {width}
            assert len(labels) == len(parent_labels) == len(vertices)
        records = chain.from_iterable(zip(*run[1:]) for run in runs)
        assert list(records) == list(label_all(shape))


class TestRecordsFromAssignment:
    def test_roundtrip_with_closed_form(self):
        shape = build_shape((2, 2))
        assignment = {r.vertex: r.label for r in label_all(shape)}
        assert list(records_from_assignment(shape, assignment)) == list(label_all(shape))

    def test_missing_vertex(self):
        shape = build_shape((2,))
        with pytest.raises(LabellingStreamError):
            list(records_from_assignment(shape, {(): 0, (0,): 1}))

    def test_wrong_size_assignment_rejected(self):
        shape = build_shape((1, 1))
        with pytest.raises(LabellingStreamError):
            list(records_from_assignment(shape, {(): 0}))

    def test_wrong_vertices_rejected(self):
        shape = build_shape((1, 1))
        with pytest.raises(LabellingStreamError):
            list(records_from_assignment(shape, {(): 0, (0,): 2, (9, 9): 1}))
