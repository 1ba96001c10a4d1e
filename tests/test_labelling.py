"""Closed-form vertex labels, edge labels, and the streaming labeller."""

from itertools import chain, islice, product

import pytest

from gracetree import (
    BLOCK,
    InvalidVertexError,
    LabelledVertex,
    LabellingStreamError,
    build_shape,
    enumerate_vertices,
    label_all,
    label_blocks,
    label_vertex,
    records_from_assignment,
)
from gracetree.labelling import CHUNK, level_runs
from helpers import (
    EXAMPLE_DEGREES,
    EXAMPLE_LABELS,
    P7_DEGREES,
    P7_LABELS,
    sweep_degree_sequences,
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
        # example, the zig-zag path, the decoder round trips and the
        # verifier sweep.  Every record must agree with label_vertex, the
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


def canonical_order(degrees):
    """Every vertex level by level, each level in lexicographic order."""
    return chain.from_iterable(
        product(*map(range, degrees[:width])) for width in range(len(degrees) + 1)
    )


class TestLabelBlocks:
    @pytest.mark.parametrize("degrees", [(5000, 3), (3, 5000), (1,) * 60, (2, 3, 4)])
    def test_partition(self, degrees):
        # Blocks hold at most BLOCK vertices of one level and concatenate
        # to the canonical order.
        shape = build_shape(degrees)
        blocks = list(label_blocks(shape))
        for block in blocks:
            vertices = list(block.vertices())
            assert 1 <= len(vertices) <= BLOCK
            assert len(block.labels) == len(vertices)
            assert {len(vertex) for vertex in vertices} == {
                len(block.prefix) + len(block.ranges)
            }
            assert (block.parent_labels is None) == (vertices == [()])
            if block.parent_labels is not None:
                assert len(block.parent_labels) == len(vertices)
        streamed = chain.from_iterable(block.vertices() for block in blocks)
        assert list(streamed) == list(canonical_order(degrees))

    def test_long_sibling_run_is_split(self):
        # A million children of the root: only the first blocks are built.
        shape = build_shape((10**6,))
        root, *firsts = islice(label_blocks(shape), 4)
        assert list(root.vertices()) == [()]
        assert root.parent_labels is None
        for index, block in enumerate(firsts):
            vertices = list(block.vertices())
            assert vertices == [(x,) for x in range(index * BLOCK, (index + 1) * BLOCK)]
            assert block.labels == [label_vertex(shape, v) for v in vertices]
            assert block.parent_labels == [0] * BLOCK

    def test_labels_agree_with_pointwise_over_sweep(self):
        # Both sides read level_form: this checks the offset tables and the
        # block shifts against label_vertex, not the formula itself (see
        # TestLabelAll.test_agrees_with_pointwise_over_sweep).
        for degrees in sweep_degree_sequences():
            shape = build_shape(degrees)
            for block in label_blocks(shape):
                vertices = list(block.vertices())
                assert block.labels == [label_vertex(shape, v) for v in vertices]
                if block.parent_labels is not None:
                    assert block.parent_labels == [
                        label_vertex(shape, v[:-1]) for v in vertices
                    ]

    def test_records_expand_blocks(self):
        for degrees in sweep_degree_sequences():
            shape = build_shape(degrees)
            expanded = [
                (vertex, label, parent)
                for block in label_blocks(shape)
                for vertex, label, parent in zip(
                    block.vertices(), block.labels, block.parent_labels or [None]
                )
            ]
            records = list(label_all(shape))
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
