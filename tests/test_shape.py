"""Tree shape construction, vertex validation, and enumeration."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given

from gracetree import (
    CapacityError,
    DegreeSequenceError,
    InvalidVertexError,
    TreeShape,
    build_shape,
    enumerate_vertices,
    format_vertex,
    parse_degree_sequence,
    validate_vertex,
)
from helpers import (
    small_degree_sequences,
    subtree_size_by_products,
    sweep_degree_sequences,
    vertex_count_by_products,
)


class TestParseDegreeSequence:
    def test_example(self):
        assert parse_degree_sequence("2,3,4") == (2, 3, 4)

    def test_whitespace_tolerated(self):
        assert parse_degree_sequence(" 2 ,  3 ,4 ") == (2, 3, 4)

    def test_empty_is_single_vertex(self):
        assert parse_degree_sequence("") == ()
        assert parse_degree_sequence("   ") == ()

    # Ranges are checked by TreeShape alone; parse_degree_sequence reads integers.
    def test_zero_entry_rejected(self):
        with pytest.raises(DegreeSequenceError):
            build_shape(parse_degree_sequence("2,0,4"))

    def test_negative_entry_rejected(self):
        with pytest.raises(DegreeSequenceError):
            build_shape(parse_degree_sequence("2,-1"))

    def test_non_integer_rejected(self):
        with pytest.raises(DegreeSequenceError):
            parse_degree_sequence("2,x,4")
        with pytest.raises(DegreeSequenceError):
            parse_degree_sequence("2,,4")
        # Only ASCII decimal digits: int() alone would read each as 10 or 1.
        for text in ("1_0", "\uff11", "\u0661\u0660"):
            with pytest.raises(DegreeSequenceError, match="is not an integer"):
                parse_degree_sequence(text)

    def test_beyond_64_bits_rejected(self):
        with pytest.raises(DegreeSequenceError):
            build_shape(parse_degree_sequence(str(2**64)))
        # Past int()'s 4,300 digits: the entry is named, not echoed.
        with pytest.raises(DegreeSequenceError) as raised:
            parse_degree_sequence("2," + "9" * 5000)
        assert str(raised.value) == "entry 2: daughter degree exceeds the 64-bit range"


class TestBuildShape:
    def test_example_sizes(self):
        shape = build_shape((2, 3, 4))
        assert shape.level_sizes == (33, 16, 5, 1)
        assert shape.vertex_count == 33
        assert shape.edge_count == 32

    def test_single_vertex(self):
        shape = build_shape(())
        assert shape.level_sizes == (1,)
        assert shape.vertex_count == 1
        assert shape.edge_count == 0

    def test_seven_vertex_path(self):
        shape = build_shape((1, 1, 1, 1, 1, 1))
        assert shape.level_sizes == (7, 6, 5, 4, 3, 2, 1)
        assert shape.vertex_count == 7

    def test_overflow_is_capacity_error(self):
        with pytest.raises(CapacityError):
            build_shape((2**63, 4))
        with pytest.raises(CapacityError):
            build_shape((2,) * 100)

    def test_invalid_degree_rejected(self):
        with pytest.raises(DegreeSequenceError):
            build_shape((2, 0))
        with pytest.raises(DegreeSequenceError):
            TreeShape((2, 0))

    @pytest.mark.parametrize(
        "degrees, shown",
        [
            ((2.0, 3), "entry 1: daughter degree 2.0"),
            (("2",), "entry 1: daughter degree '2'"),
            ((2.5,), "entry 1: daughter degree 2.5"),
            ((3, Fraction(2)), "entry 2: daughter degree Fraction(2, 1)"),
        ],
    )
    def test_non_integer_degree_rejected(self, degrees, shown):
        with pytest.raises(DegreeSequenceError) as raised:
            build_shape(degrees)
        assert str(raised.value) == f"{shown} is not an integer"

    def test_bool_degrees_count_as_ints(self):
        assert build_shape((True, 2)) == build_shape((1, 2))
        assert build_shape((True, 2)).level_sizes == (4, 3, 1)

    def test_fields_are_read_only(self):
        shape = build_shape((2, 3, 4))
        for name in ("degrees", "level_sizes", "levels", "vertex_count", "edge_count"):
            with pytest.raises(AttributeError):
                setattr(shape, name, getattr(shape, name))
            with pytest.raises(AttributeError):
                delattr(shape, name)
        with pytest.raises(AttributeError):
            shape.extra = 1
        assert shape == build_shape((2, 3, 4)) and shape.levels == 4

    def test_reading_counts_changes_no_identity(self):
        # The counts are worked out by the constructor and kept; reading
        # them must not show in equality, hashing, repr or a pickle round trip.
        for degrees in ((), (2, 3, 4), (1000, 1000), (2,) * 20):
            read, fresh = build_shape(degrees), build_shape(degrees)
            counts = (read.levels, read.vertex_count, read.edge_count)
            assert counts == (len(degrees) + 1, fresh.level_sizes[0], fresh.level_sizes[0] - 1)
            text = f"TreeShape(degrees={degrees!r}, level_sizes={fresh.level_sizes!r})"
            for shape in (read, pickle.loads(pickle.dumps(read)), pickle.loads(pickle.dumps(fresh))):
                assert shape == fresh and fresh == shape
                assert hash(shape) == hash(fresh)
                assert repr(shape) == repr(fresh) == text
                assert (shape.levels, shape.vertex_count, shape.edge_count) == counts

    def test_recurrence_cross_check_over_sweep(self):
        # Two independent routes to every subtree size: the recurrence the
        # package uses versus the direct sum-of-prefix-products expansion.
        for degrees in sweep_degree_sequences():
            shape = build_shape(degrees)
            for level in range(1, shape.levels + 1):
                assert shape.level_sizes[level - 1] == subtree_size_by_products(
                    degrees, level
                )
            for i, k in enumerate(degrees):
                below, here = shape.level_sizes[i + 1], shape.level_sizes[i]
                assert (here - 1) % k == 0
                assert below == (here - 1) // k


class TestValidateVertex:
    def test_deepest_vertex(self):
        shape = build_shape((2, 3, 4))
        assert validate_vertex(shape, (1, 2, 3)) == 4

    def test_root(self):
        shape = build_shape((2, 3, 4))
        assert validate_vertex(shape, ()) == 1

    def test_out_of_range_reports_position(self):
        shape = build_shape((2, 3, 4))
        with pytest.raises(InvalidVertexError) as exc:
            validate_vertex(shape, (2,))
        assert exc.value.position == 1
        with pytest.raises(InvalidVertexError) as exc:
            validate_vertex(shape, (0, 3))
        assert exc.value.position == 2
        # The first entry equal to the bad digit passes: a position taken
        # from vertex.index(5) would read 1.
        with pytest.raises(InvalidVertexError) as exc:
            validate_vertex(build_shape((9, 4)), (5, 5))
        assert exc.value.position == 2
        assert str(exc.value) == "entry 2: child index 5 outside [0, 3]"

    @pytest.mark.parametrize(
        "vertex, position",
        [
            ((0.5,), 1),
            ((1, 2.0), 2),
            (("1",), 1),
            ((0, "1", 0.5), 2),
            ((0, Fraction(1)), 2),
            ((1, None), 2),
        ],
    )
    def test_non_integer_entry_reports_position(self, vertex, position):
        # Each is refused at its first non-integer entry, whether that entry
        # lies in range (0.5, 2.0, Fraction(1)) or cannot be compared ("1", None).
        with pytest.raises(InvalidVertexError) as exc:
            validate_vertex(build_shape((2, 3, 4)), vertex)
        assert exc.value.position == position
        shown = repr(vertex[position - 1])
        assert str(exc.value) == f"entry {position}: child index {shown} is not an integer"

    def test_bool_entries_are_ints(self):
        shape = build_shape((2, 3, 4))
        assert validate_vertex(shape, (True, False, True)) == 4
        with pytest.raises(InvalidVertexError) as exc:
            validate_vertex(build_shape((1, 4)), (True,))
        assert exc.value.position == 1

    def test_too_deep(self):
        shape = build_shape((2, 3, 4))
        with pytest.raises(InvalidVertexError):
            validate_vertex(shape, (0, 0, 0, 0))
        with pytest.raises(InvalidVertexError) as exc:
            validate_vertex(build_shape((9, 4)), (5, 5, 5))
        assert str(exc.value) == "sequence of length 3 exceeds the 3-level tree"


class TestEnumerateVertices:
    def test_breadth_first_prefix(self):
        shape = build_shape((2, 3, 4))
        first_four = []
        for vertex in enumerate_vertices(shape):
            first_four.append(vertex)
            if len(first_four) == 4:
                break
        assert first_four == [(), (0,), (1,), (0, 0)]

    def test_single_vertex(self):
        assert list(enumerate_vertices(build_shape(()))) == [()]

    def test_counts_and_validity_over_sweep(self):
        for degrees in sweep_degree_sequences(max_levels=5):
            shape = build_shape(degrees)
            seen = set()
            per_level = [0] * shape.levels
            for vertex in enumerate_vertices(shape):
                assert vertex not in seen
                seen.add(vertex)
                per_level[len(vertex)] += 1
                validate_vertex(shape, vertex)
            assert len(seen) == shape.vertex_count
            width = 1
            for level, count in enumerate(per_level):
                assert count == width
                if level < len(degrees):
                    width *= degrees[level]

    def test_levels_are_lexicographic(self):
        shape = build_shape((3, 2))
        level3 = [v for v in enumerate_vertices(shape) if len(v) == 2]
        assert level3 == sorted(level3)


class TestVertexText:
    def test_format(self):
        assert format_vertex(()) == "()"
        assert format_vertex((1, 2, 3)) == "(1,2,3)"


@given(small_degree_sequences)
def test_vertex_count_matches_product_expansion(degrees):
    shape = build_shape(degrees)
    assert shape.vertex_count == vertex_count_by_products(degrees)
    assert sum(1 for _ in enumerate_vertices(shape)) == shape.vertex_count


@given(small_degree_sequences)
def test_deepest_level_size_is_one(degrees):
    shape = build_shape(degrees)
    assert shape.level_sizes[-1] == 1
    assert shape.edge_count == shape.vertex_count - 1
