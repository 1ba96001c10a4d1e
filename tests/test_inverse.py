"""Label decoding: published values, round trips, and trace snapshots."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gracetree import (
    DecodeState,
    LabelRangeError,
    build_shape,
    invert_label,
    label_all,
    label_vertex,
    trace_inversion,
    validate_vertex,
)
from helpers import P7_DEGREES, small_degree_sequences, sweep_degree_sequences


@pytest.fixture
def example_shape():
    return build_shape((2, 3, 4))


class TestInvertLabel:
    def test_published_values(self, example_shape):
        assert invert_label(example_shape, 32) == (0,)
        assert invert_label(example_shape, 10) == (1, 1, 0)

    def test_zero_is_root(self, example_shape):
        assert invert_label(example_shape, 0) == ()

    def test_deepest_path_vertex(self):
        shape = build_shape(P7_DEGREES)
        assert invert_label(shape, 3) == (0, 0, 0, 0, 0, 0)

    def test_out_of_range(self, example_shape):
        with pytest.raises(LabelRangeError):
            invert_label(example_shape, 40)
        with pytest.raises(LabelRangeError):
            invert_label(example_shape, -1)

    @pytest.mark.parametrize("m", [2.0, 0.0, "2", None])
    def test_non_integer_label(self, m):
        # 2.0 once decoded to the float "vertex" (0.0, 1.0).
        with pytest.raises(LabelRangeError, match="is not an integer"):
            invert_label(build_shape((2, 3)), m)
        with pytest.raises(LabelRangeError, match="is not an integer"):
            trace_inversion(build_shape((2, 3)), m)

    def test_bool_label_is_an_int(self, example_shape):
        assert invert_label(example_shape, True) == invert_label(example_shape, 1)
        assert invert_label(example_shape, False) == ()

    def test_single_vertex_tree(self):
        shape = build_shape(())
        assert invert_label(shape, 0) == ()
        with pytest.raises(LabelRangeError):
            invert_label(shape, 1)

    def test_round_trips_over_sweep(self):
        for degrees in sweep_degree_sequences(max_levels=5):
            shape = build_shape(degrees)
            for rec in label_all(shape):
                decoded = invert_label(shape, rec.label)
                assert decoded == rec.vertex
                assert validate_vertex(shape, decoded) <= shape.levels
            for m in range(shape.edge_count + 1):
                assert label_vertex(shape, invert_label(shape, m)) == m


class TestTraceInversion:
    def test_three_step_decode(self, example_shape):
        states = trace_inversion(example_shape, 10)
        assert [s.level for s in states] == [2, 3, 4]
        assert [s.chain for s in states] == ["even", "odd", "even"]
        assert states[-1].found
        assert states[-1].digits == (1, 1, 0)
        assert [s for s in states if s.chain == "even"][-1].digits == (1, 1, 0)

    def test_single_step_decode(self, example_shape):
        states = trace_inversion(example_shape, 32)
        assert len(states) == 1
        assert states[0].chain == "even"
        assert states[0].found
        assert states[0].digits == (0,)
        assert states[0].remainder == 0

    def test_root_short_circuit(self):
        states = trace_inversion(build_shape(()), 0)
        assert states == [(1, "root", (), 0)]
        assert states[0].found
        assert states[0].digits == ()

    def test_final_state_matches_invert(self):
        # The traced and untraced runs of the one decoder agree everywhere,
        # and every state is a real DecodeState, though the decoder builds
        # it with tuple.__new__.
        for degrees in sweep_degree_sequences(max_levels=5):
            shape = build_shape(degrees)
            for m in range(shape.edge_count + 1):
                states = trace_inversion(shape, m)
                assert states[-1].found
                assert not any(s.found for s in states[:-1])
                assert states[-1].digits == invert_label(shape, m)
                assert states[-1].level == len(states[-1].digits) + 1
                for s in states:
                    assert type(s) is DecodeState
                    assert DecodeState(*s) == s
                    assert s.found == (s.remainder == 0)

    def test_remainders_strictly_decrease_per_chain(self):
        # Termination measure: within one chain, the recorded remainder
        # shrinks on every successive test.  Each state's chain follows its
        # level's parity, and only the level-1 state is the root's.
        for degrees in sweep_degree_sequences(max_levels=5):
            shape = build_shape(degrees)
            for m in range(shape.edge_count + 1):
                states = trace_inversion(shape, m)
                for s in states:
                    assert (s.chain == "even") == (s.level % 2 == 0)
                    assert (s.chain == "root") == (s.level == 1)
                for chain in ("even", "odd"):
                    remainders = [s.remainder for s in states if s.chain == chain]
                    assert all(a > b for a, b in zip(remainders, remainders[1:]))

    def test_mixed_parity_chain_state(self, example_shape):
        # After an odd-level resolution the even chain's partial digits
        # are those of its last state in the trace.
        states = trace_inversion(example_shape, 11)  # vertex (0, 2), level 3
        assert states[-1].chain == "odd"
        assert states[-1].digits == (0, 2)
        assert len([s for s in states if s.chain == "even"][-1].digits) == 1

    def test_out_of_range(self, example_shape):
        with pytest.raises(LabelRangeError):
            trace_inversion(example_shape, 33)


def boundary_labels(shape):
    """Labels next to the multiples j*h_i (0 <= j <= k_{i-1} + 1), and |E| minus each.

    The even chain starts from |E| - m, hence both ends; |E| is among them.
    """
    e, sizes = shape.edge_count, shape.level_sizes
    near = {j * h + d for k, h in zip(shape.degrees, sizes[1:]) for j in range(k + 2) for d in (-1, 0, 1)}
    return sorted({m for n in near for m in (n, e - n) if 0 <= m <= e})


def assert_boundary_labels_decode(shape):
    for m in boundary_labels(shape):
        vertex = invert_label(shape, m)
        assert validate_vertex(shape, vertex) == len(vertex) + 1
        assert len(vertex) <= shape.levels - 1
        assert label_vertex(shape, vertex) == m


def test_boundary_labels_decode_to_valid_vertices_over_sweep():
    for degrees in sweep_degree_sequences():
        assert_boundary_labels_decode(build_shape(degrees))


@settings(deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=3))
def test_boundary_labels_decode_to_valid_vertices(degrees):
    assert_boundary_labels_decode(build_shape(degrees))


@given(small_degree_sequences, st.data())
def test_round_trip_property(degrees, data):
    shape = build_shape(degrees)
    m = data.draw(st.integers(min_value=0, max_value=shape.edge_count))
    assert label_vertex(shape, invert_label(shape, m)) == m
