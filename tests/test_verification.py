"""Gracefulness verification, separator feasibility, and the independent oracles."""

import pytest

from gracetree import (
    LabellingStreamError,
    SearchCapError,
    auxiliary_bitmap_bytes,
    brute_force_graceful,
    build_shape,
    canonical_path_labelling,
    enumerate_vertices,
    label_all,
    records_from_assignment,
    verify_with_weak_alpha,
)
from helpers import degree_sequences_up_to, sweep_degree_sequences


class TestVerifyGraceful:
    """The gracefulness report of verify_with_weak_alpha."""

    def test_example_passes(self):
        shape = build_shape((2, 3, 4))
        report, _ = verify_with_weak_alpha(shape, label_all(shape))
        assert report.passed
        assert report.vertex_labels_distinct
        assert report.labels_in_range
        assert report.edge_label_multiset_complete
        assert report.counterexamples == ()

    def test_single_vertex_passes_vacuously(self):
        shape = build_shape(())
        records = records_from_assignment(shape, {(): 0})
        report, _ = verify_with_weak_alpha(shape, records)
        assert report.passed

    def test_duplicate_vertex_label_reported(self):
        shape = build_shape((2,))
        corrupted = {(): 0, (0,): 2, (1,): 2}
        records = records_from_assignment(shape, corrupted)
        report, _ = verify_with_weak_alpha(shape, records)
        assert not report.passed
        assert not report.vertex_labels_distinct
        kinds = {(ce.kind, ce.value) for ce in report.counterexamples}
        assert ("duplicate vertex label", 2) in kinds
        assert ("duplicate edge label", 2) in kinds

    def test_out_of_range_label_reported(self):
        shape = build_shape((2,))
        report, _ = verify_with_weak_alpha(
            shape, records_from_assignment(shape, {(): 0, (0,): 3, (1,): 1})
        )
        assert not report.labels_in_range
        assert any(
            ce.kind == "vertex label out of range" and ce.value == 3
            for ce in report.counterexamples
        )

    def test_short_stream_rejected(self):
        shape = build_shape((2,))
        records = list(label_all(shape))[:-1]
        with pytest.raises(LabellingStreamError):
            verify_with_weak_alpha(shape, records)

    def test_long_stream_rejected(self):
        shape = build_shape((2,))
        records = list(label_all(shape))
        with pytest.raises(LabellingStreamError):
            verify_with_weak_alpha(shape, records + records[-1:])

    def test_sweep_passes(self):
        for degrees in sweep_degree_sequences():
            shape = build_shape(degrees)
            assert verify_with_weak_alpha(shape, label_all(shape))[0].passed, degrees


class TestCheckWeaklyAlpha:
    """The weak-separator report of verify_with_weak_alpha."""

    def test_example_claims_second_level_size(self):
        shape = build_shape((2, 3, 4))
        _, report = verify_with_weak_alpha(shape, label_all(shape))
        assert report.claimed_k == 16
        lo, hi = report.feasible_k_range
        assert lo <= 16 <= hi

    def test_small_binary_feasible(self):
        shape = build_shape((2, 2))
        _, report = verify_with_weak_alpha(shape, label_all(shape))
        assert report.feasible_k_range is not None
        assert report.claimed_k == shape.level_sizes[1]

    def test_single_vertex_reports_full_range(self):
        shape = build_shape(())
        records = records_from_assignment(shape, {(): 0})
        _, report = verify_with_weak_alpha(shape, records)
        assert report.feasible_k_range == (0, 0)
        assert report.claimed_k is None
        assert report.strict_alpha_feasible

    def test_wide_roots_report_without_claim(self):
        shape = build_shape((3, 2))
        _, report = verify_with_weak_alpha(shape, label_all(shape))
        assert report.claimed_k is None

    def test_non_graceful_input_rejected(self):
        shape = build_shape((2,))
        out_of_range = records_from_assignment(shape, {(): 0, (0,): 3, (1,): 1})
        report, weak = verify_with_weak_alpha(shape, out_of_range)
        assert not report.labels_in_range
        assert weak is None

    def test_interval_matches_naive_scan(self):
        # Independent route: try every candidate k and check each edge.
        for degrees in sweep_degree_sequences(max_levels=4):
            shape = build_shape(degrees)
            if not 1 <= shape.edge_count <= 50:
                continue
            _, report = verify_with_weak_alpha(shape, label_all(shape))
            edges = [
                (min(r.label, r.parent_label), max(r.label, r.parent_label))
                for r in label_all(shape)
                if r.parent_label is not None
            ]
            feasible = [
                k
                for k in range(shape.edge_count + 1)
                if all(lo <= k <= hi for lo, hi in edges)
            ]
            if feasible:
                assert report.feasible_k_range == (feasible[0], feasible[-1])
                assert feasible == list(range(feasible[0], feasible[-1] + 1))
            else:
                assert report.feasible_k_range is None
            strict = [
                k
                for k in range(shape.edge_count + 1)
                if all(lo <= k < hi for lo, hi in edges)
            ]
            assert report.strict_alpha_feasible == bool(strict)

    def test_two_vertex_path_strict(self):
        # One edge (0, 1): k = 0 separates strictly under the interval rule.
        shape = build_shape((1,))
        _, report = verify_with_weak_alpha(shape, label_all(shape))
        assert report.feasible_k_range == (0, 1)
        assert report.strict_alpha_feasible


class TestVerifyWithWeakAlpha:
    def test_single_pass_combination(self):
        shape = build_shape((2, 2, 2))
        report, weak = verify_with_weak_alpha(shape, label_all(shape))
        assert report.passed
        assert weak is not None
        assert weak.claimed_k == shape.level_sizes[1]

    def test_weak_report_absent_on_failure(self):
        shape = build_shape((2,))
        corrupted = records_from_assignment(shape, {(): 0, (0,): 2, (1,): 2})
        report, weak = verify_with_weak_alpha(shape, corrupted)
        assert not report.passed
        assert weak is None


class TestBruteForce:
    def test_star_found_and_sound(self):
        shape = build_shape((2,))
        found = brute_force_graceful(shape)
        assert found is not None
        report, _ = verify_with_weak_alpha(shape, records_from_assignment(shape, found))
        assert report.passed

    def test_three_vertex_path_first_assignment(self):
        shape = build_shape((1, 1))
        found = brute_force_graceful(shape)
        assert [found[v] for v in enumerate_vertices(shape)] == [0, 2, 1]

    def test_cap_enforced(self):
        with pytest.raises(SearchCapError):
            brute_force_graceful(build_shape((2, 3, 4)))

    def test_custom_cap(self):
        shape = build_shape((1, 1, 1))  # 4 vertices
        with pytest.raises(SearchCapError):
            brute_force_graceful(shape, cap=3)

    def test_sound_on_tiny_shapes(self):
        for degrees in degree_sequences_up_to(7):
            shape = build_shape(degrees)
            found = brute_force_graceful(shape, cap=7)
            assert found is not None, degrees
            records = records_from_assignment(shape, found)
            assert verify_with_weak_alpha(shape, records)[0].passed, degrees

    def test_search_output_gets_separator_report(self):
        # h_2 need not be a feasible separator outside the closed form.
        for degrees, feasible in [((2, 1, 2), (2, 3)), ((2, 2, 1), None)]:
            shape = build_shape(degrees)
            found = brute_force_graceful(shape)
            records = records_from_assignment(shape, found)
            report, weak = verify_with_weak_alpha(shape, records)
            assert report.passed, degrees
            assert weak.feasible_k_range == feasible, degrees
            assert weak.claimed_k == shape.level_sizes[1], degrees


class TestCanonicalPathLabelling:
    def test_seven(self):
        assert canonical_path_labelling(7) == [0, 6, 1, 5, 2, 4, 3]

    def test_tiny(self):
        assert canonical_path_labelling(1) == [0]
        assert canonical_path_labelling(2) == [0, 1]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            canonical_path_labelling(0)

    def test_is_graceful_as_path_labelling(self):
        for n in range(1, 20):
            shape = build_shape((1,) * (n - 1))
            labels = canonical_path_labelling(n)
            assignment = {(0,) * depth: labels[depth] for depth in range(n)}
            report, _ = verify_with_weak_alpha(
                shape, records_from_assignment(shape, assignment)
            )
            assert report.passed, n

    def test_matches_closed_form(self):
        for n in range(1, 65):
            shape = build_shape((1,) * (n - 1))
            assert [r.label for r in label_all(shape)] == canonical_path_labelling(n)


def test_auxiliary_bitmap_bytes():
    shape = build_shape((2, 3, 4))  # 32 edges: 33 vertex bits + 32 edge bits
    assert auxiliary_bitmap_bytes(shape) == 5 + 4
    assert auxiliary_bitmap_bytes(build_shape(())) == 1
