"""Gracefulness verification, separator feasibility, and the independent oracles."""

import os
import random
from itertools import accumulate, chain, product
from operator import eq, sub

import pytest
from hypothesis import given

from gracetree import (
    CapacityError,
    LabelledVertex,
    LabellingStreamError,
    SearchCapError,
    VerificationReport,
    WeaklyAlphaReport,
    auxiliary_bitmap_bytes,
    brute_force_graceful,
    build_shape,
    enumerate_vertices,
    label_all,
    label_blocks,
    preorder_labelling,
    records_from_assignment,
    verify_with_weak_alpha,
)
from gracetree import verification
from gracetree.labelling import level_runs
from gracetree.verification import COUNTEREXAMPLES_KEPT, MASK_BITS_PER_VALUE
from helpers import (
    EXAMPLE_DEGREES,
    EXAMPLE_LABELS,
    P7_DEGREES,
    P7_LABELS,
    RUN_EDGE_SHAPES,
    STREAM_FAULTS,
    UNIT_DIGIT_SHAPES,
    block_labels,
    degree_sequences_up_to,
    reference_reports,
    small_degree_sequences,
    sweep_degree_sequences,
    zig_zag,
)


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

    def test_counterexamples_kept_and_counted(self):
        # All-zero labels on (2,3,4): 32 duplicate labels and 32 zero edges,
        # interleaved in stream order; the first ten are kept, all counted.
        degrees = (2, 3, 4)
        shape = build_shape(degrees)
        assignment = dict.fromkeys(enumerate_vertices(shape), 0)
        report, weak = verify_with_weak_alpha(shape, records_from_assignment(shape, assignment))
        assert (report, weak) == reference_reports(degrees, assignment)
        assert weak is None and report.counterexample_count == 64
        assert report.counterexamples[:2] == (
            ("duplicate vertex label", (0,), 0),
            ("edge label out of range", (0,), 0),
        )
        assert len(report.counterexamples) == COUNTEREXAMPLES_KEPT == 10
        assert report[:3] == (False, True, False)

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

    @pytest.mark.parametrize("stream, message", STREAM_FAULTS)
    def test_faulty_stream_rejected(self, stream, message):
        shape = build_shape((2, 3, 4))
        with pytest.raises(LabellingStreamError, match=message):
            verify_with_weak_alpha(shape, stream(shape))

    def test_bool_labels_are_ints(self):
        shape = build_shape((1,))
        records = [LabelledVertex((), False, None), LabelledVertex((0,), True, False)]
        assert verify_with_weak_alpha(shape, records)[0].passed

    def test_sweep_passes(self):
        for degrees in sweep_degree_sequences():
            shape = build_shape(degrees)
            assert verify_with_weak_alpha(shape, label_all(shape))[0].passed, degrees


class TestCheckWeaklyAlpha:
    """The weak-separator report of verify_with_weak_alpha."""

    def test_example_claims_second_level_size(self):
        shape = build_shape((2, 3, 4))
        _, report = verify_with_weak_alpha(shape, label_all(shape))
        lo, hi = report.feasible_k_range
        assert lo <= 16 <= hi

    def test_small_binary_feasible(self):
        shape = build_shape((2, 2))
        _, report = verify_with_weak_alpha(shape, label_all(shape))
        lo, hi = report.feasible_k_range
        assert lo <= shape.level_sizes[1] <= hi

    def test_single_vertex_reports_full_range(self):
        shape = build_shape(())
        records = records_from_assignment(shape, {(): 0})
        _, report = verify_with_weak_alpha(shape, records)
        assert report == WeaklyAlphaReport((0, 0), True)

    def test_reports_are_immutable_values(self):
        shape = build_shape((2, 3, 4))
        report, weak = verify_with_weak_alpha(shape, label_all(shape))
        assert report == VerificationReport(True, True, True, ()) and report.passed
        assert weak == WeaklyAlphaReport((16, 16), False)
        assert not VerificationReport(True, False, True, ()).passed
        names = (
            "vertex_labels_distinct labels_in_range edge_label_multiset_complete counterexamples"
            " counterexample_count",
            "feasible_k_range strict_alpha_feasible",
        )
        for value, fields in zip((report, weak), names):
            for name in fields.split():
                with pytest.raises(AttributeError):
                    setattr(value, name, None)
        assert report.vertex_labels_distinct is True and weak.feasible_k_range == (16, 16)

    def test_wide_roots_report_without_claim(self):
        # The report states the interval alone, here empty; the closed
        # form claims h_2 only when the root has two children.
        shape = build_shape((3, 2))
        _, report = verify_with_weak_alpha(shape, label_all(shape))
        assert report == WeaklyAlphaReport(None, False)

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


def small_machine(pages):
    """A stand-in for os.sysconf on a machine of ``pages`` 4 KiB pages."""
    return {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": 4096}.__getitem__


class TestMemoryAdmission:
    """Bitmaps beyond physical memory are refused before they are allocated."""

    def test_bitmaps_beyond_physical_memory(self, monkeypatch):
        shape = build_shape((2,) * 16)  # 2 x 16 KiB of bitmaps
        monkeypatch.setattr(os, "sysconf", small_machine(4))
        with pytest.raises(CapacityError, match="memory"):
            # A stream that is never read: the check comes first.
            verify_with_weak_alpha(shape, iter(()))

    def test_bitmaps_within_physical_memory(self, monkeypatch):
        shape = build_shape((2,) * 16)
        assert auxiliary_bitmap_bytes(shape) == 8 * 4096
        monkeypatch.setattr(os, "sysconf", small_machine(8))
        assert verify_with_weak_alpha(shape, label_all(shape))[0].passed

    @pytest.mark.parametrize("how", ["no sysconf", "unknown name", "reports -1"])
    def test_unknown_memory_size_admits(self, monkeypatch, how):
        def unknown_name(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        if how == "no sysconf":
            monkeypatch.delattr(os, "sysconf")
        elif how == "unknown name":
            monkeypatch.setattr(os, "sysconf", unknown_name)
        else:
            monkeypatch.setattr(os, "sysconf", small_machine(-1))
        shape = build_shape((2, 3, 4))
        assert verify_with_weak_alpha(shape, label_all(shape))[0].passed


class TestVerifyWithWeakAlpha:
    def test_single_pass_combination(self):
        shape = build_shape((2, 2, 2))
        report, weak = verify_with_weak_alpha(shape, label_all(shape))
        assert report.passed
        lo, hi = weak.feasible_k_range
        assert lo <= shape.level_sizes[1] <= hi

    def test_weak_report_absent_on_failure(self):
        shape = build_shape((2,))
        corrupted = records_from_assignment(shape, {(): 0, (0,): 2, (1,): 2})
        report, weak = verify_with_weak_alpha(shape, corrupted)
        assert not report.passed
        assert weak is None


def corrupt(assignment, vertex, kind, edge_count, rng):
    """A copy of the mapping with one fault of the given kind at vertex."""
    corrupted = dict(assignment)
    others = [v for v in assignment if v != vertex]
    if kind == "duplicate":
        corrupted[vertex] = assignment[rng.choice(others)]
    elif kind == "out of range":
        corrupted[vertex] = edge_count + 1 + rng.randrange(3)
    elif kind == "negative":
        corrupted[vertex] = -1 - rng.randrange(3)
    elif kind == "mirrored":
        # Across the parent's label: the same edge label, the other side.
        corrupted[vertex] = 2 * assignment[vertex[:-1]] - assignment[vertex]
    else:  # swapped
        other = rng.choice(others)
        corrupted[vertex], corrupted[other] = assignment[other], assignment[vertex]
    return corrupted


CORRUPTIONS = ("duplicate", "out of range", "negative", "swapped")


def runs_of(shape):
    """The runs level_runs cuts from the closed form's stream."""
    return list(level_runs(shape, label_all(shape)))


def takes_masks(run):
    """Whether the verifier marks a fault-free run through its masks.

    The root's run is read apart.  A run with children on both sides of
    their parents or a zero edge, or one whose labels or edge labels are too
    sparse for a bounded mask, is checked record by record instead.
    """
    width, _, labels, parent_labels = run
    if not width or chunk_side(run) == "mixed":
        return False
    edges = list(map(abs, map(sub, labels, parent_labels)))
    bound = MASK_BITS_PER_VALUE * (len(labels) + 1)
    return all(max(values) - min(values) < bound for values in (labels, edges))


def chunk_side(run):
    """Where a non-root run's children lie: all above, all below, or mixed."""
    diffs = list(map(sub, run[2], run[3]))
    if min(diffs) > 0:
        return "above"
    if max(diffs) < 0:
        return "below"
    return "mixed"


class TestAgainstReferenceChecker:
    """The chunked verifier returns exactly what a plain per-record check does."""

    def test_closed_form_sweep(self):
        # |E| - f is graceful too, with every run's children on the other
        # side of their parents, so each run changes the ends it reports.
        for degrees in sweep_degree_sequences():
            shape = build_shape(degrees)
            assignment = {r.vertex: r.label for r in label_all(shape)}
            assert verify_with_weak_alpha(shape, label_all(shape)) == (
                reference_reports(degrees, assignment)
            ), degrees
            mirrored = {v: shape.edge_count - label for v, label in assignment.items()}
            assert verify_with_weak_alpha(
                shape, records_from_assignment(shape, mirrored)
            ) == reference_reports(degrees, mirrored), degrees

    def test_seeded_corruptions_over_sweep(self):
        rng = random.Random(2021)
        for degrees in sweep_degree_sequences():
            shape = build_shape(degrees)
            assignment = {r.vertex: r.label for r in label_all(shape)}
            for kind in CORRUPTIONS:
                if kind in ("duplicate", "swapped") and len(assignment) < 2:
                    continue
                vertex = rng.choice(list(assignment))
                corrupted = corrupt(assignment, vertex, kind, shape.edge_count, rng)
                records = records_from_assignment(shape, corrupted)
                assert verify_with_weak_alpha(shape, records) == (
                    reference_reports(degrees, corrupted)
                ), (degrees, kind, vertex)

    def test_corruption_on_every_level_of_a_deep_tree(self):
        # The root's run is read apart, the sparse shallow levels of (2,)*12
        # go record by record, and the runs of the wide levels are marked
        # through masks.  Width 0 puts every kind of fault on the root.
        degrees = (2,) * 12
        shape = build_shape(degrees)
        masked = list(map(takes_masks, runs_of(shape)))
        assert any(masked) and not all(masked)
        assignment = {r.vertex: r.label for r in label_all(shape)}
        rng = random.Random(12)
        for width in range(len(degrees) + 1):
            level = list(product(range(2), repeat=width))
            for kind in CORRUPTIONS:
                vertex = rng.choice(level)
                corrupted = corrupt(assignment, vertex, kind, shape.edge_count, rng)
                records = records_from_assignment(shape, corrupted)
                assert verify_with_weak_alpha(shape, records) == (
                    reference_reports(degrees, corrupted)
                ), (kind, vertex)

    @pytest.mark.parametrize("degrees", [(6, 5, 4, 3, 2), (3,) * 7])
    def test_corruption_beside_every_chunk_cut(self, degrees):
        # The runs are cut at every level boundary and, in levels wider
        # than CHUNK, inside the level.
        shape = build_shape(degrees)
        records = list(label_all(shape))
        assignment = {r.vertex: r.label for r in records}
        assert verify_with_weak_alpha(shape, records) == (
            reference_reports(degrees, assignment)
        )
        runs = runs_of(shape)
        assert any(map(takes_masks, runs))
        cuts = list(accumulate(len(run[1]) for run in runs))[:-1]
        inside = [len(records[cut - 1].vertex) == len(records[cut].vertex) for cut in cuts]
        assert any(inside) and not all(inside)
        rng = random.Random(len(records))
        for cut in cuts:
            for record in records[cut - 1:cut + 1]:
                for kind in CORRUPTIONS:
                    corrupted = corrupt(
                        assignment, record.vertex, kind, shape.edge_count, rng
                    )
                    assert verify_with_weak_alpha(
                        shape, records_from_assignment(shape, corrupted)
                    ) == reference_reports(degrees, corrupted), (kind, record.vertex)

    @pytest.mark.parametrize("degrees", [(6, 5, 4, 3, 2), (2,) * 12])
    def test_corruption_in_one_sided_and_mixed_chunks(self, degrees):
        # Runs whose children all lie above, or all below, their parents
        # take the verifier's masks; runs with children on both sides
        # (where the first digit changes inside a level) are checked record
        # by record.
        shape = build_shape(degrees)
        assignment = {r.vertex: r.label for r in label_all(shape)}
        sides = {}
        # The first run is the root's, which has no parent label.
        for run in runs_of(shape)[1:]:
            side = chunk_side(run)
            if side == "mixed" or takes_masks(run):
                sides.setdefault(side, run)
        assert set(sides) == {"above", "below", "mixed"}
        assert not takes_masks(sides["mixed"])
        rng = random.Random(sum(degrees))
        for side, (width, vertices, _, parent_labels) in sides.items():
            for kind in CORRUPTIONS + ("mirrored",):
                vertex = rng.choice(vertices)
                corrupted = corrupt(assignment, vertex, kind, shape.edge_count, rng)
                if kind == "mirrored":
                    moved = [corrupted[v] for v in vertices]
                    assert chunk_side((width, vertices, moved, parent_labels)) == "mixed", side
                assert verify_with_weak_alpha(
                    shape, records_from_assignment(shape, corrupted)
                ) == reference_reports(degrees, corrupted), (side, kind, vertex)

    @pytest.mark.parametrize("degrees", [(6, 5, 4, 3, 2), (2,) * 12])
    def test_mask_rules_mirror_the_verifier(self, degrees, monkeypatch):
        # takes_masks restates the verifier's mask rules; a spy on
        # _mark_run keeps the two from drifting apart.
        calls = []
        mark_run = verification._mark_run

        def spy(vertex_bits, edge_bits, edge_count, labels, parent_labels):
            ends = mark_run(vertex_bits, edge_bits, edge_count, labels, parent_labels)
            calls.append((labels, ends))
            return ends

        monkeypatch.setattr(verification, "_mark_run", spy)
        shape = build_shape(degrees)
        records = list(label_all(shape))
        assert verify_with_weak_alpha(shape, records)[0].passed
        # A run is marked through the masks when _mark_run returns its
        # separator ends.
        masked = [labels for labels, ends in calls if ends is not None]
        runs = runs_of(shape)
        assert masked == [labels for _, _, labels, _ in filter(takes_masks, runs)]
        assert 0 < len(masked) < len(runs)

    @pytest.mark.parametrize("degrees", [(300,), (2, 253, 2)])
    def test_separator_ends_from_one_sided_chunks(self, degrees):
        # Edges that bound the separator interval lie in one-sided runs
        # past the root's: both ends in (300,), and in (2, 253, 2) the
        # smaller end in the run of children (1,3)..(1,252) of vertex (1),
        # whose label h_2 is the interval.  E - label is graceful too, with
        # every child on the other side.
        shape = build_shape(degrees)
        assignment = {r.vertex: r.label for r in label_all(shape)}
        mirrored = {v: shape.edge_count - label for v, label in assignment.items()}
        for labelling in (assignment, mirrored):
            assert verify_with_weak_alpha(
                shape, records_from_assignment(shape, labelling)
            ) == reference_reports(degrees, labelling)


class TestBruteForce:
    def test_star_found_and_sound(self):
        shape = build_shape((2,))
        found = brute_force_graceful(shape)
        assert found is not None
        report, _ = verify_with_weak_alpha(shape, found)
        assert report.passed

    def test_three_vertex_path_first_assignment(self):
        shape = build_shape((1, 1))
        found = brute_force_graceful(shape)
        assert found == [((), 0, None), ((0,), 2, 0), ((0, 0), 1, 2)]

    def test_first_hit_is_lexicographically_smallest(self):
        # Independent route: scan every label vector in lexicographic order.
        for degrees in degree_sequences_up_to(6):
            shape = build_shape(degrees)
            order = list(enumerate_vertices(shape))
            n = len(order)
            first = next(
                labels
                for labels in product(range(n), repeat=n)
                if reference_reports(degrees, dict(zip(order, labels)))[0].passed
            )
            found = brute_force_graceful(shape, cap=6)
            assert [r.label for r in found] == list(first), degrees
            assert [r.vertex for r in found] == order, degrees

    def test_star_deeper_than_the_recursion_limit(self):
        shape = build_shape((1100,))
        found = brute_force_graceful(shape, cap=2000)
        assert found == [((), 0, None)] + [((x,), x + 1, 0) for x in range(1100)]

    def test_cap_enforced(self):
        with pytest.raises(SearchCapError):
            brute_force_graceful(build_shape((2, 3, 4)))

    def test_search_budget(self, monkeypatch):
        # The search counts the candidate labels it tries and gives up past
        # SEARCH_BUDGET; the 1,101-vertex star of
        # test_star_deeper_than_the_recursion_limit needs about 0.6 M, the
        # 200-vertex path more than any budget.
        path = build_shape((1,) * 199)
        monkeypatch.setattr(verification, "SEARCH_BUDGET", 10_000)
        with pytest.raises(SearchCapError, match="budget of 10000 candidate labels"):
            brute_force_graceful(path, cap=200)
        # The three-vertex path's search tries 9 candidates in all: 1 for the
        # root, 2 for the middle vertex, 3 for the last before it backtracks,
        # then 1 and 2 again.
        monkeypatch.setattr(verification, "SEARCH_BUDGET", 2)
        with pytest.raises(SearchCapError):
            brute_force_graceful(build_shape((1, 1)))
        monkeypatch.setattr(verification, "SEARCH_BUDGET", 9)
        assert brute_force_graceful(build_shape((1, 1))) == [
            ((), 0, None), ((0,), 2, 0), ((0, 0), 1, 2)
        ]

    def test_custom_cap(self):
        shape = build_shape((1, 1, 1))  # 4 vertices
        with pytest.raises(SearchCapError):
            brute_force_graceful(shape, cap=3)

    def test_sound_on_tiny_shapes(self):
        for degrees in degree_sequences_up_to(7):
            shape = build_shape(degrees)
            found = brute_force_graceful(shape, cap=7)
            assert found is not None, degrees
            assert verify_with_weak_alpha(shape, found)[0].passed, degrees

    def test_records_are_canonical_on_shapes_up_to_ten_vertices(self):
        # The search hands back label_all's form: canonical ids in order,
        # each parent label the label of vertex[:-1], verified as given.
        shapes = [build_shape(d) for d in degree_sequences_up_to(10)]
        assert len(shapes) == 74
        for shape in shapes:
            found = brute_force_graceful(shape, cap=10)
            assert all(type(r) is LabelledVertex for r in found), shape.degrees
            assert [r.vertex for r in found] == list(enumerate_vertices(shape)), shape.degrees
            label_of = {r.vertex: r.label for r in found}
            assert [r.parent_label for r in found] == [
                label_of[r.vertex[:-1]] if r.vertex else None for r in found
            ], shape.degrees
            assert verify_with_weak_alpha(shape, found)[0].passed, shape.degrees

    def test_search_output_gets_separator_report(self):
        # h_2 need not be a feasible separator outside the closed form.
        for degrees, feasible in [((2, 1, 2), (2, 3)), ((2, 2, 1), None)]:
            shape = build_shape(degrees)
            report, weak = verify_with_weak_alpha(shape, brute_force_graceful(shape))
            assert report.passed, degrees
            assert weak.feasible_k_range == feasible, degrees


class TestPreorderLabelling:
    """Rosa's walk against the closed form's block labels, and on its own."""

    def test_goldens(self):
        assert preorder_labelling(EXAMPLE_DEGREES) == list(EXAMPLE_LABELS)
        assert preorder_labelling(P7_DEGREES) == list(P7_LABELS)

    def test_tiny(self):
        assert preorder_labelling(()) == [0]
        assert preorder_labelling((1,)) == [0, 1]

    def test_matches_label_blocks(self):
        for degrees in sweep_degree_sequences() + RUN_EDGE_SHAPES + UNIT_DIGIT_SHAPES:
            assert preorder_labelling(degrees) == block_labels(build_shape(degrees)), degrees

    @given(small_degree_sequences)
    def test_matches_label_blocks_property(self, degrees):
        assert preorder_labelling(degrees) == block_labels(build_shape(degrees))

    def test_matches_label_blocks_on_a_million_vertices(self):
        shape = build_shape((2,) * 20)  # 2,097,151 vertices; no timing gate
        walk = preorder_labelling(shape.degrees)
        assert len(walk) == shape.vertex_count
        closed = chain.from_iterable(labels for labels, _ in label_blocks(shape))
        assert all(map(eq, closed, walk))

    def test_parent_tables_are_the_level_above(self):
        # Vertex i of a level whose parents have k children each hangs from
        # vertex i // k of the level above, so each label_blocks parent
        # table is the walk's labels of that level read at i // k.
        for degrees in sweep_degree_sequences() + RUN_EDGE_SHAPES + UNIT_DIGIT_SHAPES:
            walk = preorder_labelling(degrees)
            blocks = label_blocks(build_shape(degrees))
            assert next(blocks) == ([walk[0]], None)
            expected, start, width = [], 0, 1
            for k in degrees:
                expected += [walk[start + i // k] for i in range(width * k)]
                start, width = start + width, width * k
            assert list(chain.from_iterable(parents for _, parents in blocks)) == expected, degrees

    def test_path_deeper_than_the_recursion_limit(self):
        assert preorder_labelling((1,) * 4999) == zig_zag(5000)

    def test_is_graceful(self):
        for degrees in sweep_degree_sequences():
            shape = build_shape(degrees)
            assignment = dict(zip(enumerate_vertices(shape), preorder_labelling(degrees)))
            report, _ = verify_with_weak_alpha(shape, records_from_assignment(shape, assignment))
            assert report.passed, degrees

    def test_tells_the_closed_form_from_its_complement(self):
        # The stream verifier passes both; the walk matches only the closed form.
        shape = build_shape(EXAMPLE_DEGREES)
        complement = [shape.edge_count - label for label in block_labels(shape)]
        assignment = dict(zip(enumerate_vertices(shape), complement))
        assert verify_with_weak_alpha(shape, records_from_assignment(shape, assignment))[0].passed
        assert preorder_labelling(EXAMPLE_DEGREES) != complement


def test_auxiliary_bitmap_bytes():
    shape = build_shape((2, 3, 4))  # 32 edges: two bitmaps of 33 bits, labels 0..32
    assert auxiliary_bitmap_bytes(shape) == 5 + 5
    assert auxiliary_bitmap_bytes(build_shape(())) == 2
