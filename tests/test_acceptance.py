"""Acceptance criteria, one test per criterion with a printed pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

from gracetree import (
    build_shape,
    invert_label,
    label_all,
    label_vertex,
    verify_with_weak_alpha,
)
from gracetree.cli import main
from helpers import (
    EXAMPLE_DEGREES,
    EXAMPLE_LABELS,
    EXAMPLE_LEVEL_SIZES,
    P7_LABELS,
    degree_sequences_up_to,
    sweep_degree_sequences,
    zig_zag,
)


def best_of(runs, fn):
    best = float("inf")
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def report(criterion, detail, elapsed):
    print(f"ACCEPTANCE {criterion} PASS: {detail} [{elapsed * 1000:.3f} ms]")


def test_criterion_1_worked_example_labels():
    def run():
        shape = build_shape(EXAMPLE_DEGREES)
        return shape.level_sizes, tuple(rec.label for rec in label_all(shape))

    (sizes, labels), elapsed = best_of(5, run)
    assert sizes == EXAMPLE_LEVEL_SIZES
    assert labels == EXAMPLE_LABELS
    assert elapsed < 0.001
    report(1, "33 published labels and level sizes reproduced exactly", elapsed)


def test_criterion_2_worked_example_inversions():
    shape = build_shape(EXAMPLE_DEGREES)

    def run():
        return invert_label(shape, 32), invert_label(shape, 10)

    (v32, v10), elapsed = best_of(5, run)
    assert v32 == (0,)
    assert v10 == (1, 1, 0)
    assert elapsed < 0.001
    report(2, "label 32 decodes to (0), label 10 to (1,1,0)", elapsed)


def test_criterion_3_bijection_round_trip():
    start = time.perf_counter()
    shapes = [build_shape(d) for d in sweep_degree_sequences()]
    total_vertices = 0
    for shape in shapes:
        for rec in label_all(shape):
            assert invert_label(shape, rec.label) == rec.vertex, shape.degrees
        for m in range(shape.edge_count + 1):
            assert label_vertex(shape, invert_label(shape, m)) == m, shape.degrees
        total_vertices += shape.vertex_count
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(
        3,
        f"both round trips exact over {len(shapes)} shapes / {total_vertices} vertices",
        elapsed,
    )


def test_criterion_4_gracefulness_sweep():
    start = time.perf_counter()
    shapes = [build_shape(d) for d in sweep_degree_sequences()]
    for shape in shapes:
        assert verify_with_weak_alpha(shape, label_all(shape))[0].passed, shape.degrees
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, f"verifier passes every one of the {len(shapes)} sweep shapes", elapsed)


def test_criterion_5_weak_separator_claim():
    start = time.perf_counter()
    checked = 0
    for degrees in sweep_degree_sequences():
        if not degrees or degrees[0] != 2:
            continue
        shape = build_shape(degrees)
        _, weak = verify_with_weak_alpha(shape, label_all(shape))
        lo, hi = weak.feasible_k_range
        assert lo <= shape.level_sizes[1] <= hi, degrees
        checked += 1
    for levels in range(2, 9):  # binary trees (2, 2, ...) up to 8 levels
        shape = build_shape((2,) * (levels - 1))
        _, weak = verify_with_weak_alpha(shape, label_all(shape))
        lo, hi = weak.feasible_k_range
        assert lo <= shape.level_sizes[1] <= hi, levels
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(5, f"second-level size feasible for all {checked} two-child-root shapes", elapsed)


def test_criterion_6_path_oracle_equivalence():
    start = time.perf_counter()
    for n in range(1, 65):
        shape = build_shape((1,) * (n - 1))
        closed = [rec.label for rec in label_all(shape)]
        assert closed == zig_zag(n), n
    assert zig_zag(7) == list(P7_LABELS)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(6, "closed form equals the zig-zag oracle for paths up to 64 vertices", elapsed)


def test_criterion_7_large_tree_streaming(capsys):
    # 21-level binary tree: 2**21 - 1 vertices.  Verification pass/fail is
    # exact; the 10 s wall-time figure is a soft target, reported here and
    # guarded only loosely so a loaded machine cannot flake the suite.
    degrees = ",".join(["2"] * 20)
    shape = build_shape((2,) * 20)
    assert shape.vertex_count == 2_097_151
    start = time.perf_counter()
    code = main(["verify", degrees])
    elapsed = time.perf_counter() - start
    verify_output = capsys.readouterr().out
    assert code == 0, verify_output
    assert "vertices: 2097151  edges: 2097150" in verify_output
    assert "second-level subtree size 1048575 lies in the interval" in verify_output
    assert "result: PASS" in verify_output
    assert elapsed < 60.0
    with capsys.disabled():
        report(
            7,
            f"2,097,151 vertices streamed and verified (soft target 10 s"
            f"{'' if elapsed < 10 else ', exceeded on this machine'})",
            elapsed,
        )
        for line in verify_output.strip().splitlines():
            print(f"    verify: {line}")


def test_criterion_8_search_oracle_soundness():
    from gracetree import brute_force_graceful

    start = time.perf_counter()
    shapes = [build_shape(d) for d in degree_sequences_up_to(10)]
    for shape in shapes:
        found = brute_force_graceful(shape, cap=10)
        assert found is not None, shape.degrees
        assert verify_with_weak_alpha(shape, found)[0].passed, shape.degrees
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(8, f"search oracle sound on all {len(shapes)} shapes with <= 10 vertices", elapsed)
