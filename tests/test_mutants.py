"""Named mutants of the closed form, and the checks that reject them.

Each mutant wraps ``labelling.level_form``, so both ``label_vertex`` and
``label_blocks`` label with it.  Three routes judge a mutant on every shape
of the sweep: the stream verifier on ``label_all``, the round trip of each
vertex through ``invert_label``, whose decoder states the closed form on its
own, and the comparison of ``label_blocks``' labels with
``preorder_labelling``, which derives them from a depth-first walk without
``level_form``.  A raised error counts as a rejection.  ``oracle-compare``
runs that comparison, so it fails under the parity swap, which the stream
verifier and the search oracle both let through.
"""

import pytest

from gracetree import (
    ConsistencyError,
    LabelRangeError,
    LabellingStreamError,
    build_shape,
    enumerate_vertices,
    invert_label,
    label_all,
    label_vertex,
    preorder_labelling,
    verify_with_weak_alpha,
)
from gracetree import labelling
from gracetree.cli import main
from helpers import block_labels, sweep_degree_sequences

SHAPES = sweep_degree_sequences(max_levels=5)  # 121 shapes
LEVEL_FORM = labelling.level_form
REJECTIONS = (ConsistencyError, LabelRangeError, LabellingStreamError)

# name -> (mutant, the number of sweep shapes the stream verifier passes
# under it); a mutant maps (offset, sign, weights, shape, level) to a level
# form.
MUTANTS = {
    "odd base +1": (lambda o, s, w, shape, r: (o + r % 2, s, w), 0),
    "even base -1": (lambda o, s, w, shape, r: (o - (r + 1) % 2, s, w), 1),
    # Odd levels count down from |E| and even ones up from 0: the
    # complement |E| - f of the closed form f.
    "parities swapped": (lambda o, s, w, shape, r: (shape.edge_count - o, -s, w), 121),
    "deepest level +1": (lambda o, s, w, shape, r: (o + (r == shape.levels), s, w), 0),
    "last weight +1": (lambda o, s, w, shape, r: (o, s, w and w[:-1] + (w[-1] + 1,)), 5),
    "reversed weights": (lambda o, s, w, shape, r: (o, s, w[::-1]), 7),
    "every weight -1": (lambda o, s, w, shape, r: (o, s, tuple(x - 1 for x in w)), 5),
}
# Mutants the stream verifier passes although they change labels, since the
# complement of a graceful labelling is graceful; the round trip and the
# walk catch them.
VERIFIER_BLIND = {"parities swapped"}

ORIGINAL = {degrees: list(label_all(build_shape(degrees))) for degrees in SHAPES}


def _verifier_passes(shape):
    try:
        return verify_with_weak_alpha(shape, label_all(shape))[0].passed
    except REJECTIONS:
        return False


def _round_trips(shape):
    try:
        return all(
            invert_label(shape, label_vertex(shape, vertex)) == vertex
            for vertex in enumerate_vertices(shape)
        )
    except REJECTIONS:
        return False


def _walk_agrees(shape):
    try:
        return block_labels(shape) == preorder_labelling(shape.degrees)
    except REJECTIONS:
        return False


def _mutate(monkeypatch, name):
    mutate = MUTANTS[name][0]
    monkeypatch.setattr(
        labelling,
        "level_form",
        lambda shape, level: mutate(*LEVEL_FORM(shape, level), shape, level),
    )


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_rejected_where_it_changes_labels(monkeypatch, name):
    _mutate(monkeypatch, name)
    verifier_passes = MUTANTS[name][1]
    changed, passed, round_tripped, walked = set(), set(), set(), set()
    for degrees in SHAPES:
        shape = build_shape(degrees)
        if list(label_all(shape)) != ORIGINAL[degrees]:
            changed.add(degrees)
        if _verifier_passes(shape):
            passed.add(degrees)
        if _round_trips(shape):
            round_tripped.add(degrees)
        if _walk_agrees(shape):
            walked.add(degrees)
    assert changed
    assert round_tripped == set(SHAPES) - changed
    assert walked == set(SHAPES) - changed
    if name in VERIFIER_BLIND:
        assert passed == set(SHAPES)
    else:
        assert passed == set(SHAPES) - changed
    assert len(passed) == verifier_passes


def test_oracle_compare_rejects_the_complement(monkeypatch, capsys):
    # The search oracle finds another graceful labelling and the stream
    # verifier passes the complement, so only the walk fails the run.
    _mutate(monkeypatch, "parities swapped")
    assert main(["oracle-compare", "2,2"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "preorder oracle: MISMATCH at position 0 (closed form 6, walk 0)",
        "closed form: graceful",
        "search oracle: found a different valid labelling",
    ]
