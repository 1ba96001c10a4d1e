"""Named mutants of the closed form, and the checks that reject them.

Each mutant wraps ``labelling.level_form``, so both ``label_vertex`` and
``label_blocks`` label with it.  Two routes judge a mutant on every shape
of the sweep: the stream verifier on ``label_all``, and the round trip of
each vertex through ``invert_label``, whose decoder states the closed form
on its own.  A raised error counts as a rejection.
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
    verify_with_weak_alpha,
)
from gracetree import labelling
from helpers import sweep_degree_sequences

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
# complement of a graceful labelling is graceful; only the round trip
# catches them.
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


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_rejected_where_it_changes_labels(monkeypatch, name):
    mutate, verifier_passes = MUTANTS[name]
    monkeypatch.setattr(
        labelling,
        "level_form",
        lambda shape, level: mutate(*LEVEL_FORM(shape, level), shape, level),
    )
    changed, passed, round_tripped = set(), set(), set()
    for degrees in SHAPES:
        shape = build_shape(degrees)
        if list(label_all(shape)) != ORIGINAL[degrees]:
            changed.add(degrees)
        if _verifier_passes(shape):
            passed.add(degrees)
        if _round_trips(shape):
            round_tripped.add(degrees)
    assert changed
    assert round_tripped == set(SHAPES) - changed
    if name in VERIFIER_BLIND:
        assert passed == set(SHAPES)
    else:
        assert passed == set(SHAPES) - changed
    assert len(passed) == verifier_passes
