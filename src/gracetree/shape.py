"""Rooted symmetric tree shapes described by their daughter degree sequence.

A rooted symmetric tree with q levels (root = level 1) is fully determined
by the sequence (k_1, ..., k_{q-1}) where k_i is the number of children of
every level-i vertex.  Vertices are named by the child indices along the
path from the root: the root is the empty sequence (), and (1, 2, 3) is the
level-4 vertex reached via child 1, then child 2, then child 3.

The derived quantity h_i is the number of vertices in the subtree hanging
from any single level-i vertex, so h_1 is the whole vertex count and the
deepest level always has h_q = 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import CapacityError, DegreeSequenceError, InvalidVertexError

U64_MAX = 2**64 - 1

VertexId = tuple[int, ...]


def integer(text: str) -> int:
    """Read ASCII ``[+-]?[0-9]+``, not int()'s ``1_0``; ValueError past 20 significant digits."""
    match = re.fullmatch(r"\s*([+-]?)0*([0-9]+)\s*", text)
    if match is None:
        token = text.strip()  # shown up to 20 characters, the width of U64_MAX
        shown = repr(token[:20]) + ("..." if len(token) > 20 else "")
        raise ValueError(f"{shown} is not an integer")
    if len(match[2]) > 20:
        raise ValueError("exceeds the 64-bit range")
    return int(match[1] + match[2])


def parse_degree_sequence(text: str) -> tuple[int, ...]:
    """Parse a comma-separated daughter degree sequence.

    Whitespace around commas is tolerated; empty (or all-whitespace) text
    denotes the single-vertex tree.  Ranges are checked by TreeShape.
    """
    if text.strip() == "":
        return ()
    degrees = []
    for position, token in enumerate(text.split(","), start=1):
        try:
            value = integer(token)
        except ValueError as exc:
            raise DegreeSequenceError(f"entry {position}: daughter degree {exc}") from None
        degrees.append(value)
    return tuple(degrees)


@dataclass(frozen=True)
class TreeShape:
    """A daughter degree sequence plus its derived subtree sizes per level.

    ``level_sizes[i]`` is the vertex count of the subtree rooted at any
    vertex of level i + 1; the first entry is the whole tree.  The sizes
    are derived bottom-up: the deepest level has size 1 and each level
    above satisfies size = degree * size_below + 1.  Construction fails
    with CapacityError instead of silently exceeding 64 bits.  Instances
    are immutable and safe for unrestricted concurrent use; ``levels``,
    ``vertex_count`` and ``edge_count`` are worked out on first read.
    """

    degrees: tuple[int, ...]
    level_sizes: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        for position, k in enumerate(self.degrees, start=1):
            if k < 1:
                raise DegreeSequenceError(
                    f"entry {position}: daughter degree must be >= 1, got {k}"
                )
            if k > U64_MAX:
                raise DegreeSequenceError(
                    f"entry {position}: daughter degree {k} exceeds the 64-bit range"
                )
        sizes = [1]
        for i in range(len(self.degrees) - 1, -1, -1):
            nxt = self.degrees[i] * sizes[-1] + 1
            if nxt > U64_MAX:
                raise CapacityError(
                    f"subtree size at level {i + 1} exceeds the 64-bit range"
                )
            sizes.append(nxt)
        sizes.reverse()
        object.__setattr__(self, "level_sizes", tuple(sizes))

    @cached_property
    def levels(self) -> int:
        return len(self.level_sizes)

    @cached_property
    def vertex_count(self) -> int:
        return self.level_sizes[0]

    @cached_property
    def edge_count(self) -> int:
        return self.level_sizes[0] - 1


def build_shape(degrees: Iterable[int]) -> TreeShape:
    """Build the TreeShape of a daughter degree sequence."""
    return TreeShape(tuple(degrees))


def validate_vertex(shape: TreeShape, vertex: VertexId) -> int:
    """Check a vertex of int entries (bools too) against a shape; return its 1-based level."""
    if len(vertex) > len(shape.degrees):
        raise InvalidVertexError(
            f"sequence of length {len(vertex)} exceeds the {shape.levels}-level tree"
        )
    try:  # a float, Fraction or str entry leaves a sum that is not an int
        whole = type(sum(vertex)) is int
    except TypeError:
        whole = False
    if not whole:
        position = next(i for i, x in enumerate(vertex, 1) if not isinstance(x, int))
        raise InvalidVertexError(
            f"entry {position}: child index {vertex[position - 1]!r} is not an integer",
            position=position,
        )
    for x, k in zip(vertex, shape.degrees):
        if not 0 <= x < k:  # counted only here, off the passing path
            position = [0 <= y < d for y, d in zip(vertex, shape.degrees)].index(False) + 1
            raise InvalidVertexError(
                f"entry {position}: child index {x} outside [0, {k - 1}]",
                position=position,
            )
    return len(vertex) + 1


def format_vertex(vertex: VertexId) -> str:
    """Render a vertex as "(x1,x2,...)"; the root prints as "()"."""
    return "(" + ",".join(map(str, vertex)) + ")"
