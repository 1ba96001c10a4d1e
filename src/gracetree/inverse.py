"""Decode a graceful label back to the unique vertex that carries it.

The decoder runs two interleaved division chains over the subtree sizes,
which invert ``labelling.level_form``.  Even levels have sign -1, so the
even chain starts from edge_count - m and resolves even levels; the odd
chain starts from m itself and resolves odd levels.  Levels are tested
in increasing order (2, 3, 4, ...), alternating chains, and the first zero
remainder pins the vertex: the tested chain's digits are exactly its
child-index sequence.  The scan always terminates by the deepest level,
whose divisor is 1.

The chains state the closed form a second time on purpose: they cost
O(q) divisions per label, where matching m against each level's
``level_form`` set would cost O(q^2).

``invert_label``, ``trace_inversion`` and ``gracetree invert`` share one
decoding loop, which hands one ``DecodeState(level, chain, digits,
remainder)`` per level test to a sink as soon as it is built: the trace
keeps them all, while the CLI prints each and keeps none.

Several remainders are provably non-zero for valid inputs (for example the
odd chain's first remainder, since a label divisible by h_2 would make the
even chain resolve first).  Those facts are enforced as runtime checks
that raise ConsistencyError, never absorbed.  They also bound every digit
(see ``_decode``), so nothing re-validates the decoded vertex.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import ConsistencyError, LabelRangeError
from .shape import TreeShape, VertexId


class DecodeState(NamedTuple):
    """One level test: the tested chain's digits and remainder after it.

    ``chain`` names the chain that was just tested ("even", "odd", or
    "root" for the m = 0 short-circuit, whose state is (1, "root", (), 0)).
    The other chain's values are its own previous state in the same trace.
    Within one chain the remainder strictly decreases from test to test,
    which is the termination measure.
    """

    level: int
    chain: str
    digits: tuple[int, ...]
    remainder: int

    @property
    def found(self) -> bool:
        """Whether this test resolved the label."""
        return self.remainder == 0


def invert_label(shape: TreeShape, m: int) -> VertexId:
    """Return the unique vertex whose graceful label is m.

    Raises LabelRangeError if m is outside [0, edge_count] and
    ConsistencyError on any internal invariant breach (which would mean a
    bug, since the label function is a bijection onto [0, edge_count]).
    """
    return _decode(shape, m, None)


def trace_inversion(shape: TreeShape, m: int) -> list[DecodeState]:
    """Every decoder state for label m, ending at the resolving test."""
    trace: list[DecodeState] = []
    _decode(shape, m, trace.append)
    return trace


def _decode(shape: TreeShape, m: int, emit: Callable[[DecodeState], object] | None) -> VertexId:
    if not isinstance(m, int):  # a bool counts as an int
        raise LabelRangeError(f"label {m!r} is not an integer")
    if not 0 <= m <= shape.edge_count:
        raise LabelRangeError(
            f"label {m} outside [0, {shape.edge_count}] for this shape"
        )
    # emit, unless None, gets each state as it is built, with tuple.__new__,
    # which skips the Python-level __new__ of a NamedTuple: one per level.
    if m == 0:
        if emit is not None:
            emit(tuple.__new__(DecodeState, (1, "root", (), 0)))
        return ()

    # Every digit is a valid child index, so the vertex needs no re-check.
    # Level 2 divides |E| - m < k_1*h_2 by h_2.  Each later test divides a
    # chain remainder r < h_j = k_j*h_{j+1} + 1 (m itself is below h_1) by
    # h_{j+1}: the digit reaches k_j only if r = k_j*h_{j+1}, whose zero
    # remainder raises ConsistencyError.  The nonzero remainder r' < h_{j+1}
    # then gives r' - 1 < k_{j+1}*h_{j+2}, so the second digit stays below
    # k_{j+1} and the new remainder below h_{j+2}.  No digit is negative, and
    # the scan stops by level q, so a vertex has at most q - 1 digits.
    sizes = shape.level_sizes
    # Level 2: a single division of m' = k_1 * h_2 - m by h_2.
    digit, rem = divmod(shape.edge_count - m, sizes[1])
    if emit is not None:
        emit(tuple.__new__(DecodeState, (2, "even", (digit,), rem)))
    if rem == 0:
        return (digit,)

    # Deeper levels: two divisions per test, alternating chains.  The odd
    # chain's first test divides m itself; afterwards each chain continues
    # from its own last remainder.  Both lists are indexed by level % 2.
    chain_digits: tuple[list[int], list[int]] = ([digit], [])
    chain_rems = [rem, m]
    for level in range(3, shape.levels + 1):
        parity = level % 2
        digits = chain_digits[parity]
        digit, rem = divmod(chain_rems[parity], sizes[level - 2])
        if rem == 0:
            raise ConsistencyError(
                f"zero remainder entering the level-{level} test for label {m}; "
                "the sibling chain should have resolved first"
            )
        digits.append(digit)
        digit, rem = divmod(rem - 1, sizes[level - 1])
        digits.append(digit)
        chain_rems[parity] = rem
        if emit is not None:
            chain = "odd" if parity else "even"
            emit(tuple.__new__(DecodeState, (level, chain, tuple(digits), rem)))
        if rem == 0:
            return tuple(digits)
    raise ConsistencyError(
        f"label {m} unresolved after level {shape.levels}; "
        "the deepest divisor is 1 and must terminate the scan"
    )
