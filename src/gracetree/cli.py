"""Command-line interface: label, invert, verify, oracle-compare.

``label`` exports records, checking that their ids are the canonical ones
and naming them by position; ``verify`` streams them into the verifier.

Exit status contract, stable for scripting: 0 success/pass, 1 verification
failure, 2 usage or input error, 3 capacity overflow (including a shape
whose verifier bitmaps do not fit in memory), 4 I/O failure, 5 internal
error (a ConsistencyError or LabellingStreamError, always a bug).  A
reader that closes the output early (``| head``) ends the run quietly with 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from itertools import chain, islice, repeat, zip_longest
from operator import eq, sub

from .errors import (
    CapacityError,
    ConsistencyError,
    DegreeSequenceError,
    InvalidVertexError,
    LabelRangeError,
    LabellingStreamError,
    SearchCapError,
)
from .inverse import DecodeState, _decode
from .labelling import _level_text, enumerate_vertices, label_all, label_blocks, level_runs
from .shape import TreeShape, build_shape, format_vertex, integer, parse_degree_sequence
from .verification import brute_force_graceful, preorder_labelling, verify_with_weak_alpha

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

# oracle-compare admits up to max(--cap, this) vertices: about 1 s on the 4,096-vertex path.
ORACLE_MAX_VERTICES = 4096


def _shape_from(args: argparse.Namespace) -> TreeShape:
    return build_shape(parse_degree_sequence(args.degrees))


def _integer_argument(text: str) -> int:
    # argparse echoes a token whose reader raises ValueError; this one is cut short.
    try:
        return integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid integer value: {exc}") from None


@contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle


def _print_counterexamples(report) -> None:
    for ce in report.counterexamples[:10]:
        print(f"  counterexample: {ce.kind} at {format_vertex(ce.vertex)}, value {ce.value}")
    hidden = len(report.counterexamples) - 10
    if hidden > 0:
        print(f"  ... and {hidden} more")


def _runs(shape: TreeShape):
    """Yield ``(width, names, labels, parent_labels, edge_labels)`` for
    each ``level_runs`` run of ``label_all(shape)`` after the root's, whose
    label must be 0: the writers' headers print it.  A run's ids must be the
    next of ``enumerate_vertices``, so its ``names`` come from ``_level_text``.
    """
    runs = level_runs(shape, label_all(shape))
    (root_label,) = next(runs)[2]
    if root_label != 0:
        raise LabellingStreamError(f"label stream has root label {root_label}, not 0")
    ids = islice(enumerate_vertices(shape), 1, None)
    texts = chain.from_iterable(_level_text(shape.degrees[:w]) for w in range(1, shape.levels))
    for width, vertices, labels, parents in runs:
        if not all(map(eq, vertices, ids)):
            raise LabellingStreamError(f"label stream has wrong ids at level {width + 1}")
        names = list(islice(texts, len(vertices)))
        yield width, names, labels, parents, map(abs, map(sub, labels, parents))


def _write_table(shape: TreeShape, out) -> None:
    vw = max(len("vertex"), len(format_vertex([k - 1 for k in shape.degrees])))
    lw = max(len("label"), len(str(shape.edge_count)))
    rw = max(len("level"), len(str(shape.levels)))
    pw = max(len("parent_label"), lw)
    ew = max(len("edge_label"), lw)
    out.write(
        f"{'vertex':<{vw}}  {'level':>{rw}}  {'label':>{lw}}  "
        f"{'parent_label':>{pw}}  {'edge_label':>{ew}}\n"
        f"{'()':<{vw}}  {1:>{rw}}  {0:>{lw}}  {'-':>{pw}}  {'-':>{ew}}\n"
    )
    for width, names, labels, parents, edges in _runs(shape):
        row = f"%-{vw}s  {width + 1:>{rw}}  %{lw}d  %{pw}d  %{ew}d\n"
        out.write("".join(map(row.__mod__, zip(names, labels, parents, edges))))


def _write_csv(shape: TreeShape, out) -> None:
    out.write("vertex,level,label,parent_label,edge_label\n(),1,0,,\n")
    for width, names, labels, parents, edges in _runs(shape):
        # An id with two or more digits holds a comma, so it is quoted.
        name = "%s" if width == 1 else '"%s"'
        row = f"{name},{width + 1},%d,%d,%d\n"
        out.write("".join(map(row.__mod__, zip(names, labels, parents, edges))))


def _write_json(shape: TreeShape, out) -> None:
    out.write(
        f'{{"degree_sequence": {list(shape.degrees)}, '
        f'"level_sizes": {list(shape.level_sizes)}, "vertex_count": '
        f'{shape.vertex_count}, "edge_count": {shape.edge_count}, "records": [\n'
        '{"vertex": "()", "level": 1, "label": 0, "parent_label": null, "edge_label": null}'
    )
    for width, names, labels, parents, edges in _runs(shape):
        # Vertex text is digits, commas and parentheses: nothing to escape.
        row = (
            f',\n{{"vertex": "%s", "level": {width + 1}, '
            '"label": %d, "parent_label": %d, "edge_label": %d}'
        )
        out.write("".join(map(row.__mod__, zip(names, labels, parents, edges))))
    out.write("\n]}\n")


def _write_dot(shape: TreeShape, out) -> None:
    out.write('digraph labelled_tree {\n  "()" [label="0"];\n')
    # Each name of the level above, once for each of its children.
    parent_names = chain.from_iterable(
        chain.from_iterable(map(repeat, _level_text(shape.degrees[:w]), repeat(k)))
        for w, k in enumerate(shape.degrees)
    )
    for _, names, labels, parents, edges in _runs(shape):
        row = '  "%s" [label="%d"];\n  "%s" -> "%s" [label="%d"];\n'
        fields = zip(names, labels, islice(parent_names, len(names)), names, edges)
        out.write("".join(map(row.__mod__, fields)))
    out.write("}\n")


_WRITERS = {"table": _write_table, "csv": _write_csv, "json": _write_json, "dot": _write_dot}


def cmd_label(args: argparse.Namespace) -> int:
    shape = _shape_from(args)
    with _open_out(args.out) as out:
        _WRITERS[args.format](shape, out)
    return EXIT_OK


def _describe_state(state: DecodeState) -> str:
    if state.chain == "root":
        return "level 1: label 0 is the root"
    digits = format_vertex(state.digits)
    status = "resolved" if state.found else f"remainder {state.remainder}"
    return f"level {state.level} [{state.chain} chain] digits {digits}: {status}"


def cmd_invert(args: argparse.Namespace) -> int:
    shape = _shape_from(args)
    # Each state is printed as it is made, so a trace holds O(q) digits.
    emit = (lambda state: print(_describe_state(state))) if args.trace else None
    vertex = _decode(shape, args.label, emit)
    print(f"{format_vertex(vertex)} level {len(vertex) + 1}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    shape = _shape_from(args)
    report, weak = verify_with_weak_alpha(shape, label_all(shape))
    print(f"degree sequence: {format_vertex(shape.degrees)}")
    print(f"level sizes:     {format_vertex(shape.level_sizes)}")
    print(f"vertices: {shape.vertex_count}  edges: {shape.edge_count}")
    print(f"vertex labels distinct:        {'yes' if report.vertex_labels_distinct else 'NO'}")
    print(f"vertex labels within range:    {'yes' if report.labels_in_range else 'NO'}")
    print(f"edge labels exactly 1..|E|:    {'yes' if report.edge_label_multiset_complete else 'NO'}")
    if not report.passed:
        _print_counterexamples(report)
        print("result: FAIL")
        return EXIT_VERIFY_FAILED
    assert weak is not None
    if weak.feasible_k_range is None:
        print("weak separator interval: empty")
    else:
        lo, hi = weak.feasible_k_range
        print(f"weak separator interval: [{lo}, {hi}]")
    if shape.degrees[:1] == (2,):
        # The closed form guarantees h_2 a feasible separator when the root
        # has two children; other graceful labellings need not have it.
        claimed, feasible = shape.level_sizes[1], weak.feasible_k_range
        if feasible is None or not feasible[0] <= claimed <= feasible[1]:
            raise ConsistencyError(
                f"separator {claimed} not in feasible interval {feasible} "
                "although the root has two children"
            )
        print(f"second-level subtree size {claimed} lies in the interval")
    print(f"strict separator feasible: {'yes' if weak.strict_alpha_feasible else 'no'}")
    print("result: PASS")
    return EXIT_OK


def cmd_oracle_compare(args: argparse.Namespace) -> int:
    shape = _shape_from(args)
    n = shape.vertex_count
    if n > max(args.cap, ORACLE_MAX_VERTICES):
        raise SearchCapError(
            f"{n} vertices exceeds the search cap ({args.cap}) and the walk's {ORACLE_MAX_VERTICES}"
        )
    failures = 0
    closed = chain.from_iterable(labels for labels, _ in label_blocks(shape))
    pairs = zip_longest(closed, preorder_labelling(shape.degrees))
    for position, (label, walked) in enumerate(pairs):
        if label != walked:
            failures += 1
            print(f"preorder oracle: MISMATCH at position {position} (closed form {label}, walk {walked})")
            break
    else:
        print(f"preorder oracle: exact match across {n} labels")
    if n <= args.cap:
        records = list(label_all(shape))
        report = verify_with_weak_alpha(shape, records)[0]
        print(f"closed form: {'graceful' if report.passed else 'NOT graceful'}")
        if not report.passed:
            failures += 1
            _print_counterexamples(report)
        found = brute_force_graceful(shape, cap=args.cap)
        if found is None:
            failures += 1
            print("search oracle: exhausted without a graceful labelling")
        else:
            found_report = verify_with_weak_alpha(shape, found)[0]
            if not found_report.passed:
                failures += 1
                print("search oracle: produced an invalid labelling")
                _print_counterexamples(found_report)
            elif found == records:  # ids, labels and parent labels
                print("search oracle: found the same labelling")
            else:
                print("search oracle: found a different valid labelling")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def _add_degrees_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "degrees",
        help='comma-separated daughter degrees, e.g. "2,3,4"; empty for the single vertex',
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gracetree",
        description=(
            "Graceful labelling of rooted symmetric trees: closed-form labels, "
            "label decoding, and streaming verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("label", help="emit every vertex record in breadth-first order")
    _add_degrees_arguments(p)
    p.add_argument("--format", choices=sorted(_WRITERS), default="table")
    p.add_argument("--out", default=None, metavar="PATH", help="output file (default stdout)")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("invert", help="decode a label back to its vertex")
    _add_degrees_arguments(p)
    p.add_argument("label", type=_integer_argument, help="label to decode")
    p.add_argument("--trace", action="store_true", help="print every decoder step")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("verify", help="check gracefulness and separator feasibility")
    _add_degrees_arguments(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "oracle-compare",
        help="cross-check the closed form against independent oracles",
    )
    _add_degrees_arguments(p)
    p.add_argument("--cap", type=_integer_argument, default=14, help="search oracle vertex cap")
    p.set_defaults(func=cmd_oracle_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early, as ``| head`` does.  Point
        # stdout at devnull so the interpreter's final flush stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except (DegreeSequenceError, LabelRangeError, SearchCapError, InvalidVertexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:
        print("error: out of memory for this shape", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConsistencyError, LabellingStreamError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
