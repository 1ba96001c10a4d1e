"""Command-line surface: formats, outputs, and the exit-status contract."""

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys

import pytest

import gracetree
from gracetree import (
    brute_force_graceful,
    build_shape,
    enumerate_vertices,
    label_all,
    records_from_assignment,
)
from gracetree import cli, errors, labelling, verification
from gracetree.cli import main
from helpers import (
    EXAMPLE_LABELS,
    STREAM_FAULTS,
    _wrong_root,
    reference_export,
    sweep_degree_sequences,
)

FORMATS = ["csv", "json", "dot", "table"]
ERROR_CLASSES = [
    value
    for value in vars(errors).values()
    if isinstance(value, type) and value.__module__ == errors.__name__
]
# Levels longer than one run of the writers, levels that end mid-run, and
# child indices of several digits.
RUN_EDGE_SHAPES = [
    (),
    (1,),
    (1,) * 40,
    (1500,),
    (2, 1500),
    (3000, 2),
    (12, 11, 13),
    (10,) * 4,
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLabelCommand:
    def test_csv_records(self, capsys):
        code, out, _ = run(capsys, "label", "2,3,4", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["vertex", "level", "label", "parent_label", "edge_label"]
        assert len(rows) - 1 == 33
        by_vertex = {row[0]: row for row in rows[1:]}
        assert by_vertex["(0,2)"][2] == "11"
        assert by_vertex["()"] == ["()", "1", "0", "", ""]

    def test_published_edge_labels(self, capsys):
        code, out, _ = run(capsys, "label", "2,3,4", "--format", "csv")
        assert code == 0
        edges = {row[0]: row[4] for row in csv.reader(io.StringIO(out))}
        assert (edges["(0)"], edges["(1,0)"], edges["(1,2,3)"]) == ("32", "1", "25")

    def test_json_single_vertex(self, capsys):
        code, out, _ = run(capsys, "label", "", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["degree_sequence"] == []
        assert payload["vertex_count"] == 1
        assert payload["edge_count"] == 0
        assert payload["records"] == [
            {"vertex": "()", "level": 1, "label": 0, "parent_label": None, "edge_label": None}
        ]

    def test_formats_agree_record_for_record(self, capsys):
        code, json_out, _ = run(capsys, "label", "2,2", "--format", "json")
        assert code == 0
        code, csv_out, _ = run(capsys, "label", "2,2", "--format", "csv")
        assert code == 0
        code, table_out, _ = run(capsys, "label", "2,2", "--format", "table")
        assert code == 0
        json_records = json.loads(json_out)["records"]
        csv_rows = list(csv.reader(io.StringIO(csv_out)))[1:]
        table_rows = [line.split() for line in table_out.strip().splitlines()[1:]]
        assert [r["vertex"] for r in json_records] == [row[0] for row in csv_rows]
        assert [r["vertex"] for r in json_records] == [row[0] for row in table_rows]
        assert [r["label"] for r in json_records] == [int(row[2]) for row in csv_rows]
        assert [r["label"] for r in json_records] == [int(row[2]) for row in table_rows]

    def test_table_lists_every_vertex(self, capsys):
        code, out, _ = run(capsys, "label", "2,3,4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 34  # header + 33 records
        assert lines[0].split() == ["vertex", "level", "label", "parent_label", "edge_label"]

    def test_dot_counts(self, capsys):
        code, out, _ = run(capsys, "label", "2,3,4", "--format", "dot")
        assert code == 0
        nodes = re.findall(r'^\s+"[^"]*" \[label=', out, flags=re.M)
        edges = re.findall(r'" -> "', out)
        assert len(nodes) == 33
        assert len(edges) == 32

    def test_dot_node_and_edge_texts(self, capsys):
        code, out, _ = run(capsys, "label", "2,2", "--format", "dot")
        assert code == 0
        body = [line for line in out.splitlines() if "label=" in line]
        node_texts = [
            int(m.group(1))
            for line in body
            if "->" not in line
            for m in [re.search(r'\[label="(\d+)"\]', line)]
        ]
        edge_texts = [
            int(m.group(1))
            for line in body
            if "->" in line
            for m in [re.search(r'\[label="(\d+)"\]', line)]
        ]
        assert sorted(node_texts) == [0, 1, 2, 3, 4, 5, 6]
        assert sorted(edge_texts) == [1, 2, 3, 4, 5, 6]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "labels.csv"
        code, out, _ = run(capsys, "label", "2,3,4", "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""
        with target.open() as handle:
            rows = list(csv.reader(handle))
        assert len(rows) - 1 == 33
        assert [int(r[2]) for r in rows[1:]] == list(EXAMPLE_LABELS)


class TestLabelOutput:
    """The writers against the record-at-a-time reference, and read back."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_matches_reference_writers(self, capsys, fmt):
        for degrees in sweep_degree_sequences(max_levels=5) + RUN_EDGE_SHAPES:
            code, out, err = run(capsys, "label", ",".join(map(str, degrees)), "--format", fmt)
            assert (code, err) == (0, "")
            assert out == reference_export(build_shape(degrees), fmt), degrees

    @staticmethod
    def expected_fields(shape):
        return [
            (v, len(v) + 1, label, parent, None if parent is None else abs(label - parent))
            for v, label, parent in label_all(shape)
        ]

    @staticmethod
    def parse_vertex(text):
        assert text[0] == "(" and text[-1] == ")"
        return tuple(int(x) for x in text[1:-1].split(",") if x)

    def test_csv_reads_back(self, capsys):
        shape = build_shape((2, 3, 4, 5))
        code, out, _ = run(capsys, "label", "2,3,4,5", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["vertex", "level", "label", "parent_label", "edge_label"]
        fields = [
            (self.parse_vertex(v), int(level), int(label))
            + tuple(int(x) if x else None for x in (parent, edge))
            for v, level, label, parent, edge in rows[1:]
        ]
        assert fields == self.expected_fields(shape)

    def test_json_reads_back(self, capsys):
        shape = build_shape((2, 3, 4, 5))
        code, out, _ = run(capsys, "label", "2,3,4,5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["level_sizes"] == list(shape.level_sizes)
        fields = [
            (
                self.parse_vertex(r["vertex"]),
                r["level"],
                r["label"],
                r["parent_label"],
                r["edge_label"],
            )
            for r in payload["records"]
        ]
        assert fields == self.expected_fields(shape)

    def test_dot_reads_back(self, capsys):
        shape = build_shape((2, 3, 4, 5))
        code, out, _ = run(capsys, "label", "2,3,4,5", "--format", "dot")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "digraph labelled_tree {" and lines[-1] == "}"
        node = re.compile(r'  "(\([\d,]*\))" \[label="(\d+)"\];')
        edge = re.compile(r'  "(\([\d,]*\))" -> "(\([\d,]*\))" \[label="(\d+)"\];')
        nodes = [m.groups() for m in map(node.fullmatch, lines[1:-1]) if m]
        edges = [m.groups() for m in map(edge.fullmatch, lines[1:-1]) if m]
        assert len(nodes) == shape.vertex_count
        assert len(edges) == shape.edge_count
        assert len(nodes) + len(edges) == len(lines) - 2
        expected = self.expected_fields(shape)
        assert [(self.parse_vertex(v), int(x)) for v, x in nodes] == [
            (v, label) for v, _, label, _, _ in expected
        ]
        assert [(self.parse_vertex(p), self.parse_vertex(c), int(x)) for p, c, x in edges] == [
            (v[:-1], v, e) for v, _, _, _, e in expected[1:]
        ]


class TestLabelStreamGuard:
    """A faulty record stream ends in exit 5 with an internal error."""

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize(
        "stream, message",
        [(_wrong_root, "label stream has root label 1, not 0")] + STREAM_FAULTS,
    )
    def test_fault(self, capsys, monkeypatch, fmt, stream, message):
        monkeypatch.setattr(cli, "label_all", stream)
        code, _, err = run(capsys, "label", "2,3,4", "--format", fmt)
        assert code == 5
        assert err.startswith("internal error: label stream ")
        assert message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("stream, message", STREAM_FAULTS)
    def test_verify_fault(self, capsys, monkeypatch, stream, message):
        monkeypatch.setattr(cli, "label_all", stream)
        code, out, err = run(capsys, "verify", "2,3,4")
        assert code == 5
        assert err.startswith("internal error: label stream ")
        assert message in err
        assert len(err.splitlines()) == 1
        assert "result:" not in out

    def test_verify_wrong_root_label_fails(self, capsys, monkeypatch):
        # The root record is well formed; its label is the verifier's to judge.
        monkeypatch.setattr(cli, "label_all", _wrong_root)
        code, out, err = run(capsys, "verify", "2,3,4")
        assert code == 1
        assert "result: FAIL" in out
        assert "  counterexample: duplicate vertex label at (0,0), value 1\n" in out
        assert err == ""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_root_only_tree_runs_past(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(cli, "label_all", lambda shape: iter(label_all(build_shape((1,)))))
        code, _, err = run(capsys, "label", "", "--format", fmt)
        assert code == 5
        assert "runs past 1 vertices" in err


def test_cli_reads_the_benchmarked_stream_and_verifier():
    # The benchmark traces and fault-injects through these two names of
    # the cli module, so they must be the library's own functions.
    assert cli.label_all is labelling.label_all
    assert cli.verify_with_weak_alpha is verification.verify_with_weak_alpha


class TestInvertCommand:
    def test_published_decode(self, capsys):
        code, out, _ = run(capsys, "invert", "2,3,4", "10")
        assert code == 0
        assert out.strip() == "(1,1,0) level 4"

    def test_root(self, capsys):
        code, out, _ = run(capsys, "invert", "2,3,4", "0")
        assert code == 0
        assert out.strip() == "() level 1"

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "invert", "2,3,4", "40")
        assert code == 2
        assert "outside [0, 32]" in err

    def test_trace(self, capsys):
        code, out, _ = run(capsys, "invert", "2,3,4", "10", "--trace")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # three decoder steps plus the result
        assert "level 2 [even chain]" in lines[0]
        assert "level 3 [odd chain]" in lines[1]
        assert "resolved" in lines[2]
        assert lines[-1] == "(1,1,0) level 4"


class TestVerifyCommand:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "verify", "2,3,4")
        assert code == 0
        assert "result: PASS" in out
        assert "[16, 16]" in out
        assert "(33,16,5,1)" in out

    def test_single_vertex(self, capsys):
        code, out, _ = run(capsys, "verify", "")
        assert code == 0
        assert "result: PASS" in out

    def test_binary(self, capsys):
        code, out, _ = run(capsys, "verify", "2,2")
        assert code == 0
        assert "result: PASS" in out
        assert "second-level subtree size 3 lies in the interval" in out

    @pytest.mark.parametrize(
        "degrees, separator_lines",
        [
            ("1", ["weak separator interval: [0, 1]", "strict separator feasible: yes"]),
            ("3,2", ["weak separator interval: empty", "strict separator feasible: no"]),
            (
                "2,1",
                [
                    "weak separator interval: [2, 2]",
                    "second-level subtree size 2 lies in the interval",
                    "strict separator feasible: no",
                ],
            ),
        ],
    )
    def test_separator_report(self, capsys, degrees, separator_lines):
        # The claim line appears only when the root has two children.
        code, out, _ = run(capsys, "verify", degrees)
        assert code == 0
        assert out.splitlines()[6:] == separator_lines + ["result: PASS"]

    def test_separator_claim_checked_on_the_stream(self, capsys, monkeypatch):
        # A graceful stream whose h_2 is not a feasible separator: the
        # closed form never yields one, so verify treats it as a bug.
        found = brute_force_graceful(build_shape((2, 1, 2)))
        monkeypatch.setattr(
            cli, "label_all", lambda shape: records_from_assignment(shape, found)
        )
        code, out, err = run(capsys, "verify", "2,1,2")
        assert code == 5
        assert err.startswith("internal error: separator 4 not in feasible interval")
        assert "result: PASS" not in out

    def test_failure_lists_counterexamples(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "label_all",
            lambda shape: records_from_assignment(
                shape, {v: 0 for v in enumerate_vertices(shape)}
            ),
        )
        code, out, _ = run(capsys, "verify", "2,3,4")
        assert code == 1
        assert "vertices: 33  edges: 32" in out
        assert "result: FAIL" in out
        assert out.count("  counterexample: ") == 10
        assert "  ... and 54 more\n" in out


class TestOracleCompareCommand:
    def test_path_matches(self, capsys):
        code, out, _ = run(capsys, "oracle-compare", "1,1,1,1,1,1")
        assert code == 0
        assert "path oracle: exact match across 7 labels" in out

    def test_small_shape(self, capsys):
        code, out, _ = run(capsys, "oracle-compare", "2")
        assert code == 0
        assert "closed form: graceful" in out
        assert "search oracle: found" in out

    @pytest.mark.parametrize("degrees", ["2,1,2", "2,2,1"])
    def test_search_labelling_without_the_separator(self, capsys, degrees):
        code, out, _ = run(capsys, "oracle-compare", degrees)
        assert code == 0
        assert "search oracle: found a different valid labelling" in out

    def test_too_large(self, capsys):
        code, _, err = run(capsys, "oracle-compare", "2,3,4")
        assert code == 2
        assert "exceeds the search cap" in err

    def test_custom_cap_admits_larger(self, capsys):
        code, out, _ = run(capsys, "oracle-compare", "2,2", "--cap", "7")
        assert code == 0
        assert "search oracle" in out

    def test_search_deeper_than_the_recursion_limit(self, capsys):
        # A 1,101-vertex star: the search succeeds greedily, one level of
        # backtracking state per vertex.
        code, out, err = run(capsys, "oracle-compare", "1100", "--cap", "2000")
        assert code == 0, err
        assert "closed form: graceful" in out
        assert "search oracle: found a different valid labelling" in out
        assert err == ""

    def test_long_path_uses_path_oracle_only(self, capsys):
        code, out, _ = run(capsys, "oracle-compare", ",".join(["1"] * 63))
        assert code == 0
        assert "path oracle: exact match across 64 labels" in out
        assert "search oracle" not in out


class TestExitStatuses:
    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "label", "2,0,4")
        assert code == 2
        assert "error:" in err

    def test_capacity_overflow(self, capsys):
        code, _, err = run(capsys, "label", ",".join(["4294967295"] * 5))
        assert code == 3
        assert "64-bit" in err

    def test_bitmaps_beyond_memory(self, capsys):
        # About 2^61 bytes of bitmap: more than any 64-bit address space.
        code, out, err = run(capsys, "verify", "4294967295,4294967295")
        assert code == 3
        assert err.startswith("error: ") and "memory" in err
        assert len(err.splitlines()) == 1
        assert "result:" not in out

    def test_bitmaps_beyond_physical_memory(self, capsys, monkeypatch):
        # 32 KiB of bitmaps on a machine that reports 16 KiB of memory.
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 4, "SC_PAGE_SIZE": 4096}.get)
        code, out, err = run(capsys, "verify", ",".join(["2"] * 16))
        assert code == 3
        assert err == "error: bitmaps of 32768 bytes exceed the 16384 bytes of memory\n"
        assert "result:" not in out

    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda error: error.__name__)
    def test_every_package_error_has_a_status(self, capsys, monkeypatch, error):
        # Whatever a command raises from gracetree.errors ends in a status
        # from 1 to 5 and one line on stderr, never in a traceback.
        def fail(args):
            raise error("injected fault")

        monkeypatch.setattr(cli, "cmd_invert", fail)
        code, _, err = run(capsys, "invert", "2,3,4", "10")
        assert 1 <= code <= 5
        assert err.endswith(": injected fault\n")
        assert len(err.splitlines()) == 1

    def test_io_failure(self, capsys, tmp_path):
        missing = tmp_path / "no-such-dir" / "x.csv"
        code, _, err = run(capsys, "label", "2,2", "--out", str(missing))
        assert code == 4

    def test_missing_degrees(self, capsys):
        code, _, err = run(capsys, "label")
        assert code == 2
        assert "the following arguments are required: degrees" in err

    def test_commands_match_the_docstring(self):
        # The module docstring's first line names every command, no more.
        (subparsers,) = [
            action
            for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        documented = cli.__doc__.splitlines()[0].split(": ", 1)[1].rstrip(".")
        assert list(subparsers.choices) == documented.split(", ")
        assert list(subparsers.choices) == ["label", "invert", "verify", "oracle-compare"]

    @pytest.mark.parametrize("argv", [["frobnicate"], ["bench", "2,3,4"]], ids=" ".join)
    def test_unknown_command(self, capsys, argv):
        assert main(argv) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_reader_closing_early_is_quiet(self, fmt):
        first_line = {
            "csv": b"vertex,level,label,parent_label,edge_label\n",
            "json": b'{"degree_sequence": [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2], ',
            "dot": b"digraph labelled_tree {\n",
            "table": b"vertex    ",
        }[fmt]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(gracetree.__file__))
        # Several MB in every format, far beyond a pipe buffer; each run
        # of records is one write of about 100 KB, which the closed pipe
        # can cut in the middle.
        degrees = ",".join(["2"] * 16)
        with subprocess.Popen(
            [sys.executable, "-m", "gracetree", "label", degrees, "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            assert proc.stdout.readline().startswith(first_line)
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == b""
