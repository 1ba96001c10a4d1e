"""Command-line surface: formats, outputs, and the exit-status contract."""

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
    records_from_assignment,
)
from gracetree import cli
from gracetree.cli import main
from helpers import EXAMPLE_LABELS


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

    def test_degrees_flag(self, capsys):
        code, out, _ = run(capsys, "label", "--degrees", "2,2", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 8


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


class TestBenchCommand:
    def test_reports_throughput(self, capsys):
        code, out, _ = run(capsys, "bench", "2,3,4", "--reps", "10")
        assert code == 0
        assert "vertices: 33" in out
        assert "throughput:" in out
        assert "auxiliary bitmap memory: 9 bytes" in out

    def test_zero_reps_rejected(self, capsys):
        code, _, err = run(capsys, "bench", "2,3,4", "--reps", "0")
        assert code == 2
        assert "--reps" in err


class TestExitStatuses:
    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "label", "2,0,4")
        assert code == 2
        assert "error:" in err

    def test_capacity_overflow(self, capsys):
        code, _, err = run(capsys, "label", ",".join(["4294967295"] * 5))
        assert code == 3
        assert "64-bit" in err

    @pytest.mark.parametrize("command", ["verify", "bench"])
    def test_bitmaps_beyond_memory(self, capsys, command):
        # About 2^61 bytes of bitmap: more than any 64-bit address space.
        code, out, err = run(capsys, command, "4294967295,4294967295")
        assert code == 3
        assert err.startswith("error: ") and "memory" in err
        assert len(err.splitlines()) == 1
        assert "result:" not in out

    def test_io_failure(self, capsys, tmp_path):
        missing = tmp_path / "no-such-dir" / "x.csv"
        code, _, err = run(capsys, "label", "2,2", "--out", str(missing))
        assert code == 4

    def test_missing_degrees(self, capsys):
        code, _, err = run(capsys, "label")
        assert code == 2
        assert "no degree sequence" in err

    def test_degrees_given_twice(self, capsys):
        code, _, err = run(capsys, "label", "2,2", "--degrees", "2,2")
        assert code == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_reader_closing_early_is_quiet(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(gracetree.__file__))
        degrees = ",".join(["2"] * 16)  # several MB of csv, far beyond a pipe buffer
        with subprocess.Popen(
            [sys.executable, "-m", "gracetree", "label", degrees, "--format", "csv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            assert proc.stdout.readline() == b"vertex,level,label,parent_label,edge_label\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == b""
