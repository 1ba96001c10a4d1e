"""Workloads, output checks and metrics of the gracetree benchmark.

The benchmark drives the package's public entry points from outside it.
Three workloads stress different layers:

``verify``
    ``gracetree verify`` on the 2,097,151-vertex binary tree ``(2,)*20``:
    the paper's headline pipeline, the ``label_all`` stream feeding the
    two-bitmap scan.  Sibling runs are 2 long and vertex ids 20 deep, so
    per-record cost dominates.
``export``
    ``gracetree label --format F`` for csv, json, dot and table on
    ``(2,3,4,5,6,7,8)`` (46,233 records each): the same stream read by the
    writers instead of the scan, so writer cost dominates.
``queries``
    A closed loop of one caller.  Each query draws a uniform label m,
    decodes it with ``invert_label`` (every 16th through
    ``trace_inversion``) and encodes the vertex back with
    ``label_vertex``.  Queries alternate over three shapes of depth 3, 8
    and 21.  Nothing here touches the stream, the scan or the writers.

Every workload reports the same end-to-end metrics over its own unit of
work.  An item is a vertex verified, a record exported or a query
answered.  An operation is one verify command, one round of the four
export commands, or one query.  A pass is one operation for ``verify``
and ``export`` and a block of ``QUERY_BLOCK`` queries for ``queries``.

The figures are taken at the slow end of each run.  On a shared host the
speed alternates between a base state and faster spells, and the share
of a run spent in the faster spells varies from run to run.  Medians of
pass rates or operation times then swing by 20-30% between runs; the
slow end of a run swings about half as much.  ``items_per_s_p10`` is the 10th
percentile (nearest rank) of the per-pass rates: the rate nine passes in
ten reach.  ``latency_tail_us`` is the 90th percentile of the per-pass
tails: the tail nine passes in ten stay under.  A pass's tail is its p99
where at least ten operations lie above it, as on ``queries``, and its
slowest operation otherwise, as on ``verify`` and ``export``, whose passes
are one operation each.

Every operation is checked.  A failed check counts against the operations
attempted, and its time stays out of the rates and latencies.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import math
import os
import random
import resource
import statistics
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter_ns
from types import SimpleNamespace

from tracing import SpanTotals, Tracer

VERIFY_DEGREES = (2,) * 20
EXPORT_DEGREES = (2, 3, 4, 5, 6, 7, 8)
EXPORT_FORMATS = ("csv", "json", "dot", "table")
# Size and SHA-256 of each export file, recorded once from the package as
# the benchmark was written.  A writer change must keep the bytes.
EXPORT_OUTPUTS = {
    "csv": (1709564, "007676201937fc2013fbea2ec2a2db77bc3aeeec2292902e3e8a360a7bcb8063"),
    "json": (4714840, "52c46aee72a5f8ac87e77157de98f0ee29dcb491a758ee1adc4a14c4a1424c14"),
    "dot": (4235544, "3a96eebf89f18609032c2e3bf1a69207b8716572a0c122cd1f7ec185b5f43744"),
    "table": (2589104, "d08b878c407c62cc0ffba37c5a21110f637eab21128ad1336e4389c187001464"),
}
# Depths 3, 8 and 21: decode cost grows with depth.
QUERY_SHAPES = ((1000, 1000), (2, 3, 4, 5, 6, 7, 8), (2,) * 20)
TRACE_EVERY = 16
# A multiple of 3 * 16, so every block spreads the same number of plain
# and traced decodes over each shape.
QUERY_BLOCK = 3 * TRACE_EVERY * 64

# Set-ups per run beyond the first, spread evenly over the run.
SETUP_REPS = 15
CALIBRATION_REPS = 3
CALIBRATION_LOOPS = 300_000
HASH_CHUNK = 1 << 20
# The share of passes left out at the slow end.
SLOW_END = 0.1
TAIL_QUANTILE = 0.99
TAIL_BEYOND = 10


def import_package() -> SimpleNamespace:
    """Import gracetree afresh, so that each set-up pays for the import."""
    for name in [n for n in sys.modules if n == "gracetree" or n.startswith("gracetree.")]:
        del sys.modules[name]
    cli = importlib.import_module("gracetree.cli")
    return SimpleNamespace(
        cli=cli,
        shape=sys.modules["gracetree.shape"],
        labelling=sys.modules["gracetree.labelling"],
        inverse=sys.modules["gracetree.inverse"],
        verification=sys.modules["gracetree.verification"],
    )


def calibrate() -> float:
    """Mop/s of a fixed pure-Python loop: a figure of the host, not the package."""
    start = perf_counter_ns()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFFF
    return CALIBRATION_LOOPS * 1e3 / (perf_counter_ns() - start)


def nearest_rank(values: list, q: float):
    """Nearest-rank percentile of a list, q in (0, 1]."""
    return sorted(values)[max(1, math.ceil(q * len(values))) - 1]


def tail(latencies: list[int]) -> int:
    """``TAIL_QUANTILE`` of the latencies if at least ``TAIL_BEYOND`` lie above it.

    A few long operations have no tail to speak of; there the slowest
    operation stands for it.
    """
    beyond = len(latencies) - math.ceil(TAIL_QUANTILE * len(latencies))
    return nearest_rank(latencies, TAIL_QUANTILE if beyond >= TAIL_BEYOND else 1.0)


@dataclass
class Recorder:
    """Checks attempted and failed, and the latencies in ns of the operations
    that passed since ``latencies`` was last cleared."""

    attempted: int = 0
    failed: int = 0
    latencies: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def record(self, ok: bool, ns: int, problem: str = "") -> None:
        self.attempted += 1
        if ok:
            self.latencies.append(ns)
        else:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)


def run_cli(cli, argv: list[str], tracer: Tracer | None, span: str):
    """Call ``cli.main`` with stdout captured; return (exit code, stdout, ns)."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        start = perf_counter_ns()
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span(span):
                code = cli.main(argv)
        ns = perf_counter_ns() - start
    return code, buffer.getvalue(), ns


def file_digest(path: str) -> tuple[int, str]:
    """Size and SHA-256 of a file, read in chunks so memory stays flat."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        while chunk := handle.read(HASH_CHUNK):
            size += len(chunk)
            digest.update(chunk)
    return size, digest.hexdigest()


def patch_cli(cli, **replacements):
    """``unittest.mock.patch.multiple`` on the cli module, imported on first use.

    Importing ``unittest.mock`` adds about 10 MB to the resident set that
    ``peak_rss_mb`` reports, and only traced passes need it.
    """
    from unittest.mock import patch

    return patch.multiple(cli, **replacements)


class Workload:
    """Set up by the constructor; ``run_pass`` runs and checks one pass."""

    name = ""

    def __init__(self, pkg: SimpleNamespace, seed: int, workdir: str) -> None:
        self.pkg = pkg
        self.build_ns: list[int] = []

    def build(self, degrees: tuple[int, ...]):
        start = perf_counter_ns()
        shape = self.pkg.shape.build_shape(degrees)
        self.build_ns.append(perf_counter_ns() - start)
        return shape

    @property
    def shapes(self) -> list:
        raise NotImplementedError

    def run_pass(self, recorder: Recorder, tracer: Tracer | None) -> tuple[int, int]:
        """Run one pass; return the items and ns of the operations that passed."""
        raise NotImplementedError

    def traced_stream(self, tracer: Tracer):
        return tracer.stream("labelling.label_all", self.pkg.cli.label_all)


class VerifyWorkload(Workload):
    name = "verify"

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.shape = self.build(VERIFY_DEGREES)
        self.argv = ["verify", ",".join(map(str, VERIFY_DEGREES))]
        self.expected_lines = (
            f"vertices: {self.shape.vertex_count}  edges: {self.shape.edge_count}",
            f"second-level subtree size {self.shape.level_sizes[1]} lies in the interval",
            "result: PASS",
        )

    @property
    def shapes(self):
        return [self.shape]

    def _traced_verifier(self, tracer: Tracer):
        verify = tracer.timed("verification.scan", self.pkg.cli.verify_with_weak_alpha)
        bitmap_bytes = self.pkg.verification.auxiliary_bitmap_bytes

        def wrapper(shape, records):
            report, weak = verify(shape, records)
            tracer.count("verification.counterexamples", len(report.counterexamples))
            tracer.count("verification.bitmap_bytes", bitmap_bytes(shape))
            return report, weak

        return wrapper

    def run_pass(self, recorder, tracer):
        cli = self.pkg.cli
        try:
            if tracer is None:
                code, out, ns = run_cli(cli, self.argv, None, "")
            else:
                with patch_cli(
                    cli,
                    label_all=self.traced_stream(tracer),
                    verify_with_weak_alpha=self._traced_verifier(tracer),
                ):
                    code, out, ns = run_cli(cli, self.argv, tracer, "cli.verify")
        except Exception as exc:  # a crash is a failed check, not a dead run
            recorder.record(False, 0, f"verify raised {exc!r}")
            return 0, 0
        lines = out.splitlines()
        missing = [line for line in self.expected_lines if line not in lines]
        ok = code == 0 and not missing
        recorder.record(ok, ns, f"verify exit {code}, missing {missing}")
        return (self.shape.vertex_count, ns) if ok else (0, 0)


class ExportWorkload(Workload):
    name = "export"

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self.shape = self.build(EXPORT_DEGREES)
        self.outdir = os.path.join(workdir, "export")
        os.makedirs(self.outdir, exist_ok=True)
        degrees = ",".join(map(str, EXPORT_DEGREES))
        self.commands = [
            (fmt, os.path.join(self.outdir, f"labels.{fmt}")) for fmt in EXPORT_FORMATS
        ]
        self.argvs = {
            fmt: ["label", degrees, "--format", fmt, "--out", path]
            for fmt, path in self.commands
        }

    @property
    def shapes(self):
        return [self.shape]

    def _round(self, tracer):
        """Write every format; return the formats whose check failed, and ns."""
        cli = self.pkg.cli
        bad, total_ns = [], 0
        for fmt, path in self.commands:
            try:
                code, _, ns = run_cli(cli, self.argvs[fmt], tracer, f"cli.writer.{fmt}")
            except Exception as exc:  # a crash is a failed check, not a dead run
                bad.append(f"{fmt} raised {exc!r}")
                continue
            total_ns += ns
            size, digest = file_digest(path)
            if tracer is not None:
                tracer.count(f"cli.writer.{fmt}.bytes", size)
            if code != 0 or (size, digest) != EXPORT_OUTPUTS[fmt]:
                bad.append(f"{fmt} exit {code}, {size} bytes, sha256 {digest}")
        return bad, total_ns

    def run_pass(self, recorder, tracer):
        if tracer is None:
            bad, ns = self._round(None)
        else:
            with patch_cli(self.pkg.cli, label_all=self.traced_stream(tracer)):
                bad, ns = self._round(tracer)
        recorder.record(not bad, ns, "; ".join(bad))
        if bad:
            return 0, 0
        return len(EXPORT_FORMATS) * self.shape.vertex_count, ns


class QueriesWorkload(Workload):
    name = "queries"

    def __init__(self, pkg, seed, workdir):
        super().__init__(pkg, seed, workdir)
        self._shapes = [self.build(degrees) for degrees in QUERY_SHAPES]
        # Labels are drawn one query at a time, never stored.
        self.rng = random.Random(seed)

    @property
    def shapes(self):
        return self._shapes

    def run_pass(self, recorder, tracer):
        invert = self.pkg.inverse.invert_label
        trace = self.pkg.inverse.trace_inversion
        encode = self.pkg.labelling.label_vertex
        if tracer is not None:
            invert = tracer.timed("inverse.invert_label", invert)
            trace = tracer.timed("inverse.trace_inversion", trace)
            encode = tracer.timed("labelling.label_vertex", encode)
        shapes, draw = self._shapes, self.rng.randrange
        ok_count = ok_ns = 0
        for i in range(QUERY_BLOCK):
            shape = shapes[i % len(shapes)]
            m = draw(shape.edge_count + 1)
            traced_decode = i % TRACE_EVERY == TRACE_EVERY - 1
            states = None
            start = perf_counter_ns()
            try:
                if traced_decode:
                    states = trace(shape, m)
                    vertex = states[-1].digits
                else:
                    vertex = invert(shape, m)
                back = encode(shape, vertex)
            except Exception as exc:  # a crash is a failed check, not a dead run
                back = exc
            ns = perf_counter_ns() - start
            ok = back == m
            recorder.record(ok, ns, "" if ok else f"label {m} on {shape.degrees} came back as {back!r}")
            if ok:
                ok_count += 1
                ok_ns += ns
            if states is not None and tracer is not None:
                tracer.count("inverse.decode_steps", len(states))
        return ok_count, ok_ns


WORKLOADS = {cls.name: cls for cls in (VerifyWorkload, ExportWorkload, QueriesWorkload)}


# Per-layer metrics: name -> unit.  Each describes one traced pass; counts
# come from the first traced pass, times are medians over traced passes.
# ``verification.bitmap_bytes`` is the figure the package reports through
# ``auxiliary_bitmap_bytes`` for the shape scanned, not a measured allocation.
LAYER_UNITS = {
    "shape.build_shape.us": "us",
    "shape.vertices": "count",
    "labelling.label_all.self_s": "s",
    "labelling.label_all.records": "count",
    "labelling.label_all.records_per_s": "1/s",
    "verification.scan.self_s": "s",
    "verification.scan.records_per_s": "1/s",
    "verification.bitmap_bytes": "B",
    "verification.counterexamples": "count",
    "cli.verify.self_s": "s",
    **{
        f"cli.writer.{fmt}.{key}": unit
        for fmt in EXPORT_FORMATS
        for key, unit in (("self_s", "s"), ("bytes", "B"), ("mb_per_s", "MB/s"))
    },
    "inverse.invert_label.calls": "count",
    "inverse.invert_label.self_s": "s",
    "inverse.invert_label.ops_per_s": "1/s",
    "labelling.label_vertex.calls": "count",
    "labelling.label_vertex.self_s": "s",
    "labelling.label_vertex.ops_per_s": "1/s",
    "inverse.trace_inversion.calls": "count",
    "inverse.trace_inversion.ops_per_s": "1/s",
    "inverse.decode_steps": "count",
    "tracing.overhead_ratio": "ratio",
    "tracing.traced_pass_s": "s",
    "tracing.untraced_pass_s": "s",
    "tracing.self_time_share": "ratio",
    "host.calib_mops": "Mop/s",
}
END_TO_END_UNITS = {
    "items_per_s_p10": "1/s",
    "latency_tail_us": "us",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def pass_layers(tracer: Tracer, pass_ns: int) -> dict[str, float]:
    """Per-layer figures of one traced pass, zero for layers it did not reach."""
    totals, counts = tracer.totals(), tracer.counts

    def span(name):
        return totals.get(name, SpanTotals())

    def self_s(name):
        return span(name).self_ns / 1e9

    out = {}
    stream = span("labelling.label_all")
    out["labelling.label_all.self_s"] = self_s("labelling.label_all")
    out["labelling.label_all.records"] = stream.items
    out["labelling.label_all.records_per_s"] = _rate(stream.items, stream.self_ns / 1e9)
    scan = span("verification.scan")
    out["verification.scan.self_s"] = self_s("verification.scan")
    out["verification.scan.records_per_s"] = _rate(
        scan.child_items.get("labelling.label_all", 0), scan.self_ns / 1e9
    )
    out["verification.bitmap_bytes"] = counts.get("verification.bitmap_bytes", 0)
    out["verification.counterexamples"] = counts.get("verification.counterexamples", 0)
    out["cli.verify.self_s"] = self_s("cli.verify")
    for fmt in EXPORT_FORMATS:
        name = f"cli.writer.{fmt}"
        size = counts.get(f"{name}.bytes", 0)
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.bytes"] = size
        out[f"{name}.mb_per_s"] = _rate(size / 1e6, self_s(name))
    for name in ("inverse.invert_label", "labelling.label_vertex"):
        out[f"{name}.calls"] = span(name).calls
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.ops_per_s"] = _rate(span(name).calls, self_s(name))
    traced = span("inverse.trace_inversion")
    out["inverse.trace_inversion.calls"] = traced.calls
    out["inverse.trace_inversion.ops_per_s"] = _rate(traced.calls, traced.total_ns / 1e9)
    out["inverse.decode_steps"] = counts.get("inverse.decode_steps", 0)
    out["tracing.self_time_share"] = sum(t.self_ns for t in totals.values()) / pass_ns
    return out


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    recorder: Recorder
    passes: int
    pass_rates: list[float]
    # Median and tail latency in ns of each untraced pass that passed.
    pass_p50s: list[int]
    pass_tails: list[int]
    setups: int
    metrics: dict[str, float]
    calibration: tuple[float, float]

    @property
    def correct(self) -> bool:
        return self.recorder.failed == 0 and self.recorder.attempted > 0

    @property
    def units(self) -> dict[str, str]:
        return LAYER_UNITS if self.trace else END_TO_END_UNITS

    def document(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.recorder.attempted,
            "failed": self.recorder.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in self.units.items()
            },
        }


def set_up(name: str, seed: int, workdir: str):
    """Import the package and set the workload up; return it, the time in s
    and the mean time of one ``build_shape`` call in us."""
    start = perf_counter_ns()
    workload = WORKLOADS[name](import_package(), seed, workdir)
    seconds = (perf_counter_ns() - start) / 1e9
    return workload, seconds, statistics.fmean(workload.build_ns) / 1e3


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> Result:
    """Set up, then run passes until the next one would end after ``seconds``.

    Set-up is repeated between passes, spread over the run, so that its
    median does not hang on the host's speed at one moment.
    """
    calib_start = statistics.median(calibrate() for _ in range(CALIBRATION_REPS))
    workload, setup_s, build_us = set_up(name, seed, workdir)
    setup_seconds, build_shape_us = [setup_s], [build_us]
    recorder = Recorder()
    budget_ns = seconds * 1e9
    pass_rates: list[float] = []
    pass_p50s: list[int] = []
    pass_tails: list[int] = []
    untraced_ns: list[int] = []
    traced_ns: list[int] = []
    layers: list[dict[str, float]] = []
    start = perf_counter_ns()
    while True:
        begin = perf_counter_ns()
        items, ok_ns = workload.run_pass(recorder, None)
        untraced_ns.append(perf_counter_ns() - begin)
        if items:
            pass_rates.append(items * 1e9 / ok_ns)
            pass_p50s.append(nearest_rank(recorder.latencies, 0.5))
            pass_tails.append(tail(recorder.latencies))
        recorder.latencies.clear()
        next_ns = statistics.median(untraced_ns)
        if trace:
            tracer = Tracer()
            begin = perf_counter_ns()
            workload.run_pass(recorder, tracer)
            traced_ns.append(perf_counter_ns() - begin)
            recorder.latencies.clear()
            layers.append(pass_layers(tracer, traced_ns[-1]))
            next_ns += statistics.median(traced_ns)
        elapsed_ns = perf_counter_ns() - start
        while len(setup_seconds) <= min(SETUP_REPS, elapsed_ns * SETUP_REPS // budget_ns):
            _, setup_s, build_us = set_up(name, seed, workdir)
            setup_seconds.append(setup_s)
            build_shape_us.append(build_us)
        if perf_counter_ns() - start + next_ns > budget_ns:
            break
    calib_end = statistics.median(calibrate() for _ in range(CALIBRATION_REPS))

    if trace:
        metrics = {
            key: (layers[0][key] if LAYER_UNITS[key] in ("count", "B")
                  else statistics.median(figures[key] for figures in layers))
            for key in layers[0]
        }
        metrics["shape.build_shape.us"] = statistics.median(build_shape_us)
        metrics["shape.vertices"] = sum(shape.vertex_count for shape in workload.shapes)
        metrics["tracing.traced_pass_s"] = statistics.median(traced_ns) / 1e9
        metrics["tracing.untraced_pass_s"] = statistics.median(untraced_ns) / 1e9
        metrics["tracing.overhead_ratio"] = (
            metrics["tracing.traced_pass_s"] / metrics["tracing.untraced_pass_s"]
        )
        metrics["host.calib_mops"] = (calib_start + calib_end) / 2
    else:
        metrics = {
            "items_per_s_p10": nearest_rank(pass_rates, SLOW_END) if pass_rates else 0.0,
            "latency_tail_us": (
                nearest_rank(pass_tails, 1 - SLOW_END) / 1e3 if pass_tails else 0.0
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_seconds),
        }
    return Result(
        name, seed, trace, recorder, len(untraced_ns) + len(traced_ns), pass_rates,
        pass_p50s, pass_tails,
        len(setup_seconds), metrics, (calib_start, calib_end),
    )
