"""Run one workload of the gracetree benchmark and print its metrics.

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/`` of that checkout.  ``--trace 0`` reports the end-to-end metrics
with no tracing in place.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of the traced ones.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
figures for a reader.  Export files go to ``.bench_build/`` in the
checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

import harness

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def summary(result) -> list[str]:
    recorder = result.recorder
    lines = [
        f"workload {result.workload}, seed {result.seed}, trace {int(result.trace)}: "
        f"{result.passes} passes, {result.setups} set-ups",
        f"failed_ratio {recorder.failed_ratio:.6g} ({recorder.failed} of {recorder.attempted} "
        "operations failed a check)",
        f"host.calib_mops start {result.calibration[0]:.4g}, "
        f"end {result.calibration[1]:.4g} Mop/s",
    ]
    if not result.trace:
        rates = sorted(result.pass_rates)
        if rates:
            lines += [
                f"items_per_s over {len(rates)} passes: min {rates[0]:.6g}, median "
                f"{statistics.median(rates):.6g}, max {rates[-1]:.6g}",
                f"latency per pass: median p50 {statistics.median(result.pass_p50s) / 1e3:.6g} "
                f"us, median tail {statistics.median(result.pass_tails) / 1e3:.6g} us",
            ]
    lines += [
        f"{name} {result.metrics[name]:.6g} {unit}" for name, unit in result.units.items()
    ]
    lines += [f"check failed: {problem}" for problem in recorder.problems]
    return lines


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gracetree", "__init__.py")):
        print(f"error: no gracetree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import gracetree

    if os.path.dirname(os.path.dirname(os.path.abspath(gracetree.__file__))) != SRC:
        print(f"error: gracetree imported from {gracetree.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_build", f"gracetree-{args.workload}-{os.getpid()}")
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in summary(result):
        print(line)
    print(json.dumps(result.document()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
