#!/usr/bin/env python3
"""Benchmark of the monoid-holes CLI on three fixed workloads.

    python3 holesbench/run.py --workload semigroup --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  A run sets up (imports the package, writes the input files) a few
times, then makes whole passes over the workload's fixed operation list
until --seconds have gone by, checking every captured report after each
pass, outside the timed region.  --seed orders the operations of a pass;
the inputs themselves are fixed, so every seed does the same work.

With --trace 0 the last stdout line reports the end-to-end metrics
(medians over passes), every time rescaled to a reference speed of the
machine by `speedometer`; with --trace 1 the public functions of every layer
are wrapped from outside and the per-layer metrics of one pass are
reported instead (medians over passes).  A fuller record of the run goes
to holesbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import speedometer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15


def _import_package():
    """Import monoid_holes afresh, so each set-up pays the package import."""
    for name in [n for n in sys.modules if n == "monoid_holes" or n.startswith("monoid_holes.")]:
        del sys.modules[name]
    return importlib.import_module("monoid_holes.cli")


def set_up(workload: str, workdir: Path):
    """Import the package and write the inputs SETUP_REPEATS times; return
    the last import's CLI module, the last workload and every set-up's span."""
    spans = []
    for _ in range(SETUP_REPEATS):
        start, cpu = time.perf_counter(), time.thread_time()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        cli = _import_package()
        built = workloads.BUILDERS[workload](workdir)
        spans.append((start, time.perf_counter(), time.thread_time() - cpu))
    return cli, built, spans


def run_op(cli, op):
    """One CLI call with stdout and stderr captured: (span, code, stdout, error).

    A span is (start, end, cpu): the wall clock at both ends and the CPU time
    of this thread in between, which leaves out the speedometer's thread."""
    out, err = io.StringIO(), io.StringIO()
    start, cpu = time.perf_counter(), time.thread_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code, error = exc.code, f"SystemExit({exc.code}): {err.getvalue().strip()}"
    except Exception:
        code, error = None, traceback.format_exc(limit=3)
    else:
        error = None
    return (start, time.perf_counter(), time.thread_time() - cpu), code, out.getvalue(), error


def one_pass(cli, ops):
    """Time every operation, then check each report.  An operation fails
    when it raises or prints no report (an error) or when its report fails
    its check (a wrong answer)."""
    # objects alive before the pass (the oracles' caches among them) are
    # moved out of the collector's reach, so they do not slow the timed calls
    gc.collect()
    gc.freeze()
    results = []
    start = time.perf_counter()
    for op in ops:
        results.append(run_op(cli, op))
    wall = time.perf_counter() - start
    failures = []
    for op, (_, code, stdout, error) in zip(ops, results):
        if error is None and not stdout:
            error = f"exit code {code} without a report"
        if error is not None:
            failures.append({"op": op.label, "kind": "error", "problems": [error]})
            continue
        try:
            problems = op.check(code, stdout)
        except (KeyError, ValueError, IndexError) as exc:
            problems = [f"report could not be read: {exc!r}"]
        if problems:
            failures.append({"op": op.label, "kind": "wrong", "problems": problems})
    return wall, [span for span, *_ in results], failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "monoid_holes" / "cli.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workdir = HERE / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    # the traced run reports layer times as measured; the untraced run
    # rescales each operation's time to the reference speed
    meter = speedometer.Speedometer() if not args.trace else None
    try:
        with meter or contextlib.nullcontext():
            cli, built, setup_spans = set_up(args.workload, workdir)
            ops = list(built.ops)
            random.Random(args.seed).shuffle(ops)
            tracer = layertrace.Tracer() if args.trace else None
            if tracer:
                tracer.install()
            built.install(cli)

            passes = []
            deadline = time.perf_counter() + args.seconds
            while True:
                wall, spans, failures = one_pass(cli, ops)
                layer = tracer.snapshot() if tracer else None
                if tracer:
                    tracer.reset()
                passes.append({"wall_s": wall, "op_spans": spans,
                               "failures": failures, "per_layer": layer})
                if time.perf_counter() >= deadline:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    if tracer:
        metrics = {name: {"value": statistics.median(p["per_layer"][name] for p in passes),
                          "unit": unit}
                   for name, unit in layertrace.metric_names()}
    else:
        for p in passes:
            p["op_ref_s"] = [meter.at_reference_speed(*span) for span in p["op_spans"]]
        # each operation's median over the passes, so that a burst of load on
        # a shared machine during one operation of one pass does not count
        op_medians = [statistics.median(p["op_ref_s"][i] for p in passes)
                      for i in range(len(ops))]
        geomean = math.exp(sum(math.log(t) for t in op_medians) / len(op_medians))
        metrics = {
            "wall_s": {"value": sum(op_medians), "unit": "s"},
            "op_geomean_s": {"value": geomean, "unit": "s"},
            "setup_s": {"value": statistics.median(meter.at_reference_speed(*span)
                                                   for span in setup_spans),
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    wrong = sum(f["kind"] == "wrong" for p in passes for f in p["failures"])
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, operations=[op.label for op in ops], setup_spans=setup_spans,
                  python=sys.version.split()[0], passes=passes,
                  speedometer={"times": meter.times, "kernel_s": meter.kernel_s} if meter else None)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for p in passes:
        for failure in p["failures"]:
            print(f"FAILED {failure['op']}: {failure['problems']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
