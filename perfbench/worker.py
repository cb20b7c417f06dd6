"""One fresh, single-threaded benchmark process.

Modes:
  setup  time ``import yibre.cli`` and exit
  run    import yibre.cli, then run one repetition of a workload untraced
  trace  the same, with every yibre layer wrapped by the span tracer

Each ``verify`` call goes through ``yibre.cli.main`` in this process, the way
the ``yibre`` console script calls it, and writes its report into a scratch
directory.  The reports are read and hashed only after the last call, so the
measured wall time holds nothing but the program's own work.  Untraced, the
work is timed by a ``hostclock.HostClock``, which also gives it scaled to a
reference host speed; the import is scaled by samples taken right after it.
The last line of standard output is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostclock
import workloads

IMPORT_SAMPLES = 5  # host-speed samples after the import, of which the median counts


def _import_cli(root: Path):
    sys.path.insert(0, str(root / "src"))
    started = time.perf_counter()
    import yibre.cli as cli
    return cli, time.perf_counter() - started


def _run_calls(cli, call_list, report_dir: Path, tracer=None):
    """Run every verify call; return (timing, outcomes).

    ``timing`` holds the wall seconds of yibre's work and its CPU seconds;
    untraced, also the wall seconds at reference host speed and the host
    samples.
    """
    sink = io.StringIO()
    if tracer is not None:
        cpu0 = time.process_time()
        started = time.perf_counter()
        outcomes = _call_each(tracer.wrap(cli.main, "cli.main"), call_list, report_dir, sink)
        return {"wall_s": time.perf_counter() - started,
                "cpu_s": time.process_time() - cpu0}, outcomes
    cpu0 = time.process_time()
    with hostclock.HostClock() as clock:
        outcomes = _call_each(cli.main, call_list, report_dir, sink)
    return {"wall_s": clock.raw_s, "scaled_wall_s": clock.scaled_s,
            "cpu_s": time.process_time() - cpu0,
            "host_samples": len(clock.samples),
            "host_loop_s": statistics.median(clock.samples)}, outcomes


def _call_each(entry, call_list, report_dir: Path, sink: io.StringIO):
    outcomes = []
    for index, (_, argv) in enumerate(call_list):
        path = report_dir / f"call-{index:03d}.json"
        code, error = None, None
        try:
            with contextlib.redirect_stdout(sink):
                entry(argv + ["--report", str(path)], prog_name="yibre")
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a raising check is a failed call, not a crash
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append((code, error, path))
        sink.seek(0)
        sink.truncate()
    return outcomes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--mutate", action="store_true",
                    help="append --mutate one-entry to every call")
    ap.add_argument("--keep-reports", type=Path, default=None)
    ap.add_argument("--spans-out", type=Path, default=None)
    args = ap.parse_args()

    cli, import_s = _import_cli(args.root)
    loop = statistics.median(hostclock.calibrate() for _ in range(IMPORT_SAMPLES))
    result = {"import_s": import_s, "scaled_import_s": hostclock.scaled(import_s, [loop])}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    call_list = workloads.calls(args.workload, args.seed)
    if args.mutate:
        call_list = [(label, argv + ["--mutate", "one-entry"]) for label, argv in call_list]
    report_dir = args.keep_reports or args.root / ".bench_out" / f"tmp-{os.getpid()}"
    report_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        timing, outcomes = _run_calls(cli, call_list, report_dir, tracer)
        result.update(timing)
        result.update({
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "calls": [dict(workloads.summarize_call(code, error, path), label=label)
                      for (label, _), (code, error, path) in zip(call_list, outcomes)],
        })
    finally:
        if args.keep_reports is None:
            shutil.rmtree(report_dir, ignore_errors=True)
    if tracer is not None:
        result["trace"] = tracer.summary(timing["wall_s"])
        if args.spans_out is not None:
            tracer.write_spans(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
