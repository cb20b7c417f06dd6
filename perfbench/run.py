"""Benchmark of ``yibre verify``: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload verify-all-n4 --seed 42 --seconds 25 --trace 0
  python3 perfbench/run.py --self-test      # show the correctness gate catches a fault
  python3 perfbench/run.py --record         # re-record the reference digests (seed 42)

Every repetition of a workload runs in a fresh single-threaded Python process
(``perfbench/worker.py``).  ``--trace 0`` repeats the workload about
``--seconds`` of measured time and reports medians; ``--trace 1`` runs it
untraced, traced and untraced again and reports per-layer metrics.  Human-readable lines
go first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result, with
the interpreter, core count, revision and per-repetition values, is also
written to ``.bench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostclock
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
BUDGET_S = 170.0          # every run must end within 180 s
SETUP_PROBES = 5          # fresh processes that only import yibre.cli

END_TO_END = {"wall_s": "s", "checks_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB", "certified_share": "share"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failing check)."""


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline

    def worker(self, mode: str, *extra: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise BenchError("time budget exhausted")
        cmd = [sys.executable, str(WORKER), "--mode", mode, "--root", str(ROOT), *extra]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining,
                                  cwd=ROOT)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {mode} {' '.join(extra)} timed out")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker {mode} failed (exit {proc.returncode}):\n"
                             f"{proc.stderr[-2000:]}")
        return json.loads(lines[-1])

    def setup_times(self) -> list[dict]:
        self.worker("setup")  # warm the bytecode and file caches; not measured
        return [self.worker("setup") for _ in range(SETUP_PROBES)]

    def rep(self, mode: str, workload: str, seed: int, *extra: str) -> dict:
        return self.worker(mode, "--workload", workload, "--seed", str(seed), *extra)


def gate(workload: str, seed: int, reps: list[dict]) -> dict:
    """Apply the correctness gate to every call of every repetition."""
    recorded = workloads.load_recorded().get("workloads", {}).get(workload)
    if recorded is None:
        raise BenchError(f"no recorded digests for {workload}; run --record")
    expected = [entry["checks"] for entry in recorded]
    if seed == workloads.DEFAULT_SEED:
        references = [entry["digest"] for entry in recorded]
    else:  # no recorded digest: every repetition must reproduce the first
        references = [call["digest"] for call in reps[0]["calls"]]
    attempted = failed = 0
    certified = [0] * len(reps)
    problems = []
    for r, rep in enumerate(reps):
        for c, call in enumerate(rep["calls"]):
            ref = references[c] if (r > 0 or seed == workloads.DEFAULT_SEED) else None
            verdict = workloads.gate_call(call, expected[c], ref)
            attempted += verdict["attempted"]
            failed += verdict["failed"]
            certified[r] += verdict["certified"]
            if verdict["reasons"]:
                problems.append(f"rep {r} {call['label']}: {'; '.join(verdict['reasons'])}")
    digest = hashlib.sha256("".join(c["digest"] or "-" for c in reps[0]["calls"])
                            .encode()).hexdigest()
    return {"attempted": attempted, "failed": failed, "certified": certified,
            "problems": problems, "checks_per_rep": sum(expected), "workload_digest": digest}


def end_to_end(reps: list[dict], setups: list[dict], verdict: dict) -> dict:
    """The end-to-end metrics; times are at reference host speed (hostclock.py)."""
    attempted = verdict["attempted"]
    wall = statistics.median(r["scaled_wall_s"] for r in reps)
    return {
        "wall_s": wall,
        "checks_per_s": statistics.median(verdict["certified"]) / wall,
        "setup_s": statistics.median(p["scaled_import_s"] for p in setups + reps),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "certified_share": (attempted - verdict["failed"]) / attempted,
    }


def per_layer(before: dict, traced: dict, after: dict) -> dict:
    # the untraced runs bracket the traced one, so slow host drift mostly cancels
    m = dict(traced["trace"]["metrics"])
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.overhead_s"] = traced["wall_s"] - (before["wall_s"] + after["wall_s"]) / 2
    return m


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(("share", "density", "ratio")):
        return "share"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "yibre").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": sha, "src_sha256": src.hexdigest()}


def run(args) -> int:
    deadline = time.monotonic() + BUDGET_S
    runner = Runner(deadline)
    env = environment()
    setups = [] if args.trace else runner.setup_times()
    if args.trace:
        spans = OUT / f"spans-{args.workload}-s{args.seed}.bin"
        reps = [runner.rep("run", args.workload, args.seed),
                runner.rep("trace", args.workload, args.seed, "--spans-out", str(spans)),
                runner.rep("run", args.workload, args.seed)]
    else:
        # stop at the repetition count whose measured total lands nearest --seconds
        reps = [runner.rep("run", args.workload, args.seed)]
        measured = reps[0]["wall_s"]
        while (measured + reps[-1]["wall_s"] / 2 < args.seconds
               and time.monotonic() + 1.5 * reps[-1]["wall_s"] + 5 < deadline):
            reps.append(runner.rep("run", args.workload, args.seed))
            measured += reps[-1]["wall_s"]
    verdict = gate(args.workload, args.seed, reps)
    metrics = per_layer(*reps) if args.trace else end_to_end(reps, setups, verdict)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  checks per repetition {verdict['checks_per_rep']}")
    print("environment " + "  ".join(f"{k} {v}" for k, v in env.items()))
    if not args.trace:
        print(f"raw wall_s median {statistics.median(r['wall_s'] for r in reps):.4f} s, "
              f"raw setup_s median "
              f"{statistics.median(p['import_s'] for p in setups + reps):.4f} s, "
              f"host loop median "
              f"{statistics.median(r['host_loop_s'] for r in reps) * 1e3:.3f} ms "
              f"(reference {hostclock.REFERENCE_S * 1e3:.3f} ms)")
    for problem in verdict["problems"]:
        print(f"GATE {problem}")
    print(f"gate: {verdict['attempted']} checks attempted, {verdict['failed']} failed, "
          f"failed_share {verdict['failed'] / verdict['attempted']:.6f}, "
          f"workload digest {verdict['workload_digest'][:16]}")
    if args.trace:
        trace = reps[1]["trace"]
        print("slowest checks:")
        for row in trace["slowest_checks"]:
            print(f"  {row['ms']:10.2f} ms  {row['suite']}:{row['check']}")
        print(f"layer self times sum to {trace['self_s_total']:.4f} s "
              f"of {metrics['trace.wall_s']:.4f} s traced wall "
              f"(untraced {reps[0]['wall_s']:.4f} and {reps[2]['wall_s']:.4f} s, "
              f"overhead {metrics['trace.overhead_s']:.4f} s)")
        if trace["self_s_total"] > metrics["trace.wall_s"]:
            raise BenchError("span self times exceed the traced wall time")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:16.6f} {unit_of(name)}")

    correct = verdict["failed"] == 0
    result = {"correct": correct, "attempted": verdict["attempted"],
              "failed": verdict["failed"],
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=env, checks_per_repetition=verdict["checks_per_rep"],
                  workload_digest=verdict["workload_digest"], gate_problems=verdict["problems"],
                  setup_probes=setups,
                  repetitions=[{k: v for k, v in r.items() if k not in ("calls", "trace")}
                               for r in reps])
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def record(runner: Runner) -> int:
    """Record check counts and report digests of every workload at the default seed."""
    out = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for workload in workloads.WORKLOADS:
        rep = runner.rep("run", workload, workloads.DEFAULT_SEED)
        entries = []
        for call in rep["calls"]:
            if call["exit"] != 0 or call["error"] or set(call["statuses"]) - set(workloads.CERTIFIED):
                raise BenchError(f"{call['label']} did not certify; refusing to record it")
            entries.append({"label": call["label"], "checks": sum(call["statuses"].values()),
                            "digest": call["digest"]})
        out["workloads"][workload] = entries
        print(f"{workload}: {len(entries)} calls, {sum(e['checks'] for e in entries)} checks")
    workloads.DIGESTS_PATH.write_text(json.dumps(out, indent=1) + "\n")
    return 0


def self_test(runner: Runner) -> int:
    """Show that the gate fails a --mutate one-entry run and a tampered report."""
    workload, seed = "ybe-n6", workloads.DEFAULT_SEED
    mutated = runner.rep("run", workload, seed, "--mutate")
    verdict = gate(workload, seed, [mutated])
    caught_mutation = all(
        call["exit"] == 1 and call["statuses"].get("fail") == 1 for call in mutated["calls"]
    ) and verdict["failed"] == verdict["attempted"] and len(verdict["problems"]) == len(mutated["calls"])
    print(f"mutated run: {verdict['failed']}/{verdict['attempted']} checks failed")
    for problem in verdict["problems"]:
        print(f"  {problem}")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        honest = runner.rep("run", workload, seed, "--keep-reports", tmp)
        clean = gate(workload, seed, [honest])
        report = Path(tmp) / "call-000.json"
        payload = json.loads(report.read_text())
        first = payload["reports"][0]
        first["parameter_draws"][0] = first["parameter_draws"][0] + "1"
        report.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        honest["calls"][0] = dict(workloads.summarize_call(0, None, report),
                                  label=honest["calls"][0]["label"])
        tampered = gate(workload, seed, [honest])
    caught_tamper = tampered["failed"] > 0 and all(
        "digest" in p for p in tampered["problems"])
    print(f"honest run: {clean['failed']}/{clean['attempted']} checks failed")
    print(f"tampered report, all statuses pass: {tampered['failed']}/{tampered['attempted']} "
          f"checks failed: {tampered['problems']}")
    ok = caught_mutation and clean["failed"] == 0 and caught_tamper
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "yibre" / "cli.py").is_file():
        print(f"error: no yibre sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test(Runner(time.monotonic() + 600))
        if args.record:
            return record(Runner(time.monotonic() + 600))
        if args.workload is None:
            ap.error("--workload is required")
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
