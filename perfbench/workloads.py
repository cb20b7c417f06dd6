"""Workload definitions and the correctness gate of the yibre benchmark.

A workload is a fixed list of ``yibre verify`` argument vectors generated from
the workload seed.  The gate turns the outcome of one ``verify`` call (exit
code, exception, report file) into counts of attempted, certified and failed
checks.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DEFAULT_SEED = 42
CERTIFIED = ("pass", "skipped-needs-extension")
SWEEP_SUITES = ("bezout", "blocks", "cg", "classical", "poisson", "qalg", "rime")
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def _verify(suite: str, n: int, seed: int, draws: int) -> tuple[str, list[str]]:
    label = f"{suite}-n{n}-s{seed}-d{draws}"
    return label, ["verify", "--suite", suite, "--n", str(n),
                   "--seed", str(seed), "--draws", str(draws)]


def calls(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The (label, argv) pairs one repetition of ``workload`` runs, in order."""
    if workload == "verify-all-n4":
        return [_verify("all", 4, seed, 10)]
    if workload == "ybe-n6":
        return [_verify(s, 6, seed, 2) for s in ("cg", "classical", "rime")]
    if workload == "sweep-n3":
        return [_verify(s, 3, seed + k, 5) for k in range(8) for s in SWEEP_SUITES]
    raise KeyError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-all-n4", "ybe-n6", "sweep-n3")


def report_digest(payload: dict) -> str:
    """sha256 of a ``--report`` payload with every ``wall_time_ms`` removed."""
    reports = [{k: v for k, v in rep.items() if k != "wall_time_ms"}
               for rep in payload["reports"]]
    text = json.dumps({"reports": reports}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def summarize_call(exit_code, error: str | None, report_path: Path) -> dict:
    """What the gate needs from one verify call: exit, error, digest, statuses."""
    out = {"exit": exit_code, "error": error, "digest": None, "statuses": {}}
    if error is None and report_path.exists():
        payload = json.loads(report_path.read_text())
        out["digest"] = report_digest(payload)
        for rep in payload["reports"]:
            for chk in rep["checks"]:
                out["statuses"][chk["status"]] = out["statuses"].get(chk["status"], 0) + 1
    return out


def load_recorded() -> dict:
    if DIGESTS_PATH.exists():
        return json.loads(DIGESTS_PATH.read_text())
    return {}


def gate_call(summary: dict, expected_checks: int, reference: str | None) -> dict:
    """Judge one verify call.

    Every check of the call counts as failed if the call raised, exited
    non-zero, returned a different number of checks than recorded, or wrote a
    report whose digest differs from ``reference``.  Otherwise the checks
    whose status is not certified count as failed.
    """
    statuses = summary["statuses"]
    seen = sum(statuses.values())
    attempted = max(seen, expected_checks)
    certified = sum(statuses.get(s, 0) for s in CERTIFIED)
    reasons = []
    if summary["error"] is not None:
        reasons.append(f"raised {summary['error']}")
    if summary["exit"] != 0:
        reasons.append(f"exit code {summary['exit']}")
    if seen != expected_checks:
        reasons.append(f"{seen} checks, expected {expected_checks}")
    if reference is not None and summary["digest"] != reference:
        reasons.append("report digest differs from the reference")
    if reasons:
        return {"attempted": attempted, "failed": attempted, "certified": 0,
                "reasons": reasons}
    failed = attempted - certified
    if failed:
        reasons.append(f"{failed} checks not certified")
    return {"attempted": attempted, "failed": failed, "certified": certified,
            "reasons": reasons}
