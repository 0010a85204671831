"""Regenerate ``perfbench/expected.json``: reference digests of every report.

Runs each request the workloads can send once, serially, on the python
reference backend with the store off, and records the digest of its
report.  Where a golden table exists for the request it must match, or
nothing is written.

Usage: ``python3 perfbench/make_expected.py`` (under a minute on 2 cores).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.check import EXPECTED_PATH, Checker, report_digest
    from perfbench.workloads import (
        observe_requests, service_requests, sweep_requests)
    from repro.harness.spec import run_experiment

    checker = Checker(expected={})
    expected = {}
    for request in sweep_requests() + observe_requests() + service_requests():
        if request.key in expected:
            continue
        report = run_experiment(
            request.experiment, suite=request.suite,
            workloads=list(request.workloads), scale=request.scale,
            jobs=1, cache=False, backend="python")
        golden = checker.golden(request)
        if golden is not None and str(report) != golden:
            print(f"{request.key}: report differs from its golden table; "
                  f"nothing written", file=sys.stderr)
            return 1
        expected[request.key] = report_digest(report.to_dict())
        print(f"{request.key} {expected[request.key][:16]}", flush=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
