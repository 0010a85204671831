"""Checking reports against committed expectations.

A report is correct when it matches the golden table committed under
``benchmarks/results/`` for the same request (the tables the paper
figures are reproduced into), and its full JSON form hashes to the digest
committed in ``perfbench/expected.json``.  The digests were taken from a
serial run on the python reference backend (``make_expected.py``), so a
compiled-backend, pooled, fleet or store-served report must equal the
reference bit for bit.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED_PATH = Path(__file__).with_name("expected.json")
CONFTEST = ROOT / "benchmarks" / "conftest.py"
GOLDEN_DIR = ROOT / "benchmarks" / "results"

#: (experiment, suite) → golden file, valid for the bench subset at scale 1.
GOLDEN_FILES = {
    ("fig8", "specint"): "fig8_specint.txt",
    ("fig8", "mediabench"): "fig8_mediabench.txt",
    ("fig9", "specint"): "fig9_specint.txt",
    ("fig9", "mediabench"): "fig9_mediabench.txt",
    ("fig10", "specint"): "fig10_specint.txt",
    ("fig10", "mediabench"): "fig10_mediabench.txt",
    ("fig11_regs", "specint"): "fig11_registers_specint.txt",
    ("fig11_width", "mediabench"): "fig11_width_mediabench.txt",
    ("fig12", "specint"): "fig12_specint.txt",
    ("fig12", "mediabench"): "fig12_mediabench.txt",
}


def bench_subsets() -> dict[str, list[str]]:
    """The workload subsets the repo's own benchmarks use.

    Read from ``benchmarks/conftest.py`` without importing it (it needs
    pytest), so the figure benchmarks and this one always agree.
    """
    tree = ast.parse(CONFTEST.read_text())
    subsets = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.endswith("_SUBSET")):
            subsets[node.targets[0].id] = ast.literal_eval(node.value)
    return subsets


@dataclass(frozen=True)
class Request:
    """One experiment request, as a client would send it."""

    experiment: str
    suite: str
    workloads: tuple[str, ...]
    scale: int = 1

    @property
    def key(self) -> str:
        """Stable name of the request in ``expected.json``."""
        return (f"{self.experiment}|{self.suite}|{','.join(self.workloads)}"
                f"|{self.scale}")

    def body(self) -> dict:
        """The ``POST /experiments`` body."""
        return {"experiment": self.experiment, "suite": self.suite,
                "workloads": list(self.workloads), "scale": self.scale}


def report_digest(report_dict: dict) -> str:
    """Hash of a report's JSON form, as it crosses the wire.

    The dict goes through one JSON round trip first, so an in-process
    ``to_dict()`` (tuples, int keys) and a decoded HTTP body hash alike.
    """
    wire = json.loads(json.dumps(report_dict))
    text = json.dumps(wire, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Compares reports with the goldens and the committed digests."""

    def __init__(self, expected: dict[str, str] | None = None):
        if expected is None:
            expected = json.loads(EXPECTED_PATH.read_text())
        self.expected = expected
        subsets = bench_subsets()
        self._full = {"specint": tuple(subsets["SPEC_SUBSET"]),
                      "mediabench": tuple(subsets["MEDIA_SUBSET"])}
        self._critpath = {"specint": tuple(subsets["CRITPATH_SPEC_SUBSET"]),
                          "mediabench": tuple(subsets["CRITPATH_MEDIA_SUBSET"])}

    def golden(self, request: Request) -> str | None:
        """The golden table text for ``request``, when one is committed."""
        name = GOLDEN_FILES.get((request.experiment, request.suite))
        subset = (self._critpath if request.experiment == "fig9"
                  else self._full)[request.suite]
        if name is None or request.scale != 1 or request.workloads != subset:
            return None
        return (GOLDEN_DIR / name).read_text().rstrip("\n")

    def problem(self, request: Request, report_dict: dict) -> str | None:
        """None when the report is right, else what is wrong with it."""
        expected = self.expected.get(request.key)
        if expected is None:
            return f"no expected digest for {request.key}"
        if report_digest(report_dict) != expected:
            return f"report digest differs from the reference for {request.key}"
        golden = self.golden(request)
        if golden is not None:
            from repro.harness.experiments import ExperimentReport

            try:
                text = str(ExperimentReport.from_dict(report_dict))
            except (KeyError, TypeError, ValueError) as error:
                return f"report for {request.key} does not parse: {error!r}"
            if text != golden:
                return f"report table differs from the golden for {request.key}"
        return None
