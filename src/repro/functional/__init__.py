"""Functional (architectural) simulation of AXP-lite programs.

The functional simulator executes a program to completion and records the
dynamic instruction trace as typed columns (:class:`Trace`).  The timing
simulator in :mod:`repro.uarch` consumes those columns (trace-driven,
execute-in-execute) — its python loop and its compiled kernel read the same
arrays — and the final
architectural state produced here is the golden reference used to validate
RENO's renaming transformations end to end.
"""

from repro.functional.memory import Memory
from repro.functional.state import ArchState
from repro.functional.trace import InstructionMix, Trace, mix_statistics
from repro.functional.simulator import (
    ExecutionLimitExceeded,
    ExecutionResult,
    FunctionalSimulator,
)

__all__ = [
    "Memory",
    "ArchState",
    "Trace",
    "InstructionMix",
    "mix_statistics",
    "ExecutionLimitExceeded",
    "ExecutionResult",
    "FunctionalSimulator",
]
