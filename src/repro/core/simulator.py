"""One-call simulation helpers combining the functional and timing models.

These are the functions examples, tests and the experiment harness use:

* :func:`simulate` — run a :class:`~repro.isa.program.Program` on a machine
  configuration, optionally with RENO enabled, and return both the functional
  and the timing results (with the architectural-equivalence check applied).
* :func:`simulate_workload` — the same, starting from a workload name.
* :func:`build_pipeline` / :func:`verified_outcome` — the two halves of
  :func:`simulate` around the timing run, shared with the fleet worker
  (:mod:`repro.api.worker`), which drives the pipeline in checkpointed
  slices instead of one :meth:`~repro.uarch.core.Pipeline.run`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import RenoConfig
from repro.core.renamer import RenoRenamer
from repro.functional.simulator import ExecutionResult, FunctionalSimulator
from repro.isa.program import Program
from repro.uarch.config import MachineConfig
from repro.uarch.core import Pipeline, SimResult
from repro.workloads.base import Workload, get_workload


class ArchitecturalMismatchError(Exception):
    """Raised when the timing simulator's final state disagrees with the
    functional simulator's (this would indicate a renaming/RENO bug)."""


@dataclass
class SimulationOutcome:
    """Functional + timing results for one (program, machine, RENO) run.

    Outcomes loaded from the experiment cache (see
    :mod:`repro.harness.cache`) are *slim*: ``program`` and ``functional``
    are None (the cache stores only the timing result), and ``cached`` is
    True.  All report-facing accessors (``stats``, ``ipc``, ``cycles``,
    ``timing.timing_records``) behave identically for slim outcomes.
    """

    program: Program | None
    functional: ExecutionResult | None
    timing: SimResult
    reno_config: RenoConfig | None = None
    cached: bool = False

    @property
    def stats(self):
        return self.timing.stats

    @property
    def ipc(self) -> float:
        return self.timing.ipc

    @property
    def cycles(self) -> int:
        return self.timing.cycles


def build_pipeline(
    program: Program,
    functional: ExecutionResult,
    machine: MachineConfig,
    reno: RenoConfig | None,
    *,
    collect_timing: bool = False,
    record_stats: bool = False,
    backend: str | None = None,
) -> Pipeline:
    """The timing pipeline for one (program, machine, RENO) cell.

    ``reno=None`` builds the conventional baseline renamer; otherwise a
    :class:`~repro.core.renamer.RenoRenamer` sized to the machine's
    physical register file.  Keyword arguments are as for :func:`simulate`.
    """
    renamer = RenoRenamer(machine.num_physical_regs, reno) if reno is not None else None
    return Pipeline(program, functional.trace, machine, renamer=renamer,
                    collect_timing=collect_timing, record_stats=record_stats,
                    backend=backend)


def verified_outcome(
    program: Program,
    functional: ExecutionResult,
    timing: SimResult,
    reno: RenoConfig | None,
) -> SimulationOutcome:
    """Wrap a finished timing run, checking it against the functional run.

    Raises:
        ArchitecturalMismatchError: The timing simulator's final
            architectural registers differ from the functional simulator's.
    """
    if timing.final_registers != list(functional.state.snapshot()):
        raise ArchitecturalMismatchError(
            f"{program.name}: timing-simulator architectural state diverged "
            f"(reno={'on' if reno else 'off'})"
        )
    return SimulationOutcome(program=program, functional=functional,
                             timing=timing, reno_config=reno)


def simulate(
    program: Program,
    machine: MachineConfig | None = None,
    reno: RenoConfig | None = None,
    *,
    trace: ExecutionResult | None = None,
    collect_timing: bool = False,
    record_stats: bool = False,
    max_instructions: int = 2_000_000,
    backend: str | None = None,
) -> SimulationOutcome:
    """Run ``program`` through the functional and timing simulators.

    Args:
        program: The assembled program.
        machine: Machine configuration (defaults to the paper's 4-wide core).
        reno: RENO configuration, or None for the conventional baseline.
        trace: Optionally reuse an existing functional run (saves time when
            comparing several configurations on the same workload).
        collect_timing: Collect per-instruction timing records for
            critical-path analysis.
        record_stats: Record per-structure occupancy histograms and issue
            utilization (``outcome.stats.occupancy``); see
            :mod:`repro.uarch.observe`.
        max_instructions: Functional-simulation budget.
        backend: Cycle-loop backend name for the timing run (``"python"``,
            ``"compiled"``), or None to consult ``$REPRO_BACKEND`` and
            default to ``python`` — see :mod:`repro.uarch.backend`.
            Results are backend-independent; only speed changes.

    Returns:
        A :class:`SimulationOutcome`.

    Raises:
        ArchitecturalMismatchError: The two simulators disagree.
    """
    machine = machine or MachineConfig.default_4wide()
    functional = trace or FunctionalSimulator(program, max_instructions).run()
    pipeline = build_pipeline(program, functional, machine, reno,
                              collect_timing=collect_timing,
                              record_stats=record_stats, backend=backend)
    return verified_outcome(program, functional, pipeline.run(), reno)


def simulate_workload(
    workload: str | Workload,
    scale: int = 1,
    machine: MachineConfig | None = None,
    reno: RenoConfig | None = None,
    **kwargs,
) -> SimulationOutcome:
    """Build a workload's program and :func:`simulate` it."""
    if isinstance(workload, str):
        workload = get_workload(workload)
    program = workload.build(scale)
    return simulate(program, machine, reno, **kwargs)
