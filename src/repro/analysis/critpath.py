"""Critical-path analysis (a simplified Fields-style model, §4.3 / Figure 9).

A pipeline run with ``collect_timing`` fills one
:class:`~repro.uarch.inflight.TimingColumns` entry per instruction.  This
module derives each instruction's data producers from the registers it
read and allocated (:func:`source_producers`), then walks the dependence structure
backwards from the last retired instruction, at each step following the
constraint that actually determined the instruction's completion time:

* a *data* edge to the producer whose result arrived last, or
* a *fetch/dispatch* edge to the previous instruction in program order when
  the instruction was ready before it could even dispatch (front-end
  bandwidth, mispredictions, window fills).

Every edge's latency contribution is charged to one of the paper's five
buckets: ``fetch``, ``alu_exec``, ``load_exec`` (cache-hit dataflow),
``load_mem`` (miss dataflow) and ``commit``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.uarch.inflight import TIMING_ELIMINATED, TIMING_LOAD, TimingColumns

#: Loads whose cache latency exceeds this are charged to the memory bucket.
_MEMORY_LATENCY_THRESHOLD = 10


@dataclass
class CriticalPathBreakdown:
    """Critical-path cycles charged to each bucket."""

    fetch: int = 0
    alu_exec: int = 0
    load_exec: int = 0
    load_mem: int = 0
    commit: int = 0
    path_length: int = 0

    @property
    def total(self) -> int:
        return self.fetch + self.alu_exec + self.load_exec + self.load_mem + self.commit

    def fractions(self) -> dict[str, float]:
        """Bucket shares, in the order the paper's Figure 9 stacks them."""
        total = self.total or 1
        return {
            "fetch": self.fetch / total,
            "alu_exec": self.alu_exec / total,
            "load_exec": self.load_exec / total,
            "load_mem": self.load_mem / total,
            "commit": self.commit / total,
        }


def _writer_lookup(timing: TimingColumns):
    """``writer(preg, seq)``: the last instruction before ``seq`` that
    allocated ``preg``, or -1 when none did (an initial register value).

    Built from two C-level sorts of the allocation column (allocations
    grouped by register, in program order within one), so a lookup is
    three bisections and no per-instruction Python loop runs up front.
    """
    alloc = timing.alloc_preg[:len(timing)]
    order = sorted(range(len(alloc)), key=alloc.__getitem__)   # stable
    keys = sorted(alloc)

    def writer(preg: int, seq: int) -> int:
        low = bisect_left(keys, preg)
        index = bisect_left(order, seq, low, bisect_right(keys, preg, low)) - 1
        return order[index] if index >= low else -1

    return writer


def source_producers(timing: TimingColumns) -> list[tuple[int, ...]]:
    """Each retired instruction's producers, by sequence number: the last
    writers before it of its source registers and, when it was eliminated,
    of the register it shares — in that order (src0, src1, shared),
    skipping absent operands.  -1 marks a register no earlier instruction
    allocated (an initial value)."""
    writer = _writer_lookup(timing)
    columns = (timing.src0_preg, timing.src1_preg, timing.shared_preg)
    return [tuple(writer(column[seq], seq) for column in columns if column[seq] >= 0)
            for seq in range(len(timing))]


def _bucket_for(flags: int, dcache_latency: int) -> str:
    """The bucket a data edge into an instruction is charged to."""
    if not flags & TIMING_LOAD or flags & TIMING_ELIMINATED:
        return "alu_exec"
    if dcache_latency > _MEMORY_LATENCY_THRESHOLD:
        return "load_mem"
    return "load_exec"


def analyze_critical_path(timing: TimingColumns | None) -> CriticalPathBreakdown:
    """Compute the critical-path bucket breakdown for one simulation.

    Args:
        timing: Timing columns from a pipeline run with ``collect_timing``
            (None or empty gives an empty breakdown).

    Returns:
        A :class:`CriticalPathBreakdown`.
    """
    breakdown = CriticalPathBreakdown()
    if not timing:
        return breakdown
    writer = _writer_lookup(timing)
    sources = (timing.src0_preg, timing.src1_preg, timing.shared_preg)
    complete, dispatch = timing.complete, timing.dispatch

    current = len(timing) - 1
    # Commit bucket: the tail between the last completion and retirement.
    breakdown.commit = max(0, timing.retire[current] - complete[current])
    # Every step moves to a strictly older instruction (producers precede
    # their consumers), so the walk ends at the first instruction.
    while True:
        breakdown.path_length += 1
        # The producer (see source_producers) whose result arrived last.
        data_pred = -1
        for column in sources:
            if column[current] >= 0:
                producer = writer(column[current], current)
                if producer >= 0 and (data_pred < 0
                                      or complete[producer] > complete[data_pred]):
                    data_pred = producer
        if data_pred >= 0 and complete[data_pred] >= dispatch[current]:
            bucket = _bucket_for(timing.flags[current], timing.dcache_latency[current])
            predecessor = data_pred
        elif current:
            # Ready before it could dispatch: a fetch edge to the previous
            # instruction in program order.
            bucket, predecessor = "fetch", current - 1
        else:
            # Reached the beginning of the window; charge the remaining depth
            # to fetch and stop.
            breakdown.fetch += max(0, complete[current])
            return breakdown
        edge_cost = max(0, complete[current] - complete[predecessor])
        setattr(breakdown, bucket, getattr(breakdown, bucket) + edge_cost)
        current = predecessor
