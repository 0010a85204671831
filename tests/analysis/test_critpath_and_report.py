"""Tests for the critical-path model and report formatting."""

from repro.analysis import analyze_critical_path, format_percent, format_table
from repro.analysis.critpath import source_producers
from repro.core import RenoConfig, simulate_workload
from repro.uarch.inflight import TIMING_ELIMINATED, TIMING_LOAD, TimingColumns


def record(seq, dispatch, issue, complete, producers=(), is_load=False, dcache=0,
           eliminated=False):
    return dict(seq=seq, dispatch=dispatch, issue=issue, complete=complete,
                producers=tuple(producers), is_load=is_load, dcache=dcache,
                eliminated=eliminated)


def columns(records):
    """Timing columns for ``records`` (given in ``seq`` order from 0).

    Instruction ``seq`` allocates physical register ``seq`` and reads the
    registers of its producers, so :func:`source_producers` recovers them.
    """
    timing = TimingColumns(len(records))
    for seq, entry in enumerate(records):
        assert entry["seq"] == seq
        timing.dispatch[seq] = entry["dispatch"]
        timing.issue[seq] = entry["issue"]
        timing.complete[seq] = entry["complete"]
        timing.retire[seq] = entry["complete"] + 1
        timing.dcache_latency[seq] = entry["dcache"]
        timing.flags[seq] = ((TIMING_LOAD if entry["is_load"] else 0)
                             | (TIMING_ELIMINATED if entry["eliminated"] else 0))
        for name, preg in zip(("src0_preg", "src1_preg", "shared_preg"),
                              entry["producers"]):
            getattr(timing, name)[seq] = preg
        timing.alloc_preg[seq] = seq
    timing.count = len(records)
    return timing


def test_empty_records_give_empty_breakdown():
    assert analyze_critical_path(columns([])).total == 0
    assert analyze_critical_path(None).total == 0


def test_source_producers_follow_the_latest_writer_of_each_register():
    timing = TimingColumns(4)
    timing.alloc_preg[0] = 7                 # seq 0 writes p7
    timing.src0_preg[1] = 7                  # seq 1 reads p7 and p3 (initial)
    timing.src1_preg[1] = 3
    timing.alloc_preg[1] = 3                 # ... and re-writes p3
    timing.src0_preg[2] = 3                  # seq 2 is eliminated onto p7
    timing.shared_preg[2] = 7
    timing.alloc_preg[3] = 7                 # seq 3 re-writes p7, reads nothing
    timing.count = 4
    assert source_producers(timing) == [(), (0, -1), (1, 0), ()]


def test_serial_chain_is_charged_to_alu():
    records = [record(0, 0, 1, 2)]
    for seq in range(1, 10):
        records.append(record(seq, 0, seq + 1, seq + 2, producers=(seq - 1,)))
    breakdown = analyze_critical_path(columns(records))
    assert breakdown.alu_exec > breakdown.fetch


def test_fetch_limited_code_is_charged_to_fetch():
    # Independent instructions whose completion is limited by dispatch time.
    records = [record(seq, seq, seq + 1, seq + 2) for seq in range(20)]
    breakdown = analyze_critical_path(columns(records))
    assert breakdown.fetch > breakdown.alu_exec


def test_load_miss_chain_is_charged_to_memory():
    records = [record(0, 0, 1, 2)]
    for seq in range(1, 6):
        records.append(record(seq, 0, seq, seq * 120, producers=(seq - 1,),
                              is_load=True, dcache=112))
    breakdown = analyze_critical_path(columns(records))
    assert breakdown.load_mem > breakdown.load_exec
    assert breakdown.load_mem > breakdown.alu_exec


def test_fractions_sum_to_one():
    records = [record(seq, seq, seq + 1, seq + 2, producers=(seq - 1,) if seq else ())
               for seq in range(30)]
    fractions = analyze_critical_path(columns(records)).fractions()
    assert abs(sum(fractions.values()) - 1.0) < 1e-9


def test_critical_path_from_real_simulation():
    outcome = simulate_workload("micro_pointer_chase", reno=RenoConfig.reno_default(),
                                collect_timing=True)
    breakdown = analyze_critical_path(outcome.timing.timing_records)
    assert breakdown.total > 0
    # Pointer chasing is load-latency dominated.
    assert breakdown.load_exec + breakdown.load_mem > breakdown.alu_exec


def test_format_percent():
    assert format_percent(0.1234) == "12.3%"
    assert format_percent(0.05, signed=True) == "+5.0%"


def test_format_table_alignment_and_title():
    table = format_table(["a", "bench"], [["1", "x"], ["22", "yy"]], title="T")
    lines = table.splitlines()
    assert lines[0] == "T"
    assert "bench" in lines[2]
    assert len(lines) == 6
