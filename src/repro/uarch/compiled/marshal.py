"""Marshalling between the :class:`~repro.uarch.core.Pipeline` object graph
and the compiled kernel's flat int64 ABI.

One :class:`KernelState` is built per pipeline (cached by the backend in a
``WeakKeyDictionary``).  The dynamic trace is not copied: the functional
simulator already recorded it as typed columns in the kernel's ``T_*``
typecodes, so construction points the ``T_*`` pointer slots at the trace's
own arrays, and every pipeline built on one trace hands the kernel the same
buffers; the ``TM_*`` slots likewise point at a timing pipeline's own
:class:`~repro.uarch.inflight.TimingColumns`.  Construction flattens the
rest of what is *static* — the decoded-op tables, the per-opcode tables,
the machine geometry — and allocates every dynamic buffer once, so a
``run_cycles`` call only copies the *live* simulation state in and out.
The caches, the BTB and the predictor's counter tables already keep their
state in the kernel's layout, so each of their arrays crosses with one
memcpy (see :meth:`KernelState._layout`).

The contract that makes the replay-on-error strategy work:
:meth:`KernelState.marshal_in` never mutates any Python object — it only
reads the pipeline and writes the flat buffers (the kernel's timing
writes are replay-safe, see :mod:`repro.uarch.compiled.emit`).  When the
kernel returns a nonzero error code the backend simply replays the slice
with the python reference loop and the outcome (including the exception
the reference raises) is exactly what an all-python run would have
produced.

Two deliberate, behaviourally invisible normalisations happen at
marshal-out:

* window slots whose ``value`` entry was still the construction-time
  ``None`` read back as ``0`` (the pipeline only reads ``value`` for slots
  whose instruction executed, which always overwrites it first);
* in-flight ``RenameResult`` objects rebuilt from the flattened arrays
  carry an empty ``sources`` list (sources are consumed at dispatch, which
  already happened; the commit path reads only the destination fields).
"""

from __future__ import annotations

import ctypes
from array import array

from repro.core.integration import IntegrationEntry
from repro.core.maptable import Mapping
from repro.isa.instruction import DF_LOAD
from repro.uarch.compiled import emit
from repro.uarch.compiled.emit import PT, POINTERS, SC, SCALARS, VALUE_TO_ID
from repro.uarch.inflight import TimingColumns
from repro.uarch.lsq import StoreQueueEntry
from repro.uarch.rename import RenameResult

#: RN_* scalar names, index-aligned with :data:`_RN_STAT_KEYS`.
_RN_SCALARS = (
    "RN_MOVES", "RN_FOLDS", "RN_CSE", "RN_RA", "RN_OVERFLOW",
    "RN_DEP_BLOCKS", "RN_IT_LOOKUPS", "RN_IT_HITS", "RN_IT_INS",
    "RN_IT_VALMIS",
)

#: ``T_*`` pointer-block member -> the :class:`~repro.functional.trace.Trace`
#: column it aliases (the column typecodes are the ABI's).
_TRACE_COLUMNS = (
    ("T_PC", "pc"), ("T_SIDX", "index"), ("T_RES", "result"),
    ("T_RHAS", "result_has"), ("T_EFF", "eff_addr"), ("T_SV", "store_value"),
    ("T_SVHAS", "store_value_has"), ("T_RS1", "rs1_value"),
    ("T_TAKEN", "taken"), ("T_TGT", "target_pc"), ("T_THAS", "target_has"),
)

#: ``W_*`` pointer-block member -> the
#: :class:`~repro.uarch.inflight.InFlightWindow` list it is copied from and
#: back to every slice.
_WINDOW_ARRAYS = (
    ("W_DISPATCH", "dispatch_cycle"), ("W_COMPLETE", "complete_cycle"),
    ("W_VALUE", "value"), ("W_EFF", "eff_addr"), ("W_REPLAYED", "replayed"),
    ("W_CLASS", "class_id"), ("W_WAITING", "waiting_ops"),
    ("W_DEST", "dest_preg"), ("W_PREV", "prev_dest"),
    ("W_ELIM", "elim_info"), ("W_FEXTRA", "fusion_extra"),
    ("W_NSRC", "nsrc"), ("W_S0P", "src0_preg"), ("W_S0D", "src0_disp"),
    ("W_S1P", "src1_preg"), ("W_S1D", "src1_disp"),
)

#: Unsigned-64 mask (python ints are unbounded; the ABI is 64-bit).
M64 = (1 << 64) - 1

#: Wakeup-ring size exponent.  The ring must give every outstanding wakeup
#: cycle a distinct slot; pending ready cycles span at most one worst-case
#: memory round trip (far below 2**13), and a collision is caught — at
#: marshal-in by :class:`MarshalError`, inside the kernel by ERR_INTERNAL —
#: and delegated to the python loop, so this is a size/perf knob, not a
#: correctness bound.
_WK_BITS = 13

#: Kernel elimination-kind ids back to RenameResult.elim_kind strings.
_ELIM_KINDS = {1: "move", 2: "cf", 3: "cse", 4: "ra"}
#: IntegrationEntry.origin encodings (index == kernel id).
_ORIGINS = ("load", "store", "alu")
_ORIGIN_IDS = {name: i for i, name in enumerate(_ORIGINS)}

#: RenoRenamer.stats keys in the order of the RN_* scalar block.
_RN_STAT_KEYS = (
    "eliminated_moves", "eliminated_folds", "eliminated_cse",
    "eliminated_ra", "overflow_cancellations",
    "dependent_elimination_blocks", "it_lookups", "it_hits",
    "it_insertions", "it_value_mismatches",
)

#: (scalar name, SimStats attribute) for the delta counters the python
#: loop accumulates in locals and folds in via ``+=`` at flush time.
_DELTA_STATS = (
    ("D_ISSUED", "issued"), ("D_FETCHED", "fetched"),
    ("D_FETCH_STALLS", "fetch_stall_cycles"),
    ("D_PREGS_ALLOC", "pregs_allocated"), ("D_FUSED", "fused_operations"),
    ("D_FUSE_PEN", "fusion_penalty_cycles"),
    ("D_STORE_FWD", "store_forwards"), ("D_ELIM_MOVES", "eliminated_moves"),
    ("D_ELIM_FOLDS", "eliminated_folds"), ("D_ELIM_CSE", "eliminated_cse"),
    ("D_ELIM_RA", "eliminated_ra"),
)

#: (scalar name, SimStats attribute) for the absolute counters the loop
#: bumps directly on the stats object.
_ABS_STATS = (
    ("ROB_STALL", "rob_stall_cycles"), ("IQ_STALL", "iq_stall_cycles"),
    ("LSQ_STALL", "lsq_stall_cycles"), ("RENAME_STALL", "rename_stall_cycles"),
    ("MEM_ORDER_VIO", "memory_order_violations"),
    ("LOAD_REPLAYS", "load_replays"), ("REEXEC_LOADS", "reexecuted_loads"),
    ("INT_VAL_MISMATCH", "integration_value_mismatches"),
    ("MAX_PREGS", "max_pregs_in_use"),
)


class MarshalError(Exception):
    """The live state cannot be expressed in the kernel ABI.

    Raised only for representational corner cases (e.g. two outstanding
    wakeup cycles colliding in the ring).  The backend catches it and runs
    the slice on the python loop instead; marshal-in has no side effects,
    so no cleanup is needed.
    """


def _levels(caches):
    """(short name, member) for the L1I, L1D and L2 members of a
    :class:`~repro.uarch.cache.CacheHierarchy` or a machine config."""
    return (("L1I", caches.l1i), ("L1D", caches.l1d), ("L2", caches.l2))


def _pool_hash(page: int, mask: int) -> int:
    """The kernel's page-pool hash (must match ``pool_find`` exactly)."""
    return (((page * 0x9E3779B97F4A7C15) & M64) >> 40) & mask


def _fill_neg1(arr: array) -> None:
    """Set every element of an int64 array to -1 (byte pattern 0xFF)."""
    address, length = arr.buffer_info()
    ctypes.memset(address, 0xFF, length * arr.itemsize)


def _fill_zero(arr: array) -> None:
    """Zero an array in one memset."""
    address, length = arr.buffer_info()
    ctypes.memset(address, 0, length * arr.itemsize)


class KernelState:
    """Flat ABI buffers for one pipeline, static tables prebuilt.

    Attributes:
        sc: The scalar block (``int64_t *sc``), indexed by :data:`emit.SC`.
        arr: Name -> ``array`` for every pointer-block member.
        pt: The ctypes pointer block handed to the kernel.
    """

    def __init__(self, pipeline):
        """Adopt the trace columns, flatten the static tables and allocate
        every dynamic buffer."""
        config = pipeline.config
        window = pipeline.window
        iq_cap = config.issue_queue_size
        self.wsize = len(window.dispatch_cycle)
        self.wmask = window.mask
        self.num_pregs = config.num_physical_regs
        self.rstride = iq_cap + 8
        self.wk_mask = (1 << _WK_BITS) - 1
        self.node_cap = 2 * self.wsize + 16
        self.sq_cap = pipeline.store_queue.capacity
        self.lq_cap = pipeline.load_queue.capacity
        total = pipeline._trace_length
        self.total = total
        self.vio_cap = max(64, min(total + 1, 1 << 16))
        self.record_stats = bool(pipeline.record_stats)

        from repro.core.renamer import RenoRenamer

        renamer = pipeline.renamer
        self.reno = type(renamer) is RenoRenamer
        table = renamer.integration_table if self.reno else None
        self.it_on = table is not None
        self.it_sets = table.num_sets if self.it_on else 1
        self.it_assoc = table.associativity if self.it_on else 1
        self.it_pbw = (self.it_sets + 63) >> 6

        branch = pipeline.branch_unit
        self.bp_entries = branch.direction._history_mask + 1
        self.btb_sets = branch.btb.num_sets
        self.btb_assoc = branch.btb.associativity
        self.ras_cap = branch.ras.entries

        self.mshr_cap = config.max_outstanding_misses
        self.ss_entries = pipeline.store_sets.entries

        self.sc = array("q", bytes(8 * len(SCALARS)))
        self.arr: dict[str, array] = {}
        self.pt = (ctypes.c_void_p * len(POINTERS))()
        trace = pipeline.trace
        for name, column in _TRACE_COLUMNS:
            self.arr[name] = getattr(trace, column)
        self._build_static(pipeline)
        self._alloc_dynamic(config)
        self._layout(pipeline)          # MarshalError on a layout mismatch
        self._seed_geometry(pipeline)
        # Page-pool buffers grow on demand (see _ensure_pages).
        self._page_capacity = 0
        self._pages_buf = b""
        self._pages_view = None
        self._store_pages = trace.store_pages

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _new(self, name: str, typecode: str, length: int) -> array:
        """Allocate one pointer-block array (zero-initialised)."""
        arr = array(typecode, bytes(max(length, 1) * 8))
        self.arr[name] = arr
        return arr

    def _register_pointers(self) -> None:
        """(Re)write every pointer-block slot from the arrays' buffers."""
        pt = self.pt
        for name, index in PT.items():
            pt[index] = self.arr[name].buffer_info()[0]

    def _build_static(self, pipeline) -> None:
        """Flatten the decoded-op and per-opcode tables."""
        decoded = pipeline._decoded
        n_static = len(decoded)
        self._new("S_FLAGS", "q", n_static)[:] = array(
            "q", (op[0] for op in decoded))
        self._new("S_CLASS", "q", n_static)[:] = array(
            "q", (op[1] for op in decoded))
        self._new("S_LAT", "q", n_static)[:] = array(
            "q", (op[2] for op in decoded))
        self._new("S_MEMB", "q", n_static)[:] = array(
            "q", (op[3] for op in decoded))
        self._new("S_DEST", "q", n_static)[:] = array(
            "q", (op[4] for op in decoded))
        self._new("S_IMM", "q", n_static)[:] = array(
            "q", (op[5] for op in decoded))
        self._new("S_OPC", "q", n_static)[:] = array(
            "q", (emit.OP_ID[op[6]] for op in decoded))
        self._new("S_FOLD", "q", n_static)[:] = array(
            "q", (op[7] for op in decoded))
        self._new("S_MMASK", "Q", n_static)[:] = array(
            "Q", (op[8] for op in decoded))
        self._new("S_NSRC", "q", n_static)[:] = array(
            "q", (len(op[9]) for op in decoded))
        self._new("S_SRC0", "q", n_static)[:] = array(
            "q", (op[9][0] if op[9] else 0 for op in decoded))
        self._new("S_SRC1", "q", n_static)[:] = array(
            "q", (op[9][1] if len(op[9]) > 1 else 0 for op in decoded))

        tables = emit.opcode_tables()
        for name, key in (("O_CRC", "crc"), ("O_FUSECAT", "fusecat"),
                          ("O_S2L", "s2l"), ("O_BRANCH", "branch"),
                          ("O_CTL", "ctl")):
            self.arr[name] = tables[key][:]

    def _alloc_dynamic(self, config) -> None:
        """Allocate every live-state buffer once (addresses stay stable)."""
        ws, np_, rs = self.wsize, self.num_pregs, self.rstride
        for name, _field in _WINDOW_ARRAYS:
            self._new(name, "Q" if name in ("W_VALUE", "W_EFF") else "q", ws)
        self._new("RRE_P", "q", ws)
        self._new("RRE_D", "q", ws)
        self._new("PRF_VAL", "Q", np_)
        self._new("PRF_RDY", "q", np_)
        self._new("READY", "q", 4 * rs)
        self._new("RLEN", "q", 4)
        ring = self.wk_mask + 1
        self._new("WK_CYCLE", "q", ring)
        self._new("WK_HEAD", "q", ring)
        self._new("WK_TAIL", "q", ring)
        self._new("WT_HEAD", "q", np_)
        self._new("WT_TAIL", "q", np_)
        self._new("NODE_SEQ", "q", self.node_cap)
        self._new("NODE_NEXT", "q", self.node_cap)
        self._new("HEAP", "q", self.node_cap)
        self._new("SELBUF", "q", config.total_issue + 4)
        self._new("KEPTBUF", "q", 4 * rs)
        for name in ("SQ_SEQ", "SQ_SIZE", "SQ_AHAS", "SQ_EXEC", "SQ_COMP"):
            self._new(name, "q", self.sq_cap)
        for name in ("SQ_PC", "SQ_TADDR", "SQ_ADDR", "SQ_VAL"):
            self._new(name, "Q", self.sq_cap)
        self._new("FREE_RING", "q", np_)
        self._new("BMAP", "q", 32)
        self._new("RN_PREG", "q", 32)
        self._new("RN_DISP", "q", 32)
        self._new("RC_COUNTS", "q", np_)
        ways = self.it_sets * self.it_assoc
        for name in ("IT_KOP", "IT_IMM", "IT_N", "IT_P0", "IT_D0", "IT_P1",
                     "IT_D1", "IT_OUTP", "IT_OUTD", "IT_ORIG", "IT_VHAS"):
            self._new(name, "q", ways)
        self._new("IT_VAL", "Q", ways)
        self._new("IT_LEN", "q", self.it_sets)
        self._new("IT_PBITS", "Q", np_ * self.it_pbw)
        self._new("IT_PHAS", "q", np_)
        for name in ("BP_BIM", "BP_GSH", "BP_CHOOSER"):
            self._new(name, "q", self.bp_entries)
        btb_ways = self.btb_sets * self.btb_assoc
        self._new("BTB_TAG", "Q", btb_ways)
        self._new("BTB_TGT", "Q", btb_ways)
        self._new("BTB_THAS", "q", btb_ways)
        self._new("BTB_LEN", "q", self.btb_sets)
        self._new("RAS_STACK", "Q", self.ras_cap)
        for short, cfg in _levels(config):
            self._new(f"CT_{short}", "Q", cfg.num_sets * cfg.associativity)
            self._new(f"CL_{short}", "q", cfg.num_sets)
        self._new("MSHR_T", "q", self.mshr_cap + 2)
        self._new("SSIT", "q", self.ss_entries)
        self._new("VIO_LOG", "q", self.vio_cap)
        # Occupancy buffers: real histograms when recording, 1-slot dummies
        # otherwise (the kernel skips them entirely when RECORD_STATS=0).
        if self.record_stats:
            self._new("OC_ROB", "q", self.wsize + 1)
            self._new("OC_IQ", "q", config.issue_queue_size + 1)
            self._new("OC_PRF", "q", np_ + 1)
            self._new("OC_SQ", "q", self.sq_cap + 1)
            self._new("OC_LQ", "q", self.lq_cap + 1)
            self._new("OC_READY", "q", 4 * rs)
            self._new("OC_ISSUED", "q", config.total_issue + 1)
            self._new("OC_CLASS", "q", 4)
            self._new("OC_STALL", "q", 3)
        else:
            for name in ("OC_ROB", "OC_IQ", "OC_PRF", "OC_SQ", "OC_LQ",
                         "OC_READY", "OC_ISSUED", "OC_CLASS", "OC_STALL"):
                self._new(name, "q", 1)
        # Page-pool members get placeholders; _ensure_pages re-registers.
        # Timing members likewise: marshal_in points them at the pipeline's
        # columns (the kernel skips them entirely when TIMING=0).
        for name in ("PAGE_NUM", "PAGE_DIRTY", "PH_KEY", "PH_VAL"):
            self._new(name, "q", 1)
        for column in TimingColumns.COLUMNS:
            self._new(f"TM_{column.upper()}", "q", 1)

    def _seed_geometry(self, pipeline) -> None:
        """Write the static-configuration scalar group (once)."""
        sc = self.sc
        config = pipeline.config

        def put(name, value):
            sc[SC[name]] = int(value)

        put("TOTAL", self.total)
        put("WSIZE", self.wsize)
        put("WMASK", self.wmask)
        put("NUM_PREGS", self.num_pregs)
        put("COMMIT_WIDTH", pipeline._commit_width)
        put("RENAME_WIDTH", pipeline._rename_width)
        put("RETIRE_PORTS", pipeline._retire_dcache_ports)
        put("TAKEN_LIMIT", pipeline._taken_branch_limit)
        put("SCHED_LAT", pipeline._sched_latency)
        put("FE_DEPTH", pipeline._front_end_depth)
        put("VIO_PENALTY", config.memory_violation_penalty)
        put("MAX_CYCLES", config.max_cycles)
        put("MODE", 1 if self.reno else 0)
        put("RECORD_STATS", 1 if self.record_stats else 0)
        put("TIMING", 1 if pipeline.collect_timing else 0)
        put("FB_SHIFT", pipeline._fetch_block_bytes.bit_length() - 1)
        put("TOTAL_ISSUE", config.total_issue)
        put("W_INT", config.int_issue)
        put("W_LOAD", config.load_issue)
        put("W_STORE", config.store_issue)
        put("W_FP", config.fp_issue)
        put("IQ_CAP", config.issue_queue_size)
        put("SQ_CAP", self.sq_cap)
        put("LQ_CAP", self.lq_cap)
        put("RSTRIDE", self.rstride)
        for short, cfg in _levels(config):
            put(f"{short}_SETS", cfg.num_sets)
            put(f"{short}_ASSOC", cfg.associativity)
            put(f"{short}_LAT", cfg.latency)
            put(f"{short}_BSHIFT", cfg.block_bytes.bit_length() - 1)
        put("MEM_LAT", config.memory_latency)
        put("MSHR_CAP", self.mshr_cap)
        put("BP_MASK", self.bp_entries - 1)
        put("BTB_SETS", self.btb_sets)
        put("BTB_ASSOC", self.btb_assoc)
        put("RAS_CAP", self.ras_cap)
        put("SS_MASK", self.ss_entries - 1)
        put("IT_SETS", self.it_sets)
        put("IT_ASSOC", self.it_assoc)
        put("IT_PBW", self.it_pbw)
        put("IT_ON", 1 if self.it_on else 0)
        if self.reno:
            renamer = pipeline.renamer
            rn_config = renamer.config
            put("ELIG_MASK", renamer._elig_mask)
            put("FOLD_MOVES", 1 if renamer._fold_moves else 0)
            put("FOLD_ADDS", 1 if renamer._fold_adds else 0)
            put("ALLOW_DEP", 1 if renamer._allow_dependent else 0)
            put("DISP_BITS", renamer._disp_bits)
            put("POLICY_FULL", 1 if renamer._policy_full else 0)
            put("FUSE_ALL", rn_config.fusion_penalty_all_ops)
            put("FUSE_NONADD", rn_config.fused_nonadd_penalty)
            put("FUSE_DDISP", rn_config.fused_double_disp_penalty)
        put("NODE_CAP", self.node_cap)
        put("WK_MASK", self.wk_mask)
        put("HEAP_CAP", self.node_cap)
        put("VIO_CAP", self.vio_cap)

    def _ensure_pages(self, npool: int) -> None:
        """Size the page-pool buffers for ``npool`` pages (grow-only)."""
        if npool <= self._page_capacity:
            return
        capacity = max(16, npool * 2)
        self._page_capacity = capacity
        self.arr["PAGE_NUM"] = array("q", bytes(8 * capacity))
        self.arr["PAGE_DIRTY"] = array("q", bytes(8 * capacity))
        table = 1
        while table < 2 * capacity + 2:
            table <<= 1
        self.arr["PH_KEY"] = array("q", bytes(8 * table))
        self.arr["PH_VAL"] = array("q", bytes(8 * table))
        buf = bytearray(capacity * 4096)
        self._pages_buf = buf
        self._pages_view = (ctypes.c_ubyte * len(buf)).from_buffer(buf)

    # ------------------------------------------------------------------
    # Marshal in (read-only with respect to the pipeline)
    # ------------------------------------------------------------------

    def marshal_in(self, pipeline, stop_cycle) -> None:
        """Copy the live simulation state into the flat buffers.

        Never mutates the pipeline.  Raises :class:`MarshalError` when the
        state has no ABI representation (the caller falls back to python).
        """
        sc = self.sc
        a = self.arr
        window = pipeline.window
        iq = pipeline.issue_queue

        # -- cursors ---------------------------------------------------
        sc[SC["CYCLE"]] = pipeline._cycle
        sc[SC["COMMITTED"]] = pipeline._committed
        sc[SC["FETCH_INDEX"]] = pipeline._fetch_index
        sc[SC["FETCH_RESUME"]] = pipeline._fetch_resume_cycle
        sc[SC["WAITING_BRANCH"]] = pipeline._waiting_branch
        sc[SC["LAST_FETCH_BLOCK"]] = pipeline._last_fetch_block
        sc[SC["STALL_REASON"]] = pipeline._fetch_stall_reason
        sc[SC["STOP"]] = stop_cycle if stop_cycle is not None else 1 << 62
        self._in_committed = pipeline._committed
        self._in_fetch_index = pipeline._fetch_index

        # -- window (structure of arrays) ------------------------------
        for name, field in _WINDOW_ARRAYS:
            values = getattr(window, field)
            if field == "value":
                values = (0 if v is None else v for v in values)
            a[name][:] = array(a[name].typecode, values)
        shared = [r if r is not None and r.eliminated else None
                  for r in window.rename]
        a["RRE_P"][:] = array("q", (0 if r is None else r.dest_preg for r in shared))
        a["RRE_D"][:] = array("q", (0 if r is None else r.dest_disp for r in shared))

        # -- physical register file ------------------------------------
        a["PRF_VAL"][:] = array("Q", pipeline.prf.values)
        a["PRF_RDY"][:] = array("q", pipeline.prf.ready_cycle)

        # -- scheduler: ready lists, waiter chains, wakeup ring --------
        sc[SC["IQ_COUNT"]] = iq._count
        sc[SC["IQ_READY_TOTAL"]] = iq._ready_total
        rlen = a["RLEN"]
        ready_flat = a["READY"]
        for cls in range(4):
            entries = iq._ready[cls]
            if len(entries) > self.rstride:
                raise MarshalError("ready list exceeds its stride")
            rlen[cls] = len(entries)
            base = cls * self.rstride
            ready_flat[base:base + len(entries)] = array("q", entries)

        node_seq, node_next = a["NODE_SEQ"], a["NODE_NEXT"]
        next_node = 0

        def build_chain(seqs):
            nonlocal next_node
            head = next_node
            last = -1
            for seq in seqs:
                if next_node >= self.node_cap:
                    raise MarshalError("waiter/wakeup node pool exhausted")
                node_seq[next_node] = seq
                if last >= 0:
                    node_next[last] = next_node
                last = next_node
                next_node += 1
            node_next[last] = -1
            return head, last

        _fill_neg1(a["WT_HEAD"])
        _fill_neg1(a["WT_TAIL"])
        wt_head, wt_tail = a["WT_HEAD"], a["WT_TAIL"]
        for preg, seqs in iq._waiters.items():
            if not seqs:
                continue
            head, tail = build_chain(seqs)
            wt_head[preg] = head
            wt_tail[preg] = tail

        _fill_neg1(a["WK_CYCLE"])
        wk_cycle, wk_head, wk_tail = a["WK_CYCLE"], a["WK_HEAD"], a["WK_TAIL"]
        for ready_cycle, seqs in iq._wakeups.items():
            index = ready_cycle & self.wk_mask
            if wk_cycle[index] != -1:
                raise MarshalError("wakeup-ring collision at marshal-in")
            head, tail = build_chain(seqs)
            wk_cycle[index] = ready_cycle
            wk_head[index] = head
            wk_tail[index] = tail
        # Every heap entry owns a bucket and vice versa, so the sorted
        # bucket keys *are* the heap contents in array form.
        heap_cycles = sorted(iq._wakeups)
        a["HEAP"][:len(heap_cycles)] = array("q", heap_cycles)
        sc[SC["HEAP_LEN"]] = len(heap_cycles)
        # Chain the unused nodes into the free list.
        sc[SC["NODE_FREE"]] = next_node if next_node < self.node_cap else -1
        for i in range(next_node, self.node_cap - 1):
            node_next[i] = i + 1
        if next_node < self.node_cap:
            node_next[self.node_cap - 1] = -1

        # -- store / load queues ---------------------------------------
        entries = pipeline.store_queue.entries
        sc[SC["SQ_HEAD"]] = 0
        sc[SC["SQ_LEN"]] = len(entries)
        for i, entry in enumerate(entries):
            a["SQ_SEQ"][i] = entry.seq
            a["SQ_PC"][i] = entry.pc
            a["SQ_SIZE"][i] = entry.size
            a["SQ_TADDR"][i] = entry.trace_addr
            a["SQ_ADDR"][i] = 0 if entry.addr is None else entry.addr
            a["SQ_AHAS"][i] = 0 if entry.addr is None else 1
            a["SQ_VAL"][i] = 0 if entry.value is None else entry.value
            a["SQ_EXEC"][i] = 1 if entry.executed else 0
            a["SQ_COMP"][i] = entry.complete_cycle
        sc[SC["LQ_LEN"]] = len(pipeline.load_queue.entries)

        # -- renaming --------------------------------------------------
        self._marshal_in_rename(pipeline)

        # -- caches, BTB and predictor tables (kernel layout: memcpy) ----
        for name, component in self._layout(pipeline):
            a[name][:] = component

        # -- branch prediction -----------------------------------------
        branch = pipeline.branch_unit
        sc[SC["BP_HIST"]] = branch.direction.history
        stack = branch.ras._stack
        sc[SC["RAS_LEN"]] = len(stack)
        a["RAS_STACK"][:len(stack)] = array("Q", stack)
        sc[SC["BR_COND"]] = branch.conditional_branches
        sc[SC["BR_MISPRED"]] = branch.mispredictions
        sc[SC["BTB_MISSES"]] = branch.btb_misses
        sc[SC["RAS_MISPRED"]] = branch.ras_mispredictions

        # -- cache counters + MSHR -------------------------------------
        for short, cache in _levels(pipeline.caches):
            sc[SC[f"{short}_HITS"]] = cache.hits
            sc[SC[f"{short}_MISSES"]] = cache.misses
        times = pipeline.caches._mshr.completion_times
        sc[SC["MSHR_LEN"]] = len(times)
        a["MSHR_T"][:len(times)] = array("q", times)

        # -- store sets / violation log --------------------------------
        store_sets = pipeline.store_sets
        a["SSIT"][:] = array(
            "q", (-1 if s is None else s for s in store_sets._ssit))
        sc[SC["SS_NEXT_ID"]] = store_sets._next_set_id
        sc[SC["SS_TRAINED"]] = store_sets.violations_trained
        sc[SC["VIO_LEN"]] = 0

        # -- statistics ------------------------------------------------
        stats = pipeline.stats
        for name, attr in _ABS_STATS:
            sc[SC[name]] = getattr(stats, attr)
        for name, _attr in _DELTA_STATS:
            sc[SC[name]] = 0
        sc[SC["D_ALLOC_BASE"]] = 0

        # -- memory page pool ------------------------------------------
        self._marshal_in_pages(pipeline)

        # -- occupancy -------------------------------------------------
        if self.record_stats:
            occ = pipeline.stats.occupancy
            a["OC_ROB"][:] = array("q", occ.rob)
            a["OC_IQ"][:] = array("q", occ.iq)
            a["OC_PRF"][:] = array("q", occ.prf)
            a["OC_SQ"][:] = array("q", occ.sq)
            a["OC_LQ"][:] = array("q", occ.lq)
            oc_ready = a["OC_READY"]
            hist_len = len(occ.ready[0])
            for cls in range(4):
                base = cls * self.rstride
                oc_ready[base:base + hist_len] = array("q", occ.ready[cls])
            a["OC_ISSUED"][:] = array("q", occ.issued)
            a["OC_CLASS"][:] = array("q", occ.issued_by_class)
            a["OC_STALL"][:] = array("q", occ.fetch_stall_reasons)

        # -- timing columns (aliased, not copied) ----------------------
        # Re-pointed every slice: restore() hands the pipeline a new
        # TimingColumns object.
        timing = pipeline.timing_columns
        if timing is not None:
            for column in timing.COLUMNS:
                a[f"TM_{column.upper()}"] = getattr(timing, column)

        self._register_pointers()

    def _marshal_in_rename(self, pipeline) -> None:
        """Flatten the renamer (either mode) into the scalar/array blocks."""
        sc, a = self.sc, self.arr
        renamer = pipeline.renamer
        if not self.reno:
            a["BMAP"][:32] = array("q", renamer.map_table)
            free = renamer.free_list
            sc[SC["FREE_HEAD"]] = 0
            sc[SC["FREE_LEN"]] = len(free)
            a["FREE_RING"][:len(free)] = array("q", free)
            sc[SC["GROUP_MASK"]] = 0
            return
        entries = renamer.map_table._entries
        a["RN_PREG"][:len(entries)] = array("q", (m.preg for m in entries))
        a["RN_DISP"][:len(entries)] = array("q", (m.disp for m in entries))
        rc = renamer.refcounts
        a["RC_COUNTS"][:] = array("q", rc.counts)
        free = rc._free
        sc[SC["FREE_HEAD"]] = 0
        sc[SC["FREE_LEN"]] = len(free)
        a["FREE_RING"][:len(free)] = array("q", free)
        mask = 0
        for logical in renamer._group_eliminated_logicals:
            mask |= 1 << logical
        sc[SC["GROUP_MASK"]] = mask
        sc[SC["RC_MAXOBS"]] = rc.max_observed_count
        sc[SC["RC_ALLOCS"]] = rc.total_allocations
        sc[SC["RC_SHARES"]] = rc.total_shares
        stats = renamer.stats
        for name, key in zip(_RN_SCALARS, _RN_STAT_KEYS):
            sc[SC[name]] = stats[key]
        if renamer.integration_table is not None:
            self._marshal_in_it(renamer.integration_table)

    def _marshal_in_it(self, table) -> None:
        """Flatten the integration table (sets in MRU order + preg index)."""
        sc, a = self.sc, self.arr
        assoc = self.it_assoc
        it_len = a["IT_LEN"]
        kop_a, imm_a, n_a = a["IT_KOP"], a["IT_IMM"], a["IT_N"]
        p0_a, d0_a = a["IT_P0"], a["IT_D0"]
        p1_a, d1_a = a["IT_P1"], a["IT_D1"]
        outp_a, outd_a, orig_a = a["IT_OUTP"], a["IT_OUTD"], a["IT_ORIG"]
        val_a, vhas_a = a["IT_VAL"], a["IT_VHAS"]
        for set_index, ways in enumerate(table._sets):
            it_len[set_index] = len(ways)
            base = set_index * assoc
            for way, entry in enumerate(ways):
                j = base + way
                opcode, imm, inputs = entry.key
                kop_a[j] = VALUE_TO_ID[opcode]
                imm_a[j] = imm
                n_a[j] = len(inputs)
                p0_a[j] = d0_a[j] = p1_a[j] = d1_a[j] = 0
                if inputs:
                    p0_a[j], d0_a[j] = inputs[0]
                    if len(inputs) > 1:
                        p1_a[j], d1_a[j] = inputs[1]
                outp_a[j] = entry.out_preg
                outd_a[j] = entry.out_disp
                orig_a[j] = _ORIGIN_IDS[entry.origin]
                val_a[j] = 0 if entry.value is None else entry.value
                vhas_a[j] = 0 if entry.value is None else 1
        _fill_zero(a["IT_PBITS"])
        _fill_zero(a["IT_PHAS"])
        pbits, phas = a["IT_PBITS"], a["IT_PHAS"]
        pbw = self.it_pbw
        for preg, indices in table._preg_index.items():
            phas[preg] = 1
            base = preg * pbw
            for set_index in sorted(indices):  # order-free; sorted for lint
                pbits[base + (set_index >> 6)] |= 1 << (set_index & 63)
        sc[SC["ITC_LOOKUPS"]] = table.lookups
        sc[SC["ITC_HITS"]] = table.hits
        sc[SC["ITC_INS"]] = table.insertions
        sc[SC["ITC_INVAL"]] = table.invalidations

    def _marshal_in_pages(self, pipeline) -> None:
        """Stage the memory page pool and its open-addressing lookup table.

        The pool covers every already-materialised page plus every page any
        trace store can touch, so the kernel never needs to allocate.
        """
        sc = self.sc
        pages = pipeline.memory._pages
        pool = sorted(set(pages) | self._store_pages)
        self._ensure_pages(len(pool))
        a = self.arr
        page_num, ph_key, ph_val = a["PAGE_NUM"], a["PH_KEY"], a["PH_VAL"]
        _fill_neg1(ph_key)
        _fill_zero(a["PAGE_DIRTY"])
        mask = len(ph_key) - 1
        buf = self._pages_buf
        zero_page = bytes(4096)
        for i, page in enumerate(pool):
            offset = i * 4096
            data = pages.get(page)
            buf[offset:offset + 4096] = zero_page if data is None else data
            page_num[i] = page
            h = _pool_hash(page, mask)
            while ph_key[h] != -1:
                h = (h + 1) & mask
            ph_key[h] = page
            ph_val[h] = i
        sc[SC["NPOOL"]] = len(pool)
        sc[SC["PH_MASK"]] = mask

    # ------------------------------------------------------------------
    # Marshal out (only after the kernel returns ERR_OK)
    # ------------------------------------------------------------------

    def marshal_out(self, pipeline) -> None:
        """Copy the flat buffers back into the live simulation state.

        Mirrors everything the python loop's exit path writes, including
        the loop-exit mirror (ROB head/tail, issue-queue counters) and the
        ``_flush_loop_stats`` / component-counter routing.
        """
        sc = self.sc
        a = self.arr
        window = pipeline.window
        iq = pipeline.issue_queue

        # -- cursors + loop-exit mirror --------------------------------
        cycle = sc[SC["CYCLE"]]
        committed = sc[SC["COMMITTED"]]
        fetch_index = sc[SC["FETCH_INDEX"]]
        pipeline._cycle = cycle
        pipeline._committed = committed
        pipeline._fetch_index = fetch_index
        pipeline._fetch_resume_cycle = sc[SC["FETCH_RESUME"]]
        pipeline._waiting_branch = sc[SC["WAITING_BRANCH"]]
        pipeline._last_fetch_block = sc[SC["LAST_FETCH_BLOCK"]]
        pipeline._fetch_stall_reason = sc[SC["STALL_REASON"]]
        pipeline.rob.head_seq = committed
        pipeline.rob.tail_seq = fetch_index
        iq._count = sc[SC["IQ_COUNT"]]
        iq._ready_total = sc[SC["IQ_READY_TOTAL"]]

        # -- statistics ------------------------------------------------
        stats = pipeline.stats
        for name, attr in _DELTA_STATS:
            setattr(stats, attr, getattr(stats, attr) + sc[SC[name]])
        for name, attr in _ABS_STATS:
            setattr(stats, attr, sc[SC[name]])
        stats.cycles = cycle
        stats.committed = committed

        branch = pipeline.branch_unit
        branch.conditional_branches = sc[SC["BR_COND"]]
        branch.mispredictions = sc[SC["BR_MISPRED"]]
        branch.btb_misses = sc[SC["BTB_MISSES"]]
        branch.ras_mispredictions = sc[SC["RAS_MISPRED"]]
        for short, cache in _levels(pipeline.caches):
            cache.hits = sc[SC[f"{short}_HITS"]]
            cache.misses = sc[SC[f"{short}_MISSES"]]
        store_sets = pipeline.store_sets
        store_sets.violations_trained = sc[SC["SS_TRAINED"]]
        store_sets._next_set_id = sc[SC["SS_NEXT_ID"]]

        # -- window (structure of arrays) ------------------------------
        for name, field in _WINDOW_ARRAYS:
            getattr(window, field)[:] = (
                [bool(v) for v in a[name]] if field == "replayed"
                else a[name].tolist())

        # Slots (re)dispatched during the slice get their object-graph
        # companions rebuilt: the decoded tuple and, under RENO, a
        # RenameResult carrying the commit-relevant fields.
        decoded = pipeline._decoded
        t_index = pipeline.trace.index
        mask = self.wmask
        w_elim = window.elim_info
        rre_p, rre_d = a["RRE_P"], a["RRE_D"]
        w_dest, w_prev = window.dest_preg, window.prev_dest
        w_fextra = window.fusion_extra
        first = max(self._in_fetch_index, fetch_index - self.wsize)
        for seq in range(first, fetch_index):
            slot = seq & mask
            window.decoded[slot] = decoded[t_index[seq]]
            if not self.reno:
                window.rename[slot] = None
                continue
            elim = w_elim[slot]
            kind = elim & 15
            if kind:
                result = RenameResult(
                    dest_preg=rre_p[slot], dest_disp=rre_d[slot],
                    eliminated=True, elim_kind=_ELIM_KINDS[kind],
                    needs_reexecution=bool(elim & 16),
                )
            else:
                dest = w_dest[slot]
                result = RenameResult(
                    dest_preg=dest if dest >= 0 else None,
                    allocated=dest >= 0,
                    fusion_extra_latency=w_fextra[slot],
                )
            prev = w_prev[slot]
            result.prev_dest_preg = prev if prev >= 0 else None
            window.rename[slot] = result

        # -- physical register file ------------------------------------
        pipeline.prf.values[:] = a["PRF_VAL"].tolist()
        pipeline.prf.ready_cycle[:] = a["PRF_RDY"].tolist()

        # -- scheduler -------------------------------------------------
        rlen, ready_flat = a["RLEN"], a["READY"]
        for cls in range(4):
            base = cls * self.rstride
            iq._ready[cls][:] = ready_flat[base:base + rlen[cls]].tolist()
        node_seq, node_next = a["NODE_SEQ"], a["NODE_NEXT"]

        def read_chain(node):
            seqs = []
            while node >= 0:
                seqs.append(node_seq[node])
                node = node_next[node]
            return seqs

        waiters = iq._waiters  # pipeline._iq_waiters aliases this dict
        waiters.clear()
        wt_head = a["WT_HEAD"]
        for preg in range(self.num_pregs):
            node = wt_head[preg]
            if node >= 0:
                waiters[preg] = read_chain(node)
        wakeups = iq._wakeups
        wakeups.clear()
        heap = a["HEAP"][:sc[SC["HEAP_LEN"]]].tolist()
        wk_head = a["WK_HEAD"]
        for ready_cycle in heap:
            wakeups[ready_cycle] = read_chain(wk_head[ready_cycle & self.wk_mask])
        # The kernel keeps its heap as a sorted array; a sorted list is a
        # valid binary heap, so it can be adopted directly.
        iq._wakeup_heap[:] = heap

        # -- store / load queues ---------------------------------------
        sq = pipeline.store_queue
        head, length = sc[SC["SQ_HEAD"]], sc[SC["SQ_LEN"]]
        entries = []
        for k in range(length):
            i = (head + k) % self.sq_cap
            entry = StoreQueueEntry(
                seq=a["SQ_SEQ"][i], pc=a["SQ_PC"][i], size=a["SQ_SIZE"][i],
                trace_addr=a["SQ_TADDR"][i],
                addr=a["SQ_ADDR"][i] if a["SQ_AHAS"][i] else None,
                value=a["SQ_VAL"][i] if a["SQ_AHAS"][i] else None,
                executed=bool(a["SQ_EXEC"][i]),
                complete_cycle=a["SQ_COMP"][i],
            )
            entries.append(entry)
        sq.entries[:] = entries
        sq._by_seq.clear()
        sq._by_seq.update((entry.seq, entry) for entry in entries)
        lq = pipeline.load_queue
        lq.entries.clear()
        lq.entries.update(
            seq for seq in range(committed, fetch_index)
            if decoded[t_index[seq]][0] & DF_LOAD and not w_elim[seq & mask])

        # -- renaming --------------------------------------------------
        renamer = pipeline.renamer
        head, length = sc[SC["FREE_HEAD"]], sc[SC["FREE_LEN"]]
        ring = a["FREE_RING"]
        cap = len(ring)
        free_pregs = [ring[(head + k) % cap] for k in range(length)]
        if not self.reno:
            renamer.allocations += sc[SC["D_ALLOC_BASE"]]
            renamer.map_table[:] = a["BMAP"][:32].tolist()
            renamer.free_list.clear()
            renamer.free_list.extend(free_pregs)
        else:
            rn_stats = renamer.stats
            for name, key in zip(_RN_SCALARS, _RN_STAT_KEYS):
                rn_stats[key] = sc[SC[name]]
            rc = renamer.refcounts
            rc.counts[:] = a["RC_COUNTS"].tolist()
            rc.max_observed_count = sc[SC["RC_MAXOBS"]]
            rc.total_allocations = sc[SC["RC_ALLOCS"]]
            rc.total_shares = sc[SC["RC_SHARES"]]
            rc._free.clear()  # renamer._free_list aliases this deque
            rc._free.extend(free_pregs)
            map_entries = renamer.map_table._entries
            zero_maps = renamer._zero_maps
            rn_preg, rn_disp = a["RN_PREG"], a["RN_DISP"]
            for i in range(len(map_entries)):
                preg, disp = rn_preg[i], rn_disp[i]
                map_entries[i] = (zero_maps[preg] if disp == 0
                                  else Mapping(preg, disp))
            group = renamer._group_eliminated_logicals
            group.clear()
            group_mask = sc[SC["GROUP_MASK"]]
            logical = 0
            while group_mask:
                if group_mask & 1:
                    group.add(logical)
                group_mask >>= 1
                logical += 1
            if renamer.integration_table is not None:
                self._marshal_out_it(renamer.integration_table)

        # -- caches, BTB and predictor tables (kernel layout: memcpy) ----
        for name, component in self._layout(pipeline):
            component[:] = a[name]

        # -- branch prediction + MSHR ----------------------------------
        branch.direction.history = sc[SC["BP_HIST"]]
        branch.ras._stack[:] = a["RAS_STACK"][:sc[SC["RAS_LEN"]]].tolist()
        mshr = pipeline.caches._mshr
        mshr.completion_times[:] = a["MSHR_T"][:sc[SC["MSHR_LEN"]]].tolist()

        # -- store sets / violation log --------------------------------
        store_sets._ssit[:] = [
            None if entry < 0 else entry for entry in a["SSIT"]]
        vio_log = a["VIO_LOG"]
        pipeline._violated_loads.update(
            vio_log[i] for i in range(sc[SC["VIO_LEN"]]))

        # -- memory page write-back ------------------------------------
        pages = pipeline.memory._pages
        page_num, page_dirty = a["PAGE_NUM"], a["PAGE_DIRTY"]
        buf = self._pages_buf
        for i in range(sc[SC["NPOOL"]]):
            if not page_dirty[i]:
                continue
            page = page_num[i]
            data = buf[i * 4096:(i + 1) * 4096]
            existing = pages.get(page)
            if existing is None:
                pages[page] = bytearray(data)
            else:
                existing[:] = data

        # -- occupancy -------------------------------------------------
        if self.record_stats:
            occ = stats.occupancy
            occ.cycles = cycle
            occ.rob[:] = a["OC_ROB"].tolist()
            occ.iq[:] = a["OC_IQ"].tolist()
            occ.prf[:] = a["OC_PRF"].tolist()
            occ.sq[:] = a["OC_SQ"].tolist()
            occ.lq[:] = a["OC_LQ"].tolist()
            oc_ready = a["OC_READY"]
            hist_len = len(occ.ready[0])
            for cls in range(4):
                base = cls * self.rstride
                occ.ready[cls][:] = oc_ready[base:base + hist_len].tolist()
            occ.issued[:] = a["OC_ISSUED"].tolist()
            occ.issued_by_class[:] = a["OC_CLASS"].tolist()
            occ.fetch_stall_reasons[:] = a["OC_STALL"].tolist()

    def _marshal_out_it(self, table) -> None:
        """Rebuild the integration table object graph from the flat arrays."""
        sc, a = self.sc, self.arr
        assoc = self.it_assoc
        it_len = a["IT_LEN"]
        kop_a, imm_a, n_a = a["IT_KOP"], a["IT_IMM"], a["IT_N"]
        p0_a, d0_a = a["IT_P0"], a["IT_D0"]
        p1_a, d1_a = a["IT_P1"], a["IT_D1"]
        outp_a, outd_a, orig_a = a["IT_OUTP"], a["IT_OUTD"], a["IT_ORIG"]
        val_a, vhas_a = a["IT_VAL"], a["IT_VHAS"]
        for set_index, ways in enumerate(table._sets):
            base = set_index * assoc
            rebuilt = []
            for way in range(it_len[set_index]):
                j = base + way
                n = n_a[j]
                if n == 0:
                    inputs = ()
                elif n == 1:
                    inputs = ((p0_a[j], d0_a[j]),)
                else:
                    inputs = ((p0_a[j], d0_a[j]), (p1_a[j], d1_a[j]))
                rebuilt.append(IntegrationEntry(
                    key=(emit.OPCODES[kop_a[j]].value, imm_a[j], inputs),
                    out_preg=outp_a[j], out_disp=outd_a[j],
                    origin=_ORIGINS[orig_a[j]],
                    value=val_a[j] if vhas_a[j] else None,
                ))
            ways[:] = rebuilt
        index = table._preg_index
        index.clear()
        phas, pbits = a["IT_PHAS"], a["IT_PBITS"]
        pbw = self.it_pbw
        for preg in range(self.num_pregs):
            if not phas[preg]:
                continue
            indices = set()
            base = preg * pbw
            for word in range(pbw):
                bits = pbits[base + word]
                while bits:
                    low = bits & -bits
                    indices.add((word << 6) + low.bit_length() - 1)
                    bits ^= low
            index[preg] = indices
        table.lookups = sc[SC["ITC_LOOKUPS"]]
        table.hits = sc[SC["ITC_HITS"]]
        table.insertions = sc[SC["ITC_INS"]]
        table.invalidations = sc[SC["ITC_INVAL"]]

    def _layout(self, pipeline):
        """(pointer-block name, component array) for every structure kept
        in the kernel's own layout, each checked against its buffer's
        typecode and length (a slice assignment of another length would
        silently resize the buffer): raises :class:`MarshalError`.

        Components are fetched through the pipeline on every call: a
        snapshot restore replaces them wholesale."""
        predictor, btb = pipeline.branch_unit.direction, pipeline.branch_unit.btb
        layout = [("BP_BIM", predictor.bimodal._counters),
                  ("BP_GSH", predictor.gshare._counters),
                  ("BP_CHOOSER", predictor.chooser._counters),
                  ("BTB_TAG", btb.tags), ("BTB_TGT", btb.targets),
                  ("BTB_THAS", btb.target_has), ("BTB_LEN", btb.lengths)]
        for short, cache in _levels(pipeline.caches):
            layout += [(f"CT_{short}", cache.tags), (f"CL_{short}", cache.lengths)]
        for name, component in layout:
            buffer = self.arr[name]
            if (component.typecode, len(component)) != (buffer.typecode, len(buffer)):
                raise MarshalError(f"{name} does not match its kernel buffer")
        return layout
