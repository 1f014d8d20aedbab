"""Vectorized trace-replay kernels: precompute everything timing-free.

The execute-driven cores (:mod:`repro.uarch.core`,
:mod:`repro.uarch.ooo`) run the full timing machinery one instruction
at a time.  The observation this module exploits: once the committed
stream is known (a trace), every *decision* their loops make for
timing -- which instructions touch the I-cache, which cache level each
access hits, whether a BTB lookup hits, whether the RAS mispredicts a
return, whether a branch redirects -- is independent of the clock.
The global cache-access sequence (an instruction access at each fetch
line change, interleaved with data accesses in stream order,
instruction-before-data per instruction) is fully determined by the
trace columns and the predecoded rows alone, because the caches and
predictors key on addresses, never on cycle numbers.

So replay splits into two halves:

* a **precompute** pass, array-at-a-time with numpy: per-kind index
  arrays from the predecoded rows, redirect/reset classification,
  batched predictor bits (recorded bits verbatim; live mode runs the
  predictor once over the branch column, standalone), a cache-tag
  pre-pass assigning a hit level to every I-cache/load/store access,
  and a BTB/RAS re-simulation over just their event streams.  The
  results are cached on ``trace._prep`` keyed by replay mode, RAS
  size, cache geometry and BTB size, so a sweep pays once per layer.
  ``Trace.nbytes`` counts these layers, but the artifact store's LRU
  charges a trace once, when it is stored or loaded, before any prep
  attaches: the budget does not see them.
* a **serial kernel** that only advances the genuinely
  clock-coupled state -- fetch cycle/slot arithmetic, the
  fetch-buffer/window gate, the register scoreboard, the issue-ring
  search and the miss-buffer heap -- driven by a flat per-stream
  action-code table instead of predecoded rows.

``fetch_add`` holds the I-cache miss cycles each instruction adds
to fetch, 0 for "keep fetching".  The in-order walk cuts the stream
into regions at front-end redirects (``replay_multi._REDIRECTS``),
not at fetch adjustments.

Bit-exactness contract: the kernels reproduce the ``SimStats`` of
the execute-driven reference core (:class:`InOrderCore` /
:class:`OutOfOrderCore`) exactly -- golden fingerprints in
``tests/golden`` plus the equivalence suite in ``tests/uarch``, which
compares against that core directly.  Anything the precompute cannot
prove safe -- empty trace, a HALT anywhere but the stream end,
column/event count mismatches, a live replay under an unnameable
predictor factory -- returns ``None``, and the caller
(:mod:`repro.uarch.replay`) runs the reference core instead.
Degenerate machines (a port class, the fetch buffer or the OOO window
below one) are rejected up front -- by :class:`MachineConfig`,
:class:`OutOfOrderCore` and ``replay_ooo`` -- so the kernels carry no
guard for them.

The in-order serial kernel is the region walk in
:mod:`repro.uarch.replay_multi`, one walk per point:
:func:`replay_inorder_stats` is its entry.  The OOO kernel lives here
and also runs per point.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..isa.decode import (
    K_HALT,
    K_LOAD,
    K_NOP,
    K_PREDICT,
    K_RESOLVE,
    K_RET,
    K_BRANCH,
    K_CALL,
    K_JMP,
    K_STORE,
    predecode,
)
from . import columns
from .config import MachineConfig
from .ooo import _RING as _OOO_RING, _RING_MASK as _OOO_RING_MASK
from .stats import SimStats
from .trace import Trace, predictor_id

# Per-instruction action codes (uint8 table, one entry per stream
# position).  The kernels dispatch on these instead of re-deriving
# kind/outcome from rows and event columns.  Codes >= A_PREDICT_NONE
# never reach the back end (front-end-only kinds).
A_ALU = 0
A_LOAD = 1
A_STORE = 2
A_NOP = 3
A_BR_NONE = 4
A_BR_TAKEN = 5
A_BR_MISP = 6
A_RS_NONE = 7
A_RS_MISP = 8
A_JMP = 9
A_CALL = 10
A_RET_OK = 11
A_RET_MISP = 12
A_PREDICT_NONE = 13
A_PREDICT_TAKEN = 14
A_HALT = 15

# Fused kernel codes: stream action codes with the memory and BTB
# outcomes folded in at prep time, so the serial loop consumes no
# event iterators at all.  Hit loads carry their found-level latency
# in the fused ``lat`` column and behave exactly like ALU ops; only
# genuine misses (heap traffic) keep a dedicated arm.  Codes 4..9 are
# the contiguous branch/resolve band (resolution-stall accounting);
# codes >= F_PREDICT_NONE never reach the back end.
F_ALU = 0
F_LD_HIT = 1
F_ST_HIT = 2
F_JMP = 3
F_BR_NONE = 4
F_BR_TAKEN = 5
F_BR_TAKEN_MISSBTB = 6
F_BR_MISP = 7
F_RS_NONE = 8
F_RS_MISP = 9
F_LD_MISS = 10
F_ST_MISS = 11
F_CALL = 12
F_RET_OK = 13
F_RET_MISP = 14
F_NOP = 15
F_PREDICT_NONE = 16
F_PREDICT_TAKEN = 17
F_PREDICT_TAKEN_MISSBTB = 18
F_HALT = 19

# Stream-code -> fused-code table (misses/BTB variants patched after).
_FUSE_LUT = np.array(
    [
        F_ALU,            # A_ALU
        F_LD_HIT,         # A_LOAD (miss positions patched to F_LD_MISS)
        F_ST_HIT,         # A_STORE (miss positions patched)
        F_NOP,            # A_NOP
        F_BR_NONE,        # A_BR_NONE
        F_BR_TAKEN,       # A_BR_TAKEN (+1 on BTB miss)
        F_BR_MISP,        # A_BR_MISP
        F_RS_NONE,        # A_RS_NONE
        F_RS_MISP,        # A_RS_MISP
        F_JMP,            # A_JMP
        F_CALL,           # A_CALL
        F_RET_OK,         # A_RET_OK
        F_RET_MISP,       # A_RET_MISP
        F_PREDICT_NONE,   # A_PREDICT_NONE
        F_PREDICT_TAKEN,  # A_PREDICT_TAKEN (+1 on BTB miss)
        F_HALT,           # A_HALT
    ],
    np.uint8,
)


class ReplayPrep:
    """Layered precompute cache attached to one :class:`Trace`.

    Layers and their keys (finer layers reuse coarser ones):

    * ``base``       -- per decoded-rows identity: gathers, positions,
      per-pc operand tables
    * ``pred_bits``  -- per mode ("recorded" or ("live", pid)): the
      live predictor pass's bits (the recorded column verbatim)
    * ``ras_bits``   -- per ``ras_entries``: the RAS pass's mispredict
      bits
    * ``streams``    -- per (mode, ras): action codes, I-line access
      positions, counters
    * ``levels``     -- per (stream, cache geometry): the cache-tag
      pass's hit level of each I-line access, load and store
    * ``mems``       -- per (stream, cache geometry): those levels as
      fetch stalls, latencies, miss masks and I-cache counters
    * ``btbs``       -- per (core, mode, btb_entries): the BTB pass's
      miss bit per event
    * ``kernels``    -- per (core, stream, geometry, btb_entries): the
      fused action and latency arrays
    * ``regions``    -- per kernel key: the stream's region id list,
      tagged with the generation of the process-wide region tables it
      indexes, which every in-order walk shares (:mod:`.replay_multi`)

    The four pass layers (``pred_bits`` in live mode, ``ras_bits``,
    ``levels``, ``btbs``) are the only sequential Python loops, and
    the only layers a persisted slice carries; :func:`_prepare`
    derives every other layer from the trace and them with numpy,
    whether the pass outputs were computed here or attached.

    Stream-length columns are arrays of at most 4 bytes per entry:
    ``pcs_np`` (the trace's own column), ``fetch_add`` and the fused
    ``lat`` are int32, action codes, levels and masks one byte.
    Latencies and operands stay per-pc tables in ``base`` until a
    layer that reads them per instruction gathers them.  The Python
    lists a layer holds are per-pc tables (one entry per program
    instruction) and the region id list.  The kernels ``tolist()`` what
    they iterate per call and drop it with the call.
    """

    __slots__ = (
        "source_id",
        "base",
        "pred_bits",
        "ras_bits",
        "streams",
        "levels",
        "mems",
        "btbs",
        "kernels",
        "regions",
    )

    def __init__(self, source_id: int) -> None:
        self.source_id = source_id
        self.base: Optional[Dict] = None
        self.pred_bits: Dict = {}
        self.ras_bits: Dict[int, np.ndarray] = {}
        self.streams: Dict = {}
        self.levels: Dict = {}
        self.mems: Dict = {}
        self.btbs: Dict = {}
        self.kernels: Dict = {}
        self.regions: Dict = {}

    def nbytes(self) -> int:
        """Approximate footprint, for :meth:`Trace.nbytes` (ndarrays
        exactly; lists at pointer-size per slot)."""

        def _size(value) -> int:
            if isinstance(value, np.ndarray):
                return value.nbytes
            if isinstance(value, list):
                return 8 * len(value)
            if isinstance(value, tuple):
                return sum(_size(v) for v in value)
            return 0

        total = 0
        tables = [self.pred_bits, self.ras_bits, self.levels, self.btbs]
        if self.base:
            tables.append(self.base)
        tables.extend(self.streams.values())
        tables.extend(self.mems.values())
        tables.extend(self.kernels.values())
        tables.extend(self.regions.values())
        for table in tables:
            values = table.values() if isinstance(table, dict) else table
            for value in values:
                total += _size(value)
        return total


# ------------------------------------------------------------------ layers


def _build_base(trace: Trace, decoded) -> Optional[Dict]:
    """Mode/geometry-independent gathers over the committed stream.

    Keeps per-pc tables where a later layer only needs a gather: the
    row latencies (``lat_by_pc``, int32) are gathered by
    :func:`_build_kernel` alone, and :func:`_build_stream` derives
    fetch lines from ``pcs_np`` itself, so the layer holds no
    stream-length column wider than a byte besides the trace's own
    ``pcs`` (int32).

    Returns ``None`` when the trace violates an assumption the
    vectorized path relies on (the reference core then runs)."""
    rows = decoded.rows
    nrows = len(rows)
    pcs_np = trace.column("pcs")
    n = len(pcs_np)
    if n == 0 or nrows == 0:
        return None

    kind_by_pc = np.fromiter(
        (row[0] for row in rows), np.uint8, count=nrows
    )
    lat_by_pc = np.fromiter(
        (row[7] for row in rows), np.int32, count=nrows
    )
    hoist_by_pc = np.fromiter(
        (1 if row[10] else 0 for row in rows), np.uint8, count=nrows
    )
    spec_by_pc = np.fromiter(
        (1 if row[9] else 0 for row in rows), np.uint8, count=nrows
    )

    kind_s = kind_by_pc[pcs_np]
    halt_pos = np.flatnonzero(kind_s == K_HALT)
    if len(halt_pos) and (len(halt_pos) > 1 or halt_pos[0] != n - 1):
        return None  # HALT anywhere but the end: reference core
    halted = bool(len(halt_pos))

    ld_pos = np.flatnonzero(kind_s == K_LOAD)
    st_pos = np.flatnonzero(kind_s == K_STORE)
    br_pos = np.flatnonzero(kind_s == K_BRANCH)
    rs_pos = np.flatnonzero(kind_s == K_RESOLVE)
    jmp_pos = np.flatnonzero(kind_s == K_JMP)
    call_pos = np.flatnonzero(kind_s == K_CALL)
    ret_pos = np.flatnonzero(kind_s == K_RET)
    pr_pos = np.flatnonzero(kind_s == K_PREDICT)

    # Event columns must line up with the stream's event counts.
    if (
        len(ld_pos) != len(trace.load_addrs)
        or len(st_pos) != len(trace.store_addrs)
        or len(br_pos) != len(trace.branch_pred)
        or len(br_pos) != len(trace.branch_taken)
        or len(rs_pos) != len(trace.resolve_diverted)
        or len(ret_pos) != len(trace.ret_targets)
        or len(pr_pos) != len(trace.predict_taken)
    ):
        return None

    spec_mask = spec_by_pc[pcs_np][ld_pos] != 0
    if int(np.count_nonzero(spec_mask)) != len(trace.load_suppressed):
        return None
    sup_per_load = np.zeros(len(ld_pos), np.uint8)
    sup_per_load[spec_mask] = trace.column("load_suppressed")

    # Scoreboard operands per pc, ``(fu, dest, src0, rest)``,
    # specialised for the dominant 0/1-source case: the first source
    # (register 64 is a never-written sentinel whose ready time stays
    # 0) plus the remaining-sources tuple.  The OOO kernel looks each
    # instruction's tuple up as it goes; the region walk gathers the
    # columns once per distinct region.
    ops_by_pc = [
        (
            row[8],
            0 if row[1] is None else row[1],
            row[2][0] if row[2] else 64,
            row[2][1:],
        )
        for row in rows
    ]

    return {
        "n": n,
        "pcs_np": pcs_np,
        "kind_s": kind_s,
        "lat_by_pc": lat_by_pc,
        "ops_by_pc": ops_by_pc,
        "bid_by_pc": [row[6] for row in rows],
        "ld_pos": ld_pos,
        "st_pos": st_pos,
        "br_pos": br_pos,
        "rs_pos": rs_pos,
        "jmp_pos": jmp_pos,
        "call_pos": call_pos,
        "ret_pos": ret_pos,
        "pr_pos": pr_pos,
        "sup_mask": sup_per_load != 0,
        "br_pred_np": trace.column("branch_pred"),
        "br_taken_np": trace.column("branch_taken"),
        "pr_np": trace.column("predict_taken"),
        "div_np": trace.column("resolve_diverted"),
        "load_addrs_np": trace.column("load_addrs"),
        "store_addrs_np": trace.column("store_addrs"),
        "ret_targets_np": trace.column("ret_targets"),
        "halted": halted,
        "hoisted": int(np.count_nonzero(hoist_by_pc[pcs_np])),
        "issued": int(np.count_nonzero(kind_s < K_NOP)),
        "speculative_loads": int(np.count_nonzero(spec_mask)),
    }


def _pred_bits_for(
    prep: ReplayPrep, base: Dict, mode_key, config: MachineConfig
) -> np.ndarray:
    """Per-branch predicted-taken bits: the recorded column verbatim,
    or one standalone live-predictor pass over the branch stream (the
    predictor is history-dependent but self-contained, so the pass
    runs once and every width/geometry replay reuses its bits)."""
    bits = prep.pred_bits.get(mode_key)
    if bits is None:
        if mode_key == "recorded":
            bits = base["br_pred_np"]
        else:
            predictor = config.predictor_factory()
            lookup = predictor.lookup
            update = predictor.update
            bid_by_pc = base["bid_by_pc"]
            br_pcs = base["pcs_np"][base["br_pos"]].tolist()
            takens = base["br_taken_np"].tolist()
            out = np.empty(len(takens), np.uint8)
            for j, (pc, tk) in enumerate(zip(br_pcs, takens)):
                prediction = lookup(bid_by_pc[pc])
                update(prediction, tk == 1)
                out[j] = 1 if prediction.taken else 0
            bits = out
        prep.pred_bits[mode_key] = bits
    return bits


def _ras_bits(prep: ReplayPrep, base: Dict, entries: int) -> np.ndarray:
    """Per-RET mispredict bits from one pass over the CALL/RET event
    stream (bounded stack, overflow drops the oldest entry,
    underflow predicts ``None`` -- exactly ``ReturnAddressStack``)."""
    bits = prep.ras_bits.get(entries)
    if bits is None:
        call_pos = base["call_pos"]
        ret_pos = base["ret_pos"]
        n_ret = len(ret_pos)
        bits = np.zeros(n_ret, bool)
        if n_ret:
            ev_pos = np.concatenate([call_pos, ret_pos])
            ev_is_ret = np.concatenate(
                [
                    np.zeros(len(call_pos), np.uint8),
                    np.ones(n_ret, np.uint8),
                ]
            )
            # A CALL pushes its return address, a RET compares the
            # popped one with its actual target.
            ev_addr = np.concatenate(
                [
                    base["pcs_np"][call_pos].astype(np.int64) + 1,
                    base["ret_targets_np"].astype(np.int64),
                ]
            )
            order = np.argsort(ev_pos, kind="stable")
            is_ret = ev_is_ret[order].tolist()
            addrs = ev_addr[order].tolist()
            stack: List[int] = []
            missed: List[int] = []
            ret_i = 0
            for ret, addr in zip(is_ret, addrs):
                if ret:
                    predicted = stack.pop() if stack else None
                    if predicted != addr:
                        missed.append(ret_i)
                    ret_i += 1
                else:
                    if len(stack) >= entries:
                        del stack[0]
                    stack.append(addr)
            bits[missed] = True
        prep.ras_bits[entries] = bits
    return bits


def _build_stream(base: Dict, pred: np.ndarray, ret_misp: np.ndarray) -> Dict:
    """Action codes, reset classification and vectorized counters for
    one (prediction mode, RAS size) pair, from the predictor pass's
    bits ``pred`` and the RAS pass's bits ``ret_misp``."""
    n = base["n"]
    taken_np = base["br_taken_np"]
    misp = pred != taken_np
    taken_b = taken_np != 0
    div = base["div_np"] != 0
    pr_taken = base["pr_np"] != 0

    br_pos = base["br_pos"]
    rs_pos = base["rs_pos"]
    ret_pos = base["ret_pos"]
    pr_pos = base["pr_pos"]
    jmp_pos = base["jmp_pos"]
    call_pos = base["call_pos"]

    act = np.full(n, A_ALU, np.uint8)
    act[base["kind_s"] == K_NOP] = A_NOP
    act[base["ld_pos"]] = A_LOAD
    act[base["st_pos"]] = A_STORE
    act[jmp_pos] = A_JMP
    act[call_pos] = A_CALL
    act[br_pos[misp]] = A_BR_MISP
    act[br_pos[~misp & taken_b]] = A_BR_TAKEN
    act[br_pos[~misp & ~taken_b]] = A_BR_NONE
    act[rs_pos[div]] = A_RS_MISP
    act[rs_pos[~div]] = A_RS_NONE
    act[ret_pos[ret_misp]] = A_RET_MISP
    act[ret_pos[~ret_misp]] = A_RET_OK
    act[pr_pos[pr_taken]] = A_PREDICT_TAKEN
    act[pr_pos[~pr_taken]] = A_PREDICT_NONE
    if base["halted"]:
        act[n - 1] = A_HALT

    # Fetch-line resets (the cores' ``current_line = -1``).
    reset = np.zeros(n, bool)
    reset[jmp_pos] = True
    reset[call_pos] = True
    reset[ret_pos] = True
    reset[br_pos] = misp | taken_b
    reset[rs_pos] = div
    reset[pr_pos] = pr_taken
    # Mispredict-window resets (branch/resolve/RET mispredicts): the
    # under-mispredict flag is consumed by the *next* instruction's
    # line-change block, which a reset always forces.
    misp_reset = np.zeros(n, bool)
    misp_reset[br_pos] = misp
    misp_reset[rs_pos] = div
    misp_reset[ret_pos] = ret_misp

    # 64-byte fetch lines, fixed shift as in core/replay.
    line_s = base["pcs_np"] >> 4
    acc = np.empty(n, bool)
    acc[0] = True
    acc[1:] = reset[:-1] | (line_s[1:] != line_s[:-1])
    acc_pos = np.flatnonzero(acc)
    prev_misp = np.zeros(n, bool)
    prev_misp[1:] = misp_reset[:-1]

    ras_mispredicts = int(np.count_nonzero(ret_misp))
    br_taken_ok = int(np.count_nonzero(~misp & taken_b))
    pr_taken_n = int(np.count_nonzero(pr_taken))
    return {
        "act_np": act,
        "acc_pos": acc_pos,
        "acc_prev_misp": prev_misp[acc_pos],
        "cond_mispredicts": int(np.count_nonzero(misp)),
        "resolve_mispredicts": int(np.count_nonzero(div)),
        "ras_mispredicts": ras_mispredicts,
        "taken_redirects_inorder": (
            br_taken_ok
            + pr_taken_n
            + len(jmp_pos)
            + len(call_pos)
            + (len(ret_pos) - ras_mispredicts)
        ),
        "taken_redirects_ooo": br_taken_ok + len(jmp_pos),
    }


def _cache_levels(
    prep: ReplayPrep, base: Dict, stream: Dict, config: MachineConfig,
    key: Tuple,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cache-tag pass: walk the merged I-cache/load/store access
    sequence once (stream order, instruction access before data access
    at the same position, suppressed loads excluded) and record the
    hit level (0 = L1 ... 3 = DRAM) of every access, as three int8
    arrays: one per I-line access of ``stream``, one per load (-1 for
    a suppressed load, which makes no access) and one per store.
    Memoised under ``key``, the memory layer's key: the next-line
    prefetch decision compares this config's latencies, so the levels
    depend on the full cache geometry."""
    levels = prep.levels.get(key)
    if levels is not None:
        return levels
    h = config.hierarchy
    shift = h.line_bytes.bit_length() - 1
    acc_pos = stream["acc_pos"]

    inst_lines = (
        base["pcs_np"][acc_pos].astype(np.int64) << 2
    ) >> shift
    ld_idx = np.flatnonzero(~base["sup_mask"])
    ld_lines = (base["load_addrs_np"][ld_idx] << 3) >> shift
    st_lines = (base["store_addrs_np"] << 3) >> shift

    n_acc = len(acc_pos)
    n_st = len(st_lines)
    m_pos = np.concatenate([acc_pos, base["ld_pos"][ld_idx], base["st_pos"]])
    m_typ = np.concatenate(
        [
            np.zeros(n_acc, np.uint8),
            np.ones(len(ld_idx), np.uint8),
            np.full(n_st, 2, np.uint8),
        ]
    )
    m_rank = np.concatenate(
        [np.arange(n_acc), ld_idx, np.arange(n_st)]
    )
    m_line = np.concatenate([inst_lines, ld_lines, st_lines])
    # Primary key: stream position; tiebreak: instruction access (0)
    # before the same instruction's data access (1/2).
    order = np.lexsort((m_typ, m_pos))
    typs = m_typ[order].tolist()
    ranks = m_rank[order].tolist()
    lines = m_line[order].tolist()

    def _mk_sets(size: int, assoc: int) -> Tuple[list, int, int]:
        num_sets = size // (assoc * h.line_bytes)
        return [[] for _ in range(num_sets)], num_sets, assoc

    l1d, n1d, a1d = _mk_sets(h.l1d_bytes, h.l1d_assoc)
    l1i, n1i, a1i = _mk_sets(h.l1i_bytes, h.l1i_assoc)
    l2, n2, a2 = _mk_sets(h.l2_bytes, h.l2_assoc)
    l3, n3, a3 = _mk_sets(h.l3_bytes, h.l3_assoc)

    def touch(sets: list, num_sets: int, assoc: int, line: int) -> bool:
        # Cache.access minus the statistics: LRU touch, allocate on miss.
        ways = sets[line % num_sets]
        tag = line // num_sets
        try:
            position = ways.index(tag)
        except ValueError:
            ways.insert(0, tag)
            if len(ways) > assoc:
                ways.pop()
            return False
        if position:
            ways.insert(0, ways.pop(position))
        return True

    def install(sets: list, num_sets: int, assoc: int, line: int) -> None:
        # Cache.install: insert without LRU promotion on presence.
        ways = sets[line % num_sets]
        tag = line // num_sets
        if tag in ways:
            return
        ways.insert(0, tag)
        if len(ways) > assoc:
            ways.pop()

    l1_lat = h.l1_latency
    lat_by_level = (l1_lat, h.l2_latency, h.l3_latency, h.dram_latency)
    prefetch = h.next_line_prefetch

    inst_level = [0] * n_acc
    load_level = [-1] * len(base["ld_pos"])  # -1: suppressed, no access
    store_level = [0] * n_st
    for typ, rank, line in zip(typs, ranks, lines):
        if typ == 0:
            if touch(l1i, n1i, a1i, line):
                continue  # level 0 already recorded
            if touch(l2, n2, a2, line):
                inst_level[rank] = 1
            elif touch(l3, n3, a3, line):
                inst_level[rank] = 2
            else:
                inst_level[rank] = 3
        else:
            if touch(l1d, n1d, a1d, line):
                level = 0
            elif touch(l2, n2, a2, line):
                level = 1
            elif touch(l3, n3, a3, line):
                level = 2
            else:
                level = 3
            if lat_by_level[level] > l1_lat and prefetch:
                install(l1d, n1d, a1d, line + 1)
                install(l2, n2, a2, line + 1)
            if typ == 1:
                load_level[rank] = level
            else:
                store_level[rank] = level

    levels = tuple(
        np.array(level, np.int8)
        for level in (inst_level, load_level, store_level)
    )
    prep.levels[key] = levels
    return levels


def _build_mem(
    base: Dict, stream: Dict, levels: Tuple, config: MachineConfig
) -> Dict:
    """The memory layer: the cache-tag pass's ``levels`` turned into
    this config's latencies -- the I-cache miss cycles each
    instruction adds to fetch (``fetch_add``), the two I-cache
    counters, and per-load and per-store latencies and miss masks."""
    h = config.hierarchy
    inst_level, load_level, store_level = levels
    # Instruction-side added latency per access (I$ hits are free).
    inst_lut = np.array(
        [0, h.l2_latency, h.l3_latency, h.dram_latency], np.int32
    )
    inst_add = inst_lut[inst_level]
    # Hits add zero cycles, so the kernels need no hit/no-access
    # distinction: zero means "keep fetching".
    fetch_add_np = np.zeros(base["n"], np.int32)
    fetch_add_np[stream["acc_pos"]] = inst_add
    miss_mask = inst_add > 0

    l1_lat = h.l1_latency
    data_lut = np.array(
        [l1_lat, h.l2_latency, h.l3_latency, h.dram_latency], np.int64
    )
    load_lat_np = np.where(
        load_level < 0, l1_lat, data_lut[np.maximum(load_level, 0)]
    )
    store_lat_np = data_lut[store_level]
    return {
        "fetch_add": fetch_add_np,
        "icache_misses": int(np.count_nonzero(miss_mask)),
        "icache_under": int(
            np.count_nonzero(miss_mask & stream["acc_prev_misp"])
        ),
        "load_lat_np": load_lat_np,
        "load_miss_np": load_lat_np > l1_lat,
        "store_lat_np": store_lat_np,
        "store_miss_np": store_lat_np > l1_lat,
    }


def _btb_events(stream: Dict, core: str) -> np.ndarray:
    """Stream positions that look up ``core``'s BTB, in stream order:
    correctly predicted taken branches and taken PREDICTs in-order,
    taken PREDICTs only on the OOO core."""
    act = stream["act_np"]
    looks_up = act == A_PREDICT_TAKEN
    if core == "inorder":
        looks_up |= act == A_BR_TAKEN
    return np.flatnonzero(looks_up)


def _btb_bits(
    prep: ReplayPrep, base: Dict, stream: Dict, key: Tuple
) -> np.ndarray:
    """BTB pass: the miss bit of each of :func:`_btb_events`, memoised
    under ``key`` = (core, mode, BTB entries).  Direct-mapped, tag ==
    pc, insert on miss -- only tag state matters for future
    lookups."""
    bits = prep.btbs.get(key)
    if bits is None:
        core, _, entries = key
        mask = entries - 1
        tags: Dict[int, int] = {}
        missed: List[int] = []
        append = missed.append
        events = _btb_events(stream, core)
        for j, pc in enumerate(base["pcs_np"][events].tolist()):
            slot = pc & mask
            if tags.get(slot) != pc:
                append(j)
                tags[slot] = pc
        bits = np.zeros(len(events), bool)
        bits[missed] = True
        prep.btbs[key] = bits
    return bits


def _build_kernel(
    base: Dict, stream: Dict, mem: Dict, btb_events: np.ndarray,
    btb_bits: np.ndarray,
) -> Dict:
    """Fuse stream action codes with this geometry's memory outcomes
    and this core's BTB outcomes into the two columns the serial loop
    actually reads: a fused action code (uint8) and a fused latency
    (int32, gathered from the base layer's per-pc table)."""
    act_k = _FUSE_LUT[stream["act_np"]]
    act_k[base["ld_pos"][mem["load_miss_np"]]] = F_LD_MISS
    act_k[base["st_pos"][mem["store_miss_np"]]] = F_ST_MISS
    # BTB miss variants are one code above their hit counterparts.
    act_k[btb_events[btb_bits]] += 1

    lat_k = base["lat_by_pc"][base["pcs_np"]]
    # Loads and stores carry their found-level latency; every other
    # kind keeps its row latency (branch mispredict redirects use it).
    lat_k[base["ld_pos"]] = mem["load_lat_np"]
    lat_k[base["st_pos"]] = mem["store_lat_np"]
    return {"act": act_k, "lat": lat_k}


def _geometry(config: MachineConfig) -> Tuple:
    """The cache-hierarchy fields the memory prep layer depends on: one
    tuple for the in-process layer keys and the persisted slice key,
    so the two can never disagree about which fields count."""
    h = config.hierarchy
    return (
        h.l1d_bytes, h.l1d_assoc, h.l1i_bytes, h.l1i_assoc,
        h.l2_bytes, h.l2_assoc, h.l3_bytes, h.l3_assoc,
        h.line_bytes, h.l1_latency, h.l2_latency, h.l3_latency,
        h.dram_latency, bool(h.next_line_prefetch),
    )


def _prep_of(program, trace: Trace) -> ReplayPrep:
    """``trace``'s prep cache for ``program``'s decoded rows, its base
    layer built (``False`` when the trace falls outside the vectorized
    path); a cache built from other rows is dropped."""
    decoded = predecode(program)
    prep = trace._prep
    if prep is None or prep.source_id != id(decoded.rows):
        prep = ReplayPrep(id(decoded.rows))
        trace._prep = prep
    if prep.base is None:
        prep.base = _build_base(trace, decoded) or False
    return prep


def _prepare(program, trace: Trace, config: MachineConfig, core: str):
    """Assemble (base, stream, mem, kernel, btb_misses, kernel_key) for
    one replay, building/reusing cached layers under the keys
    :func:`_slice_keys` gives a persisted slice; ``None`` -> reference
    core.  The four passes run only when their outputs are neither
    built nor attached; every other layer is built here, the same way
    either way."""
    keys = _slice_keys(trace, config)
    if keys is None:
        return None  # unnameable factory: no safe cache key
    mode_key, stream_key, mem_key, btb_io, btb_ooo = keys
    prep = _prep_of(program, trace)
    base = prep.base
    if base is False:
        return None

    stream = prep.streams.get(stream_key)
    if stream is None:
        stream = _build_stream(
            base,
            _pred_bits_for(prep, base, mode_key, config),
            _ras_bits(prep, base, config.ras_entries),
        )
        prep.streams[stream_key] = stream

    mem = prep.mems.get(mem_key)
    if mem is None:
        levels = _cache_levels(prep, base, stream, config, mem_key)
        mem = _build_mem(base, stream, levels, config)
        prep.mems[mem_key] = mem

    btb_bits = _btb_bits(
        prep, base, stream, btb_io if core == "inorder" else btb_ooo
    )

    kernel_key = (core, *mem_key, config.btb_entries)
    kernel = prep.kernels.get(kernel_key)
    if kernel is None:
        kernel = _build_kernel(
            base, stream, mem, _btb_events(stream, core), btb_bits
        )
        prep.kernels[kernel_key] = kernel
    return (
        base, stream, mem, kernel, int(np.count_nonzero(btb_bits)),
        kernel_key,
    )


# ------------------------------------------------- persisted prep slices

#: Bump when the prep container layout, the layer contents, or the
#: slice keying changes: the key hashes the schema, so every persisted
#: slice of an older version simply stops matching and is rebuilt.
PREP_SCHEMA = 3

_PREP_MAGIC = b"RPPREP3\x00"

#: Array payloads of one slice, in canonical container order: the
#: outputs of the four sequential passes.  The ``pred_bits`` column is
#: present only for live-predictor slices (a recorded slice's bits are
#: the trace's own ``branch_pred`` column).
_PREP_ARRAYS = (
    "pred_bits",
    "ras_bits",
    "inst_level",
    "load_level",
    "store_level",
    "btb_io_bits",
    "btb_ooo_bits",
)


def prep_config_class(config: MachineConfig) -> Tuple:
    """The configuration fields the prep layers actually depend on --
    RAS depth, the full cache geometry, and BTB capacity.  Width,
    ports, front-end depth and bubble counts only feed the serial
    kernels, so sweeps over them share one slice."""
    return (config.ras_entries, *_geometry(config), config.btb_entries)


def prep_mode_key(trace: Trace, config: MachineConfig):
    """The prediction mode of one replay, decided here only:
    ``"recorded"`` when ``config`` runs the predictor ``trace`` was
    captured under (its predicted bits are authoritative),
    ``("live", pid)`` when a named foreign predictor re-predicts a
    baseline trace, or ``None`` when no safe cross-process key exists
    (unnameable factory, or a decomposed trace under a foreign
    predictor -- replay itself refuses that combination)."""
    pid = predictor_id(config.predictor_factory)
    if pid is not None and trace.meta.get("predictor") == pid:
        return "recorded"
    if trace.meta.get("has_decomposed") or pid is None:
        return None
    return ("live", pid)


def _slice_header(trace: Trace, mode, config: MachineConfig) -> Dict:
    """The fields that name one slice: its key hashes them, and its
    container header carries them for attach to check."""
    return {
        "schema": PREP_SCHEMA,
        "trace": trace.content_digest(),
        "mode": list(mode) if isinstance(mode, tuple) else mode,
        "config": list(prep_config_class(config)),
    }


def prep_slice_key(
    program, trace: Trace, config: MachineConfig
) -> Optional[str]:
    """Content address of one persisted prep slice:
    ``sha256(schema, trace content digest, mode, config class)``.
    Changing any component -- a recaptured trace, a different
    predictor, a resized cache/BTB/RAS, a container schema bump --
    yields a different key, so invalidation is automatic and stale
    slices are never consulted.  A trace's digest outlives a source
    change that leaves the program and the capturing predictor alone,
    so the artifact store adds ``code_version()`` to this key when it
    names the blob (``ArtifactStore._ensure_prep``)."""
    mode = prep_mode_key(trace, config)
    if mode is None:
        return None
    return hashlib.sha256(
        json.dumps(
            dict(_slice_header(trace, mode, config), kind="prep"),
            sort_keys=True,
        ).encode()
    ).hexdigest()


def _slice_keys(trace: Trace, config: MachineConfig):
    """(mode_key, stream_key, mem_key, btb keys) for one config, or
    ``None`` -- the in-process dict keys :func:`_prepare` builds layers
    under and a persisted slice plants them under."""
    mode = prep_mode_key(trace, config)
    if mode is None:
        return None
    stream_key = (mode, config.ras_entries)
    return (
        mode,
        stream_key,
        (stream_key, _geometry(config)),
        ("inorder", mode, config.btb_entries),
        ("ooo", mode, config.btb_entries),
    )


def prep_slice_ready(program, trace: Trace, config: MachineConfig) -> bool:
    """Whether every pass output a slice would carry is already on
    ``trace._prep`` (both cores' BTB bits included)."""
    keys = _slice_keys(trace, config)
    if keys is None:
        return False
    mode, _, mem_key, btb_io, btb_ooo = keys
    prep = trace._prep
    return (
        prep is not None
        and prep.source_id == id(predecode(program).rows)
        and mode in prep.pred_bits
        and config.ras_entries in prep.ras_bits
        and mem_key in prep.levels
        and btb_io in prep.btbs
        and btb_ooo in prep.btbs
    )


def build_prep_slice(
    program, trace: Trace, config: MachineConfig
) -> Optional[bytes]:
    """Run (or reuse) the four passes one slice covers and serialise
    their outputs as a :mod:`.columns` container: the live
    predictor's bits (live mode only), the RAS mispredict bits, the
    cache-tag pass's hit levels and both cores' BTB miss bits, each at
    the narrowest dtype its values need, with the key fields in the
    header.  ``None`` when the trace falls outside the vectorized path
    or has no safe slice key."""
    keys = _slice_keys(trace, config)
    if keys is None:
        return None
    mode, stream_key, mem_key, btb_io, btb_ooo = keys
    if _prepare(program, trace, config, "inorder") is None:
        return None
    prep = trace._prep
    # One persisted slice serves in-order and OOO replays alike, so it
    # also carries the OOO BTB bits (PREDICTs only -- cheap), but not
    # the OOO kernel layer, which only an OOO replay builds.
    ooo_bits = _btb_bits(prep, prep.base, prep.streams[stream_key], btb_ooo)
    inst_level, load_level, store_level = prep.levels[mem_key]
    arrays: Dict[str, np.ndarray] = {
        "ras_bits": prep.ras_bits[config.ras_entries],
        "inst_level": inst_level,
        "load_level": load_level,
        "store_level": store_level,
        "btb_io_bits": prep.btbs[btb_io],
        "btb_ooo_bits": ooo_bits,
    }
    if mode != "recorded":
        arrays["pred_bits"] = prep.pred_bits[mode]
    return columns.encode(
        _PREP_MAGIC,
        _slice_header(trace, mode, config),
        {name: arrays[name] for name in _PREP_ARRAYS if name in arrays},
    )


def attach_prep_slice(
    program, trace: Trace, config: MachineConfig, buf
) -> bool:
    """Plant a serialised slice's pass outputs in their memos on
    ``trace._prep``; :func:`_prepare` derives every other layer from
    them exactly as on a fresh build.

    Refuses (``False``, and the caller rebuilds from scratch) a
    container that fails to decode, whose key fields differ from what
    this (program, trace, config) would compute, whose column set is
    not exactly the pass outputs, or whose column lengths differ from
    the event counts the builders give: the trace's branches, RETs,
    loads and stores, and the I-line accesses and BTB lookups of the
    stream the planted predictor and RAS bits imply.  That stream is
    built to count them and, once every check passes, planted under
    its key, so the replay that follows does not build it again.
    Besides the trace's base layer (mode-independent gathers, built
    once per trace through the accessor :func:`_prepare` uses),
    attach leaves no layer but that stream and the four outputs it
    plants."""
    keys = _slice_keys(trace, config)
    if keys is None:
        return False
    mode, stream_key, mem_key, btb_io, btb_ooo = keys
    try:
        header, arrays = columns.decode(_PREP_MAGIC, buf)
    except columns.ColumnError:
        return False
    if any(
        header.get(name) != value
        for name, value in _slice_header(trace, mode, config).items()
    ):
        return False
    recorded = mode == "recorded"
    if set(arrays) != {
        name for name in _PREP_ARRAYS if name != "pred_bits" or not recorded
    }:
        return False
    if recorded:
        # Recorded bits are the trace's own column; plant them so the
        # readiness probe and ``_prepare`` both see the layer filled.
        arrays["pred_bits"] = trace.column("branch_pred")

    prep = _prep_of(program, trace)
    base = prep.base
    if base is False:
        return False  # outside the vectorized path: no slice fits
    counts = {
        "pred_bits": len(base["br_pos"]),
        "ras_bits": len(base["ret_pos"]),
        "load_level": len(base["ld_pos"]),
        "store_level": len(base["st_pos"]),
    }
    if any(len(arrays[name]) != count for name, count in counts.items()):
        return False
    stream = _build_stream(base, arrays["pred_bits"], arrays["ras_bits"])
    counts = {
        "inst_level": len(stream["acc_pos"]),
        "btb_io_bits": len(_btb_events(stream, "inorder")),
        "btb_ooo_bits": len(_btb_events(stream, "ooo")),
    }
    if any(len(arrays[name]) != count for name, count in counts.items()):
        return False

    prep.pred_bits[mode] = arrays["pred_bits"]
    prep.ras_bits[config.ras_entries] = arrays["ras_bits"]
    prep.levels[mem_key] = (
        arrays["inst_level"], arrays["load_level"], arrays["store_level"]
    )
    prep.btbs[btb_io] = arrays["btb_io_bits"]
    prep.btbs[btb_ooo] = arrays["btb_ooo_bits"]
    prep.streams[stream_key] = stream
    return True


# ------------------------------------------------------------------ kernels


def replay_inorder_stats(
    program, trace: Trace, config: MachineConfig
) -> Optional[SimStats]:
    """One in-order replay: the region walk
    (:func:`repro.uarch.replay_multi.replay_inorder_multi_stats`).
    ``None`` when the walk declines -> the caller runs the reference
    core; :class:`~repro.uarch.replay_multi.WalkDivergence` propagates.
    A separate name from the walk's because ``bench/spans.py`` wraps
    both."""
    from . import replay_multi  # it imports this module at load time

    return replay_multi.replay_inorder_multi_stats(program, trace, config)


def replay_ooo_stats(
    program,
    trace: Trace,
    config: MachineConfig,
    window: int,
) -> Optional[SimStats]:
    """OOO replay over precomputed tables; ``None`` -> the caller runs
    the reference core.  Mirrors ``OutOfOrderCore.run`` bit-exactly
    (hardcoded one-cycle redirect bubbles, BTB consulted only by
    PREDICT, no prev-issue clamp, completion-window gate).

    The loop zips the fused action, fetch-add and latency columns with
    the pcs, each ``tolist()``ed for this call only, and looks each
    instruction's operands up in the base layer's per-pc table: no
    stream-length list outlives the call."""
    prepared = _prepare(program, trace, config, "ooo")
    if prepared is None:
        return None
    base, stream, mem, kernel, _, _ = prepared

    n = base["n"]
    width = config.width
    front_depth = config.front_end_stages
    port_caps = (0, config.int_ports, config.mem_ports, config.fp_ports)
    mb_entries = config.hierarchy.miss_buffer_entries

    issued_cnt = [0] * _OOO_RING
    issued_stamp = [-1] * _OOO_RING
    port_cnt = (None, [0] * _OOO_RING, [0] * _OOO_RING, [0] * _OOO_RING)
    port_stamp = (
        None, [-1] * _OOO_RING, [-1] * _OOO_RING, [-1] * _OOO_RING,
    )

    reg_ready = [0] * 65  # slot 64: the zero-source sentinel

    heap: List[int] = []
    heappush = heapq.heappush
    heappop = heapq.heappop

    # Completion-window gate: the slot about to be overwritten is the
    # completion time from ``window`` back-end instructions ago.  An
    # unfilled slot holds 0 and the gate test is strict, so the gate
    # cannot fire before the window fills.
    win_ring = [0] * window
    win_pos = 0

    fetch_cycle = 0
    fetch_slots = 0
    last_cycle = 0
    resolution_stall = 0

    ALU = F_ALU
    LD_HIT = F_LD_HIT
    ST_HIT = F_ST_HIT
    JMP = F_JMP
    BR_NONE = F_BR_NONE
    BR_TAKEN = F_BR_TAKEN
    BR_MISP = F_BR_MISP
    RS_MISP = F_RS_MISP
    LD_MISS = F_LD_MISS
    ST_MISS = F_ST_MISS
    CALL = F_CALL
    RET_OK = F_RET_OK
    PRED_NONE = F_PREDICT_NONE
    PRED_TAKEN = F_PREDICT_TAKEN
    PRED_TAKEN_MISSBTB = F_PREDICT_TAKEN_MISSBTB

    ops_by_pc = base["ops_by_pc"]
    for a, add, lat, pc in zip(
        kernel["act"].tolist(),
        mem["fetch_add"].tolist(),
        kernel["lat"].tolist(),
        base["pcs_np"].tolist(),
    ):
        # ---- fetch (same model as the in-order core) ----
        if add:
            fetch_cycle += add
            fetch_slots = 0
        if fetch_slots >= width:
            fetch_cycle += 1
            fetch_slots = 0
        gate = win_ring[win_pos]
        if gate > fetch_cycle:
            fetch_cycle = gate
            fetch_slots = 0
        fetch_slots += 1

        if a >= PRED_NONE:
            if a == PRED_NONE:
                continue
            if a == PRED_TAKEN:
                fetch_cycle += 1
                fetch_slots = 0
                continue
            if a == PRED_TAKEN_MISSBTB:
                fetch_cycle += 2
                fetch_slots = 0
                continue
            break  # F_HALT

        # ---- dataflow issue: operands + a free port, no ordering ----
        fu, dest, s0, rest = ops_by_pc[pc]
        base_t = fetch_cycle + front_depth
        ready = reg_ready[s0]
        operand_ready = ready if ready > base_t else base_t
        if rest:
            for reg in rest:
                ready = reg_ready[reg]
                if ready > operand_ready:
                    operand_ready = ready

        t = operand_ready
        if fu:
            cap = port_caps[fu]
            pcnt = port_cnt[fu]
            pstamp = port_stamp[fu]
            while True:
                slot = t & _OOO_RING_MASK
                have = issued_cnt[slot] if issued_stamp[slot] == t else 0
                if have >= width:
                    t += 1
                    continue
                used = pcnt[slot] if pstamp[slot] == t else 0
                if used >= cap:
                    t += 1
                    continue
                break
            issued_stamp[slot] = t
            issued_cnt[slot] = have + 1
            pstamp[slot] = t
            pcnt[slot] = used + 1
        issue = t
        if BR_NONE <= a <= RS_MISP:  # branch or resolve
            wait = issue - base_t
            if wait > 0:
                resolution_stall += wait

        complete = issue + lat

        # ---- re-time (precomputed decisions) ----
        if a == ALU or a == LD_HIT:
            reg_ready[dest] = complete
        elif a == ST_HIT:
            complete = issue + 1
        elif a == LD_MISS:
            while heap and heap[0] <= issue:
                heappop(heap)
            if len(heap) >= mb_entries:
                complete = heap[0] + lat
            else:
                complete = issue + lat
            heappush(heap, complete)
            reg_ready[dest] = complete
        elif a == ST_MISS:
            while heap and heap[0] <= issue:
                heappop(heap)
            if len(heap) >= mb_entries:
                done = heap[0] + lat
            else:
                done = issue + lat
            heappush(heap, done)
            complete = issue + 1
        elif a == BR_TAKEN or a == JMP or a == RET_OK:
            fetch_cycle = fetch_cycle + 1
            fetch_slots = 0
        elif a == BR_MISP or a == RS_MISP or a == F_RET_MISP:
            fetch_cycle = complete + 1
            fetch_slots = 0
        elif a == CALL:
            reg_ready[dest] = complete
            fetch_cycle = fetch_cycle + 1
            fetch_slots = 0
        # F_NOP / BR_NONE / RS_NONE / BR_TAKEN_MISSBTB never redirect
        # (the OOO BTB event set is PREDICTs only, so the TAKEN_MISSBTB
        # code cannot appear in an OOO kernel).

        win_ring[win_pos] = complete
        win_pos += 1
        if win_pos == window:
            win_pos = 0
        if complete > last_cycle:
            last_cycle = complete

    return SimStats.from_counts(
        cycles=last_cycle + 1,
        committed=n,
        issued=base["issued"],
        fetched=n,
        loads=len(base["ld_pos"]),
        stores=len(base["st_pos"]),
        cond_branches=len(base["br_pos"]),
        cond_mispredicts=stream["cond_mispredicts"],
        taken_redirects=stream["taken_redirects_ooo"],
        predicts=len(base["pr_pos"]),
        resolves=len(base["rs_pos"]),
        resolve_mispredicts=stream["resolve_mispredicts"],
        resolution_stall_cycles=resolution_stall,
        hoisted_committed=base["hoisted"],
        speculative_loads=base["speculative_loads"],
        ras_mispredicts=stream["ras_mispredicts"],
        icache_misses=mem["icache_misses"],
        halted=base["halted"],
    )
