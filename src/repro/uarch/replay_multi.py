"""The in-order replay kernel: a region walk scoring K configs.

Every point of a width/ports/front-end sweep shares one fused kernel
table (``prep_config_class`` deliberately excludes width, ports,
front-end depth and bubbles), so one walk of the fused action codes
scores K configurations at once: **one fused pass** over a
run-length *region* view of the stream.  A single point is the
K = 1 case (:func:`repro.uarch.replay_vec.replay_inorder_stats`).

The trick is that in-order timing is translation-invariant: shift
every clock-coupled quantity (fetch cycle, scoreboard entries,
issue-ring stamps, miss-buffer deadlines) by a constant and the
deltas it produces are unchanged.  So the stream is cut into
*regions* at every front-end redirect, region contents are interned
(identical code stretches recur constantly in loop-heavy traces), and
each lane's clock-coupled state between regions is *canonicalised
relative to its own issue frontier*.  A lane entering an already-seen
``(region content, entry scoreboard-source mask, canonical state)``
replays the memoised transition -- an integer dict hit -- instead of
re-walking the region instruction by instruction.  The memo key is
exact, so every lane's accumulators are **bit-identical** to a walk
of the whole stream, and through it to the execute-driven reference
core (:class:`InOrderCore`) that the golden suite pins; the
equivalence tests in ``tests/uarch`` and the golden-pinned lanes in
``tests/golden`` hold it there.

Lane layout: per-config serial state (issue frontier, width/port
counters, fetch state, gate ring, scoreboard, miss heap) lives in
per-lane slots; the shared region table, interned canonical states
and region stream are walked once, oldest region to newest, updating
every lane at each region boundary.  Per-lane memo tables key on
``state_id * n_sites + site_id`` -- one int -- because transition
deltas depend on the lane's width/port constants.

Fallback rules (the caller sees ``None``: a sweep replays each point
as a one-lane walk, and a point the walk declines runs on the
reference core):

* any lane outside the vectorized path's own guards (unnameable live
  predictor, empty or malformed trace);
* lanes that do not share one fused kernel table (mixed recorded/live
  prediction, different cache geometry / BTB / RAS / predictor --
  i.e. different prep slices);
* OOO cores (fusing the stamped-ring OOO kernel is future work).

Degenerate machines (a port class or the fetch buffer below one) never
reach this module: :class:`MachineConfig` rejects them when built.

Lane-divergence containment: the walk re-checks cheap per-lane
invariants (non-negative stall accumulators, the width bound
``cycles * width >= issued``) and raises
:class:`FusedLaneDivergence` on violation.  The replay front door
then discards the pass and runs every config on the reference core,
the one independent in-order timing model left; the artifact store
counts the degradation (``fused_diverges``).  The ``fused_diverge``
fault kind corrupts one seeded lane's accumulators right before
validation to prove that whole chain end to end.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import MachineConfig
from .stats import SimStats
from .trace import Trace
from . import replay_vec as rv


class FusedLaneDivergence(RuntimeError):
    """A lane's accumulators failed the sanity invariants; the caller
    must discard the pass and run the reference core instead."""


#: Fused action codes that redirect the front end: region boundaries.
#: (Mispredicted returns ``F_RET_MISP`` redirect too; ``F_NOP`` shares
#: the dispatch arm but never moves ``fetch_cycle``.)
_REDIRECTS = frozenset(
    {
        rv.F_JMP,
        rv.F_BR_TAKEN,
        rv.F_BR_TAKEN_MISSBTB,
        rv.F_BR_MISP,
        rv.F_RS_MISP,
        rv.F_CALL,
        rv.F_RET_OK,
        rv.F_RET_MISP,
        rv.F_PREDICT_TAKEN,
        rv.F_PREDICT_TAKEN_MISSBTB,
    }
)


# ------------------------------------------------------------ region table

#: Fused action code -> whether it ends a region (one lookup cuts the
#: whole stream).
_REDIRECT_LUT = np.zeros(256, bool)
_REDIRECT_LUT[sorted(_REDIRECTS)] = True


def _build_regions(base: Dict, mem: Dict, kernel: Dict) -> Dict:
    """Cut the fused stream at every redirect, intern region contents
    and occurrence sites.

    Returns the shared (lane-independent) region table:

    * ``contents``   -- region id -> 7 column tuples (act, fetch_add,
      lat, fu, dest, src0, rest) for the region's instructions;
    * ``sites``      -- occurrence index -> site id, where a *site* is
      an interned ``(region id, entry scoreboard-source mask)`` pair:
      two occurrences share a site exactly when a lane entering them
      in the same canonical state must behave identically;
    * ``site_rids`` / ``site_masks`` -- site id -> components.

    The entry mask records which architectural registers were last
    written by a load at region entry (``reg_from_load``).  It is
    stream-determined -- ALU/CALL writes clear a bit, load writes set
    it -- hence shared by every lane, and stale scoreboard *times*
    never consult it (a ``reg_ready`` at or below the lane's issue
    frontier can never win the operand-ready max).

    Built from the arrays: a region's key is the bytes of its rows in
    an ``(n, 4)`` table of (action, fetch add, latency, operand
    signature), where the per-pc signature interns (fu, dest, src0,
    rest) -- so two occurrences share an id exactly when their column
    tuples are equal, and the tuples are built once per distinct
    region.  Each distinct region also reduces to the registers it
    writes and those whose last write in it is a load, which carries
    the entry mask across an occurrence in one step.
    """
    act = kernel["act"]
    lat = kernel["lat"]
    add = mem["fetch_add"]
    pcs = base["pcs_np"]
    n = len(act)

    ends = np.flatnonzero(_REDIRECT_LUT[act]) + 1
    if not len(ends) or ends[-1] != n:
        ends = np.append(ends, n)
    bounds = np.concatenate(([0], ends)).tolist()

    fu_by_pc = base["fu_by_pc"]
    dest_by_pc = base["dest_by_pc"]
    src0_by_pc = base["src0_by_pc"]
    rest_by_pc = base["rest_by_pc"]
    # Two pcs share a signature exactly when their (fu, dest, src0,
    # rest) columns are equal.
    signatures: Dict[tuple, int] = {}
    sig_by_pc = np.array(
        [
            signatures.setdefault(operands, len(signatures))
            for operands in zip(
                fu_by_pc.tolist(), dest_by_pc.tolist(), src0_by_pc,
                rest_by_pc,
            )
        ],
        np.int64,
    )

    rows = np.empty((n, 4), np.int64)
    rows[:, 0] = act
    rows[:, 1] = add
    rows[:, 2] = lat
    rows[:, 3] = sig_by_pc[pcs]
    row_bytes = rows.strides[0]
    buf = rows.tobytes()
    del rows

    ALU = rv.F_ALU
    CALL = rv.F_CALL
    LD_HIT = rv.F_LD_HIT
    LD_MISS = rv.F_LD_MISS

    intern: Dict[bytes, int] = {}
    contents: List[tuple] = []
    written: List[int] = []
    loaded: List[int] = []
    site_intern: Dict[Tuple[int, int], int] = {}
    site_rids: List[int] = []
    site_masks: List[int] = []
    sites: List[int] = []
    mask = 0
    for s, e in zip(bounds[:-1], bounds[1:]):
        key = buf[s * row_bytes : e * row_bytes]
        rid = intern.get(key)
        if rid is None:
            rid = len(contents)
            intern[key] = rid
            region_pcs = pcs[s:e]
            pc_list = region_pcs.tolist()
            content = (
                tuple(act[s:e].tolist()),
                tuple(add[s:e].tolist()),
                tuple(lat[s:e].tolist()),
                tuple(fu_by_pc[region_pcs].tolist()),
                tuple(dest_by_pc[region_pcs].tolist()),
                tuple([src0_by_pc[pc] for pc in pc_list]),
                tuple([rest_by_pc[pc] for pc in pc_list]),
            )
            contents.append(content)
            w = ld = 0
            for a, d in zip(content[0], content[4]):
                if a == ALU or a == CALL:
                    w |= 1 << d
                    ld &= ~(1 << d)
                elif a == LD_HIT or a == LD_MISS:
                    w |= 1 << d
                    ld |= 1 << d
            written.append(w)
            loaded.append(ld)
        site_key = (rid, mask)
        sid = site_intern.get(site_key)
        if sid is None:
            sid = len(site_rids)
            site_intern[site_key] = sid
            site_rids.append(rid)
            site_masks.append(mask)
        sites.append(sid)
        mask = (mask & ~written[rid]) | loaded[rid]
    return {
        "contents": contents,
        "sites": sites,
        "site_rids": site_rids,
        "site_masks": site_masks,
    }


def _regions_for(prepared, trace: Trace):
    """The shared region table for one fused kernel, cached as its own
    prep layer under the kernel's key."""
    base, _, mem, kernel, _, kernel_key = prepared
    regions = trace._prep.regions.get(kernel_key)
    if regions is None:
        regions = _build_regions(base, mem, kernel)
        trace._prep.regions[kernel_key] = regions
    return regions


# ----------------------------------------------- canonical state handling

# Lane state between regions is canonicalised relative to the lane's
# issue frontier ``pi`` (``prev_issue``): every absolute cycle in it
# becomes a delta, dead entries collapse to sentinels, and the result
# interns to a small integer id.  Canonical tuples:
#   (fetch_rel, fetch_slots, width_rel, port_rel, ring_rel,
#    actives, heap_rel)
# where ring entries at or below the fetch cycle clamp to the fetch
# delta (the gate test is strictly ``gate > fetch_cycle`` and the
# fetch cycle is monotone inside a region, so any such entry is
# equivalent), scoreboard entries at or below ``pi`` drop (they can
# never win the operand max), and heap entries at or below ``pi``
# drop (the kernel pops them before they are ever compared).


def _canon(state) -> tuple:
    fc, fs, pi, wt, wc, pts, pcs, rr, ring, rp, heap = state
    fcrel = fc - pi
    rel_ring = tuple(
        (gate - pi) if gate > fc else fcrel
        for gate in ring[rp:] + ring[:rp]
    )
    actives = tuple(
        (i, rr[i] - pi) for i in range(65) if rr[i] > pi
    )
    h = tuple(sorted(x - pi for x in heap if x > pi))
    wrel = (0, wc) if wt == pi else (-1, 0)
    prel = tuple(
        (0, pcs[f]) if pts[f] == pi else (-1, 0) for f in (1, 2, 3)
    )
    return (fcrel, fs, wrel, prel, rel_ring, actives, h)


def _materialize(c: tuple, pi: int):
    fcrel, fs, wrel, prel, rel_ring, actives, h = c
    ring = [pi + r for r in rel_ring]
    rr = [0] * 65
    for i, rel in actives:
        rr[i] = pi + rel
    heap = [pi + x for x in h]
    wt = pi if wrel[0] == 0 else -1
    wc = wrel[1]
    pts = [-1, -1, -1, -1]
    pcs = [0, 0, 0, 0]
    for f in (1, 2, 3):
        if prel[f - 1][0] == 0:
            pts[f] = pi
            pcs[f] = prel[f - 1][1]
    return (pi + fcrel, fs, pi, wt, wc, pts, pcs, rr, ring, 0, heap)


def _step_region(content, entry_rfl: List[int], state, consts):
    """Walk one region from a materialised absolute state, one
    instruction at a time, as ``InOrderCore.run`` times it: in-order
    issue times never decrease, so the core's stamped width and port
    rings collapse to counters at the current issue cycle, and the
    fetch-buffer gate ring is always consulted (its entries start at 0
    and the gate test is strict, so an unfilled ring never gates).
    ``entry_rfl`` is the site's entry mask as a 65-entry
    ``reg_from_load`` list; the walk updates a copy.

    Returns ``(state', d_load_use, d_resolution, max_complete,
    halted)``.
    """
    width, port_caps, front_depth, fb, taken_bubble, miss_bubble, \
        mb_entries = consts
    fc, fs, pi, wt, wc, pts, pcs, rr, ring, rp, heap = state
    rfl = entry_rfl[:]
    lus = 0
    rst = 0
    maxc = -1
    halted = False
    heappush = heapq.heappush
    heappop = heapq.heappop
    ALU = rv.F_ALU
    LD_HIT = rv.F_LD_HIT
    ST_HIT = rv.F_ST_HIT
    JMP = rv.F_JMP
    BR_TAKEN = rv.F_BR_TAKEN
    BR_TAKEN_MISSBTB = rv.F_BR_TAKEN_MISSBTB
    BR_MISP = rv.F_BR_MISP
    RS_MISP = rv.F_RS_MISP
    LD_MISS = rv.F_LD_MISS
    ST_MISS = rv.F_ST_MISS
    CALL = rv.F_CALL
    RET_OK = rv.F_RET_OK
    NOP = rv.F_NOP
    PRED_NONE = rv.F_PREDICT_NONE
    PRED_TAKEN = rv.F_PREDICT_TAKEN
    PRED_TAKEN_MISSBTB = rv.F_PREDICT_TAKEN_MISSBTB

    for a, add, lat, fu, dest, s0, rest in zip(*content):
        if add:
            fc += add
            fs = 0
        if fs >= width:
            fc += 1
            fs = 0
        gate = ring[rp]
        if gate > fc:
            fc = gate
            fs = 0
        fs += 1

        if a >= PRED_NONE:
            if maxc < fc:
                maxc = fc
            if a == PRED_NONE:
                continue
            if a == PRED_TAKEN:
                fc += taken_bubble
                fs = 0
                continue
            if a == PRED_TAKEN_MISSBTB:
                fc += miss_bubble
                fs = 0
                continue
            halted = True
            break

        bt0 = fc + front_depth
        base_t = pi if pi > bt0 else bt0
        if rest:
            operand_ready = base_t
            wait_from_load = False
            ready = rr[s0]
            if ready > operand_ready:
                operand_ready = ready
                wait_from_load = rfl[s0]
            for reg in rest:
                ready = rr[reg]
                if ready > operand_ready:
                    operand_ready = ready
                    wait_from_load = rfl[reg]
            if wait_from_load and operand_ready > base_t:
                lus += operand_ready - base_t
        else:
            ready = rr[s0]
            if ready > base_t:
                operand_ready = ready
                if rfl[s0]:
                    lus += ready - base_t
            else:
                operand_ready = base_t

        issue = operand_ready
        if fu:
            pt = pts[fu]
            pc = pcs[fu]
            if (issue == wt and wc >= width) or (
                issue == pt and pc >= port_caps[fu]
            ):
                issue += 1
            if issue == wt:
                wc += 1
            else:
                wt = issue
                wc = 1
            if issue == pt:
                pcs[fu] = pc + 1
            else:
                pts[fu] = issue
                pcs[fu] = 1
        pi = issue
        ring[rp] = issue
        rp += 1
        if rp == fb:
            rp = 0

        complete = issue + lat

        if a == ALU:
            rr[dest] = complete
            rfl[dest] = False
        elif a == LD_HIT:
            rr[dest] = complete
            rfl[dest] = True
        elif a <= RS_MISP:
            if a == ST_HIT:
                complete = issue + 1
            elif a == JMP:
                fc += taken_bubble
                fs = 0
            else:
                wait = issue - bt0
                if wait > 0:
                    rst += wait
                if a == BR_TAKEN:
                    fc += taken_bubble
                    fs = 0
                elif a == BR_MISP or a == RS_MISP:
                    fc = complete + 1
                    fs = 0
                elif a == BR_TAKEN_MISSBTB:
                    fc += miss_bubble
                    fs = 0
        elif a == LD_MISS:
            while heap and heap[0] <= issue:
                heappop(heap)
            if len(heap) >= mb_entries:
                complete = heap[0] + lat
            else:
                complete = issue + lat
            heappush(heap, complete)
            rr[dest] = complete
            rfl[dest] = True
        elif a == ST_MISS:
            while heap and heap[0] <= issue:
                heappop(heap)
            if len(heap) >= mb_entries:
                done = heap[0] + lat
            else:
                done = issue + lat
            heappush(heap, done)
            complete = issue + 1
        elif a == CALL:
            rr[dest] = complete
            rfl[dest] = False
            fc += taken_bubble
            fs = 0
        elif a == RET_OK:
            fc += taken_bubble
            fs = 0
        else:
            if a != NOP:
                fc = complete + 1
                fs = 0

        if complete > maxc:
            maxc = complete

    return (fc, fs, pi, wt, wc, pts, pcs, rr, ring, rp, heap), \
        lus, rst, maxc, halted


# ------------------------------------------------------------- fused pass


def _lane_consts(config: MachineConfig) -> tuple:
    return (
        config.width,
        (0, config.int_ports, config.mem_ports, config.fp_ports),
        config.front_end_stages,
        config.fetch_buffer_entries,
        config.taken_redirect_bubble,
        config.taken_redirect_bubble + config.btb_miss_bubble,
        config.hierarchy.miss_buffer_entries,
    )


def _validate_lanes(
    configs: Sequence[MachineConfig],
    lcs: List[int],
    luss: List[int],
    rsts: List[int],
    issued: int,
) -> None:
    """Cheap always-on lane invariants; violation means a lane's
    accumulators cannot be trusted and the fused pass is void."""
    for config, lc, lus, rst in zip(configs, lcs, luss, rsts):
        if lus < 0 or rst < 0 or lc < 0:
            raise FusedLaneDivergence(
                f"negative accumulator in fused lane "
                f"(width={config.width}): cycles-1={lc}, "
                f"load_use={lus}, resolution={rst}"
            )
        if (lc + 1) * config.width < issued:
            raise FusedLaneDivergence(
                f"fused lane (width={config.width}) reports "
                f"{lc + 1} cycles for {issued} issued instructions: "
                f"below the width bound"
            )


def replay_inorder_multi_stats(
    program,
    trace: Trace,
    configs: Sequence[MachineConfig],
    recorded: Sequence[bool],
) -> Optional[List[SimStats]]:
    """One fused pass over ``trace`` scoring every config lane
    (``recorded`` holds each lane's prediction mode).

    Returns one :class:`SimStats` per config (bit-identical to
    ``InOrderCore.run`` lane by lane), or ``None`` when a lane is
    outside the vectorized path's guards or the lanes do not share one
    fused kernel table.  Raises :class:`FusedLaneDivergence` when a
    lane fails validation (or the ``fused_diverge`` fault fires).
    """
    k = len(configs)
    prepared_all = [
        rv._prepare(program, trace, config, mode, "inorder")
        for config, mode in zip(configs, recorded)
    ]
    if any(p is None for p in prepared_all):
        return None
    kernel0 = prepared_all[0][3]
    if any(p[3] is not kernel0 for p in prepared_all[1:]):
        return None  # mismatched prep slices: not one shared kernel
    prepared = prepared_all[0]
    base, stream, mem, kernel, btb_misses, _ = prepared
    regions = _regions_for(prepared, trace)

    contents = regions["contents"]
    sites = regions["sites"]
    site_rids = regions["site_rids"]
    site_masks = regions["site_masks"]
    n_sites = len(site_rids)
    # Site id -> its entry mask as a reg_from_load list, on first miss.
    site_rfls: List[Optional[List[int]]] = [None] * n_sites

    state_ids: Dict[tuple, int] = {}
    states: List[tuple] = []

    def intern_state(c: tuple) -> int:
        cid = state_ids.get(c)
        if cid is None:
            cid = len(states)
            state_ids[c] = cid
            states.append(c)
        return cid

    consts = [_lane_consts(config) for config in configs]
    pis = [0] * k
    lcs = [0] * k
    luss = [0] * k
    rsts = [0] * k
    halts = [False] * k
    memos: List[Dict[int, tuple]] = [dict() for _ in range(k)]
    cids = [
        intern_state(
            (0, 0, (-1, 0), ((-1, 0),) * 3, (0,) * c[3], (), ())
        )
        for c in consts
    ]

    lane_range = range(k)
    for sid in sites:
        key_base = sid  # key = cid * n_sites + sid
        for li in lane_range:
            if halts[li]:
                continue
            memo = memos[li]
            cid = cids[li]
            key = cid * n_sites + key_base
            t = memo.get(key)
            if t is None:
                pi = pis[li]
                st = _materialize(states[cid], pi)
                rfl = site_rfls[sid]
                if rfl is None:
                    mask = site_masks[sid]
                    rfl = [(mask >> i) & 1 for i in range(65)]
                    site_rfls[sid] = rfl
                st2, dlus, drst, maxc, halted = _step_region(
                    contents[site_rids[sid]], rfl, st, consts[li]
                )
                pi2 = st2[2]
                ecid = intern_state(_canon(st2))
                memo[key] = (
                    pi2 - pi, maxc - pi, dlus, drst, ecid, halted,
                )
                pis[li] = pi2
                luss[li] += dlus
                rsts[li] += drst
                if maxc > lcs[li]:
                    lcs[li] = maxc
                cids[li] = ecid
                halts[li] = halted
            else:
                dpi, relmax, dlus, drst, ecid, halted = t
                pi = pis[li]
                pis[li] = pi + dpi
                luss[li] += dlus
                rsts[li] += drst
                m = pi + relmax
                if m > lcs[li]:
                    lcs[li] = m
                cids[li] = ecid
                halts[li] = halted
        if halts[0]:
            break

    if any(halts) != all(halts):
        raise FusedLaneDivergence(
            "fused lanes disagree on the halt position"
        )

    _maybe_inject_divergence(trace, k, lcs, luss)
    _validate_lanes(configs, lcs, luss, rsts, base["issued"])

    n = base["n"]
    return [
        SimStats.from_counts(
            cycles=lcs[li] + 1,
            committed=n,
            issued=base["issued"],
            fetched=n,
            loads=len(base["ld_pos"]),
            stores=len(base["st_pos"]),
            load_use_stall_cycles=luss[li],
            cond_branches=len(base["br_pos"]),
            cond_mispredicts=stream["cond_mispredicts"],
            taken_redirects=stream["taken_redirects_inorder"],
            btb_miss_bubbles=btb_misses,
            predicts=len(base["pr_pos"]),
            resolves=len(base["rs_pos"]),
            resolve_mispredicts=stream["resolve_mispredicts"],
            resolution_stall_cycles=rsts[li],
            hoisted_committed=base["hoisted"],
            speculative_loads=base["speculative_loads"],
            ras_mispredicts=stream["ras_mispredicts"],
            icache_misses=mem["icache_misses"],
            icache_misses_under_mispredict=mem["icache_under"],
            halted=base["halted"],
        )
        for li in lane_range
    ]


def _maybe_inject_divergence(
    trace: Trace, k: int, lcs: List[int], luss: List[int]
) -> None:
    """Apply the seeded ``fused_diverge`` fault: corrupt one lane's
    accumulators right before validation, so the detection +
    reference-core fallback + manifest accounting chain is exercised
    end to end."""
    import os

    if not os.environ.get("REPRO_FAULT_INJECT"):
        return
    from ..experiments import faults

    label = f"{trace.meta.get('program', '?')}|K={k}"
    lane = faults.fuse_diverge_lane(label, k)
    if lane is not None:
        luss[lane] = -1 - luss[lane]
        lcs[lane] //= 2
