"""The in-order replay kernel: a region walk over the fused stream.

Every in-order point replays through one walk of the fused action
codes (:func:`replay_inorder_multi_stats`, entered through
:func:`repro.uarch.replay_vec.replay_inorder_stats`).  The walk reads
a run-length *region* view of the stream that is built once per
fused kernel table and cached on the trace: ``prep_config_class``
leaves width, ports, front-end depth and bubbles out of the kernel
key, so every point of a width/ports/front-end sweep walks the same
table.

The trick is that in-order timing is translation-invariant: shift
every clock-coupled quantity (fetch cycle, scoreboard entries,
issue-ring stamps, miss-buffer deadlines) by a constant and the
deltas it produces are unchanged.  So the stream is cut into
*regions* at every front-end redirect, region contents are interned
(identical code stretches recur constantly in loop-heavy traces), and
the walk's clock-coupled state between regions is *canonicalised
relative to its own issue frontier*.  A walk entering an already-seen
``(region content, entry scoreboard-source mask, canonical state)``
replays the memoised transition -- an integer dict hit -- instead of
re-walking the region instruction by instruction.  The memo key is
exact, so the walk's accumulators are **bit-identical** to a walk of
the whole stream, and through it to the execute-driven reference core
(:class:`InOrderCore`) that the golden suite pins; the equivalence
tests in ``tests/uarch`` and the golden-pinned replays in
``tests/golden`` hold it there.

The walk declines (returns ``None``, and the caller runs the
reference core) outside the vectorized path's own guards: an
unnameable live predictor, an empty or malformed trace.  Degenerate
machines (a port class or the fetch buffer below one) never reach
this module: :class:`MachineConfig` rejects them when built.

Divergence containment: the walk re-checks cheap invariants
(non-negative stall accumulators, the width bound
``cycles * width >= issued``) and raises :class:`WalkDivergence` on
violation.  The artifact store catches it per point, counts it
(``walk_diverges``) and runs that point on the reference core, the
one independent in-order timing model left.  The ``walk_diverge``
fault kind corrupts the walk's accumulators right before validation
to prove that whole chain end to end.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import MachineConfig
from .stats import SimStats
from .trace import Trace
from . import replay_vec as rv


class WalkDivergence(RuntimeError):
    """The walk's accumulators failed the sanity invariants; the caller
    must discard them and run the reference core instead."""


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

    Returns the shared (config-independent) region table:

    * ``contents``   -- region id -> 7 column tuples (act, fetch_add,
      lat, fu, dest, src0, rest) for the region's instructions;
    * ``sites``      -- occurrence index -> site id, where a *site* is
      an interned ``(region id, entry scoreboard-source mask)`` pair:
      two occurrences share a site exactly when a walk entering them
      in the same canonical state must behave identically;
    * ``site_rids`` / ``site_masks`` -- site id -> components.

    The entry mask records which architectural registers were last
    written by a load at region entry (``reg_from_load``).  It is
    stream-determined -- ALU/CALL writes clear a bit, load writes set
    it -- hence shared by every config, and stale scoreboard *times*
    never consult it (a ``reg_ready`` at or below the walk's issue
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

# Walk state between regions is canonicalised relative to the walk's
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


# ------------------------------------------------------------------- walk


def _walk_consts(config: MachineConfig) -> tuple:
    return (
        config.width,
        (0, config.int_ports, config.mem_ports, config.fp_ports),
        config.front_end_stages,
        config.fetch_buffer_entries,
        config.taken_redirect_bubble,
        config.taken_redirect_bubble + config.btb_miss_bubble,
        config.hierarchy.miss_buffer_entries,
    )


def _validate(
    config: MachineConfig, lc: int, lus: int, rst: int, issued: int
) -> None:
    """Cheap always-on invariants; violation means the walk's
    accumulators cannot be trusted."""
    if lus < 0 or rst < 0 or lc < 0:
        raise WalkDivergence(
            f"negative accumulator in region walk "
            f"(width={config.width}): cycles-1={lc}, "
            f"load_use={lus}, resolution={rst}"
        )
    if (lc + 1) * config.width < issued:
        raise WalkDivergence(
            f"region walk (width={config.width}) reports "
            f"{lc + 1} cycles for {issued} issued instructions: "
            f"below the width bound"
        )


def replay_inorder_multi_stats(
    program,
    trace: Trace,
    config: MachineConfig,
    recorded: bool,
) -> Optional[SimStats]:
    """One region walk over ``trace`` scoring ``config`` (``recorded``
    is its prediction mode).  The name predates single-config walks
    and stays because ``bench/spans.py`` wraps it.

    Returns :class:`SimStats` bit-identical to ``InOrderCore.run``, or
    ``None`` when the point is outside the vectorized path's guards.
    Raises :class:`WalkDivergence` when the walk fails validation (or
    the ``walk_diverge`` fault fires).
    """
    prepared = rv._prepare(program, trace, config, recorded, "inorder")
    if prepared is None:
        return None
    base, stream, mem, kernel, btb_misses, _ = prepared
    regions = _regions_for(prepared, trace)

    contents = regions["contents"]
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

    consts = _walk_consts(config)
    # Transition memo keyed ``state_id * n_sites + site_id``: one int.
    memo: Dict[int, tuple] = {}
    cid = intern_state(
        (0, 0, (-1, 0), ((-1, 0),) * 3, (0,) * consts[3], (), ())
    )
    pi = lc = lus = rst = 0
    for sid in regions["sites"]:
        key = cid * n_sites + sid
        t = memo.get(key)
        if t is None:
            rfl = site_rfls[sid]
            if rfl is None:
                mask = site_masks[sid]
                rfl = [(mask >> i) & 1 for i in range(65)]
                site_rfls[sid] = rfl
            st2, dlus, drst, m, halted = _step_region(
                contents[site_rids[sid]],
                rfl,
                _materialize(states[cid], pi),
                consts,
            )
            pi2 = st2[2]
            cid = intern_state(_canon(st2))
            memo[key] = (pi2 - pi, m - pi, dlus, drst, cid, halted)
            pi = pi2
        else:
            dpi, relmax, dlus, drst, cid, halted = t
            m = pi + relmax
            pi += dpi
        lus += dlus
        rst += drst
        if m > lc:
            lc = m
        if halted:
            break

    if _diverge_fault(trace, config):
        lus = -1 - lus
        lc //= 2
    _validate(config, lc, lus, rst, base["issued"])

    n = base["n"]
    return SimStats.from_counts(
        cycles=lc + 1,
        committed=n,
        issued=base["issued"],
        fetched=n,
        loads=len(base["ld_pos"]),
        stores=len(base["st_pos"]),
        load_use_stall_cycles=lus,
        cond_branches=len(base["br_pos"]),
        cond_mispredicts=stream["cond_mispredicts"],
        taken_redirects=stream["taken_redirects_inorder"],
        btb_miss_bubbles=btb_misses,
        predicts=len(base["pr_pos"]),
        resolves=len(base["rs_pos"]),
        resolve_mispredicts=stream["resolve_mispredicts"],
        resolution_stall_cycles=rst,
        hoisted_committed=base["hoisted"],
        speculative_loads=base["speculative_loads"],
        ras_mispredicts=stream["ras_mispredicts"],
        icache_misses=mem["icache_misses"],
        icache_misses_under_mispredict=mem["icache_under"],
        halted=base["halted"],
    )


def _diverge_fault(trace: Trace, config: MachineConfig) -> bool:
    """Whether the seeded ``walk_diverge`` fault corrupts this walk's
    accumulators right before validation, so the detection +
    reference-core fallback + manifest accounting chain is exercised
    end to end."""
    from ..experiments import faults

    return faults.should_diverge_walk(
        f"{trace.meta.get('program', '?')}|w{config.width}"
    )
