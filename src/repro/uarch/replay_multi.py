"""The in-order replay kernel: a region walk over the fused stream.

Every in-order point replays through one walk of the fused action
codes (:func:`replay_inorder_multi_stats`, entered through
:func:`repro.uarch.replay_vec.replay_inorder_stats`).  The walk reads
a run-length *region* view of the stream: per fused kernel table, the
trace caches the region ids its stream visits, and the regions'
contents live in tables every walk in the process shares.
``prep_config_class`` leaves width, ports, front-end depth and
bubbles out of the kernel key, so every point of a width/ports/
front-end sweep walks the same region id list.

The trick is that in-order timing is translation-invariant: shift
every clock-coupled quantity (fetch cycle, scoreboard entries,
issue-ring stamps, miss-buffer deadlines) by a constant and the
deltas it produces are unchanged.  So the stream is cut into
*regions* at every front-end redirect, region contents are interned
(identical code stretches recur constantly in loop-heavy traces), and
the walk's clock-coupled state between regions is *canonicalised
relative to its own issue frontier* -- the reg-from-load bit of every
live scoreboard register included, so a region is only its contents.
A walk entering an already-seen ``(region content, canonical state)``
replays the memoised transition -- an integer dict hit -- instead of
re-walking the region instruction by instruction; a miss that follows
a miss steps the absolute state the walk already holds.  The memo key
is exact (walk constants, canonical state, region content), so the
walk's accumulators are **bit-identical** to a walk of the whole
stream, and through it to the execute-driven reference core
(:class:`InOrderCore`) that the golden suite pins; the equivalence
tests in ``tests/uarch`` and the golden-pinned replays in
``tests/golden`` hold it there.

Because the key is exact, a transition one walk stepped holds in
every other walk, so the interned region contents, the canonical
states and the memo (one per walk-constants tuple) are per process,
not per walk: the rungs of a predictor ladder, which differ only
where their predictors disagree, step most transitions once.  The
tables are cleared together once their memo entries pass
``_TABLE_CAP`` (checked before each walk) and whenever a walk fails
validation; each clear bumps a generation that makes every cached
region id list rebuild on its next walk.

The walk declines (returns ``None``, and the caller runs the
reference core) outside the vectorized path's own guards: an
unnameable live predictor, an empty or malformed trace.  Degenerate
machines (a port class or the fetch buffer below one) never reach
this module: :class:`MachineConfig` rejects them when built.

Divergence containment: the walk re-checks cheap invariants
(non-negative stall accumulators, the width bound
``cycles * width >= issued``) and raises :class:`WalkDivergence` on
violation, after clearing the shared tables so that no transition the
failed walk stepped outlives it.  The artifact store catches it per
point, counts it (``walk_diverges``) and runs that point on the
reference core, the one independent in-order timing model left.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

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


# ----------------------------------------------------------- shared tables

# The tables every walk in a process shares (see the module docstring):
#
#   _signatures  operand tuple (fu, dest, src0, rest) -> signature id
#   _region_ids  a region's row bytes -> region id
#   _contents    region id -> the region's 7 column tuples
#   _walks       walk constants -> (state ids, states, memo)
#
# A trace's region layer (``ReplayPrep.regions``) keeps only its
# occurrence -> region id list, tagged with ``_generation``.  Clearing
# the tables bumps the generation, so a list built before the clear is
# rebuilt on its next walk.  Pool workers inherit the tables at fork.

#: Memo entries, summed over every walk-constants tuple, past which the
#: next walk clears every table before it starts.  A serial warm ladder
#: pass at bench scale leaves 11,912 entries, and clearing them frees
#: 11.5 MiB: about 1 KiB per entry, its states, region contents and
#: intern keys included.  So the cap holds the tables near 32 MiB.
_TABLE_CAP = 32_768

_signatures: Dict[tuple, int] = {}
_region_ids: Dict[bytes, int] = {}
_contents: List[tuple] = []
_walks: Dict[tuple, tuple] = {}
_generation = 0

#: Running totals over every walk this process ran: region visits and
#: memo misses.  ``ArtifactStore.simulate_inorder_sweep`` reports their
#: movement as the ``walk_visits`` and ``walk_misses`` counters.
walk_visits = 0
walk_misses = 0


def _clear_tables() -> None:
    """Drop every shared table together and bump the generation."""
    global _generation
    _signatures.clear()
    _region_ids.clear()
    _contents.clear()
    _walks.clear()
    _generation += 1


# ------------------------------------------------------------ region table

#: Fused action code -> whether it ends a region (one lookup cuts the
#: whole stream).
_REDIRECT_LUT = np.zeros(256, bool)
_REDIRECT_LUT[sorted(_REDIRECTS)] = True


def _build_regions(base: Dict, mem: Dict, kernel: Dict) -> List[int]:
    """Cut the fused stream at every redirect and intern each region's
    contents into the shared tables.

    Returns the occurrence index -> region id list, in stream order;
    ``_contents[rid]`` holds region ``rid``'s 7 column tuples (act,
    fetch_add, lat, fu, dest, src0, rest).

    Built from the arrays: a region's key is the bytes of its rows in
    an int32 ``(n, 4)`` table of (action, fetch add, latency, operand
    signature), where the signature interns the base layer's per-pc
    ``(fu, dest, src0, rest)`` tuple -- so two regions, of this stream
    or any other, share an id exactly when their column tuples are
    equal, and the tuples are built once per distinct region.  Which
    registers a load last wrote is walk state (:func:`_canon`), not
    part of the table.
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

    ops_by_pc = base["ops_by_pc"]
    # Two pcs share a signature exactly when their operand tuples are
    # equal.
    signatures = _signatures
    sig_by_pc = np.array(
        [signatures.setdefault(ops, len(signatures)) for ops in ops_by_pc],
        np.int32,
    )

    rows = np.empty((n, 4), np.int32)
    rows[:, 0] = act
    rows[:, 1] = add
    rows[:, 2] = lat
    rows[:, 3] = sig_by_pc[pcs]
    row_bytes = rows.strides[0]
    buf = rows.tobytes()
    del rows

    region_ids = _region_ids
    contents = _contents
    rids: List[int] = []
    for s, e in zip(bounds[:-1], bounds[1:]):
        key = buf[s * row_bytes : e * row_bytes]
        rid = region_ids.get(key)
        if rid is None:
            rid = len(contents)
            region_ids[key] = rid
            # Regions are never empty, so the transpose yields all four
            # operand columns.
            contents.append(
                (
                    tuple(act[s:e].tolist()),
                    tuple(add[s:e].tolist()),
                    tuple(lat[s:e].tolist()),
                    *zip(*[ops_by_pc[pc] for pc in pcs[s:e].tolist()]),
                )
            )
        rids.append(rid)
    return rids


def _regions_for(prepared, trace: Trace) -> List[int]:
    """The region id list of one fused kernel, cached as its own prep
    layer under the kernel's key and rebuilt when the shared tables
    were cleared after it was built."""
    base, _, mem, kernel, _, kernel_key = prepared
    entry = trace._prep.regions.get(kernel_key)
    if entry is None or entry[0] != _generation:
        entry = (_generation, _build_regions(base, mem, kernel))
        trace._prep.regions[kernel_key] = entry
    return entry[1]


# ----------------------------------------------- canonical state handling

# Walk state between regions is canonicalised relative to the walk's
# issue frontier ``pi`` (``prev_issue``): every absolute cycle in it
# becomes a delta, dead entries collapse to sentinels, and the result
# interns to a small integer id.  Canonical tuples:
#   (fetch_rel, fetch_slots, width_rel, port_rel, ring_rel,
#    actives, heap_rel)
# where ring entries at or below the fetch cycle clamp to the fetch
# delta (the gate test is strictly ``gate > fetch_cycle`` and the
# fetch cycle never decreases, so any such entry is equivalent),
# heap entries at or below ``pi`` drop (the kernel pops them before
# they are ever compared), and ``actives`` keeps each scoreboard
# register whose ready time is above ``pi`` as (register, delta,
# reg-from-load bit).  A register at or below ``pi`` can never win the
# operand max -- ``pi`` only grows, so it stays dead until rewritten,
# and a write sets its bit -- so its bit is never read and drops with
# it.


def _canon(state) -> tuple:
    fc, fs, pi, wt, wc, pts, pcs, rr, rfl, ring, rp, heap = state
    fcrel = fc - pi
    rel_ring = tuple(
        [(gate - pi) if gate > fc else fcrel for gate in ring[rp:] + ring[:rp]]
    )
    actives = tuple(
        [(i, ready - pi, rfl[i]) for i, ready in enumerate(rr) if ready > pi]
    )
    h = tuple(sorted([x - pi for x in heap if x > pi]))
    wrel = (0, wc) if wt == pi else (-1, 0)
    prel = tuple(
        [(0, pcs[f]) if pts[f] == pi else (-1, 0) for f in (1, 2, 3)]
    )
    return (fcrel, fs, wrel, prel, rel_ring, actives, h)


def _materialize(c: tuple, pi: int):
    fcrel, fs, wrel, prel, rel_ring, actives, h = c
    ring = [pi + r for r in rel_ring]
    rr = [0] * 65
    rfl = [False] * 65
    for i, rel, from_load in actives:
        rr[i] = pi + rel
        rfl[i] = from_load
    heap = [pi + x for x in h]
    wt = pi if wrel[0] == 0 else -1
    wc = wrel[1]
    pts = [-1, -1, -1, -1]
    pcs = [0, 0, 0, 0]
    for f in (1, 2, 3):
        if prel[f - 1][0] == 0:
            pts[f] = pi
            pcs[f] = prel[f - 1][1]
    return (pi + fcrel, fs, pi, wt, wc, pts, pcs, rr, rfl, ring, 0, heap)


def _step_region(content, state, consts):
    """Walk one region from an absolute state, one instruction at a
    time, as ``InOrderCore.run`` times it: in-order issue times never
    decrease, so the core's stamped width and port rings collapse to
    counters at the current issue cycle, and the fetch-buffer gate ring
    is always consulted (its entries start at 0 and the gate test is
    strict, so an unfilled ring never gates).  ``state`` is updated in
    place: its lists (scoreboard, reg-from-load bits, rings, heap)
    belong to the walk, which either materialised them from a
    canonical state or holds them from the region before.

    Returns ``(state', d_load_use, d_resolution, max_complete,
    halted)``.
    """
    width, port_caps, front_depth, fb, taken_bubble, miss_bubble, \
        mb_entries = consts
    fc, fs, pi, wt, wc, pts, pcs, rr, rfl, ring, rp, heap = state
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

    return (fc, fs, pi, wt, wc, pts, pcs, rr, rfl, ring, rp, heap), \
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
) -> Optional[SimStats]:
    """One region walk over ``trace`` scoring ``config``.  The name
    predates single-config walks and stays because ``bench/spans.py``
    wraps it.

    Returns :class:`SimStats` bit-identical to ``InOrderCore.run``, or
    ``None`` when the point is outside the vectorized path's guards.
    Raises :class:`WalkDivergence` when the walk fails validation.
    """
    global walk_visits, walk_misses
    prepared = rv._prepare(program, trace, config, "inorder")
    if prepared is None:
        return None
    base, stream, mem, kernel, btb_misses, _ = prepared
    if sum(len(memo) for _, _, memo in _walks.values()) > _TABLE_CAP:
        _clear_tables()
    rids = _regions_for(prepared, trace)
    contents = _contents

    consts = _walk_consts(config)
    tables = _walks.get(consts)
    if tables is None:
        tables = _walks[consts] = ({}, [], {})
    # Transition memo keyed ``(state_id << 32) | region_id``: one int.
    # Every region a walk interns costs it a miss, so region ids stay
    # below the memo's size, far below 2**32 under ``_TABLE_CAP``.
    state_ids, states, memo = tables

    def intern_state(c: tuple) -> int:
        cid = state_ids.get(c)
        if cid is None:
            cid = len(states)
            state_ids[c] = cid
            states.append(c)
        return cid

    cid = intern_state(
        (0, 0, (-1, 0), ((-1, 0),) * 3, (0,) * consts[3], (), ())
    )
    pi = lc = lus = rst = misses = 0
    # The absolute state the previous region left when it was stepped;
    # a memo hit advances only ``pi`` and ``cid``, which leaves it
    # stale, so the next miss materialises a fresh one.
    state = None
    for rid in rids:
        key = (cid << 32) | rid
        t = memo.get(key)
        if t is None:
            misses += 1
            if state is None:
                state = _materialize(states[cid], pi)
            state, dlus, drst, m, halted = _step_region(
                contents[rid], state, consts
            )
            pi2 = state[2]
            cid = intern_state(_canon(state))
            memo[key] = (pi2 - pi, m - pi, dlus, drst, cid, halted)
            pi = pi2
        else:
            dpi, relmax, dlus, drst, cid, halted = t
            m = pi + relmax
            pi += dpi
            state = None
        lus += dlus
        rst += drst
        if m > lc:
            lc = m
        if halted:
            break

    # A HALT ends the stream, so every region was visited.
    walk_visits += len(rids)
    walk_misses += misses
    try:
        _validate(config, lc, lus, rst, base["issued"])
    except WalkDivergence:
        # No transition a failed walk stepped outlives it.
        _clear_tables()
        raise

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

