"""Synthetic SPEC-like workload generator.

A workload is a hot loop over ``iterations``; each iteration walks a fixed
sequence of *sites* -- hammock regions shaped like the paper's Figure 5:

* block **A** loads this site's branch-outcome word (making the branch
  condition genuinely data-dependent on a load), optionally threads the
  condition through a step of a *pointer chase* whose reuse distance is
  dialed to miss to L2/L3/DRAM (the ASPCB knob: how long the resolution
  stalls), performs a compare, and branches forward;
* successor blocks **B** (not taken) and **C** (taken) each advance a
  second pointer chase and issue payload loads -- hot (L1-resident) lines
  plus cold lines off the chase pointer, which sets the benchmark's
  D-cache profile and the MLP the transformation can hoist -- combine
  them with ALU/FP arithmetic, and store a result, with the store placed
  to bound the hoistable prefix (Table 2's PHI);
* a merge block folds the path result into a global accumulator so the
  architectural output distinguishes every control decision (the
  differential-correctness hook).

Cache behaviour is controlled by reuse distance: each chase is a Sattolo
single-cycle random permutation over a window of K lines, so successive
steps visit fresh lines with no spatial pattern (immune to next-line
prefetching -- unlike the sequential outcome arrays, which a stream
prefetcher covers exactly as real hardware would), and a window revisits
itself only after K steps, steadily hitting whichever level a K-line
working set spills to.  Chases are also *serial* (each step's address is
the previous step's data), which is precisely the mcf/omnetpp-style
behaviour whose stalls the paper's transformation covers.

Branch direction streams come from :mod:`repro.workloads.branch_process`,
so each site has an independently-dialed bias and predictability.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..ir import Function, FunctionBuilder
from .branch_process import BranchSiteSpec, generate_outcomes

#: Word-addressed memory map.
OUTCOME_BASE = 1 << 16
PAYLOAD_BASE = 1 << 21
RESULT_BASE = 1 << 12
COLD_BASE = 1 << 23

#: Chase-window sizes in cache lines per target miss level.  The window
#: times the traffic between revisits spills past L1 / L2 / L3.
CHASE_WINDOW_LINES = {"l2": 1024, "l3": 8192, "dram": 65536}

#: Words per cache line.
_LINE_WORDS = 8

#: The cold chase sits past the largest condition-chase window.
_COLD_CHASE_BASE = COLD_BASE + CHASE_WINDOW_LINES["dram"] * _LINE_WORDS

# Fixed register roles.
_R_I = 1  # loop counter
_R_N = 2  # iteration count
_R_OUT = 3  # OUTCOME_BASE + i
_R_IDX = 4  # i * 9  (hot payload walk)
_R_RES = 6  # RESULT_BASE
_R_ACC = 7  # global accumulator
_R_T0 = 44  # head/tail scratch
_R_T1 = 45
_R_CHASE_COND = 46  # serial pointer chase feeding branch conditions
_R_CHASE_COLD = 47  # serial pointer chase feeding successor cold loads

#: Three rotating per-site scratch sets; all below FIRST_TEMP_REGISTER.
_SCRATCH_SETS = [list(range(8, 20)), list(range(20, 32)), list(range(32, 44))]


def _stable_hash(text: str) -> int:
    """Deterministic across processes (unlike ``hash``)."""
    value = 2166136261
    for ch in text:
        value = ((value ^ ord(ch)) * 16777619) & 0xFFFFFFFF
    return value


def _chase_chain(base_word: int, lines: int, rng: random.Random) -> Dict[int, int]:
    """A single-cycle pointer chain over ``lines`` cache lines.

    Sattolo's algorithm guarantees one cycle, so the reuse distance of
    every line is exactly ``lines`` steps; the random order defeats
    spatial prefetching.
    """
    perm = list(range(lines))
    for i in range(lines - 1, 0, -1):
        j = rng.randrange(i)
        perm[i], perm[j] = perm[j], perm[i]
    return {
        base_word + i * _LINE_WORDS: base_word + perm[i] * _LINE_WORDS
        for i in range(lines)
    }


@functools.lru_cache(maxsize=1)
def _chase_chains(
    name: str, cond_lines: int, cold_lines: int
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """The condition and cold chase chains of workload ``name``
    (a window of 0 lines means no chain).

    Both shuffles draw from one RNG seeded by the name alone, cond
    first, so the pair is the same for every input seed: TRAIN and REF
    builds share one pair.  Its reuses are the REF build right after
    the TRAIN build of one ``prepare_benchmark`` call and the next REF
    seed's build, so the cache holds one pair, and
    ``prepare_benchmark`` drops it after the build of the config's
    last REF seed (:func:`release_chase_chains`): a build's words live
    on in its read-only data segment, and a kept pair would pin
    megabytes no build reads again.  Callers only copy the chains into
    a data segment; never mutate them.
    """
    rng = random.Random(_stable_hash(name) ^ 0xC0FFEE)
    cond = _chase_chain(COLD_BASE, cond_lines, rng) if cond_lines else {}
    cold = (
        _chase_chain(_COLD_CHASE_BASE, cold_lines, rng) if cold_lines else {}
    )
    return cond, cold


def release_chase_chains() -> None:
    """Drop the cached chase-chain pair once its last build has copied
    the words (mcf's pair is two 65,536-line dicts, ~5 MiB)."""
    _chase_chains.cache_clear()


@dataclass
class WorkloadSpec:
    """Everything needed to synthesise one benchmark-like program."""

    name: str
    suite: str
    sites: List[BranchSiteSpec] = field(default_factory=list)
    iterations: int = 400
    #: Hot payload loads per successor block (L1-resident).
    loads_not_taken: int = 3
    loads_taken: int = 3
    #: Hot payload loads in the condition block besides the outcome load.
    loads_cond_block: int = 1
    #: Cold loads per successor block, taken off the cold chase pointer.
    cold_loads_per_block: int = 0
    cold_miss: str = "l3"
    alu_per_block: int = 3
    #: Fraction of each successor block placed above its store; this is
    #: what bounds the hoistable prefix (Table 2's PHI).
    hoist_barrier_frac: float = 0.8
    #: Hard cap (in instructions) on the upper portion, reflecting how
    #: much the paper's compiler *actually* hoisted (Table 2's PDIH).
    #: None = no cap.
    hoist_cap: int = 0  # 0 -> uncapped
    #: Per-site hot payload region in words (kept small enough that all
    #: sites' hot regions stay L1-resident).
    footprint_words: int = 256
    #: Miss level of the chase step threaded into the branch condition:
    #: "none", "l2", "l3", or "dram".  This is the ASPCB knob.
    cond_miss: str = "none"
    #: Extra dependent ALU ops between the outcome load and the compare.
    cond_chain: int = 1
    #: Fraction of arithmetic emitted as FP operations.
    fp_fraction: float = 0.0
    #: Number of distinct "reference inputs" (noise realisations).
    inputs: int = 2
    #: Per-input bias wobble, mimicking input-dependent branch bias.
    bias_jitter: float = 0.02
    #: Never-executed code emitted after the hot loop, as a multiple of
    #: the hot instruction count.  Real benchmarks are mostly cold code,
    #: which is what keeps the paper's static-size increase (PISCS) near
    #: 9%; without it the synthetic all-hot programs overstate it.
    cold_code_factor: float = 2.5

    def __post_init__(self) -> None:
        if self.footprint_words & (self.footprint_words - 1):
            raise ValueError("footprint_words must be a power of two")
        if self.cond_miss not in ("none",) + tuple(CHASE_WINDOW_LINES):
            raise ValueError(f"bad cond_miss {self.cond_miss!r}")
        if self.cold_miss not in CHASE_WINDOW_LINES:
            raise ValueError(f"bad cold_miss {self.cold_miss!r}")

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    @property
    def outcome_region(self) -> int:
        """Per-site outcome region: power of two covering the run."""
        region = 1
        while region < self.iterations:
            region <<= 1
        return region

    @property
    def cond_chase_base(self) -> int:
        return COLD_BASE

    @property
    def cold_chase_base(self) -> int:
        return _COLD_CHASE_BASE

    def site_key(self, site: int) -> int:
        return _stable_hash(self.name) * 10007 + site

    def build(self, seed: int = 0) -> Function:
        """Synthesise the IR function for input ``seed``."""
        return build_workload(self, seed)


def _jittered(spec: WorkloadSpec, site: BranchSiteSpec, seed: int) -> BranchSiteSpec:
    """Apply the per-input bias wobble."""
    if not spec.bias_jitter or seed == 0:
        return site
    delta = spec.bias_jitter * (1 if seed % 2 else -1) * (1 + seed % 3) / 2.0
    bias = min(max(site.bias + delta, 0.5), 0.995)
    predictability = max(site.predictability, bias)
    return BranchSiteSpec(
        bias=bias,
        predictability=predictability,
        patterned=site.patterned,
        majority_taken=site.majority_taken,
        heavy=site.heavy,
    )


def build_workload(spec: WorkloadSpec, seed: int = 0) -> Function:
    """Emit the IR function plus its initialised data segment."""
    if not spec.sites:
        raise ValueError(f"workload {spec.name} has no branch sites")
    fb = FunctionBuilder(f"{spec.name}.seed{seed}")
    n_sites = spec.num_sites
    iters = spec.iterations
    hot_mask = spec.footprint_words - 1
    region = spec.outcome_region

    # ---- data segment -----------------------------------------------------
    for s, site in enumerate(spec.sites):
        outcomes = generate_outcomes(
            _jittered(spec, site, seed), iters, spec.site_key(s), seed
        )
        base = OUTCOME_BASE + s * region
        for i, bit in enumerate(outcomes):
            if bit:
                fb.function.data[base + i] = 1

    use_cond_chase = spec.cond_miss != "none"
    use_cold_chase = spec.cold_loads_per_block > 0
    heavy_count = sum(1 for site in spec.sites if site.heavy) or 1

    def chase_window(level: str) -> int:
        """Window (in lines) realising the target miss level.

        A chase advances once per heavy site per iteration, so a window of
        K lines revisits after K/heavy_count iterations; sizing K against
        the estimated line traffic in between pins the reuse distance
        between the right cache levels.  "dram" needs no revisit at all
        (every step is a compulsory miss).  Short runs cap the window so
        at least the last two-thirds of the run sees steady-state reuse.
        """
        if level == "dram":
            return CHASE_WINDOW_LINES["dram"]
        est_lines_per_iteration = 15
        target_traffic = 900 if level == "l2" else 6000  # lines between reuses
        window = max(
            16, round(heavy_count * target_traffic / est_lines_per_iteration)
        )
        return min(window, max(16, heavy_count * iters // 3))

    for chain in _chase_chains(
        spec.name,
        chase_window(spec.cond_miss) if use_cond_chase else 0,
        chase_window(spec.cold_miss) if use_cold_chase else 0,
    ):
        fb.function.data.update(chain)

    # ---- init & loop head ---------------------------------------------------
    init = fb.block("init")
    init.li(_R_I, 0)
    init.li(_R_N, iters)
    init.li(_R_RES, RESULT_BASE)
    init.li(_R_ACC, 0)
    if use_cond_chase:
        init.li(_R_CHASE_COND, spec.cond_chase_base)
    if use_cold_chase:
        init.li(_R_CHASE_COLD, spec.cold_chase_base)
    init.block.fallthrough = "head"

    head = fb.block("head")
    head.add(_R_OUT, _R_I, imm=OUTCOME_BASE)
    head.shl(_R_T0, _R_I, imm=3)
    head.add(_R_IDX, _R_T0, _R_I)  # i * 9: hot-walk word index
    head.block.fallthrough = "s0A"

    def emit_payload_block(
        bb,
        regs: List[int],
        site: int,
        rv: int,
        n_hot: int,
        base_offset: int,
        path_salt: int,
        heavy: bool,
    ) -> int:
        """Chase step + loads + arithmetic for one successor block.

        The block's store acts as the hoist barrier (stores are never
        speculated above a resolution point), so it is inserted at the
        ``hoist_barrier_frac`` position of the instruction sequence --
        realising the benchmark's PHI (% of the succeeding block that is
        hoistable).  Returns the register carrying the block's result
        (live into the merge).
        """
        plan = []  # thunks emitting one instruction each
        load_regs: List[int] = []
        rsum = regs[10]
        if use_cold_chase and heavy:
            # Advance the cold chase: the address is last step's data, so
            # the step is serial and the line is fresh (missing to the
            # cold_miss level).  Extra cold loads come off the same
            # pointer at non-adjacent line offsets.
            plan.append(
                lambda: bb.load(_R_CHASE_COLD, _R_CHASE_COLD, offset=0)
            )
            load_regs.append(_R_CHASE_COLD)
            for j in range(1, spec.cold_loads_per_block):
                reg = regs[3 + (j - 1) % 7]
                plan.append(
                    lambda reg=reg, j=j: bb.load(
                        reg, _R_CHASE_COLD, offset=j * 136
                    )
                )
                load_regs.append(reg)
        rp = regs[0]
        plan.append(lambda: bb.and_(rp, _R_IDX, imm=hot_mask))
        plan.append(
            lambda: bb.add(
                rp, rp, imm=PAYLOAD_BASE + site * spec.footprint_words
            )
        )
        hot_dests = []
        for j in range(n_hot):
            reg = regs[3 + ((len(load_regs) + len(hot_dests)) % 7)]
            plan.append(
                lambda reg=reg, j=j: bb.load(
                    reg, rp, offset=base_offset + j
                )
            )
            hot_dests.append(reg)
            if reg not in load_regs:
                load_regs.append(reg)
        first_src = load_regs[0] if load_regs else rv
        plan.append(lambda: bb.add(rsum, first_src, imm=path_salt))
        fp_ops = round(spec.fp_fraction * spec.alu_per_block)
        for j in range(spec.alu_per_block):
            src = load_regs[j % len(load_regs)] if load_regs else rv
            if j < fp_ops:
                plan.append(lambda src=src: bb.fadd(rsum, rsum, src))
            else:
                plan.append(lambda src=src: bb.add(rsum, rsum, src))
        plan.append(lambda: bb.add(rsum, rsum, rv))

        # Insert the store barrier at the PHI position.  It stores rv
        # (always available) so it can sit anywhere in the sequence.
        barrier = round(spec.hoist_barrier_frac * len(plan))
        if spec.hoist_cap:
            barrier = min(barrier, spec.hoist_cap)
        barrier = min(max(barrier, 0), len(plan))
        for index, emit in enumerate(plan):
            if index == barrier:
                bb.store(rv, _R_RES, offset=site)
            emit()
        if barrier == len(plan):
            bb.store(rv, _R_RES, offset=site)
        return rsum

    # ---- sites ---------------------------------------------------------------
    for s in range(n_sites):
        regs = _SCRATCH_SETS[s % len(_SCRATCH_SETS)]
        heavy = spec.sites[s].heavy
        rv, rc = regs[1], regs[2]
        next_block = f"s{s + 1}A" if s + 1 < n_sites else "tail"

        a = fb.block(f"s{s}A")
        a.load(rv, _R_OUT, offset=s * region)  # the branch outcome
        for j in range(spec.loads_cond_block):
            rp = regs[0]
            if j == 0:
                a.and_(rp, _R_IDX, imm=hot_mask)
                a.add(rp, rp, imm=PAYLOAD_BASE + s * spec.footprint_words)
            a.load(regs[3 + j], rp, offset=64 + j)
        # The resolution slice: optionally thread a chase step into the
        # condition (dependence only -- its value is masked to zero), then
        # a dependent chain into the compare.
        chain_reg = rv
        if use_cond_chase and heavy:
            rz = regs[9]
            a.load(_R_CHASE_COND, _R_CHASE_COND, offset=0)
            a.and_(rz, _R_CHASE_COND, imm=0)  # always zero; dependence only
            a.or_(rz, rz, rv)  # semantically rv
            chain_reg = rz
        for _ in range(max(0, spec.cond_chain - 1)):
            a.and_(regs[9], chain_reg, imm=1)
            chain_reg = regs[9]
        a.cmp_ne(rc, chain_reg, imm=0)
        a.bnz(rc, target=f"s{s}C", fallthrough=f"s{s}B", branch_id=s)

        b = fb.block(f"s{s}B")
        rsum_b = emit_payload_block(
            b, regs, s, rv, spec.loads_not_taken, 16,
            path_salt=s * 3 + 1, heavy=heavy,
        )
        b.jmp(f"s{s}M")

        c = fb.block(f"s{s}C")
        rsum_c = emit_payload_block(
            c, regs, s, rv, spec.loads_taken, 32,
            path_salt=s * 7 + 2, heavy=heavy,
        )
        c.block.fallthrough = f"s{s}M"

        assert rsum_b == rsum_c  # shared scratch set: merge reads one reg
        m = fb.block(f"s{s}M")
        m.add(_R_ACC, _R_ACC, rsum_b)
        m.block.fallthrough = next_block

    # ---- loop tail & exit --------------------------------------------------------
    tail = fb.block("tail")
    tail.add(_R_I, _R_I, imm=1)
    tail.cmp_lt(_R_T1, _R_I, _R_N)
    tail.bnz(_R_T1, target="head", fallthrough="exit", branch_id=n_sites)

    exit_block = fb.block("exit")
    exit_block.store(_R_ACC, _R_RES, offset=1023)
    exit_block.halt()

    _emit_cold_code(fb, spec)
    return fb.build()


def _emit_cold_code(fb: FunctionBuilder, spec: WorkloadSpec) -> None:
    """Append never-executed straight-line blocks after the hot loop.

    They carry no conditional branches, so profiling and selection are
    unaffected; they only dilute static code size the way a real
    benchmark's cold code does.
    """
    if spec.cold_code_factor <= 0:
        return
    hot = fb.function.static_instruction_count()
    per_block = 24
    blocks = max(1, round(spec.cold_code_factor * hot / per_block))
    for b in range(blocks):
        bb = fb.block(f"cold{b}")
        for k in range(per_block - 1):
            reg = 8 + ((b * 7 + k) % 32)
            if k % 5 == 3:
                bb.load(reg, _R_RES, offset=k)
            else:
                bb.add(reg, 8 + ((k + 1) % 32), imm=b * per_block + k)
        if b + 1 < blocks:
            bb.jmp(f"cold{b + 1}")
        else:
            bb.halt()


def dynamic_instructions_per_iteration(spec: WorkloadSpec) -> int:
    """Rough per-iteration dynamic instruction count, for calibration."""
    per_site_a = (
        1  # outcome load
        + spec.loads_cond_block
        + 2  # hot address computation
        + (3 if spec.cond_miss != "none" else 0)
        + max(0, spec.cond_chain - 1)
        + 2  # compare + branch
    )
    per_site_succ = (
        max(spec.loads_taken, spec.loads_not_taken)
        + spec.cold_loads_per_block
        + 2  # hot address computation
        + spec.alu_per_block
        + 4
    )
    return 6 + spec.num_sites * (per_site_a + per_site_succ + 1) + 3
