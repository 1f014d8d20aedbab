"""The replay kernels vs the execute-driven cores, tier-1 scale.

The region walk (:mod:`repro.uarch.replay_multi`) is the only
in-order replay kernel: :func:`replay_inorder` runs every point as its
own walk of the trace's region table, which is built once per fused
kernel table and shared across widths.  Correctness is held against
the reference core (``InOrderCore``) directly.  This file is the fast
guard: for one workload per suite kind (int2006/fp2006/int2000/
fp2000), for baseline and decomposed programs, under recorded and
live prediction, a width sweep of per-point walks over one fresh
trace must reproduce the core's full ``SimStats`` and architectural
state exactly, with every walk served by the kernel (no decline) and
every width walking one region id list; points on different kernel
tables (another BTB size, a live predictor) each walk their own.  The
artifact store's sweep over such points lives in
``tests/integration/test_artifacts.py``.  It holds the array-built
regions, interned into the tables every walk in a process shares,
equal to a per-instruction build from the decoded rows, and holds
every walk equal to the core whatever order the process walks its
points in and however often the capped tables clear.
And it holds the OOO kernel equal to ``OutOfOrderCore`` at widths 2
and 8 on the same traces (``test_replay_vectorized.py`` covers its
window edges and live prediction).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.branchpred import GSharePredictor
from repro.compiler import (
    compile_baseline,
    compile_decomposed,
    profile_program,
)
from repro.ir import lower
from repro.uarch import (
    InOrderCore,
    MachineConfig,
    OutOfOrderCore,
    Trace,
    capture_trace,
    replay_inorder,
    replay_multi,
    replay_ooo,
    replay_vec,
)
from repro.isa.decode import predecode
from repro.workloads import BENCHMARKS, spec_benchmark

_BUDGET = 60_000
_WIDTHS = (2, 4, 8)

#: One workload per suite kind (see BENCHMARKS[...].suite).
_PICKS = ("h264ref", "bwaves", "bzip200", "ammp00")


@pytest.fixture(scope="module")
def setup():
    assert {BENCHMARKS[n].suite for n in _PICKS} == {
        "int2006", "fp2006", "int2000", "fp2000",
    }
    machine = MachineConfig.paper_default(width=4)
    programs = {}
    traces = {}
    for name in _PICKS:
        spec = spec_benchmark(name, iterations=40)
        profile = profile_program(
            lower(spec.build(seed=0)), max_instructions=_BUDGET
        )
        ref = spec.build(seed=1)
        for kind, compiled in (
            ("baseline", compile_baseline(ref, profile=profile)),
            ("decomposed", compile_decomposed(ref, profile=profile)),
        ):
            program = compiled.program
            trace = capture_trace(
                program, machine.predictor_factory, _BUDGET
            )
            programs[(name, kind)] = program
            traces[(name, kind)] = Trace.from_bytes(trace.to_bytes())
    return programs, traces


def _assert_width_sweep_matches_core(
    program, trace, machines, declines, tables=1
):
    """Walk every machine over a fresh copy of ``trace``: each walk
    must match the core, none may decline, and the walks must build
    exactly ``tables`` region tables (one per kernel table)."""
    trace = Trace.from_bytes(trace.to_bytes())
    runs = [replay_inorder(program, trace, machine) for machine in machines]
    assert declines == [False] * len(machines)
    assert len(trace._prep.regions) == tables
    for run, machine in zip(runs, machines):
        ref = InOrderCore(machine).run(program, max_instructions=_BUDGET)
        assert dataclasses.asdict(run.stats) == dataclasses.asdict(ref.stats)
        assert run.registers == ref.registers
        assert run.memory.snapshot() == ref.memory.snapshot()


# The test names below predate the removal of lane fusion (one pass
# scoring every width, with a per-point fallback for points that could
# not share it); each point is now its own walk.


@pytest.mark.parametrize("name", _PICKS)
@pytest.mark.parametrize("kind", ["baseline", "decomposed"])
def test_fused_sweep_matches_per_point(setup, kernel_declines, name, kind):
    """Recorded prediction: widths 2/4/8 walk one region table."""
    programs, traces = setup
    _assert_width_sweep_matches_core(
        programs[(name, kind)],
        traces[(name, kind)],
        [MachineConfig.paper_default(width=w) for w in _WIDTHS],
        kernel_declines,
    )


def test_live_predictor_lanes_fuse(setup, kernel_declines):
    """A baseline trace swept under a foreign predictor runs every
    width live, on the live prep slice's one region table."""
    programs, traces = setup
    _assert_width_sweep_matches_core(
        programs[("h264ref", "baseline")],
        traces[("h264ref", "baseline")],
        [
            MachineConfig.paper_default(width=w).with_predictor(
                GSharePredictor
            )
            for w in _WIDTHS
        ],
        kernel_declines,
    )


def test_mismatched_slices_fall_back(setup, kernel_declines):
    """Points on different prep slices (here: different BTB sizes)
    share the trace but not the kernel table: each walks its own
    region table, equal to the core."""
    programs, traces = setup
    _assert_width_sweep_matches_core(
        programs[("h264ref", "baseline")],
        traces[("h264ref", "baseline")],
        [
            MachineConfig.paper_default(width=4),
            dataclasses.replace(
                MachineConfig.paper_default(width=8), btb_entries=1024
            ),
        ],
        kernel_declines,
        tables=2,
    )


def test_mixed_modes_fall_back(setup, kernel_declines):
    """One recorded point plus one live point (different prediction
    streams) walk two region tables over one trace, each equal to the
    core."""
    programs, traces = setup
    _assert_width_sweep_matches_core(
        programs[("h264ref", "baseline")],
        traces[("h264ref", "baseline")],
        [
            MachineConfig.paper_default(width=4),
            MachineConfig.paper_default(width=8).with_predictor(
                GSharePredictor
            ),
        ],
        kernel_declines,
        tables=2,
    )


# ------------------------------------------------------- the OOO kernel


@pytest.mark.parametrize("name", _PICKS)
@pytest.mark.parametrize("kind", ["baseline", "decomposed"])
@pytest.mark.parametrize("width", [2, 8])
def test_ooo_kernel_matches_core(setup, kernel_declines, name, kind, width):
    """The OOO kernel at widths 2 and 8 (64-entry window), on every
    suite kind -- the FP ones included -- equals ``OutOfOrderCore``."""
    programs, traces = setup
    program = programs[(name, kind)]
    machine = MachineConfig.paper_default(width=width)
    run = replay_ooo(program, traces[(name, kind)], machine, window=64)
    assert kernel_declines == [False]
    ref = OutOfOrderCore(machine, window=64).run(
        program, max_instructions=_BUDGET
    )
    assert dataclasses.asdict(run.stats) == dataclasses.asdict(ref.stats)
    assert run.registers == ref.registers


# ------------------------------------------------- region table reference


def _reference_regions(program, trace, mem, kernel):
    """The per-instruction region build the array build replaced: the
    seven per-instruction columns gathered from the decoded rows (not
    from the base layer's per-pc operand table), cut after every
    redirect, each region's 7 column tuples interned in stream
    order."""
    rows = predecode(program).rows
    act = kernel["act"].tolist()
    add = mem["fetch_add"].tolist()
    lat = kernel["lat"].tolist()
    stream = [rows[pc] for pc in trace.column("pcs").tolist()]
    fu = [row[8] for row in stream]
    dest = [0 if row[1] is None else row[1] for row in stream]
    s0 = [row[2][0] if row[2] else 64 for row in stream]
    rest = [tuple(row[2][1:]) for row in stream]
    n = len(act)
    cuts = [0]
    for i, a in enumerate(act):
        if a in replay_multi._REDIRECTS:
            cuts.append(i + 1)
    if cuts[-1] != n:
        cuts.append(n)

    intern = {}
    contents = []
    rids = []
    for s, e in zip(cuts[:-1], cuts[1:]):
        key = (
            tuple(act[s:e]),
            tuple(add[s:e]),
            tuple(lat[s:e]),
            tuple(fu[s:e]),
            tuple(dest[s:e]),
            tuple(s0[s:e]),
            tuple(rest[s:e]),
        )
        rid = intern.get(key)
        if rid is None:
            rid = len(contents)
            intern[key] = rid
            contents.append(key)
        rids.append(rid)
    return {"contents": contents, "rids": rids}


def _assert_region_table_matches_reference(program, trace, machine):
    """The shared tables already hold other streams' regions: each
    occurrence's contents equal the reference's, two occurrences share
    an id exactly when the reference's do, and a second build of the
    same stream interns nothing new."""
    prepared = replay_vec._prepare(program, trace, machine, "inorder")
    assert prepared is not None
    base, _, mem, kernel, _, _ = prepared
    rids = replay_multi._build_regions(base, mem, kernel)
    reference = _reference_regions(program, trace, mem, kernel)
    assert len(reference["rids"]) > 1
    contents = replay_multi._contents
    assert [contents[rid] for rid in rids] == [
        reference["contents"][rid] for rid in reference["rids"]
    ]
    pairs = set(zip(rids, reference["rids"]))
    assert len(pairs) == len(set(rids)) == len(set(reference["rids"]))
    interned = len(contents)
    assert replay_multi._build_regions(base, mem, kernel) == rids
    assert len(contents) == interned


@pytest.mark.parametrize("name", _PICKS)
@pytest.mark.parametrize("kind", ["baseline", "decomposed"])
def test_region_table_matches_reference(setup, name, kind):
    programs, traces = setup
    _assert_region_table_matches_reference(
        programs[(name, kind)],
        traces[(name, kind)],
        MachineConfig.paper_default(width=4),
    )


def test_live_region_table_matches_reference(setup):
    programs, traces = setup
    _assert_region_table_matches_reference(
        programs[("h264ref", "baseline")],
        traces[("h264ref", "baseline")],
        MachineConfig.paper_default(width=4).with_predictor(
            GSharePredictor
        ),
    )


# ------------------------------------------------ shared tables per process


@pytest.fixture(scope="module")
def sweep(setup):
    """Every pick, baseline and decomposed, at widths 2/4/8 under the
    default predictor and gshare: (program, trace bytes, machine,
    reference run) per point, each trace captured under its point's
    predictor."""
    programs, _ = setup
    points = []
    for (name, kind), program in programs.items():
        for predictor in (None, GSharePredictor):
            machines = [MachineConfig.paper_default(width=w) for w in _WIDTHS]
            if predictor is not None:
                machines = [m.with_predictor(predictor) for m in machines]
            blob = capture_trace(
                program, machines[0].predictor_factory, _BUDGET
            ).to_bytes()
            for machine in machines:
                ref = InOrderCore(machine).run(
                    program, max_instructions=_BUDGET
                )
                points.append((program, blob, machine, ref))
    return points


def _walk_points(points, traces):
    """Walk each point over its trace in ``traces`` (one object per
    blob, shared by its widths) and hold it to the reference run."""
    for program, blob, machine, ref in points:
        trace = traces.get(blob)
        if trace is None:
            trace = traces[blob] = Trace.from_bytes(blob)
        run = replay_inorder(program, trace, machine)
        assert dataclasses.asdict(run.stats) == dataclasses.asdict(ref.stats)
        assert run.registers == ref.registers
        assert run.memory.snapshot() == ref.memory.snapshot()


def test_shared_tables_match_core_in_any_order(sweep, kernel_declines):
    """Every walk in a process shares the memo, so a transition one
    program, width or predictor stepped is replayed by the others:
    walked in one order, again over fresh traces (stepping nothing),
    then from cleared tables in the reverse order, every point equals
    the reference core."""
    replay_multi._clear_tables()
    _walk_points(sweep, {})
    misses = replay_multi.walk_misses
    _walk_points(sweep, {})
    assert replay_multi.walk_misses == misses
    replay_multi._clear_tables()
    _walk_points(sweep[::-1], {})
    assert kernel_declines == [False] * 3 * len(sweep)


def test_capped_tables_clear_mid_sweep(sweep, monkeypatch, kernel_declines):
    """Past the cap the next walk clears every table first; results
    stay equal, and a region id list built before a clear is rebuilt
    on its trace's next walk."""
    monkeypatch.setattr(replay_multi, "_TABLE_CAP", 2_000)
    replay_multi._clear_tables()
    generation = replay_multi._generation
    traces = {}
    _walk_points(sweep, traces)
    assert replay_multi._generation >= generation + 2
    first = traces[sweep[0][1]]
    [(built, stale)] = first._prep.regions.values()
    assert built < replay_multi._generation
    _walk_points(sweep[:1], traces)
    [(rebuilt, rids)] = first._prep.regions.values()
    assert rebuilt == replay_multi._generation
    assert rids is not stale and len(rids) == len(stale)
    assert kernel_declines == [False] * (len(sweep) + 1)
