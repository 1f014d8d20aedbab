"""Sweep-fused vs per-point replay equivalence, tier-1 scale.

The fused multi-config pass (:mod:`repro.uarch.replay_multi`) claims
bit-exactness lane by lane against the per-point vectorized kernel --
which the golden suite in turn holds to the execute-driven reference
core.  This file is the fast guard: for one workload per suite kind
(int2006/fp2006/int2000/fp2000), for baseline and decomposed
programs, under recorded and live prediction, one fused width-sweep
pass must reproduce the per-point replays' full ``SimStats`` and
architectural state exactly.  It also pins the dispatch contract:
single points stay per-point, mismatched prep slices and mixed
prediction modes fall back automatically, and the fused path really
is the one running otherwise (the ``regions`` prep layer only
materialises when a fused pass accepts the sweep).  And it holds the
array-built region table equal to the per-instruction build it
replaced.
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
    MachineConfig,
    Trace,
    capture_trace,
    replay_inorder,
    replay_inorder_sweep,
    replay_multi,
    replay_vec,
)
from repro.uarch.replay import _check_and_mode
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


def _sweep_machines(widths=_WIDTHS):
    return [MachineConfig.paper_default(width=w) for w in widths]


def _assert_equal_runs(fused, per_point):
    assert len(fused) == len(per_point)
    for fast, slow in zip(fused, per_point):
        assert dataclasses.asdict(fast.stats) == dataclasses.asdict(
            slow.stats
        )
        assert fast.registers == slow.registers
        assert fast.memory.snapshot() == slow.memory.snapshot()


@pytest.mark.parametrize("name", _PICKS)
@pytest.mark.parametrize("kind", ["baseline", "decomposed"])
def test_fused_sweep_matches_per_point(setup, name, kind):
    programs, traces = setup
    program, trace = programs[(name, kind)], traces[(name, kind)]
    machines = _sweep_machines()
    fused, outcome = replay_inorder_sweep(program, trace, machines)
    assert outcome == "fused"
    per_point = [
        replay_inorder(program, trace, machine) for machine in machines
    ]
    _assert_equal_runs(fused, per_point)
    # The regions layer only materialises when a fused pass ran.
    assert trace._prep is not None and len(trace._prep.regions) >= 1


def test_live_predictor_lanes_fuse(setup):
    """A baseline trace swept under a foreign predictor runs every
    lane live; the fused pass shares the live prep slice and must
    still match per-point replay exactly."""
    programs, traces = setup
    program = programs[("h264ref", "baseline")]
    trace = traces[("h264ref", "baseline")]
    machines = [
        machine.with_predictor(GSharePredictor)
        for machine in _sweep_machines()
    ]
    fused, outcome = replay_inorder_sweep(program, trace, machines)
    assert outcome == "fused"
    _assert_equal_runs(
        fused,
        [replay_inorder(program, trace, machine) for machine in machines],
    )


def test_single_point_stays_per_point(setup):
    programs, traces = setup
    program = programs[("h264ref", "baseline")]
    trace = traces[("h264ref", "baseline")]
    runs, outcome = replay_inorder_sweep(
        program, trace, [MachineConfig.paper_default(width=4)]
    )
    assert outcome == "per_point"
    assert len(runs) == 1


def test_mismatched_slices_fall_back(setup):
    """Lanes on different prep slices (here: different BTB sizes)
    cannot share one fused kernel; the sweep declines and replays
    per-point, bit-identically."""
    programs, traces = setup
    program = programs[("h264ref", "baseline")]
    trace = traces[("h264ref", "baseline")]
    machines = [
        MachineConfig.paper_default(width=4),
        dataclasses.replace(
            MachineConfig.paper_default(width=8), btb_entries=1024
        ),
    ]
    runs, outcome = replay_inorder_sweep(program, trace, machines)
    assert outcome == "fallback"
    _assert_equal_runs(
        runs,
        [replay_inorder(program, trace, machine) for machine in machines],
    )


def test_mixed_modes_fall_back(setup):
    """One recorded lane plus one live lane cannot fuse (different
    prediction streams); the sweep falls back per-point."""
    programs, traces = setup
    program = programs[("h264ref", "baseline")]
    trace = traces[("h264ref", "baseline")]
    machines = [
        MachineConfig.paper_default(width=4),
        MachineConfig.paper_default(width=8).with_predictor(
            GSharePredictor
        ),
    ]
    runs, outcome = replay_inorder_sweep(program, trace, machines)
    assert outcome == "fallback"
    _assert_equal_runs(
        runs,
        [replay_inorder(program, trace, machine) for machine in machines],
    )


# ------------------------------------------------- region table reference


def _reference_regions(base, mem, kernel):
    """The per-instruction region build the array build replaced,
    over the per-point kernels' list columns: cut after every
    redirect, intern each region's 7 column tuples, and carry the
    entry reg-from-load mask instruction by instruction."""
    act, add, lat, fu, dest, s0, rest = replay_vec._point_columns(
        base, mem, kernel
    )
    n = len(act)
    cuts = [0]
    for i, a in enumerate(act):
        if a in replay_multi._REDIRECTS:
            cuts.append(i + 1)
    if cuts[-1] != n:
        cuts.append(n)

    intern = {}
    contents = []
    site_intern = {}
    site_rids = []
    site_masks = []
    sites = []
    mask = 0
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
        site_key = (rid, mask)
        sid = site_intern.get(site_key)
        if sid is None:
            sid = len(site_rids)
            site_intern[site_key] = sid
            site_rids.append(rid)
            site_masks.append(mask)
        sites.append(sid)
        for i in range(s, e):
            a = act[i]
            if a == replay_vec.F_ALU or a == replay_vec.F_CALL:
                mask &= ~(1 << dest[i])
            elif a == replay_vec.F_LD_HIT or a == replay_vec.F_LD_MISS:
                mask |= 1 << dest[i]
    return {
        "contents": contents,
        "sites": sites,
        "site_rids": site_rids,
        "site_masks": site_masks,
    }


def _assert_region_table_matches_reference(program, trace, machine):
    recorded = _check_and_mode(program, trace, machine)
    prepared = replay_vec._prepare(
        program, trace, machine, recorded, "inorder"
    )
    assert prepared is not None
    base, _, mem, kernel, _, _ = prepared
    table = replay_multi._build_regions(base, mem, kernel)
    reference = _reference_regions(base, mem, kernel)
    assert len(reference["sites"]) > 1
    assert table == reference


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
