"""Sweep-fused replay benchmark: one K-lane walk vs K one-lane walks.

The scenario the fused engine exists for: the Fig. 8 width sweep,
where every width of one program replays the *same* captured trace
and only the lane constants (width, ports, front-end, bubbles)
differ.  The region walk (:mod:`repro.uarch.replay_multi`) is the one
in-order replay kernel, so both sides walk the same cached region
table: per-point replay runs a one-lane walk per width, and the fused
pass carries all lane states through a single walk and emits every
width's ``SimStats`` at once.  The ratio is what lane fusion alone
saves (one pass over the region stream, one canonical-state table),
not a difference between kernels.

Snapshot (``results/BENCH_sweep_fused.json``): warm per-point (six
K = 1 ``simulate_inorder`` calls, one one-lane walk each) vs warm
fused (two passes, one per binary) over the Fig. 8 axis, gated at
>= 2x, with
store counters proving exactly one fused pass per program covers all
three widths and the per-lane results bit-identical either way.

Correctness (all workload kinds, live predictors, fallback rules,
golden lanes) is pinned by ``tests/uarch/test_replay_multi.py`` and
the golden round-trips in ``tests/uarch/test_trace_replay.py``.
"""

import dataclasses
import json
import pathlib
import time

from repro.compiler import (
    compile_baseline,
    compile_decomposed,
    profile_program,
)
from repro.experiments import plane
from repro.experiments.artifacts import ArtifactStore
from repro.ir import lower
from repro.uarch import MachineConfig
from repro.workloads import spec_benchmark

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

_BUDGET = 2_000_000
_ITERATIONS = 600
_WIDTHS = (2, 4, 8)


def _programs():
    spec = spec_benchmark("h264ref", iterations=_ITERATIONS)
    profile = profile_program(
        lower(spec.build(seed=0)), max_instructions=_BUDGET
    )
    ref = spec.build(seed=1)
    return (
        compile_baseline(ref, profile=profile).program,
        compile_decomposed(ref, profile=profile).program,
    )


def _best_of(fn, reps=3):
    best, out = float("inf"), None
    for _ in range(reps):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def test_sweep_fused_snapshot(tmp_path, monkeypatch):
    """Archive warm per-point vs fused Fig. 8 width-sweep walls in
    ``results/BENCH_sweep_fused.json`` and hold fused to >= 2x."""
    monkeypatch.setenv("REPRO_SHM", "0")
    monkeypatch.delenv(plane.PREFIX_ENV, raising=False)

    programs = _programs()
    machines = [MachineConfig.paper_default(width=w) for w in _WIDTHS]
    store = ArtifactStore(cache_dir=tmp_path)
    # Seed: capture both traces once so every timed point replays.
    for program in programs:
        store.simulate_inorder(
            program, machines[1], max_instructions=_BUDGET
        )
    assert store.counters["trace_captures"] == 2

    def sweep():
        mark = store.mark()
        runs = [
            store.simulate_inorder_sweep(
                program, machines, max_instructions=_BUDGET
            )
            for program in programs
        ]
        return runs, store.delta(mark)

    def per_point():
        mark = store.mark()
        runs = [
            [
                store.simulate_inorder(
                    program, machine, max_instructions=_BUDGET
                )
                for machine in machines
            ]
            for program in programs
        ]
        return runs, store.delta(mark)

    # Warm-up builds prep layers + region tables untimed; _best_of's
    # min then reports steady-state walls for both modes.
    fused_wall, (fused_runs, fused_delta) = _best_of(sweep)
    assert fused_delta.get("fused_passes") == len(programs)
    assert fused_delta.get("fused_points") == len(programs) * len(_WIDTHS)
    assert "fused_fallbacks" not in fused_delta
    assert "fused_diverges" not in fused_delta

    pp_wall, (pp_runs, pp_delta) = _best_of(per_point)
    assert not any(name.startswith("fused_") for name in pp_delta)
    assert pp_delta.get("trace_replays") == len(programs) * len(_WIDTHS)

    for fused_axis, pp_axis in zip(fused_runs, pp_runs):
        for fast, slow in zip(fused_axis, pp_axis):
            assert dataclasses.asdict(fast.stats) == dataclasses.asdict(
                slow.stats
            ), "fused sweep changed replay results"
            assert fast.registers == slow.registers
            assert fast.memory.snapshot() == slow.memory.snapshot()

    snapshot = {
        "config": {
            "workload": "h264ref",
            "iterations": _ITERATIONS,
            "max_instructions": _BUDGET,
            "widths": list(_WIDTHS),
            "binaries": ["baseline", "decomposed"],
        },
        "lever": (
            "lane fusion (fused: one region-memoized trace walk "
            "carrying every width's lane state; per-point: one K = 1 "
            "simulate_inorder call, a one-lane walk of the same "
            "region table, per width)"
        ),
        "sweep": {
            "points": len(programs) * len(_WIDTHS),
            "per_point_wall_s": round(pp_wall, 3),
            "fused_wall_s": round(fused_wall, 3),
            "speedup": round(pp_wall / fused_wall, 2),
        },
        "counters": {
            "fused_pass": fused_delta,
            "per_point_pass": pp_delta,
        },
        "gate": 2.0,
        "note": (
            "warm walls (traces captured, preps and region tables "
            "built); both sides walk the same region table, so the "
            "ratio measures lane fusion alone; fused_pass counters "
            "prove one fused pass per binary covers all three widths "
            "with per-lane results bit-identical to per-point replay"
        ),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sweep_fused.json").write_text(
        json.dumps(snapshot, indent=2) + "\n"
    )
    assert snapshot["sweep"]["speedup"] >= snapshot["gate"], (
        f"fused width sweep speedup {snapshot['sweep']['speedup']}x "
        f"< {snapshot['gate']}x target"
    )
