"""Trace capture/replay pipeline benchmarks.

Two layers:

* pytest-benchmark microbenchmarks of one simulation -- execute-driven
  vs trace replay of the same program on the same machine config, the
  trace recorded by the timing-free capture;
* an end-to-end snapshot (``results/BENCH_trace_replay.json``): two
  real machine-knob sweeps (DBB sizing and BTB sizing -- the sweeps
  whose points share one program and vary only timing structures) run
  cold with the artifact fast path off (``REPRO_TRACE_REPLAY=0`` --
  every sweep point recomputes its TRAIN profile, compilations, and
  execute-driven simulations, exactly like the pre-artifact-store
  pipeline) and then cold again with it on.  Both halves run
  back-to-back on the same machine; the JSON records walls, speedups,
  and the artifact counters proving the "after" half captured each
  program once and replayed it at every point.  (The predictor
  sensitivity ladder is deliberately *not* benchmarked here: its
  profiles and compilations are predictor-keyed, so each rung's work
  is legitimately distinct and the store can only share the functional
  branch trace across rungs.)
"""

import json
import pathlib
import shutil
import time

from repro.experiments import ExperimentEngine, RunConfig
from repro.experiments.ablations import btb_sizing_sweep, dbb_occupancy
from repro.uarch import (
    InOrderCore,
    MachineConfig,
    Trace,
    capture_trace,
    replay_inorder,
)
from repro.workloads import spec_benchmark
from repro.compiler import compile_baseline, profile_program
from repro.ir import lower

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

_MICRO_BUDGET = 400_000


def _micro_setup():
    spec = spec_benchmark("h264ref", iterations=120)
    profile = profile_program(
        lower(spec.build(seed=0)), max_instructions=_MICRO_BUDGET
    )
    program = compile_baseline(
        spec.build(seed=1), profile=profile
    ).program
    machine = MachineConfig.paper_default(width=4)
    return program, machine


def test_execute_driven_simulation(benchmark):
    program, machine = _micro_setup()
    result = benchmark(
        lambda: InOrderCore(machine).run(
            program, max_instructions=_MICRO_BUDGET
        )
    )
    assert result.stats.halted


def _captured_trace(program, machine):
    return Trace.from_bytes(
        capture_trace(
            program, machine.predictor_factory, _MICRO_BUDGET
        ).to_bytes()
    )


def _reference_run(program, machine):
    return InOrderCore(machine).run(program, max_instructions=_MICRO_BUDGET)


def test_trace_replay_simulation(benchmark):
    program, machine = _micro_setup()
    trace = _captured_trace(program, machine)
    replayed = benchmark(lambda: replay_inorder(program, trace, machine))
    assert replayed.stats == _reference_run(program, machine).stats


def test_replay_vectorized(benchmark):
    """The vectorized replay kernel (prep amortised across rounds,
    exactly as a sweep amortises it across its points)."""
    program, machine = _micro_setup()
    trace = _captured_trace(program, machine)
    replayed = benchmark(lambda: replay_inorder(program, trace, machine))
    assert replayed.stats == _reference_run(program, machine).stats


def _interleaved_best(fns, reps=7):
    """Min-of-``reps`` wall of each of ``fns``, sampled round-robin so
    that a slow stretch of the host hits every side alike."""
    best = [float("inf")] * len(fns)
    for _ in range(reps):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def test_replay_vectorized_snapshot():
    """Archive execute-driven vs vectorized replay walls in
    ``results/BENCH_replay_vectorized.json`` and hold the in-order
    kernel to the >= 3x target over the execute-driven reference
    core it must reproduce."""
    from repro.uarch import OutOfOrderCore, replay_ooo

    program, machine = _micro_setup()
    trace = _captured_trace(program, machine)
    result = _reference_run(program, machine)

    cold_trace = _captured_trace(program, machine)
    start = time.perf_counter()
    replayed = replay_inorder(program, cold_trace, machine)
    cold = time.perf_counter() - start
    assert replayed.stats == result.stats
    executed, warm = _interleaved_best(
        [
            lambda: _reference_run(program, machine),
            lambda: replay_inorder(program, trace, machine),
        ]
    )
    executed_ooo, warm_ooo = _interleaved_best(
        [
            lambda: OutOfOrderCore(machine, window=64).run(
                program, max_instructions=_MICRO_BUDGET
            ),
            lambda: replay_ooo(program, trace, machine, window=64),
        ]
    )

    snapshot = {
        "date": time.strftime("%Y-%m-%d"),
        "config": {
            "workload": "h264ref",
            "iterations": 120,
            "max_instructions": _MICRO_BUDGET,
            "width": 4,
            "trace_instructions": len(trace.pcs),
        },
        "lever": (
            "vectorized replay kernel vs the execute-driven reference "
            "core (InOrderCore.run / OutOfOrderCore.run)"
        ),
        "inorder": {
            "execute_driven_ms": round(executed * 1e3, 2),
            "vectorized_cold_ms": round(cold * 1e3, 2),
            "vectorized_warm_ms": round(warm * 1e3, 2),
            "speedup_cold": round(executed / cold, 2),
            "speedup_warm": round(executed / warm, 2),
        },
        "ooo": {
            "execute_driven_ms": round(executed_ooo * 1e3, 2),
            "vectorized_warm_ms": round(warm_ooo * 1e3, 2),
            "speedup_warm": round(executed_ooo / warm_ooo, 2),
        },
        "gate": 3.0,
        "note": (
            "warm = replay prep cached on the trace, the steady state "
            "of a sweep replaying one capture across many configs; "
            "cold pays one precompute pass; warm walls are min-of-7, "
            "core and replay samples alternating"
        ),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_replay_vectorized.json").write_text(
        json.dumps(snapshot, indent=2) + "\n"
    )
    assert snapshot["inorder"]["speedup_warm"] >= snapshot["gate"], (
        f"in-order replay speedup {snapshot['inorder']['speedup_warm']}x "
        f"< {snapshot['gate']}x target"
    )


def _timed_sweep(sweep, tmp_root: pathlib.Path, replay: bool, monkeypatch):
    """One cold run of ``sweep`` with the artifact path on or off."""
    cache_dir = tmp_root / ("replay" if replay else "execute")
    shutil.rmtree(cache_dir, ignore_errors=True)
    monkeypatch.setenv("REPRO_TRACE_REPLAY", "1" if replay else "0")
    engine = ExperimentEngine(
        jobs=1, cache_dir=cache_dir, use_cache=False
    )
    start = time.perf_counter()
    result = sweep(engine)
    wall = time.perf_counter() - start
    return wall, engine.artifact_totals(), result


def test_sweep_snapshot(tmp_path, monkeypatch):
    """Archive before/after sweep walls in BENCH_trace_replay.json and
    hold the pipeline to the >= 2x end-to-end target."""
    config = RunConfig(iterations=400, max_instructions=1_300_000)
    sweeps = {
        "ablation_dbb_sizing": lambda engine: dbb_occupancy(
            name="h264ref",
            sizes=(4, 8, 16, 32),
            config=config,
            engine=engine,
        ),
        "ablation_btb_sizing": lambda engine: btb_sizing_sweep(
            name="mcf", config=config, engine=engine
        ),
    }
    snapshot = {
        "date": time.strftime("%Y-%m-%d"),
        "config": {
            "iterations": config.iterations,
            "max_instructions": config.max_instructions,
            "jobs": 1,
        },
        "lever": "REPRO_TRACE_REPLAY (0 = pre-artifact-store pipeline)",
        "sweeps": {},
    }
    for name, sweep in sweeps.items():
        before_wall, before_art, before = _timed_sweep(
            sweep, tmp_path / name, replay=False, monkeypatch=monkeypatch
        )
        after_wall, after_art, after = _timed_sweep(
            sweep, tmp_path / name, replay=True, monkeypatch=monkeypatch
        )
        assert repr(before) == repr(after), (
            f"{name}: replay changed the sweep's results"
        )
        snapshot["sweeps"][name] = {
            "before_wall_s": round(before_wall, 2),
            "after_wall_s": round(after_wall, 2),
            "speedup": round(before_wall / after_wall, 2),
            "before_artifacts": before_art,
            "after_artifacts": after_art,
        }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_trace_replay.json").write_text(
        json.dumps(snapshot, indent=2) + "\n"
    )
    for name, record in snapshot["sweeps"].items():
        # Capture-once proven by counters: replays strictly outnumber
        # captures, and the execute-driven half never replayed.
        assert record["after_artifacts"].get("trace_replays", 0) > \
            record["after_artifacts"].get("trace_captures", 0), name
        assert record["before_artifacts"].get("trace_replays", 0) == 0
        assert record["speedup"] >= 2.0, (
            f"{name}: end-to-end speedup {record['speedup']}x < 2x"
        )
