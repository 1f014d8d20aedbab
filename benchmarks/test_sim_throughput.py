"""Simulator micro-benchmarks: wall-clock cost of the core loops.

These are conventional pytest-benchmark timings (multiple rounds) for the
components everything else is built on, plus a snapshot writer that
records simulated-KIPS into ``results/BENCH_sim_throughput.json``
alongside the numbers measured before the fast-path work (pre-decode,
table dispatch, stamped rings, incremental TAGE folding) so the speedup
stays visible in-repo.
"""

import json
import pathlib
import random
import time

from repro.branchpred import TagePredictor
from repro.compiler import compile_baseline, compile_decomposed
from repro.isa.decode import predecode
from repro.uarch import InOrderCore, MachineConfig, execute
from repro.uarch.ooo import OutOfOrderCore
from repro.workloads import omnetpp_carray_add, spec_benchmark

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: Measured at commit 632232c (pre-optimisation), same workloads and
#: methodology as :func:`test_throughput_snapshot` below.
BEFORE = {
    "commit": "632232c",
    "inorder_kips": 178.8,
    "functional_kips": 569.9,
    "ooo_kips": 176.0,
    "tage_events_per_s": 79386.0,
}


def test_functional_executor_throughput(benchmark):
    program = compile_baseline(omnetpp_carray_add(iterations=512)).program
    result = benchmark(lambda: execute(program))
    assert result.halted


def test_timing_simulator_throughput(benchmark):
    program = compile_baseline(omnetpp_carray_add(iterations=512)).program
    core = MachineConfig.paper_default()
    result = benchmark(lambda: InOrderCore(core).run(program))
    assert result.stats.halted


def test_ooo_simulator_throughput(benchmark):
    program = compile_baseline(omnetpp_carray_add(iterations=512)).program
    core = MachineConfig.paper_default()
    result = benchmark(lambda: OutOfOrderCore(core).run(program))
    assert result.stats.halted


def test_compile_decomposed_throughput(benchmark):
    func = omnetpp_carray_add(iterations=256)
    baseline = compile_baseline(func)
    result = benchmark(
        lambda: compile_decomposed(func, profile=baseline.profile)
    )
    assert result.transform.converted == 1


def test_workload_build_throughput(benchmark):
    spec = spec_benchmark("gcc", iterations=300)
    func = benchmark(lambda: spec.build(seed=1))
    assert func.static_instruction_count() > 100


def _tage_events(n=20000, sites=256, bias=0.7, seed=0):
    rng = random.Random(seed)
    return [(rng.randrange(sites), rng.random() < bias) for _ in range(n)]


def test_tage_lookup_update_throughput(benchmark):
    """Rate of speculative lookup + deferred-style update pairs; the
    incremental folds make this O(tables) per event instead of
    O(tables x history/bits)."""
    events = _tage_events()

    def run():
        predictor = TagePredictor()
        for branch_id, outcome in events:
            predictor.update(predictor.lookup(branch_id), outcome)
        return predictor

    predictor = benchmark(run)
    assert predictor._history != 0


def test_predecode_cache_hit(benchmark):
    """Re-simulating a program must not re-decode it: a predecode on an
    already-decoded program is a cache hit (attribute check only)."""
    program = compile_baseline(omnetpp_carray_add(iterations=512)).program
    first = predecode(program)

    def run():
        for _ in range(1000):
            decoded = predecode(program)
        return decoded

    assert benchmark(run) is first


def test_predecode_cold(benchmark):
    """One-time cost of the decode pass itself (paid once per program)."""
    program = compile_baseline(omnetpp_carray_add(iterations=512)).program

    def run():
        program._decoded = None
        return predecode(program)

    decoded = benchmark(run)
    assert decoded.length == len(program.instructions)


def test_throughput_snapshot():
    """Measure simulated-KIPS with the exact pre-optimisation methodology
    and archive before/after numbers in results/."""
    program = compile_baseline(omnetpp_carray_add(iterations=512)).program

    def rate(fn, n=5):
        fn()  # warm (includes the one-time pre-decode)
        start = time.perf_counter()
        for _ in range(n):
            result = fn()
        return (time.perf_counter() - start) / n, result

    machine = MachineConfig.paper_default()
    wall, run = rate(lambda: InOrderCore(machine).run(program))
    inorder_kips = run.stats.committed / wall / 1000.0
    wall, run = rate(lambda: execute(program))
    functional_kips = run.instructions_executed / wall / 1000.0
    wall, run = rate(lambda: OutOfOrderCore(machine).run(program))
    ooo_kips = run.stats.committed / wall / 1000.0

    events = _tage_events()
    predictor = TagePredictor()
    start = time.perf_counter()
    for branch_id, outcome in events:
        predictor.update(predictor.lookup(branch_id), outcome)
    tage_rate = len(events) / (time.perf_counter() - start)

    after = {
        "inorder_kips": round(inorder_kips, 1),
        "functional_kips": round(functional_kips, 1),
        "ooo_kips": round(ooo_kips, 1),
        "tage_events_per_s": round(tage_rate, 1),
    }
    snapshot = {
        "date": time.strftime("%Y-%m-%d"),
        "workload": "compile_baseline(omnetpp_carray_add(iterations=512))",
        "machine": "MachineConfig.paper_default()",
        "before": BEFORE,
        "after": after,
        "speedup": {
            key: round(after[key] / BEFORE[key], 2)
            for key in after
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sim_throughput.json").write_text(
        json.dumps(snapshot, indent=2) + "\n"
    )
    # The tentpole's floor: >= 3x on the in-order timing simulator.
    assert after["inorder_kips"] >= 3.0 * BEFORE["inorder_kips"]
