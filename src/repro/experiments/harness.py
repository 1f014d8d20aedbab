"""Shared experiment harness.

Follows the paper's methodology: profile on a TRAIN input (seed 0), select
and transform with that profile, then evaluate on REF inputs (seeds >= 1),
reporting per-benchmark speedups averaged over all REF inputs and for the
best-performing input (Figures 8-13 report both).

The harness is decomposed into independent *seed jobs* so the parallel
engine (:mod:`.engine`) can fan them out over worker processes: one job
(:func:`run_seed`) profiles on TRAIN, compiles for one REF seed, and
simulates every width.  The (deterministic) TRAIN profile is shared
through the content-addressed artifact store (:mod:`.artifacts`) --
the engine schedules one seed job per benchmark as the group leader so
the rest load it instead of recomputing -- and the width loop rides
the trace capture/replay fast path.  :func:`combine_seed_results`
reassembles jobs into a :class:`BenchmarkOutcome` in REF-seed order,
which keeps the parallel path byte-identical to ``jobs=1``.

:func:`prepare_benchmark` is the one way any experiment turns a
workload into compiled programs (build REF, profile TRAIN -- building
TRAIN only when no stored profile serves it -- and compile baseline
and decomposed).  Builds and compiles are memoised
per process by content, not by experiment, so a worker that runs
several jobs of one benchmark -- the rungs of the predictor ladder,
the points of an ablation sweep -- builds it once and compiles its
baseline once.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis import (
    BenchmarkMetrics,
    geomean_speedup,
    speedup_percent,
)
from ..branchpred import HybridPredictor
# ``compile_baseline``, ``compile_decomposed`` and ``lower`` are called
# through this module's globals: ``bench/spans.py`` wraps them here by
# name to time the ``compiler.*`` and ``ir.lower`` layers.
from ..compiler import compile_baseline, compile_decomposed
from ..core import SelectionConfig, TransformConfig
from ..ir import lower
from ..uarch import MachineConfig
from ..uarch.trace import predictor_id
from ..workloads import (
    WorkloadSpec,
    release_chase_chains,
    spec_benchmark,
    suite_benchmarks,
)


@dataclass
class RunConfig:
    """How much simulation an experiment buys."""

    iterations: int = 600
    train_seed: int = 0
    ref_seeds: Tuple[int, ...] = (1, 2)
    widths: Tuple[int, ...] = (4,)
    max_instructions: int = 2_000_000
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    transform: TransformConfig = field(default_factory=TransformConfig)
    machine: Optional[MachineConfig] = None

    @classmethod
    def quick(cls) -> "RunConfig":
        """Small enough for CI/benchmark loops; same code paths.

        Everything scales together: 250/600 of the default iterations and
        the same fraction of the default 2M-instruction simulation budget,
        so a "quick" run can never simulate a full-length program.
        """
        return cls(
            iterations=250, ref_seeds=(1,), max_instructions=833_000
        )

    def machine_for(self, width: int) -> MachineConfig:
        if self.machine is not None:
            return self.machine
        return MachineConfig.paper_default(width=width)

    def table_width(self) -> int:
        """The width Table 2 metrics are measured at: 4-wide when the run
        covers it (the configuration the published table reports),
        otherwise the widest configuration simulated."""
        return 4 if 4 in self.widths else max(self.widths)


@dataclass
class BenchmarkOutcome:
    """Everything measured for one benchmark under one RunConfig.

    ``status`` is ``"ok"`` for a fully-measured benchmark; a benchmark
    with any failed/timed-out/skipped seed job (see the engine's
    supervision layer) comes back with that status, ``metrics=None``,
    and a one-line ``error`` summary so renderers can mark the row
    instead of crashing.
    """

    name: str
    #: speedups[width][seed] -> % speedup of decomposed over baseline.
    speedups: Dict[int, Dict[int, float]]
    metrics: Optional[BenchmarkMetrics]
    converted: int
    forward_branches: int
    status: str = "ok"
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @classmethod
    def failure(
        cls,
        name: str,
        config: "RunConfig",
        status: str = "failed",
        error: Optional[str] = None,
    ) -> "BenchmarkOutcome":
        return cls(
            name=name,
            speedups={w: {} for w in config.widths},
            metrics=None,
            converted=0,
            forward_branches=0,
            status=status,
            error=error,
        )

    def mean_speedup(self, width: int) -> float:
        per_seed = self.speedups[width]
        if not per_seed:
            return float("nan")
        return geomean_speedup(list(per_seed.values()))

    def best_input_speedup(self, width: int) -> float:
        per_seed = self.speedups[width]
        if not per_seed:
            return float("nan")
        return max(per_seed.values())


def train_profile(
    spec: WorkloadSpec, config: RunConfig, store, predictor=HybridPredictor
):
    """The TRAIN profile of ``spec`` under ``predictor``, through the
    store's shared artifact, keyed by the TRAIN build's key.  The
    TRAIN function is built (from the store's build memo) and lowered
    (through this module's ``lower``, which ``bench/spans.py`` times)
    only when the store needs a functional run: a profile or
    branch-trace hit builds, lowers and hashes nothing."""
    from .engine import fingerprint

    return store.profile(
        json.dumps([fingerprint(spec), config.train_seed]),
        lambda: lower(store.build(spec, config.train_seed)),
        max_instructions=config.max_instructions,
        predictor_factory=predictor,
    )


def prepare_benchmark(
    benchmark: Union[str, WorkloadSpec],
    seed: int,
    config: RunConfig,
    store=None,
    predictor=HybridPredictor,
    selection: Optional[SelectionConfig] = None,
    transform: Optional[TransformConfig] = None,
):
    """Build, profile and compile one workload for one REF input.

    ``benchmark`` is a SPEC benchmark name (built at
    ``config.iterations``) or a ready :class:`WorkloadSpec`.  The REF
    function comes from the store's build memo, the TRAIN profile
    under ``predictor`` from :func:`train_profile`, and
    both compiles from its compile memo, keyed by content: the
    baseline by the workload, the TRAIN/REF seeds and the budget alone
    (its layout reads only the profile's execution and taken counts,
    which no predictor changes), the decomposed program also by
    ``predictor`` and the ``selection``/``transform`` knobs (default:
    ``config``'s).  Returns ``(baseline, decomposed)``
    :class:`~repro.compiler.CompilationResult`s; the baseline carries
    this call's profile.
    """
    from .artifacts import get_store
    from .engine import fingerprint

    store = get_store(store)
    spec = (
        benchmark
        if isinstance(benchmark, WorkloadSpec)
        else spec_benchmark(benchmark, iterations=config.iterations)
    )
    selection = config.selection if selection is None else selection
    transform = config.transform if transform is None else transform
    profile = train_profile(spec, config, store, predictor)
    ref = store.build(spec, seed)
    if seed == config.ref_seeds[-1]:
        # Every REF build reads the chase-chain pair, and the engine
        # runs a benchmark's seeds in ``config.ref_seeds`` order, so
        # the pair stays for the next seed's build and goes after the
        # last seed's.
        release_chase_chains()
    content = json.dumps(
        [fingerprint(spec), config.train_seed, seed, config.max_instructions]
    )
    baseline = store.compile(
        f"baseline|{content}",
        lambda: compile_baseline(ref, profile=profile),
    )
    pid = predictor_id(predictor)
    decomposed = store.compile(
        None if pid is None else "decomposed|" + json.dumps(
            [content, pid, fingerprint((selection, transform))]
        ),
        lambda: compile_decomposed(
            ref,
            profile=profile,
            selection_config=selection,
            transform_config=transform,
        ),
    )
    return dataclasses.replace(baseline, profile=profile), decomposed


def run_seed(name: str, seed: int, config: RunConfig) -> Dict:
    """One independent job: TRAIN profile, compile for one REF seed,
    simulate every width.

    Returns a JSON-serialisable dict (so the engine can cache it and ship
    it across process boundaries); see :func:`combine_seed_results` for
    reassembly.  Metrics are measured on the table-width runs
    (:meth:`RunConfig.table_width`) so every Table 2 column comes from
    the same 4-wide simulations as the SPD column.

    The TRAIN profile comes from the shared artifact store and the
    width axis runs through the sweep front door
    (:meth:`ArtifactStore.simulate_inorder_sweep`): the first sight of
    a program captures its committed stream timing-free, and every
    width replays it as its own walk of one shared region id list
    (bit-identical to per-width execute-driven runs).  The engine
    records the job's artifact counter movement in its manifest.
    """
    from .artifacts import get_store

    store = get_store()
    baseline, decomposed = prepare_benchmark(name, seed, config, store)

    metrics_width = config.table_width()
    speedups: Dict[int, float] = {}
    metrics: Optional[BenchmarkMetrics] = None
    simulated_cycles = 0
    committed_instructions = 0
    machines = [config.machine_for(width) for width in config.widths]
    base_runs = store.simulate_inorder_sweep(
        baseline.program,
        machines,
        max_instructions=config.max_instructions,
    )
    dec_runs = store.simulate_inorder_sweep(
        decomposed.program,
        machines,
        max_instructions=config.max_instructions,
    )
    for width, base_run, dec_run in zip(
        config.widths, base_runs, dec_runs
    ):
        simulated_cycles += base_run.cycles + dec_run.cycles
        committed_instructions += (
            base_run.stats.committed + dec_run.stats.committed
        )
        speedups[width] = speedup_percent(base_run, dec_run)
        if width == metrics_width:
            metrics = BenchmarkMetrics.from_runs(
                name, baseline, decomposed, base_run, dec_run
            )
    assert metrics is not None
    return {
        "name": name,
        "seed": seed,
        "speedups": {str(w): v for w, v in speedups.items()},
        "metrics": dataclasses.asdict(metrics),
        "converted": decomposed.transform.converted,
        "forward_branches": decomposed.selection.forward_branches,
        "simulated_cycles": simulated_cycles,
        "committed_instructions": committed_instructions,
    }


def combine_seed_results(
    name: str, config: RunConfig, seed_results: Sequence[Dict]
) -> BenchmarkOutcome:
    """Reassemble per-seed job dicts (in ``config.ref_seeds`` order).

    Table 2 metric columns are averaged over every REF input (they were
    previously taken from the first seed only); the SPD column is the
    geomean over all REF inputs at the table width, as published.
    """
    assert len(seed_results) == len(config.ref_seeds)
    speedups: Dict[int, Dict[int, float]] = {w: {} for w in config.widths}
    for result in seed_results:
        for width_str, value in result["speedups"].items():
            speedups[int(width_str)][result["seed"]] = value

    metric_fields = [
        f.name
        for f in dataclasses.fields(BenchmarkMetrics)
        if f.name != "name"
    ]
    metrics = BenchmarkMetrics(
        name=name,
        **{
            fname: sum(r["metrics"][fname] for r in seed_results)
            / len(seed_results)
            for fname in metric_fields
        },
    )
    # Table 2's SPD column is the geomean over all REF inputs at 4-wide.
    metrics.spd = geomean_speedup(
        list(speedups[config.table_width()].values())
    )
    # Compilation is REF-seed-dependent only through the input data, not
    # the profile or the selection -- every seed must compile the same
    # static program shape.  A divergence here means the pipeline is no
    # longer deterministic; fail loudly rather than silently reporting
    # the last seed's numbers.
    first = seed_results[0]
    for result in seed_results[1:]:
        if (
            result["converted"] != first["converted"]
            or result["forward_branches"] != first["forward_branches"]
        ):
            raise AssertionError(
                f"{name}: compilation diverged across REF seeds: "
                f"seed {first['seed']} compiled "
                f"converted={first['converted']}/"
                f"forward={first['forward_branches']}, seed "
                f"{result['seed']} compiled "
                f"converted={result['converted']}/"
                f"forward={result['forward_branches']}"
            )
    return BenchmarkOutcome(
        name=name,
        speedups=speedups,
        metrics=metrics,
        converted=first["converted"],
        forward_branches=first["forward_branches"],
    )


def run_benchmark(
    name: str, config: RunConfig, engine=None
) -> BenchmarkOutcome:
    """Profile on TRAIN, compile once per REF input, simulate all widths.

    Routes through the experiment engine (cache + ``REPRO_JOBS`` workers);
    pass ``engine=ExperimentEngine(jobs=1, use_cache=False)`` for a pure
    in-process serial run.
    """
    from .engine import get_engine

    return get_engine(engine).run_benchmark(name, config)


def run_suite(
    suite: str, config: RunConfig, engine=None
) -> List[BenchmarkOutcome]:
    from .engine import get_engine

    return get_engine(engine).run_benchmarks(
        suite_benchmarks(suite), config
    )
