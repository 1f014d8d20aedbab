"""Shared configuration for the table/figure regeneration benchmarks.

Every benchmark regenerates one of the paper's tables or figures, prints
it (uncaptured) and archives it under ``results/``, together with a
machine-readable ``<name>.manifest.json`` run record (config, per-job
timings, cache hit/miss counts).  Scale is controlled by
``REPRO_BENCH_ITERATIONS`` / ``REPRO_BENCH_SEEDS`` so the default run
finishes in minutes while a full run reproduces the EXPERIMENTS.md
numbers; ``REPRO_JOBS`` fans the simulation jobs over worker processes
and ``results/.cache/`` memoises them across runs.
"""

import pathlib

import pytest

from repro.experiments import RunConfig, default_engine
from repro.experiments.settings import setting

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: Bench scale; REPRO_BENCH_ITERATIONS=600 reproduces the
#: EXPERIMENTS.md tables.
BENCH_ITERATIONS = setting("REPRO_BENCH_ITERATIONS")
BENCH_SEEDS = tuple(range(1, 1 + setting("REPRO_BENCH_SEEDS")))


def bench_config(**overrides) -> RunConfig:
    defaults = dict(iterations=BENCH_ITERATIONS, ref_seeds=BENCH_SEEDS)
    defaults.update(overrides)
    return RunConfig(**defaults)


@pytest.fixture
def emit(capsys):
    """Print a regenerated table/figure past pytest's capture and archive
    it in results/, with the engine's run manifest alongside."""

    def _emit(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        engine = default_engine()
        if engine.records:
            engine.write_manifest(RESULTS_DIR / f"{name}.manifest.json")
            engine.reset_stats()
        with capsys.disabled():
            print(f"\n===== {name} =====")
            print(text)

    return _emit
