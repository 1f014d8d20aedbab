"""Experiment runners: one per table/figure of the paper's evaluation.

* :mod:`.engine`        -- parallel execution engine + result cache and
  the supervised local process pool (fault isolation, timeouts);
  re-running a command serves its finished jobs from the cache and
  runs the rest, failed ones included.
* :mod:`.store`         -- durable blob store (digest-verified
  ``get``/``put``) under the result cache and the artifact layer.
* :mod:`.table2`        -- Table 2 (per-benchmark metrics, 4-wide).
* :mod:`.speedups`      -- Figures 8-13 (suite speedup charts, 2/4/8-wide).
* :mod:`.pred_vs_bias`  -- Figures 2-3 (predictability vs bias curves).
* :mod:`.sensitivity`   -- Section 5.3 (predictor ladder).
* :mod:`.side_effects`  -- Figure 14 and Section 6.1.
* :mod:`.taxonomy`      -- Figure 1 (quadrant census).
* :mod:`.motivation`    -- Section 1 (in-order vs out-of-order premise).
* :mod:`.quadrants`     -- Figure 1 prescriptions validated empirically.
* :mod:`.ablations`     -- design-choice sweeps.

Every runner takes an optional ``engine`` (an
:class:`~repro.experiments.engine.ExperimentEngine`); by default the
process-wide engine is used, which honours ``REPRO_JOBS`` and the
``results/.cache/`` result cache.
"""

from .engine import ExperimentEngine, default_engine, get_engine
from .harness import (
    BenchmarkOutcome,
    RunConfig,
    combine_seed_results,
    run_benchmark,
    run_seed,
    run_suite,
)

from .store import FileStore

__all__ = [
    "BenchmarkOutcome",
    "ExperimentEngine",
    "FileStore",
    "RunConfig",
    "combine_seed_results",
    "default_engine",
    "get_engine",
    "run_benchmark",
    "run_seed",
    "run_suite",
]
