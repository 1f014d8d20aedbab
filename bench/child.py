"""One bench process: the set-up or one timed pass of a workload.

``bench/run.py`` starts this file in a fresh interpreter for every pass,
so in-process memos (trace LRU, compile memo, ``default_store``) never
carry over from one pass to the next::

    python3 bench/child.py SPEC.json OUT.json

``SPEC.json`` names the workload kind, the role (``setup`` runs the
store-filling passes, any other role one timed pass), the REF seed, the
scale, the worker count and whether to trace.  ``OUT.json`` receives
one record: ``ready_at`` (monotonic clock when the timed work starts,
or when set-up ends), one entry per pass (wall time, job counts,
simulated totals, artifact counters, digests of the rendered outputs,
the paper gap), the process's peak RSS, the ``REPRO_*`` variables it
saw at start, and the recorded spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import resource
import sys
import time
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Paper figures rendered from the figs workloads' four suite runs.
FIGS_SUITES = ("int2006", "int2000", "fp2006", "fp2000")

#: Store-filling passes a warm workload runs before its first timed
#: pass.  On an empty store the capturing run itself scores a K=1 point
#: and builds no prep slice for it, so the ladder and motivation
#: sweeps need a second pass before a pass is fully warm.
SETUP_PASSES = {"figs": 1, "ladder": 2, "ooo": 2}


class _Outcomes:
    """Engine stand-in that serves already-computed suite outcomes, so
    the figure and table renderers reuse the pass's four suite runs
    instead of running any job twice."""

    def __init__(self, by_suite: Dict[str, list]) -> None:
        self.by_suite = by_suite

    def run_suite(self, suite: str, config) -> list:
        return list(self.by_suite[suite])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _mean_gap(pairs) -> float:
    """Mean |measured - published| speedup, in percentage points."""
    gaps = [abs(measured - published) for measured, published in pairs]
    return sum(gaps) / len(gaps) if gaps else float("nan")


def figs_pass(engine, seed: int, scale: Dict) -> Dict:
    """Figs. 8-13 and Table 2 from one run per suite."""
    from repro.experiments import speedups, table2
    from repro.experiments.harness import RunConfig
    from repro.workloads import BENCHMARKS

    config = RunConfig(
        iterations=scale["iterations"], ref_seeds=(seed,), widths=(2, 4, 8)
    )
    by_suite = {
        suite: engine.run_benchmarks(scale["figs"].get(suite, []), config)
        for suite in FIGS_SUITES
    }
    served = _Outcomes(by_suite)
    texts = {
        figure: speedups.run_figure(figure, config, engine=served).render()
        for figure in speedups.FIGURES
    }
    texts["table2"] = table2.render(table2.run(config, engine=served))
    measured = [o for outcomes in by_suite.values() for o in outcomes if o.ok]
    gap = _mean_gap(
        (o.metrics.spd, BENCHMARKS[o.name].paper.spd) for o in measured
    )
    return {"texts": texts, "paper_gap_pp": gap}


def ladder_pass(engine, seed: int, scale: Dict) -> Dict:
    """The Section 5.3 predictor ladder, bimodal to ISL-TAGE."""
    from repro.experiments import sensitivity
    from repro.experiments.harness import RunConfig
    from repro.workloads import BENCHMARKS

    config = RunConfig(iterations=scale["iterations"], ref_seeds=(seed,))
    result = sensitivity.run(tuple(scale["ladder"]), config, engine=engine)
    gap = _mean_gap(
        (p.speedup, BENCHMARKS[p.benchmark].paper.spd)
        for p in result.points
        if p.predictor == "hybrid-24KB"
    )
    return {"texts": {"ladder": result.render()}, "paper_gap_pp": gap}


def ooo_pass(engine, seed: int, scale: Dict) -> Dict:
    """The Section 1 motivation: in-order vs a 64-entry-window OOO."""
    from repro.experiments import motivation
    from repro.experiments.harness import RunConfig
    from repro.workloads import BENCHMARKS

    config = RunConfig(iterations=scale["iterations"], ref_seeds=(seed,))
    result = motivation.run(tuple(scale["ooo"]), config, window=64,
                            engine=engine)
    gap = _mean_gap(
        (row.inorder_speedup, BENCHMARKS[row.benchmark].paper.spd)
        for row in result.rows
    )
    return {"texts": {"motivation": result.render()}, "paper_gap_pp": gap}


PASSES = {"figs": figs_pass, "ladder": ladder_pass, "ooo": ooo_pass}


def run_pass(kind: str, seed: int, scale: Dict, jobs: int, cache_dir: str,
             tracer=None) -> Dict:
    """One pass on a fresh engine; returns its record."""
    from repro.experiments.engine import ExperimentEngine

    engine = ExperimentEngine(
        jobs=jobs, cache_dir=pathlib.Path(cache_dir), use_cache=False,
        run_id=None,
    )
    start = time.perf_counter()
    if tracer is not None:
        with tracer.root():
            out = PASSES[kind](engine, seed, scale)
    else:
        out = PASSES[kind](engine, seed, scale)
    wall = time.perf_counter() - start
    totals = engine.manifest()["totals"]
    return {
        "wall_s": wall,
        "jobs": totals["jobs"],
        "failed_jobs": totals["failed"] + totals["timeout"],
        "job_wall_s": totals["wall_s"],
        "simulated_cycles": totals["simulated_cycles"],
        "committed_instructions": totals["committed_instructions"],
        "batches": totals["batches"],
        "batch_points": totals["batch_points"],
        "artifacts": totals["artifacts"],
        "paper_gap_pp": out["paper_gap_pp"],
        "digests": {
            name: _digest(text) for name, text in sorted(out["texts"].items())
        },
    }


def _peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children
    (the engine joins its pool workers before a map returns)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux


def main(spec_path: str, out_path: str) -> None:
    repro_env = sorted(k for k in os.environ if k.startswith("REPRO_"))
    spec = json.loads(pathlib.Path(spec_path).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    # Import every module a pass uses before the clock starts: imports
    # are set-up, and forked pool workers inherit them.
    from repro.experiments import (  # noqa: F401
        motivation, sensitivity, speedups, table2,
    )
    from repro.experiments.engine import code_version

    kind, seed, scale = spec["kind"], spec["seed"], spec["scale"]
    cache_dir, jobs = spec["cache_dir"], spec["jobs"]
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(ROOT / "bench"))
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    passes: List[Dict] = []
    if spec["role"] == "setup":
        for _ in range(SETUP_PASSES[kind]):
            passes.append(run_pass(kind, seed, scale, jobs, cache_dir))
        ready_at = time.monotonic()
    else:
        ready_at = time.monotonic()
        passes.append(run_pass(kind, seed, scale, jobs, cache_dir, tracer))
    record = {
        "ready_at": ready_at,
        "passes": passes,
        "peak_rss_mb": _peak_rss_mb(),
        "repro_env": repro_env,
        "code_version": code_version(),
        "spans": tracer.spans if tracer is not None else [],
    }
    pathlib.Path(out_path).write_text(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
