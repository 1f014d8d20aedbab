"""Section 5.3: branch-predictor sensitivity.

The paper simulates "a series of ever improving conditional branch
predictors, culminating in a 64-KB version of ISL-TAGE" and finds that on
the four hard-to-predict integer benchmarks (astar, sjeng, gobmk, mcf) the
speedup from the transformation *improves* roughly 0.3% for each 1%
reduction in misprediction rate.

We run the same ladder (bimodal -> gshare -> hybrid -> TAGE -> ISL-TAGE)
and report, per benchmark and predictor: the baseline misprediction rate
and the decomposed-over-baseline speedup, plus the fitted
speedup-per-accuracy slope.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis import render_table, speedup_percent
from ..branchpred import (
    BimodalPredictor,
    DirectionPredictor,
    GSharePredictor,
    HybridPredictor,
    IslTagePredictor,
    TagePredictor,
)
# Unused here since every compile moved into
# ``harness.prepare_benchmark``, but ``bench/spans.py`` wraps these
# names in this module and raises ``KeyError`` if one is missing.
from ..compiler import compile_baseline, compile_decomposed  # noqa: F401
from ..ir import lower  # noqa: F401
from ..uarch import MachineConfig
from .artifacts import get_store
from .engine import ExperimentEngine, get_engine
from .harness import RunConfig, prepare_benchmark

#: The hard-to-predict benchmarks the paper calls out.
HARD_BENCHMARKS = ("astar", "sjeng", "gobmk", "mcf")

#: The predictor ladder, weakest to strongest.
LADDER: Tuple[Tuple[str, Callable[[], DirectionPredictor]], ...] = (
    ("bimodal", BimodalPredictor),
    ("gshare", GSharePredictor),
    ("hybrid-24KB", HybridPredictor),
    ("tage", TagePredictor),
    ("isl-tage-64KB", IslTagePredictor),
)


@dataclass
class SensitivityPoint:
    benchmark: str
    predictor: str
    mispredict_rate: float  # baseline, %
    speedup: float  # decomposed over baseline with the same predictor, %


@dataclass
class SensitivityResult:
    points: List[SensitivityPoint]
    #: Labels of ladder rungs whose engine jobs failed (points omitted).
    failed: List[str] = dataclass_field(default_factory=list)

    def slope(self, benchmark: str) -> float:
        """Least-squares % speedup gained per 1% mispredict-rate drop."""
        series = [
            (p.mispredict_rate, p.speedup)
            for p in self.points
            if p.benchmark == benchmark
        ]
        if len(series) < 2:
            return 0.0
        xs = [-x for x, _ in series]  # accuracy improvement axis
        ys = [y for _, y in series]
        n = len(series)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        var = sum((x - mean_x) ** 2 for x in xs)
        return cov / var if var else 0.0

    def render(self) -> str:
        rows = [
            [p.benchmark, p.predictor, f"{p.mispredict_rate:.2f}",
             f"{p.speedup:.2f}"]
            for p in self.points
        ]
        table = render_table(
            ["benchmark", "predictor", "mispredict%", "speedup%"],
            rows,
            title="Section 5.3: predictor sensitivity "
            "(paper: ~0.3% speedup per 1% mispredict reduction)",
        )
        slopes = [
            [name, f"{self.slope(name):.3f}"]
            for name in sorted({p.benchmark for p in self.points})
        ]
        out = (
            table
            + "\n\n"
            + render_table(["benchmark", "%speedup per 1% accuracy"], slopes)
        )
        if self.failed:
            out += "\nmissing rungs (job failures): " + ", ".join(
                self.failed
            )
        return out


def _sensitivity_job(payload) -> Dict:
    """One (benchmark, predictor) rung of the ladder; engine-mappable.

    The functional TRAIN branch stream is predictor-independent and
    shared through the artifact store, so a whole ladder costs one
    functional run plus one (cheap) measurement per rung.  The baseline
    program is predictor-independent too: a worker builds each
    benchmark and compiles its baseline once for all the rungs it runs,
    and every rung replays the same baseline trace.
    """
    name, pred_name, config = payload
    factory = dict(LADDER)[pred_name]
    store = get_store()
    # Profile/select with the same predictor the hardware runs:
    # better predictors expose more candidates, as in the paper.
    baseline, decomposed = prepare_benchmark(
        name, config.ref_seeds[0], config, store, predictor=factory
    )
    machine = MachineConfig.paper_default().with_predictor(factory)
    base_run = store.simulate_inorder(
        baseline.program, machine,
        max_instructions=config.max_instructions,
    )
    dec_run = store.simulate_inorder(
        decomposed.program, machine,
        max_instructions=config.max_instructions,
    )
    total = base_run.stats.cond_branches or 1
    return {
        "mispredict_rate": 100.0 * base_run.stats.cond_mispredicts / total,
        "speedup": speedup_percent(base_run, dec_run),
        "simulated_cycles": base_run.cycles + dec_run.cycles,
        "committed_instructions": (
            base_run.stats.committed + dec_run.stats.committed
        ),
    }


def run(
    benchmarks: Tuple[str, ...] = HARD_BENCHMARKS,
    config: Optional[RunConfig] = None,
    engine: Optional[ExperimentEngine] = None,
) -> SensitivityResult:
    config = config or RunConfig()
    payloads = [
        (name, pred_name, config)
        for name in benchmarks
        for pred_name, _ in LADDER
    ]
    labels = [f"sensitivity:{n}:{p}" for n, p, _ in payloads]
    results = get_engine(engine).map(
        _sensitivity_job,
        payloads,
        labels=labels,
        groups=[n for n, _, _ in payloads],
    )
    points = [
        SensitivityPoint(
            benchmark=name,
            predictor=pred_name,
            mispredict_rate=result["mispredict_rate"],
            speedup=result["speedup"],
        )
        for (name, pred_name, _), result in zip(payloads, results)
        if result is not None
    ]
    failed = [
        label
        for label, result in zip(labels, results)
        if result is None
    ]
    return SensitivityResult(points=points, failed=failed)


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
