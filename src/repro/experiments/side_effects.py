"""Section 6 side-effect studies.

* **Figure 14** -- % increase in issued instructions, 4-wide experimental
  vs 4-wide baseline, across SPEC 2006 (FP near zero, INT small: the
  transformation's wrong-path hoisted work plus correction code).
* **Section 6.1** -- code size: PISCS is ~9% on average; shrinking the
  32 KB I-cache by 25% to 24 KB costs the 4-wide in-order <0.5% geomean;
  and only a small share of I$ misses lands under a branch-misprediction
  shadow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..analysis import (
    geomean_speedup,
    issued_increase_percent,
    render_bars,
    render_table,
    speedup_percent,
)
from ..workloads import suite_benchmarks
from .artifacts import get_store
from .engine import ExperimentEngine, get_engine
from .harness import RunConfig, prepare_benchmark


@dataclass
class IssueIncreaseResult:
    """Figure 14 data."""

    values: List[Tuple[str, float]]  # (benchmark, % increase)
    #: Benchmarks whose engine jobs failed (bars omitted, called out).
    failed: List[str] = field(default_factory=list)

    def mean_increase(self) -> float:
        if not self.values:
            return 0.0
        return sum(v for _, v in self.values) / len(self.values)

    def render(self) -> str:
        out = render_bars(
            self.values,
            title="Figure 14: % increase in instructions issued "
            "(4-wide experimental vs baseline)",
        )
        if self.failed:
            out += "\nmissing bars (job failures): " + ", ".join(
                self.failed
            )
        return out


def _issue_job(payload) -> dict:
    """Figure 14 datapoint for one benchmark; engine-mappable."""
    name, config = payload
    store = get_store()
    machine = config.machine_for(4)
    baseline, decomposed = prepare_benchmark(
        name, config.ref_seeds[0], config, store
    )
    base_run = store.simulate_inorder(
        baseline.program, machine,
        max_instructions=config.max_instructions,
    )
    dec_run = store.simulate_inorder(
        decomposed.program, machine,
        max_instructions=config.max_instructions,
    )
    return {
        "increase": issued_increase_percent(base_run, dec_run),
        "simulated_cycles": base_run.cycles + dec_run.cycles,
        "committed_instructions": (
            base_run.stats.committed + dec_run.stats.committed
        ),
    }


def run_issue_increase(
    config: Optional[RunConfig] = None,
    suites: Tuple[str, ...] = ("int2006", "fp2006"),
    engine: Optional[ExperimentEngine] = None,
) -> IssueIncreaseResult:
    config = config or RunConfig()
    names = [
        name for suite in suites for name in suite_benchmarks(suite)
    ]
    results = get_engine(engine).map(
        _issue_job,
        [(name, config) for name in names],
        labels=[f"fig14:{name}" for name in names],
    )
    return IssueIncreaseResult(
        values=[
            (name, result["increase"])
            for name, result in zip(names, results)
            if result is not None
        ],
        failed=[
            name for name, result in zip(names, results) if result is None
        ],
    )


@dataclass
class ICacheResult:
    """Section 6.1 data."""

    #: (benchmark, % slowdown of the 24KB-I$ baseline vs 32KB).
    shrink_slowdowns: List[Tuple[str, float]]
    #: (benchmark, % static code size increase).
    piscs: List[Tuple[str, float]]
    #: (benchmark, % of I$ misses under a mispredict shadow, baseline).
    misses_under_mispredict: List[Tuple[str, float]]
    #: Benchmarks whose engine jobs failed (rows omitted, called out).
    failed: List[str] = field(default_factory=list)

    def geomean_slowdown(self) -> float:
        return -geomean_speedup([-v for _, v in self.shrink_slowdowns])

    def mean_piscs(self) -> float:
        if not self.piscs:
            return 0.0
        return sum(v for _, v in self.piscs) / len(self.piscs)

    def render(self) -> str:
        rows = []
        for (name, slow), (_, size), (_, shadow) in zip(
            self.shrink_slowdowns, self.piscs, self.misses_under_mispredict
        ):
            rows.append(
                [name, f"{slow:.2f}", f"{size:.1f}", f"{shadow:.1f}"]
            )
        rows.extend([name, "FAILED", "-", "-"] for name in self.failed)
        return render_table(
            ["benchmark", "24KB-I$ slowdown%", "PISCS%", "I$ miss under misp%"],
            rows,
            title=(
                "Section 6.1 (paper: <0.5% geomean slowdown, ~9% PISCS, "
                "~15% of I$ misses under mispredict)"
            ),
        )


def _icache_job(payload) -> dict:
    """Section 6.1 datapoint for one benchmark; engine-mappable.

    The I$ geometry is purely a timing knob, so both machine variants
    replay the same captured baseline trace.
    """
    name, config = payload
    store = get_store()
    machine_32k = config.machine_for(4)
    machine_24k = machine_32k.with_icache_bytes(24 * 1024)
    baseline, decomposed = prepare_benchmark(
        name, config.ref_seeds[0], config, store
    )
    # One sweep call: one trace lookup, then a replay per geometry
    # (each on its own prep slice and region id list).
    run_32k, run_24k = store.simulate_inorder_sweep(
        baseline.program, [machine_32k, machine_24k],
        max_instructions=config.max_instructions,
    )
    misses = run_32k.stats.icache_misses or 1
    return {
        # Slowdown of the smaller I$ = -speedup.
        "slowdown": -speedup_percent(run_32k, run_24k),
        "pisc": decomposed.transform.pisc,
        "shadow": (
            100.0 * run_32k.stats.icache_misses_under_mispredict / misses
        ),
        "simulated_cycles": run_32k.cycles + run_24k.cycles,
        "committed_instructions": (
            run_32k.stats.committed + run_24k.stats.committed
        ),
    }


def run_icache(
    config: Optional[RunConfig] = None,
    suite: str = "int2006",
    engine: Optional[ExperimentEngine] = None,
) -> ICacheResult:
    config = config or RunConfig()
    names = suite_benchmarks(suite)
    results = get_engine(engine).map(
        _icache_job,
        [(name, config) for name in names],
        labels=[f"sec61:{name}" for name in names],
    )
    measured = [
        (n, r) for n, r in zip(names, results) if r is not None
    ]
    return ICacheResult(
        shrink_slowdowns=[(n, r["slowdown"]) for n, r in measured],
        piscs=[(n, r["pisc"]) for n, r in measured],
        misses_under_mispredict=[(n, r["shadow"]) for n, r in measured],
        failed=[n for n, r in zip(names, results) if r is None],
    )


def main() -> None:  # pragma: no cover - CLI entry
    result = run_issue_increase()
    print(result.render())
    print()
    print(run_icache().render())


if __name__ == "__main__":  # pragma: no cover
    main()
