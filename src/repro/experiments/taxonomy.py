"""Figure 1: the transformation-choice quadrant.

The paper's Figure 1 assigns conditional non-loop branches to a treatment
by bias x predictability: superblocks (highly biased), predication
(low-biased and unpredictable), the decomposed branch transformation
(low-biased but predictable), and a rarely-occurring corner.  This runner
classifies a profiled branch population and reports the quadrant census.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis import render_table
from ..core import BranchClass, SelectionConfig, classify_branch
from ..workloads import spec_benchmark, suite_benchmarks
from .artifacts import get_store
from .harness import RunConfig, train_profile


@dataclass
class TaxonomyResult:
    #: counts[benchmark][quadrant] -> static branch sites
    counts: Dict[str, Dict[BranchClass, int]]

    def totals(self) -> Dict[BranchClass, int]:
        totals = {cls: 0 for cls in BranchClass}
        for per_bench in self.counts.values():
            for cls, n in per_bench.items():
                totals[cls] += n
        return totals

    def render(self) -> str:
        header = ["benchmark"] + [cls.value for cls in BranchClass]
        rows = []
        for name, per_bench in self.counts.items():
            rows.append(
                [name] + [str(per_bench.get(cls, 0)) for cls in BranchClass]
            )
        totals = self.totals()
        rows.append(
            ["TOTAL"] + [str(totals[cls]) for cls in BranchClass]
        )
        return render_table(
            header, rows, title="Figure 1: branch taxonomy census"
        )


def run(
    suite: str = "int2006",
    config: Optional[RunConfig] = None,
    selection: SelectionConfig = SelectionConfig(),
) -> TaxonomyResult:
    config = config or RunConfig()
    store = get_store()
    counts: Dict[str, Dict[BranchClass, int]] = {}
    for name in suite_benchmarks(suite):
        # The hybrid predictor is ``profile_program``'s default.
        profile = train_profile(
            spec_benchmark(name, iterations=config.iterations),
            config,
            store,
        )
        per_bench: Dict[BranchClass, int] = {}
        for stats in profile.values():
            if stats.executions < selection.min_executions:
                continue
            cls = classify_branch(stats, selection)
            per_bench[cls] = per_bench.get(cls, 0) + 1
        counts[name] = per_bench
    return TaxonomyResult(counts=counts)


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
