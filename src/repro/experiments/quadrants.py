"""Figure 1, validated empirically.

The paper's taxonomy prescribes a treatment per quadrant: superblock-style
layout for highly-biased branches, predication for unbiased-unpredictable
ones, and the decomposed branch transformation for unbiased-*predictable*
ones.  This experiment builds one single-branch workload per quadrant and
compiles it three ways (baseline / predicated / decomposed); the
prescription should win its own quadrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis import render_table, speedup_percent
from ..compiler import compile_predicated
from ..workloads import BranchSiteSpec, WorkloadSpec
from .artifacts import get_store
from .harness import RunConfig, prepare_benchmark

#: One representative branch per Figure 1 quadrant.
QUADRANTS: Dict[str, BranchSiteSpec] = {
    "highly-biased": BranchSiteSpec(bias=0.97, predictability=0.99),
    "unbiased-predictable": BranchSiteSpec(bias=0.60, predictability=0.95),
    "unbiased-unpredictable": BranchSiteSpec(
        bias=0.55, predictability=0.55, patterned=False
    ),
}


@dataclass
class QuadrantRow:
    quadrant: str
    predicated_speedup: float
    decomposed_speedup: float

    @property
    def winner(self) -> str:
        margin = self.decomposed_speedup - self.predicated_speedup
        if abs(margin) < 0.5:
            return "tie"
        return "decompose" if margin > 0 else "predicate"


@dataclass
class QuadrantResult:
    rows: List[QuadrantRow]

    def row(self, quadrant: str) -> QuadrantRow:
        for row in self.rows:
            if row.quadrant == quadrant:
                return row
        raise KeyError(quadrant)

    def render(self) -> str:
        table = [
            [
                r.quadrant,
                f"{r.predicated_speedup:.1f}",
                f"{r.decomposed_speedup:.1f}",
                r.winner,
            ]
            for r in self.rows
        ]
        return render_table(
            ["quadrant", "predication%", "decomposition%", "winner"],
            table,
            title="Figure 1 validated: treatment vs branch class",
        )


def _workload(name: str, site: BranchSiteSpec, iterations: int) -> WorkloadSpec:
    return WorkloadSpec(
        name=f"quadrant-{name}",
        suite="fig1",
        sites=[site],
        iterations=iterations,
        loads_not_taken=3,
        loads_taken=3,
        hoist_barrier_frac=0.9,
        cold_code_factor=0.0,
    )


def run(config: Optional[RunConfig] = None) -> QuadrantResult:
    config = config or RunConfig()
    machine = config.machine_for(4)
    store = get_store()
    rows: List[QuadrantRow] = []
    for name, site in QUADRANTS.items():
        spec = _workload(name, site, config.iterations)
        seed = config.ref_seeds[0]
        baseline, decomposed = prepare_benchmark(spec, seed, config, store)
        predicated = compile_predicated(
            store.build(spec, seed), profile=baseline.profile
        )

        base_run, pred_run, dec_run = (
            store.simulate_inorder(
                compiled.program, machine,
                max_instructions=config.max_instructions,
            )
            for compiled in (baseline, predicated, decomposed)
        )
        rows.append(
            QuadrantRow(
                quadrant=name,
                predicated_speedup=speedup_percent(base_run, pred_run),
                decomposed_speedup=speedup_percent(base_run, dec_run),
            )
        )
    return QuadrantResult(rows=rows)


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
