"""The Section 1 motivation experiment: in-order vs out-of-order.

"While control speculation is highly effective for generating good
schedules in out-of-order processors, it is less effective for in-order
processors" -- we run each benchmark's baseline and decomposed binaries on
both core types; the transformation should pay on the in-order and buy the
OOO essentially nothing (the OOO's dataflow issue already schedules around
predictable branches dynamically)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..analysis import render_table, speedup_percent
# Unused here since every compile moved into
# ``harness.prepare_benchmark``, but ``bench/spans.py`` wraps these
# names in this module and raises ``KeyError`` if one is missing.
from ..compiler import compile_baseline, compile_decomposed  # noqa: F401
from ..ir import lower  # noqa: F401
from .artifacts import get_store
from .engine import ExperimentEngine, get_engine
from .harness import RunConfig, prepare_benchmark


@dataclass
class MotivationRow:
    benchmark: str
    inorder_speedup: float  # decomposed-over-baseline, in-order
    ooo_speedup: float  # decomposed-over-baseline, OOO
    ooo_vs_inorder_baseline: float  # how much faster the OOO runs anyway


@dataclass
class MotivationResult:
    rows: List[MotivationRow]
    #: Benchmarks whose engine jobs failed; rendered as marked rows.
    failed: List[str] = field(default_factory=list)

    def render(self) -> str:
        table = [
            [
                r.benchmark,
                f"{r.inorder_speedup:.1f}",
                f"{r.ooo_speedup:.1f}",
                f"{r.ooo_vs_inorder_baseline:.1f}",
            ]
            for r in self.rows
        ]
        table.extend(
            [name, "FAILED", "-", "-"] for name in self.failed
        )
        return render_table(
            [
                "benchmark",
                "in-order speedup%",
                "OOO speedup%",
                "OOO-over-in-order baseline%",
            ],
            table,
            title=(
                "Motivation (Section 1): the transformation pays on the "
                "in-order, not on the OOO"
            ),
        )


def _motivation_job(payload) -> dict:
    """Both core types over one benchmark's binaries; engine-mappable.

    The committed stream is core-independent, so the traces the
    in-order runs capture also serve the OOO runs.
    """
    name, config, window = payload
    store = get_store()
    mark = store.mark()
    machine = config.machine_for(4)
    baseline, decomposed = prepare_benchmark(
        name, config.ref_seeds[0], config, store
    )

    io_base = store.simulate_inorder(
        baseline.program, machine,
        max_instructions=config.max_instructions,
    )
    io_dec = store.simulate_inorder(
        decomposed.program, machine,
        max_instructions=config.max_instructions,
    )
    ooo_base = store.simulate_ooo(
        baseline.program, machine,
        max_instructions=config.max_instructions, window=window,
    )
    ooo_dec = store.simulate_ooo(
        decomposed.program, machine,
        max_instructions=config.max_instructions, window=window,
    )
    return {
        "inorder_speedup": speedup_percent(io_base, io_dec),
        "ooo_speedup": speedup_percent(ooo_base, ooo_dec),
        "ooo_vs_inorder_baseline": speedup_percent(io_base, ooo_base),
        "simulated_cycles": (
            io_base.cycles + io_dec.cycles
            + ooo_base.cycles + ooo_dec.cycles
        ),
        "committed_instructions": (
            io_base.stats.committed + io_dec.stats.committed
            + ooo_base.stats.committed + ooo_dec.stats.committed
        ),
        "artifacts": store.delta(mark),
    }


def run(
    benchmarks: Tuple[str, ...] = ("h264ref", "omnetpp", "gcc", "wrf"),
    config: Optional[RunConfig] = None,
    window: int = 64,
    engine: Optional[ExperimentEngine] = None,
) -> MotivationResult:
    config = config or RunConfig()
    results = get_engine(engine).map(
        _motivation_job,
        [(name, config, window) for name in benchmarks],
        labels=[f"motivation:{name}" for name in benchmarks],
        groups=list(benchmarks),
    )
    rows = [
        MotivationRow(
            benchmark=name,
            inorder_speedup=result["inorder_speedup"],
            ooo_speedup=result["ooo_speedup"],
            ooo_vs_inorder_baseline=result["ooo_vs_inorder_baseline"],
        )
        for name, result in zip(benchmarks, results)
        if result is not None
    ]
    failed = [
        name for name, result in zip(benchmarks, results) if result is None
    ]
    return MotivationResult(rows=rows, failed=failed)


def main() -> None:  # pragma: no cover - CLI entry
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
