"""Ablation studies for the design choices DESIGN.md calls out.

* **Hoist-depth sweep** -- how the gain grows with the per-side hoist
  budget (the paper's benefit comes almost entirely from hoisted loads).
* **Selection-threshold sweep** -- the paper's 5% exposed-predictability
  rule vs looser/tighter thresholds.
* **DBB-size sweep** -- the paper sizes the Decomposed Branch Buffer at 16
  entries "empirically"; occupancy stays tiny because of back-pressure.
* **Push-down ablation** -- disabling the resolution-slice push-down.

Each sweep point is an independent engine job that sweeps one knob
away from its ``RunConfig``'s.  The TRAIN profile, the compiled
programs, and (most importantly) the executed instruction streams are
shared through the artifact store (:mod:`.artifacts`): the first sweep
point of a benchmark captures each program's trace once, timing-free,
and every point replays it bit-identically, so an N-point sweep pays
for one capture per distinct program instead of N execute-driven runs;
a worker builds the benchmark and compiles its baseline once for every
point it runs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..analysis import render_table, speedup_percent
from ..core import SelectionConfig, TransformConfig
from ..uarch import capture_trace
from .artifacts import get_store
from .engine import ExperimentEngine, get_engine
from .harness import RunConfig, prepare_benchmark


def _speedup_job(
    name: str,
    config: RunConfig,
    selection: Optional[SelectionConfig] = None,
    transform: Optional[TransformConfig] = None,
) -> dict:
    """Baseline vs decomposed at 4-wide, one knob swept away from
    ``config``'s."""
    store = get_store()
    baseline, decomposed = prepare_benchmark(
        name, config.ref_seeds[0], config, store,
        selection=selection, transform=transform,
    )
    base_run, dec_run = (
        store.simulate_inorder(
            compiled.program, config.machine_for(4),
            max_instructions=config.max_instructions,
        )
        for compiled in (baseline, decomposed)
    )
    return {
        "converted": decomposed.transform.converted,
        "speedup": speedup_percent(base_run, dec_run),
        "simulated_cycles": base_run.cycles + dec_run.cycles,
        "committed_instructions": (
            base_run.stats.committed + dec_run.stats.committed
        ),
    }


def _hoist_job(payload) -> dict:
    name, depth, config = payload
    return _speedup_job(
        name, config,
        transform=replace(config.transform, max_hoist_per_side=depth),
    )


def _threshold_job(payload) -> dict:
    name, threshold, config = payload
    return _speedup_job(
        name, config,
        selection=replace(
            config.selection, min_exposed_predictability=threshold
        ),
    )


def _push_down_job(payload) -> dict:
    name, push, config = payload
    return _speedup_job(
        name, config,
        transform=replace(config.transform, push_down_slice=push),
    )


def _dbb_job(payload) -> dict:
    name, size, config = payload
    store = get_store()
    _, decomposed = prepare_benchmark(name, config.ref_seeds[0], config, store)
    # The swept size now actually reaches the core (the old version
    # monkeypatched a default argument the core never used, so every
    # point silently simulated 16 entries).  The DBB never influences
    # timing or architectural state, so the occupancy high-water mark
    # is read off the committed trace -- identical for every size.
    machine = replace(config.machine_for(4), dbb_entries=size)
    run = store.simulate_inorder(
        decomposed.program, machine, max_instructions=config.max_instructions
    )
    trace = store.peek_trace(
        decomposed.program, machine, max_instructions=config.max_instructions
    )
    if trace is None:  # no trace key (an unnameable predictor factory)
        trace = capture_trace(
            decomposed.program,
            machine.predictor_factory,
            config.max_instructions,
        )
    return {
        "max_outstanding": trace.max_outstanding_predicts(
            decomposed.program
        ),
        "simulated_cycles": run.cycles,
        "committed_instructions": run.stats.committed,
    }


def hoist_depth_sweep(
    name: str = "omnetpp",
    depths: Tuple[int, ...] = (0, 2, 4, 8, 12),
    config: Optional[RunConfig] = None,
    engine: Optional[ExperimentEngine] = None,
) -> List[Tuple[int, Optional[float]]]:
    """(hoist budget, % speedup) pairs for one benchmark; a failed
    engine job yields ``None`` for its point (rendered as FAILED)."""
    config = config or RunConfig()
    results = get_engine(engine).map(
        _hoist_job,
        [(name, depth, config) for depth in depths],
        labels=[f"ablation:hoist:{name}:{d}" for d in depths],
        groups=[name] * len(depths),
    )
    return [
        (d, r["speedup"] if r is not None else None)
        for d, r in zip(depths, results)
    ]


def selection_threshold_sweep(
    name: str = "h264ref",
    thresholds: Tuple[float, ...] = (0.01, 0.03, 0.05, 0.10, 0.20),
    config: Optional[RunConfig] = None,
    engine: Optional[ExperimentEngine] = None,
) -> List[Tuple[float, Optional[int], Optional[float]]]:
    """(threshold, conversions, % speedup) around the paper's 5% rule."""
    config = config or RunConfig()
    results = get_engine(engine).map(
        _threshold_job,
        [(name, threshold, config) for threshold in thresholds],
        labels=[f"ablation:threshold:{name}:{t}" for t in thresholds],
        groups=[name] * len(thresholds),
    )
    return [
        (
            t,
            r["converted"] if r is not None else None,
            r["speedup"] if r is not None else None,
        )
        for t, r in zip(thresholds, results)
    ]


def push_down_ablation(
    name: str = "omnetpp",
    config: Optional[RunConfig] = None,
    engine: Optional[ExperimentEngine] = None,
) -> Dict[str, Optional[float]]:
    """Speedup with and without the resolution-slice push-down."""
    config = config or RunConfig()
    variants = (("with-push-down", True), ("without", False))
    results = get_engine(engine).map(
        _push_down_job,
        [(name, push, config) for _, push in variants],
        labels=[f"ablation:pushdown:{name}:{label}" for label, _ in variants],
        groups=[name] * len(variants),
    )
    return {
        label: r["speedup"] if r is not None else None
        for (label, _), r in zip(variants, results)
    }


def _btb_job(payload) -> dict:
    name, entries, config = payload
    store = get_store()
    _, decomposed = prepare_benchmark(name, config.ref_seeds[0], config, store)
    # The BTB is purely a front-end timing structure (a miss on a
    # taken redirect only adds a bubble), so every size replays the
    # same captured trace.
    machine = replace(config.machine_for(4), btb_entries=entries)
    run = store.simulate_inorder(
        decomposed.program, machine, max_instructions=config.max_instructions
    )
    return {
        "cycles": run.cycles,
        "btb_bubbles": run.stats.btb_miss_bubbles,
        "simulated_cycles": run.cycles,
        "committed_instructions": run.stats.committed,
    }


def btb_sizing_sweep(
    name: str = "mcf",
    entries: Tuple[int, ...] = (
        8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
    ),
    config: Optional[RunConfig] = None,
    engine: Optional[ExperimentEngine] = None,
) -> List[Tuple[int, Optional[float], Optional[int]]]:
    """(BTB entries, % slowdown vs the largest size, BTB-miss bubbles)
    for the decomposed binary.

    PREDICT-taken redirects only come for free when the BTB knows the
    branch target, so the decomposed binary leans on BTB capacity: the
    sweep shows how many redirects degrade to bubbles as the front end
    shrinks, and how much of that the issue stage actually feels.
    """
    config = config or RunConfig()
    results = get_engine(engine).map(
        _btb_job,
        [(name, n, config) for n in entries],
        labels=[f"ablation:btb:{name}:{n}" for n in entries],
        groups=[name] * len(entries),
    )
    reference = next(
        (
            r["cycles"]
            for _, r in sorted(
                zip(entries, results), key=lambda p: -p[0]
            )
            if r is not None
        ),
        None,
    )
    return [
        (
            n,
            (100.0 * (r["cycles"] - reference) / reference)
            if r is not None and reference
            else None,
            r["btb_bubbles"] if r is not None else None,
        )
        for n, r in zip(entries, results)
    ]


def dbb_occupancy(
    name: str = "h264ref",
    sizes: Tuple[int, ...] = (4, 8, 16, 32),
    config: Optional[RunConfig] = None,
    engine: Optional[ExperimentEngine] = None,
) -> List[Tuple[int, Optional[int]]]:
    """(DBB size, max outstanding decomposed branches observed).

    Confirms the paper's empirical claim that 16 entries are more than
    sufficient: in-order back-pressure keeps few decomposed branches in
    flight.
    """
    config = config or RunConfig()
    results = get_engine(engine).map(
        _dbb_job,
        [(name, size, config) for size in sizes],
        labels=[f"ablation:dbb:{name}:{s}" for s in sizes],
        groups=[name] * len(sizes),
    )
    return [
        (size, r["max_outstanding"] if r is not None else None)
        for size, r in zip(sizes, results)
    ]


def render_all(
    config: Optional[RunConfig] = None,
    engine: Optional[ExperimentEngine] = None,
) -> str:
    config = config or RunConfig()
    engine = get_engine(engine)
    def cell(value, fmt="{:.2f}"):
        # Engine-supervised job failures surface as None sweep points;
        # mark the cell instead of crashing the whole report.
        return fmt.format(value) if value is not None else "FAILED"

    blocks = []
    rows = [
        [str(d), cell(s)]
        for d, s in hoist_depth_sweep(config=config, engine=engine)
    ]
    blocks.append(render_table(["hoist budget", "speedup%"], rows,
                               title="Ablation: hoist depth (omnetpp)"))
    rows = [
        [f"{t:.2f}", cell(c, "{}"), cell(s)]
        for t, c, s in selection_threshold_sweep(
            config=config, engine=engine
        )
    ]
    blocks.append(
        render_table(
            ["threshold", "converted", "speedup%"],
            rows,
            title="Ablation: selection threshold (h264ref; paper uses 0.05)",
        )
    )
    push = push_down_ablation(config=config, engine=engine)
    rows = [[k, cell(v)] for k, v in push.items()]
    blocks.append(render_table(["variant", "speedup%"], rows,
                               title="Ablation: resolution-slice push-down"))
    rows = [
        [str(n), cell(m, "{}")]
        for n, m in dbb_occupancy(config=config, engine=engine)
    ]
    blocks.append(render_table(["DBB entries", "max outstanding"], rows,
                               title="Ablation: DBB sizing (paper: 16 suffices)"))
    rows = [
        [str(n), cell(s), cell(b, "{}")]
        for n, s, b in btb_sizing_sweep(config=config, engine=engine)
    ]
    blocks.append(
        render_table(
            ["BTB entries", "slowdown%", "BTB bubbles"],
            rows,
            title="Ablation: BTB sizing, decomposed binary "
            "(PREDICT redirects need BTB hits)",
        )
    )
    return "\n\n".join(blocks)


def main() -> None:  # pragma: no cover - CLI entry
    print(render_all())


if __name__ == "__main__":  # pragma: no cover
    main()
