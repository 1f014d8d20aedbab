"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's evaluation artifacts:

* ``table2``                      -- regenerate Table 2
* ``figure fig8|fig9|...|fig13``  -- speedup figures
* ``predvbias int2006|fp2006``    -- Figures 2/3 curves
* ``taxonomy [suite]``            -- Figure 1 census
* ``sensitivity``                 -- Section 5.3 predictor ladder
* ``motivation``                  -- Section 1 in-order vs OOO premise
* ``quadrants``                   -- Figure 1 prescriptions, empirically
* ``sideeffects``                 -- Figure 14 + Section 6.1
* ``ablations``                   -- design-choice sweeps
* ``bench <name>``                -- one benchmark, baseline vs decomposed
* ``timeline <name>``             -- issue-timeline visualisation
* ``cache``                       -- list/prune ``results/.cache/`` and
  report the last run's artifact hit/miss counters

All commands accept ``--iterations N`` and ``--seeds K`` to trade fidelity
for time, ``--jobs N`` to fan simulation jobs over worker processes,
``--no-cache`` to bypass the ``results/.cache/`` result cache, and
``--profile`` to wrap every engine job in cProfile.  The engine flags
(these three, ``--job-timeout`` and ``--retries``) override the
matching knobs of :data:`repro.experiments.settings.KNOBS`, which
lists every environment knob with its default.  Engine-backed
commands write a
machine-readable ``results/run_manifest.json`` (config, per-job timings,
status/attempts/error, simulated KIPS, cache hit/miss counts) next to the
regenerated table; profiled runs additionally write
``results/run_manifest.profile.txt``.

Robustness (see EXPERIMENTS.md "Robustness"): a failed/hung job is
isolated and reported instead of aborting the sweep; ``--job-timeout S``
bounds each job, ``--retries N`` retries infrastructure faults, and
every completed job lands in the result cache as it finishes, so
re-running the same command after an interrupt or a partial failure
runs only the jobs that did not finish.  The exit status is 0 only when
every job succeeded (1 with failures, 130 on interrupt).  A bad
invocation exits 2: a malformed flag (argparse), or a malformed or
unknown ``REPRO_*`` variable, which prints one ``repro: <message>``
line before any command runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .experiments import ExperimentEngine, RunConfig, run_benchmark
from .experiments.engine import RESULTS_DIR
from .experiments.settings import check_settings


def _config(args) -> RunConfig:
    return RunConfig(
        iterations=args.iterations,
        ref_seeds=tuple(range(1, args.seeds + 1)),
    )


def _progress(done: int, total: int, label: str) -> None:
    sys.stderr.write(f"\r[{done}/{total}] {label:<40.40}")
    sys.stderr.flush()
    if done == total:
        sys.stderr.write("\n")


def _engine(args) -> ExperimentEngine:
    if args.engine is None:
        if getattr(args, "profile", False):
            # Via the environment so the switch reaches pool workers, and
            # with the cache off: a cache hit never runs the worker, so a
            # profiled run must actually execute every job.
            os.environ["REPRO_PROFILE"] = "1"
            args.no_cache = True
        args.engine = ExperimentEngine(
            jobs=args.jobs,
            use_cache=False if args.no_cache else None,
            progress=_progress if sys.stderr.isatty() else None,
            run_id=ExperimentEngine.new_run_id(),
            job_timeout=getattr(args, "job_timeout", None),
            retries=getattr(args, "retries", None),
        )
        # So an interrupted map() can still leave a partial manifest.
        args.engine.manifest_path = RESULTS_DIR / "run_manifest.json"
    return args.engine


def _finish(args, config: Optional[RunConfig] = None) -> None:
    """Write the run manifest + a one-line summary for engine commands."""
    engine = args.engine
    if engine is None or not engine.records:
        return
    engine.write_manifest(RESULTS_DIR / "run_manifest.json", config=config)
    counts = engine.status_counts()
    health = ""
    if counts["failed"] or counts["timeout"] or counts["skipped"]:
        health = (
            f", {counts['failed']} failed, {counts['timeout']} timed out, "
            f"{counts['skipped']} skipped"
        )
    sys.stderr.write(
        f"{len(engine.records)} jobs "
        f"({engine.cache_hits} cache hits, {engine.cache_misses} misses"
        f"{health}), "
        f"{engine.total_wall_s:.1f}s job time, "
        f"{engine.total_simulated_cycles} cycles simulated "
        f"({engine.total_sim_kips:.0f} KIPS); "
        f"manifest: {RESULTS_DIR / 'run_manifest.json'}\n"
    )
    if engine.failures:
        for record in engine.failures:
            error = record.get("error") or {}
            sys.stderr.write(
                f"  {record['status'].upper()} {record['label']}: "
                f"{error.get('type', '?')}: {error.get('message', '')}\n"
            )
        sys.stderr.write(_rerun_hint(engine) + "\n")
    if engine.profiles:
        sys.stderr.write(
            f"profiles: {RESULTS_DIR / 'run_manifest.profile.txt'}\n"
        )


def _rerun_hint(engine: ExperimentEngine) -> str:
    """How to finish a run that left jobs undone."""
    if engine.use_cache:
        return (
            "re-run the same command: jobs that succeeded come from "
            "the result cache, the rest run again"
        )
    return "the result cache was off: a re-run executes every job again"


def _cmd_table2(args) -> None:
    from .experiments.table2 import render, run

    config = _config(args)
    print(render(run(config, engine=_engine(args))))
    _finish(args, config)


def _cmd_figure(args) -> None:
    from .experiments.speedups import run_figure

    config = RunConfig(
        iterations=args.iterations,
        ref_seeds=tuple(range(1, args.seeds + 1)),
        widths=(2, 4, 8) if args.all_widths else (4,),
    )
    print(run_figure(args.name, config, engine=_engine(args)).render())
    _finish(args, config)


def _cmd_predvbias(args) -> None:
    from .experiments.pred_vs_bias import run

    print(run(args.suite).render())


def _cmd_taxonomy(args) -> None:
    from .experiments.taxonomy import run

    print(run(args.suite, config=_config(args)).render())


def _cmd_sensitivity(args) -> None:
    from .experiments.sensitivity import run

    config = _config(args)
    print(run(config=config, engine=_engine(args)).render())
    _finish(args, config)


def _cmd_sideeffects(args) -> None:
    from .experiments.side_effects import run_icache, run_issue_increase

    config = _config(args)
    engine = _engine(args)
    print(run_issue_increase(config, engine=engine).render())
    print()
    print(run_icache(config, engine=engine).render())
    _finish(args, config)


def _cmd_ablations(args) -> None:
    from .experiments.ablations import render_all

    config = _config(args)
    print(render_all(config, engine=_engine(args)))
    _finish(args, config)


def _cmd_quadrants(args) -> None:
    from .experiments.quadrants import run

    print(run(config=_config(args)).render())


def _cmd_motivation(args) -> None:
    from .experiments.motivation import run

    config = _config(args)
    print(run(config=config, engine=_engine(args)).render())
    _finish(args, config)


def _cmd_bench(args) -> None:
    if args.name == "report":
        from .experiments import benchreport

        index_path = benchreport.write_index()
        print(benchreport.render_index(json.loads(index_path.read_text())))
        print(f"\nwrote {index_path}")
        return
    config = _config(args)
    outcome = run_benchmark(args.name, config, engine=_engine(args))
    if not outcome.ok:
        print(
            f"{outcome.name}: {outcome.status.upper()} ({outcome.error})"
        )
        _finish(args, config)
        return
    metrics = outcome.metrics
    print(
        f"{outcome.name}: {metrics.spd:.1f}% speedup "
        f"({outcome.converted}/{outcome.forward_branches} branches converted)"
    )
    print(
        f"  PBC {metrics.pbc:.1f}%  PDIH {metrics.pdih:.1f}%  "
        f"ASPCB {metrics.aspcb:.1f}  MPPKI {metrics.mppki:.1f}  "
        f"PISCS {metrics.piscs:.1f}%"
    )
    _finish(args, config)


def _cmd_cache(args) -> None:
    from .experiments import cachectl

    if getattr(args, "action", "report") == "verify":
        report = cachectl.verify(quarantine=args.quarantine)
        print(cachectl.render_verify(report))
        if report.mismatched or report.orphaned or report.undecodable:
            sys.exit(1)
        return
    if args.prune or args.max_age_days is not None \
            or args.max_size_mb is not None:
        removed = cachectl.prune(
            max_age_days=args.max_age_days,
            max_size_mb=args.max_size_mb,
        )
        for section, (files, nbytes) in sorted(removed.items()):
            if files:
                print(
                    f"pruned {section}: {files} files, {nbytes} bytes"
                )
    print(cachectl.render_report())


def _cmd_timeline(args) -> None:
    from .experiments.harness import prepare_benchmark
    from .uarch import render_timeline

    baseline, decomposed = prepare_benchmark(args.name, 1, _config(args))
    which = decomposed if args.decomposed else baseline
    print(
        render_timeline(
            which.program, start=args.start, count=args.count
        )
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Branch Vanguard reproduction (ISCA 2015)",
    )
    parser.add_argument("--iterations", type=int, default=500)
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: REPRO_JOBS env or all cores)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the results/.cache/ result cache",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-job wall-clock budget in seconds, enforced by a "
        "watchdog when jobs > 1 (default: REPRO_JOB_TIMEOUT or off)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retries for infrastructure faults -- dead worker "
        "processes and timeouts (default: REPRO_RETRIES or 2); "
        "deterministic worker exceptions are never retried",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile every engine job (implies --no-cache, so every "
        "job executes and a re-run cannot pick up where it stopped; "
        "equivalent to REPRO_PROFILE=1) and write per-job top-20 "
        "cumulative summaries next to the run manifest",
    )
    parser.set_defaults(engine=None)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table2").set_defaults(func=_cmd_table2)

    figure = sub.add_parser("figure")
    figure.add_argument(
        "name",
        choices=["fig8", "fig9", "fig10", "fig11", "fig12", "fig13"],
    )
    figure.add_argument("--all-widths", action="store_true")
    figure.set_defaults(func=_cmd_figure)

    predvbias = sub.add_parser("predvbias")
    predvbias.add_argument(
        "suite", choices=["int2006", "fp2006", "int2000", "fp2000"]
    )
    predvbias.set_defaults(func=_cmd_predvbias)

    taxonomy = sub.add_parser("taxonomy")
    taxonomy.add_argument("suite", nargs="?", default="int2006")
    taxonomy.set_defaults(func=_cmd_taxonomy)

    sub.add_parser("sensitivity").set_defaults(func=_cmd_sensitivity)
    sub.add_parser("motivation").set_defaults(func=_cmd_motivation)
    sub.add_parser("quadrants").set_defaults(func=_cmd_quadrants)
    sub.add_parser("sideeffects").set_defaults(func=_cmd_sideeffects)
    sub.add_parser("ablations").set_defaults(func=_cmd_ablations)

    bench = sub.add_parser("bench")
    bench.add_argument(
        "name",
        help="benchmark name to run, or 'report' to aggregate every "
        "results/BENCH_*.json perf snapshot into "
        "results/BENCH_index.json and print the table",
    )
    bench.set_defaults(func=_cmd_bench)

    cache = sub.add_parser("cache")
    cache.add_argument(
        "action",
        nargs="?",
        default="report",
        choices=("report", "verify"),
        help="'report' (default): list sections and last-run "
        "counters; 'verify': offline re-hash of every store blob "
        "against its digest sidecar, then a parse of every trace and "
        "prep slice (exit 1 on mismatched, orphaned or undecodable "
        "blobs; stale ones, of an older format, are listed)",
    )
    cache.add_argument(
        "--quarantine",
        action="store_true",
        help="with 'verify': move mismatched and undecodable blobs "
        "to quarantine/ (they recompute transparently on next use)",
    )
    cache.add_argument(
        "--prune",
        action="store_true",
        help="delete by the age/size limits below (no limits: no-op)",
    )
    cache.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="D",
        help="with --prune: drop cache files older than D days",
    )
    cache.add_argument(
        "--max-size-mb",
        type=float,
        default=None,
        metavar="M",
        help="with --prune: evict oldest files until the cache "
        "fits in M MiB",
    )
    cache.set_defaults(func=_cmd_cache)

    timeline = sub.add_parser("timeline")
    timeline.add_argument("name")
    timeline.add_argument("--baseline", dest="decomposed",
                          action="store_false")
    timeline.add_argument("--start", type=int, default=0)
    timeline.add_argument("--count", type=int, default=24)
    timeline.set_defaults(func=_cmd_timeline)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_settings()
    except ValueError as exc:
        sys.stderr.write(f"repro: {exc}\n")
        return 2
    try:
        args.func(args)
    except KeyboardInterrupt:
        engine = args.engine
        if engine is not None and engine.records:
            sys.stderr.write(f"\ninterrupted; {_rerun_hint(engine)}\n")
        return 130
    engine = args.engine
    if engine is not None and engine.failures:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
