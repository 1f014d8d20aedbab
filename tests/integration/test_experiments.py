"""Experiment runners in quick mode: shapes, not magnitudes."""

from collections import Counter

import pytest

from repro.experiments import RunConfig, run_benchmark
from repro.experiments.ablations import (
    dbb_occupancy,
    hoist_depth_sweep,
    push_down_ablation,
    selection_threshold_sweep,
)
from repro.experiments.pred_vs_bias import run as run_pred_vs_bias
from repro.experiments.sensitivity import LADDER, run as run_sensitivity
from repro.experiments.side_effects import run_icache, run_issue_increase
from repro.experiments.speedups import FIGURES, run_figure
from repro.experiments.taxonomy import run as run_taxonomy
from repro.experiments.artifacts import get_store
from repro.compiler import profile_program
from repro.core import BranchClass, SelectionConfig, classify_branch
from repro.ir import lower
from repro.workloads import spec_benchmark

QUICK = RunConfig.quick()


class TestHarness:
    def test_run_benchmark_shape(self):
        outcome = run_benchmark("h264ref", QUICK)
        assert outcome.name == "h264ref"
        assert 4 in outcome.speedups
        assert outcome.converted > 0
        assert outcome.forward_branches == 12
        assert outcome.metrics.pbc > 0
        assert len(outcome.metrics.row()) == 9

    def test_best_input_at_least_mean(self):
        config = RunConfig(iterations=250, ref_seeds=(1, 2))
        outcome = run_benchmark("perlbench", config)
        assert outcome.best_input_speedup(4) >= outcome.mean_speedup(4) - 1e-9


class TestFigures:
    def test_figure_table_complete(self):
        assert set(FIGURES) == {
            "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"
        }

    def test_fig8_quick(self):
        config = RunConfig(iterations=200, ref_seeds=(1,), widths=(4,))
        figure = run_figure("fig8", config)
        assert len(figure.series[4]) == 12
        text = figure.render()
        assert "int2006" in text and "geomean" in text

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError):
            run_figure("fig99")


class TestQuadrants:
    def test_replay_matches_reference_core(self, tmp_path, monkeypatch):
        """Fig. 1b's nine runs (three binaries per quadrant, predicated
        ones included) go through the store; replayed, they score and
        render exactly as on the reference core, which the store runs
        for any config without a trace key."""
        from repro.experiments.artifacts import ArtifactStore, default_store
        from repro.experiments.quadrants import run as run_quadrants

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = default_store()
        mark = store.mark()
        with monkeypatch.context() as unkeyed:
            unkeyed.setattr(ArtifactStore, "_trace_key", lambda *_: None)
            reference = run_quadrants(QUICK)
        assert "trace_replays" not in store.delta(mark)
        mark = store.mark()
        replayed = run_quadrants(QUICK)
        assert store.delta(mark).get("trace_replays") == 9
        assert replayed.rows == reference.rows
        assert replayed.render() == reference.render()


class TestPredVsBias:
    def test_curves_have_expected_shape(self):
        curve = run_pred_vs_bias("int2006", stream_length=600)
        assert len(curve.ranks) == 75
        # Head: high bias, curves close together.
        assert curve.bias[0] > 0.9
        assert abs(curve.predictability[0] - curve.bias[0]) < 0.05
        # Tail: bias dives, predictability stays above it.
        assert curve.bias[-1] < 0.75
        assert curve.predictability[-1] > curve.bias[-1]
        assert curve.crossover_rank() is not None

    def test_fp_suite_also_shaped(self):
        curve = run_pred_vs_bias("fp2006", stream_length=600)
        assert curve.predictability[-1] > curve.bias[-1]


class TestTaxonomy:
    def test_census_covers_all_quadrants_sanely(self):
        result = run_taxonomy("int2006", config=QUICK)
        totals = result.totals()
        assert totals[BranchClass.SUPERBLOCK] > 0
        assert totals[BranchClass.DECOMPOSE] > 0
        assert totals[BranchClass.PREDICATE] > 0
        text = result.render()
        assert "TOTAL" in text

    def test_census_runs_through_the_store(self, tmp_path, monkeypatch):
        """The census equals the direct ``profile_program`` path's, and
        a second run in one process is served by the store's profiles
        without a functional TRAIN run."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        result = run_taxonomy("int2006", config=QUICK)
        name = next(iter(result.counts))
        spec = spec_benchmark(name, iterations=QUICK.iterations)
        profile = profile_program(
            lower(spec.build(seed=QUICK.train_seed)),
            max_instructions=QUICK.max_instructions,
        )
        selection = SelectionConfig()
        census = Counter(
            classify_branch(stats, selection)
            for stats in profile.values()
            if stats.executions >= selection.min_executions
        )
        assert result.counts[name] == dict(census)

        store = get_store()
        mark = store.mark()
        again = run_taxonomy("int2006", config=QUICK)
        delta = store.delta(mark)
        assert delta["profile_hits"] == len(result.counts)
        assert "btrace_misses" not in delta
        assert again.counts == result.counts


class TestSensitivity:
    def test_ladder_ordering(self):
        names = [name for name, _ in LADDER]
        assert names[0] == "bimodal" and names[-1] == "isl-tage-64KB"

    def test_quick_run_produces_points(self):
        result = run_sensitivity(benchmarks=("astar",), config=QUICK)
        assert len(result.points) == len(LADDER)
        # Quick runs are too short for the big predictors to warm up, so
        # only structural sanity is asserted here; the ordering claim is
        # exercised at full scale by the benchmark harness.
        for point in result.points:
            assert 0.0 <= point.mispredict_rate <= 100.0
        assert isinstance(result.slope("astar"), float)
        assert "sensitivity" in result.render().lower()


class TestSideEffects:
    def test_issue_increase_small(self):
        result = run_issue_increase(QUICK, suites=("int2006",))
        assert len(result.values) == 12
        # The paper reports small overheads (INT under ~1-3%).
        assert result.mean_increase() < 10.0
        assert result.mean_increase() > -1.0

    def test_icache_study(self):
        result = run_icache(QUICK)
        assert len(result.shrink_slowdowns) == 12
        # <0.5% geomean in the paper; allow simulator slack.
        assert result.geomean_slowdown() < 2.0
        assert 0 < result.mean_piscs() < 25.0
        assert "6.1" in result.render()


class TestAblations:
    def test_hoist_depth_monotone_tendency(self):
        sweep = hoist_depth_sweep("omnetpp", depths=(0, 12), config=QUICK)
        assert sweep[0][1] <= sweep[1][1] + 0.5

    def test_threshold_sweep_counts(self):
        sweep = selection_threshold_sweep(
            "h264ref", thresholds=(0.01, 0.30), config=QUICK
        )
        assert sweep[0][1] >= sweep[1][1]  # looser threshold converts more

    def test_push_down_variants_run(self):
        result = push_down_ablation("omnetpp", config=QUICK)
        assert set(result) == {"with-push-down", "without"}

    def test_dbb_occupancy_small(self):
        occupancy = dbb_occupancy("h264ref", sizes=(16,), config=QUICK)
        assert occupancy[0][1] <= 16

    def test_dbb_job_without_a_trace_key(self, tmp_path, monkeypatch):
        """A predictor factory with no stable name gets no trace key:
        the job simulates on the reference core and captures the trace
        it reads the occupancy from, giving the keyed job's answer."""
        from dataclasses import replace

        from repro.experiments.ablations import _dbb_job

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        machine = QUICK.machine_for(4)
        factory = machine.predictor_factory
        unkeyed = replace(
            QUICK, machine=machine.with_predictor(lambda: factory())
        )
        assert _dbb_job(("h264ref", 16, unkeyed)) == _dbb_job(
            ("h264ref", 16, QUICK)
        )
