"""The ``python -m repro`` command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for argv in (
            ["table2"],
            ["figure", "fig8"],
            ["predvbias", "int2006"],
            ["taxonomy"],
            ["sensitivity"],
            ["sideeffects"],
            ["ablations"],
            ["bench", "gcc"],
            ["timeline", "gcc"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)
        # The queue backend's external-worker command is gone.
        with pytest.raises(SystemExit):
            parser.parse_args(["worker", "results/.cache/queue/run-1"])

    def test_figure_validates_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_scale_flags(self):
        args = build_parser().parse_args(
            ["--iterations", "100", "--seeds", "2", "table2"]
        )
        assert args.iterations == 100 and args.seeds == 2

    def test_robustness_flags(self):
        args = build_parser().parse_args(["--job-timeout", "2.5", "table2"])
        assert args.job_timeout == 2.5
        args = build_parser().parse_args(["table2"])
        assert args.job_timeout is None
        # No failed job is retried: re-running the command is the retry.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--retries", "2", "table2"])
        # The local pool is the one execution path: no backend flag.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "local", "table2"])
        # Re-running a command is its resume: no run journal to name.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--resume", "20260806-101500-abc123", "table2"]
            )


class TestExecution:
    @pytest.fixture(autouse=True)
    def _sandbox_results(self, tmp_path, monkeypatch):
        """Keep CLI runs from clobbering the committed results/ samples
        (run_manifest.json) or the shared artifact cache."""
        monkeypatch.setattr("repro.cli.RESULTS_DIR", tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / ".cache"))

    def test_bench_command(self, capsys):
        assert main(["--iterations", "120", "bench", "omnetpp"]) == 0
        out = capsys.readouterr().out
        assert "omnetpp" in out and "speedup" in out

    def test_timeline_command(self, capsys):
        assert main(["--iterations", "80", "timeline", "gcc",
                     "--count", "6"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out

    def test_taxonomy_command(self, capsys):
        assert main(["--iterations", "80", "taxonomy", "int2006"]) == 0
        assert "TOTAL" in capsys.readouterr().out

    def test_timeline_renders_the_programs_the_figures_measure(
        self, monkeypatch
    ):
        """Both timelines show ``prepare_benchmark``'s programs: the
        REF build compiled with the TRAIN profile, as every figure
        compiles it."""
        from repro.experiments import RunConfig
        from repro.experiments.harness import prepare_benchmark
        from repro.uarch.trace import content_digest

        rendered = []
        monkeypatch.setattr(
            "repro.uarch.render_timeline",
            lambda program, **_: rendered.append(program) or "",
        )
        # At 80 iterations a REF-profiled compile of gcc differs from
        # the TRAIN-profiled one in both programs.
        argv = ["--iterations", "80", "timeline", "gcc", "--count", "4"]
        assert main(argv) == 0
        assert main(argv + ["--baseline"]) == 0
        baseline, decomposed = prepare_benchmark(
            "gcc", 1, RunConfig(iterations=80, ref_seeds=(1,))
        )
        assert [content_digest(p) for p in rendered] == [
            content_digest(decomposed.program),
            content_digest(baseline.program),
        ]

    @pytest.mark.faults
    def test_failed_job_exits_nonzero(self, capsys, monkeypatch):
        """A crashing job must surface as a FAILED line and exit 1
        instead of a traceback (graceful degradation end to end)."""

        class PlannedCrash(RuntimeError):
            pass

        def crashing_run_seed(name, seed, config):
            raise PlannedCrash(f"planned crash in {name}@seed{seed}")

        # ``--jobs 1`` runs the job in this process, where the
        # monkeypatch lives.
        monkeypatch.setattr(
            "repro.experiments.harness.run_seed", crashing_run_seed
        )
        code = main(
            ["--iterations", "90", "--jobs", "1", "--no-cache",
             "bench", "omnetpp"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "omnetpp: FAILED" in out
        assert "PlannedCrash" in out

    def test_profile_leaves_the_environment_as_it_was(self, monkeypatch):
        """``--profile`` reaches pool workers through ``REPRO_PROFILE``;
        once ``main`` returns, a later engine in this process must not
        profile its jobs."""
        monkeypatch.setenv("REPRO_PROFILE", "0")  # restored at teardown
        monkeypatch.delenv("REPRO_PROFILE")
        argv = ["--profile", "--jobs", "1", "--iterations", "90",
                "bench", "gcc"]
        assert main(argv) == 0
        assert "REPRO_PROFILE" not in os.environ


class TestSettingsErrors:
    """A malformed or unknown ``REPRO_*`` variable is a bad invocation:
    exit status 2 and one ``repro:`` line, never a traceback or the
    "some jobs failed" status 1."""

    @pytest.mark.parametrize(
        "name, raw",
        [
            ("REPRO_BOGUS", "1"),
            ("REPRO_TRACE_LRU_MB", "inf"),
            ("REPRO_BACKEND", "queue"),
            ("REPRO_TRACE_REPLAY", "0"),
            ("REPRO_PREP_CACHE", "0"),
            ("REPRO_RETRY_BACKOFF", "0"),
            ("REPRO_FAULT_HANG_S", "30"),
            ("REPRO_FAULT_INJECT", "crash:1.0@seed=1"),
            ("REPRO_RETRIES", "2"),
        ],
    )
    def test_bad_setting_exits_2_with_one_line(self, name, raw, tmp_path):
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env.update(
            {
                name: raw,
                "PYTHONPATH": str(src),
                "REPRO_CACHE_DIR": str(tmp_path / ".cache"),
            }
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro", "--jobs", "1", "table2"],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert lines[0].startswith(f"repro: {name}")
        assert "Traceback" not in done.stderr
        assert done.stdout == ""
        assert list(tmp_path.iterdir()) == []
