"""The settings table: one parser per ``REPRO_*`` knob, fail-fast
validation, and the guard that keeps the table the only list."""

import pathlib
import re

import pytest

from repro.experiments import ExperimentEngine
from repro.experiments.settings import (
    KNOBS,
    check_settings,
    knob_table,
    setting,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: One malformed value per knob.  ``REPRO_CACHE_DIR`` has none: any
#: non-blank string is a path.
MALFORMED = {
    "REPRO_JOBS": "four",
    "REPRO_CACHE": "disabled",
    "REPRO_JOB_TIMEOUT": "10s",
    "REPRO_PROFILE": "y",
    "REPRO_TRACE_LRU_MB": "1G",
    "REPRO_BENCH_ITERATIONS": "many",
    "REPRO_BENCH_SEEDS": "1.5",
}


#: Every knob that parses a float.
FLOAT_KNOBS = (
    "REPRO_JOB_TIMEOUT",
    "REPRO_TRACE_LRU_MB",
)


def test_every_knob_but_the_cache_dir_has_a_malformed_case():
    assert set(MALFORMED) == set(KNOBS) - {"REPRO_CACHE_DIR"}


def test_float_knobs_are_the_knobs_that_take_a_fraction(monkeypatch):
    takes_fraction = set()
    for name in KNOBS:
        monkeypatch.setenv(name, "2.5")
        try:
            if setting(name) == 2.5:
                takes_fraction.add(name)
        except ValueError:
            pass
        monkeypatch.delenv(name)
    assert takes_fraction == set(FLOAT_KNOBS)


@pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", FLOAT_KNOBS)
def test_float_knob_rejects_non_finite(name, raw, monkeypatch):
    monkeypatch.setenv(name, raw)
    expected = re.escape(f"{name}={raw!r}: expected a finite number")
    with pytest.raises(ValueError, match=expected):
        setting(name)
    with pytest.raises(ValueError, match=expected):
        check_settings()


@pytest.mark.parametrize("name, raw", sorted(MALFORMED.items()))
def test_malformed_value_names_the_knob(name, raw, monkeypatch):
    monkeypatch.setenv(name, raw)
    with pytest.raises(ValueError) as excinfo:
        setting(name)
    assert name in str(excinfo.value)
    assert repr(raw) in str(excinfo.value)
    with pytest.raises(ValueError, match=name):
        check_settings()


@pytest.mark.parametrize(
    "name, raw",
    [
        ("REPRO_TRACE_LRU_MB", "1G"),
        ("REPRO_TRACE_LRU_MB", "inf"),
        ("REPRO_CACHE", "disabled"),
        ("REPRO_LEASE_TTL", "5m"),
        ("REPRO_TRACE_CACHE", "0"),
    ],
)
def test_engine_refuses_bad_settings_before_any_job(
    name, raw, tmp_path, monkeypatch
):
    monkeypatch.setenv(name, raw)
    with pytest.raises(ValueError, match=name):
        ExperimentEngine(jobs=1, cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_unknown_name_is_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_JBOS", "2")
    with pytest.raises(ValueError, match="REPRO_JBOS is not a setting"):
        check_settings()


@pytest.mark.parametrize(
    "name, raw, value",
    [
        ("REPRO_JOBS", "0", 1),
        ("REPRO_JOBS", "3", 3),
        ("REPRO_JOB_TIMEOUT", "0", None),
        ("REPRO_JOB_TIMEOUT", "-2", None),
        ("REPRO_JOB_TIMEOUT", "1.5", 1.5),
        ("REPRO_TRACE_LRU_MB", "-8", 0.0),
        ("REPRO_CACHE", "OFF", False),
        ("REPRO_PROFILE", "Yes", True),
        ("REPRO_PROFILE", "on", True),
        ("REPRO_CACHE_DIR", "/tmp/somewhere", "/tmp/somewhere"),
        ("REPRO_BENCH_SEEDS", "2", 2),
    ],
)
def test_valid_values_keep_their_meaning(name, raw, value, monkeypatch):
    monkeypatch.setenv(name, raw)
    assert setting(name) == value
    check_settings()


@pytest.mark.parametrize("name", sorted(KNOBS))
def test_unset_or_blank_takes_the_default(name, monkeypatch):
    monkeypatch.delenv(name, raising=False)
    assert setting(name) == KNOBS[name].default
    monkeypatch.setenv(name, "  ")
    assert setting(name) == KNOBS[name].default


def test_readme_table_is_generated_from_the_knobs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(
        r"<!-- settings-table:begin -->\n(.*?)\n<!-- settings-table:end -->",
        readme,
        re.S,
    )
    assert block is not None, "README lost its settings-table markers"
    assert block.group(1) == knob_table()


def _program_files():
    for top in ("src", "benchmarks"):
        yield from sorted((ROOT / top).rglob("*.py"))


def test_every_knob_named_in_the_program_is_in_the_table():
    stray = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in _program_files()
        for name in re.findall(r"REPRO_[A-Z0-9_]+", path.read_text())
        if name not in KNOBS
    }
    assert not stray, sorted(stray)


def test_only_settings_reads_knobs_from_the_environment():
    """``settings.py`` is the one reader: the engine's export of
    ``REPRO_CACHE_DIR`` around ``map()`` and the CLI's ``--profile``
    put the old value back through ``settings.restored``."""
    reads = re.compile(
        r"os\.(?:environ\.get|getenv)\(\s*[\"'](REPRO_[A-Z0-9_]+)"
    )
    found = {
        (path.relative_to(ROOT).as_posix(), name)
        for path in _program_files()
        for name in reads.findall(path.read_text())
    }
    assert not found, sorted(found)
