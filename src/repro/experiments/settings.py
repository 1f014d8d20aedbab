"""Every ``REPRO_*`` environment knob, in one table.

This module is the one place the program reads a ``REPRO_*`` variable.
:func:`setting` reads the environment on every call and caches nothing
(pool workers inherit the parent's environment; tests set knobs per
test).  An unset or blank knob takes its default; a malformed value
raises ``ValueError`` naming the variable, the value and the accepted
form.  :func:`check_settings` also rejects any ``REPRO_*`` name the
table lacks, and :class:`~.engine.ExperimentEngine` calls it on
construction, so a typo or a bad value stops a run before its first
job.  README's "Configuration" table is :func:`knob_table`'s output.
"""

from __future__ import annotations

import contextlib
import math
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional

#: Repo-level results directory (works for the src-layout checkout).
RESULTS_DIR = pathlib.Path(__file__).resolve().parents[3] / "results"


@dataclass(frozen=True)
class Knob:
    """``parse`` maps a stripped, non-blank value to a setting or raises
    ``ValueError`` naming the accepted form."""

    name: str
    default: Any
    parse: Callable[[str], Any]
    doc: str


def _flag(raw: str) -> bool:
    word = raw.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected one of 1/0/true/false/yes/no/on/off")


def _number(kind: type, floor: Optional[float] = None) -> Callable:
    """Parser for an ``int`` or ``float`` knob; values below ``floor``
    read as ``floor``.  A float knob rejects ``inf`` and ``nan``."""

    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            form = "an integer" if kind is int else "a number"
            raise ValueError(f"expected {form}") from None
        if not math.isfinite(value):
            raise ValueError("expected a finite number")
        return value if floor is None else max(floor, value)

    return parse


def _timeout(raw: str) -> Optional[float]:
    value = _number(float)(raw)
    return value if value > 0 else None


KNOBS: Dict[str, Knob] = {knob.name: knob for knob in (
    Knob("REPRO_JOBS", None, _number(int, 1),
         "Worker processes (`--jobs`), at least 1; unset means every "
         "core."),
    Knob("REPRO_CACHE", True, _flag,
         "The result cache (`--no-cache` turns it off)."),
    Knob("REPRO_CACHE_DIR", None, str,
         "Root of the result cache, traces, prep slices and "
         "profiles; unset means `results/.cache`."),
    Knob("REPRO_JOB_TIMEOUT", None, _timeout,
         "Per-job wall-clock limit in seconds, enforced when jobs > 1 "
         "(`--job-timeout`); unset, 0 or less means none."),
    Knob("REPRO_PROFILE", False, _flag,
         "cProfile every engine job (`--profile`)."),
    Knob("REPRO_TRACE_LRU_MB", 256.0, _number(float, 0.0),
         "In-process hot-trace LRU budget in MiB."),
    Knob("REPRO_BENCH_ITERATIONS", 500, _number(int),
         "Workload iterations in `pytest benchmarks/`; 600 reproduces "
         "EXPERIMENTS.md."),
    Knob("REPRO_BENCH_SEEDS", 1, _number(int),
         "REF seeds in `pytest benchmarks/`."),
)}


def setting(name: str) -> Any:
    """The current value of knob ``name``."""
    knob = KNOBS[name]
    raw = os.environ.get(name, "").strip()
    if not raw:
        return knob.default
    try:
        return knob.parse(raw)
    except ValueError as exc:
        raise ValueError(f"{name}={raw!r}: {exc}") from None


def check_settings() -> None:
    """Parse every ``REPRO_*`` variable that is set; raise
    ``ValueError`` on a malformed value or a name the table lacks."""
    for name in sorted(os.environ):
        if name.startswith("REPRO_") and name not in KNOBS:
            raise ValueError(
                f"{name} is not a setting; the settings are "
                f"{', '.join(KNOBS)}"
            )
        if name in KNOBS:
            setting(name)


@contextlib.contextmanager
def restored(name: str) -> Iterator[None]:
    """Put knob ``name`` back in the environment as it was when the
    block began.  The environment is how a value reaches pool workers,
    so a caller may set the knob inside the block without changing it
    for the rest of the process."""
    saved = os.environ.get(name)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = saved


def cache_root(cache_dir: Optional[pathlib.Path] = None) -> pathlib.Path:
    """``cache_dir`` when given, else ``REPRO_CACHE_DIR``, else
    ``results/.cache``."""
    if cache_dir is None:
        cache_dir = setting("REPRO_CACHE_DIR") or RESULTS_DIR / ".cache"
    return pathlib.Path(cache_dir)


def knob_table() -> str:
    """The Markdown table of every knob (README's "Configuration")."""
    rows = ["| Variable | Default | Meaning |", "|---|---|---|"]
    for knob in KNOBS.values():
        default = knob.default
        if isinstance(default, bool):
            shown = "on" if default else "off"
        else:
            shown = "unset" if default is None else f"`{default}`"
        rows.append(f"| `{knob.name}` | {shown} | {knob.doc} |")
    return "\n".join(rows)
