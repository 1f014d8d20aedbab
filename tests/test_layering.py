"""Layering: the simulated machine never imports the experiment runtime.

The model packages (ISA, IR, compiler, transformation, predictors,
caches, timing cores, workloads, metrics) sit below
:mod:`repro.experiments`, which schedules, caches and supervises their
runs.  An import the other way would tie a model module to the
engine's knobs and stores, so this test parses every model module and
resolves each import, relative forms included.
"""

import ast
import pathlib
from importlib.util import resolve_name

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

MODEL_PACKAGES = (
    "analysis",
    "branchpred",
    "compiler",
    "core",
    "ir",
    "isa",
    "memory",
    "uarch",
    "workloads",
)

RUNTIME = "repro.experiments"


def _is_runtime(target: str) -> bool:
    return target == RUNTIME or target.startswith(RUNTIME + ".")


def _module_name(path: pathlib.Path, root: pathlib.Path) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported(path: pathlib.Path, root: pathlib.Path = SRC):
    """Every module ``path`` (under ``root``) imports, as an absolute
    dotted name, with the line it is imported on.  ``from X import y``
    yields both ``X`` and ``X.y``, since ``y`` may be a submodule."""
    name = _module_name(path, root)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = resolve_name(
                "." * node.level + (node.module or ""), package
            )
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def _model_modules():
    for package in MODEL_PACKAGES:
        yield from sorted((SRC / "repro" / package).rglob("*.py"))


def test_every_model_package_is_checked():
    packages = {
        path.name
        for path in (SRC / "repro").iterdir()
        if (path / "__init__.py").is_file()
    }
    assert packages - {"experiments"} == set(MODEL_PACKAGES)


@pytest.mark.parametrize(
    "source, package, expected",
    [
        ("from ..experiments import engine", "repro.uarch", True),
        ("from .. import experiments", "repro.uarch", True),
        ("import repro.experiments.engine", "repro.uarch", True),
        ("from repro.experiments.store import FileStore", "repro.isa", True),
        ("from ...experiments import store", "repro.uarch.sub", True),
        ("from ..isa import Program", "repro.uarch", False),
        ("from . import trace", "repro.uarch", False),
        ("import repro.experimental", "repro.uarch", False),
    ],
)
def test_resolution_catches_every_form(source, package, expected, tmp_path):
    directory = tmp_path.joinpath(*package.split("."))
    directory.mkdir(parents=True)
    module = directory / "mod.py"
    module.write_text(source + "\n")
    hits = [
        target for _, target in _imported(module, tmp_path)
        if _is_runtime(target)
    ]
    assert bool(hits) == expected, hits


def test_no_model_module_imports_the_experiment_runtime():
    upward = [
        f"{path.relative_to(SRC)}:{line}: {target}"
        for path in _model_modules()
        for line, target in _imported(path)
        if _is_runtime(target)
    ]
    assert not upward, upward
