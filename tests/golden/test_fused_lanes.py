"""Sweep-fused replay lanes pinned to the simulator goldens.

``tests/uarch/test_replay_multi.py`` holds fused lanes and one-lane
walks to the execute-driven core, and
``tests/uarch/test_trace_replay.py`` runs one narrowest-first fused
width sweep per workload over a trace round-tripped through the binary
container.  This file covers the other two inputs a sweep can get: the
capture as built in memory, and the lanes in widest-first order.  Each
lane must still land on the ``sim_goldens.json`` fingerprint the golden
suite pins for the execute path.  One workload per suite kind keeps it
tier-1 sized.
"""

from __future__ import annotations

import json

import pytest

from repro.compiler import (
    compile_baseline,
    compile_decomposed,
    profile_program,
)
from repro.ir import lower
from repro.uarch import (
    MachineConfig,
    capture_trace,
    replay_inorder_sweep,
)
from repro.workloads import spec_benchmark

from . import generate

#: One workload per suite kind (int2006/fp2006/int2000/fp2000).
_PICKS = ("h264ref", "bwaves", "bzip200", "ammp00")


@pytest.fixture(scope="module")
def goldens():
    return json.loads(generate.GOLDEN_PATH.read_text())["fingerprints"]


@pytest.mark.parametrize("name", _PICKS)
def test_fused_lanes_match_goldens(name, goldens):
    spec = spec_benchmark(name, iterations=generate.ITERATIONS)
    profile = profile_program(
        lower(spec.build(seed=generate.TRAIN_SEED)),
        max_instructions=generate.MAX_INSTRUCTIONS,
    )
    ref = spec.build(seed=generate.REF_SEED)
    programs = {
        "baseline": compile_baseline(ref, profile=profile).program,
        "decomposed": compile_decomposed(ref, profile=profile).program,
    }
    widths = tuple(reversed(generate.WIDTHS))
    machines = [MachineConfig.paper_default(width=w) for w in widths]
    for kind, program in programs.items():
        trace = capture_trace(
            program,
            machines[0].predictor_factory,
            generate.MAX_INSTRUCTIONS,
        )
        runs, outcome = replay_inorder_sweep(program, trace, machines)
        assert outcome == "fused"
        for width, run in zip(widths, runs):
            key = f"{name}/{kind}/w{width}"
            assert generate.fingerprint_run(run) == goldens[key], (
                f"fused replay lane diverged from golden for {key}"
            )
