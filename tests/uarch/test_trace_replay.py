"""Trace capture -> serialise -> load -> replay must be invisible.

Trace replay (:mod:`repro.uarch.replay`) claims bit-identity with
execute-driven simulation, and the timing-free capture
(:func:`repro.uarch.capture_trace`) claims to record exactly the
stream the execute-driven core commits.  These tests hold the pair to
the same golden fingerprints as the simulator itself: for every
SPEC-like workload, both program kinds, widths 2/4/8, a captured trace
-- round-tripped through the binary container -- must replay, one
region walk per width, to the exact fingerprints
``tests/golden/sim_goldens.json`` records for execute-driven runs.
Plus: every predictor of the sensitivity ladder, budget truncation
and pc escapes against the core directly, cross-core replay (one
capture -> OOO replay), live-predictor replay of baseline traces, the
``TraceMismatch`` guard for decomposed programs, and container
corruption detection.
"""

from __future__ import annotations

import json

import pytest

from repro.branchpred import GSharePredictor, HybridPredictor
from repro.compiler import (
    compile_baseline,
    compile_decomposed,
    profile_program,
)
from repro.experiments.sensitivity import LADDER
from repro.ir import lower
from repro.isa import DataSegment, Instruction, Memory, Opcode, assemble
from repro.isa.decode import predecode
from repro.uarch import (
    InOrderCore,
    MachineConfig,
    OutOfOrderCore,
    SimulationError,
    Trace,
    TraceError,
    TraceMismatch,
    capture_trace,
    replay_inorder,
    replay_ooo,
)
from repro.uarch.trace import content_digest
from repro.workloads import spec_benchmark

from tests.golden import generate


@pytest.fixture(scope="module")
def goldens():
    data = json.loads(generate.GOLDEN_PATH.read_text())
    return data["fingerprints"]


def _programs(name: str):
    """Baseline + decomposed programs at the golden-suite scale."""
    spec = spec_benchmark(name, iterations=generate.ITERATIONS)
    profile = profile_program(
        lower(spec.build(seed=generate.TRAIN_SEED)),
        max_instructions=generate.MAX_INSTRUCTIONS,
    )
    ref = spec.build(seed=generate.REF_SEED)
    return {
        "baseline": compile_baseline(ref, profile=profile).program,
        "decomposed": compile_decomposed(ref, profile=profile).program,
    }


def _capture(program, machine, max_instructions=generate.MAX_INSTRUCTIONS):
    return capture_trace(
        program, machine.predictor_factory, max_instructions
    )


def _assert_same_run(replayed, executed):
    assert replayed.stats == executed.stats
    assert replayed.registers == executed.registers
    assert replayed.memory.snapshot() == executed.memory.snapshot()
    assert (
        replayed.memory.faults_suppressed
        == executed.memory.faults_suppressed
    )


@pytest.mark.parametrize("name", generate.workload_names())
def test_replay_roundtrip_matches_golden(name, goldens, kernel_declines):
    """Capture once, serialise, reload, replay at 2/4/8: every
    replayed run must hash to the execute-driven golden, served by the
    region walk (a decline would run the execute-driven core and match
    the golden trivially)."""
    for kind, program in _programs(name).items():
        trace = _capture(program, MachineConfig.paper_default())
        # Full container round-trip before any replay.
        trace = Trace.from_bytes(trace.to_bytes())
        for width in generate.WIDTHS:
            machine = MachineConfig.paper_default(width=width)
            replayed = replay_inorder(program, trace, machine)
            assert (
                generate.fingerprint_run(replayed)
                == goldens[f"{name}/{kind}/w{width}"]
            ), f"replay diverged for {name}/{kind}/w{width}"
            assert kernel_declines == [False], (
                f"kernel declined {name}/{kind}/w{width}"
            )
            kernel_declines.clear()
        # And directly against the reference core, not only its hash.
        _assert_same_run(
            replayed,
            InOrderCore(machine).run(
                program, max_instructions=generate.MAX_INSTRUCTIONS
            ),
        )


@pytest.fixture(scope="module")
def bzip2_programs():
    # bzip2 converts branches at golden scale, so its decomposed
    # program really carries PREDICT/RESOLVE pairs.
    programs = _programs("bzip2")
    assert predecode(programs["decomposed"]).has_decomposed
    return programs


@pytest.mark.parametrize("kind", ["baseline", "decomposed"])
@pytest.mark.parametrize(
    "predictor", [factory for _, factory in LADDER],
    ids=[label for label, _ in LADDER],
)
def test_capture_matches_core_for_every_ladder_predictor(
    bzip2_programs, kernel_declines, kind, predictor
):
    """The capture drives each predictor (and, for PREDICT/RESOLVE,
    the DBB) in the core's call order: replaying what it recorded
    reproduces the core under that predictor exactly."""
    program = bzip2_programs[kind]
    machine = MachineConfig.paper_default(width=4).with_predictor(
        predictor
    )
    trace = _capture(program, machine)
    _assert_same_run(
        replay_inorder(program, trace, machine),
        InOrderCore(machine).run(
            program, max_instructions=generate.MAX_INSTRUCTIONS
        ),
    )
    assert kernel_declines == [False]


def test_capture_truncated_by_budget(bzip2_programs, kernel_declines):
    """A budget the program outruns: the capture stops at exactly the
    budget, unhalted, in the state the core stops in."""
    program = bzip2_programs["decomposed"]
    machine = MachineConfig.paper_default(width=4)
    budget = 5_000
    trace = _capture(program, machine, max_instructions=budget)
    executed = InOrderCore(machine).run(program, max_instructions=budget)
    assert not executed.stats.halted
    assert not trace.meta["halted"]
    assert trace.committed == budget
    _assert_same_run(replay_inorder(program, trace, machine), executed)
    assert kernel_declines == [False]


def test_capture_raises_when_pc_escapes():
    """Falling off the end of the program is an error for the capture
    exactly as for the core."""
    program = assemble([Instruction(opcode=Opcode.LI, dest=1, imm=0)], {})
    machine = MachineConfig.paper_default(width=4)
    with pytest.raises(SimulationError):
        InOrderCore(machine).run(program)
    with pytest.raises(SimulationError):
        _capture(program, machine)


@pytest.mark.parametrize("name", ["mcf", "h264ref"])
def test_ooo_replay_matches_execute(name, kernel_declines):
    """The committed stream is core-independent: one capture replays
    bit-identically on the out-of-order core too (on the OOO kernel,
    not its decline path)."""
    for kind, program in _programs(name).items():
        machine = MachineConfig.paper_default(width=4)
        trace = _capture(program, machine)
        trace = Trace.from_bytes(trace.to_bytes())
        executed = OutOfOrderCore(machine, window=64).run(
            program, max_instructions=generate.MAX_INSTRUCTIONS
        )
        replayed = replay_ooo(program, trace, machine, window=64)
        assert generate.fingerprint_run(replayed) == \
            generate.fingerprint_run(executed)
        assert kernel_declines == [False], f"kernel declined {name}/{kind}"
        kernel_declines.clear()


def test_live_predictor_replay_of_baseline_trace():
    """A baseline program's committed stream is predictor-independent,
    so one capture replays under *any* predictor -- re-simulating the
    direction predictor live -- and matches execute-driven runs."""
    program = _programs("h264ref")["baseline"]
    hybrid = MachineConfig.paper_default(width=4)
    assert hybrid.predictor_factory is HybridPredictor
    trace = _capture(program, hybrid)
    gshare = hybrid.with_predictor(GSharePredictor)
    executed = InOrderCore(gshare).run(
        program, max_instructions=generate.MAX_INSTRUCTIONS
    )
    replayed = replay_inorder(program, trace, gshare)
    assert generate.fingerprint_run(replayed) == \
        generate.fingerprint_run(executed)


def test_decomposed_trace_guards_predictor_identity():
    """A decomposed program's committed path depends on the predictor:
    replaying its trace under a different predictor must refuse."""
    program = _programs("bzip2")["decomposed"]
    assert predecode(program).has_decomposed
    machine = MachineConfig.paper_default(width=4)
    trace = _capture(program, machine)
    # Same predictor: legal (recorded-bits mode).
    replay_inorder(program, trace, machine)
    with pytest.raises(TraceMismatch):
        replay_inorder(
            program, trace, machine.with_predictor(GSharePredictor)
        )


def test_trace_rejects_wrong_program():
    # bzip2 converts branches, so its decomposed program's content
    # digest genuinely differs from the baseline's.
    programs = _programs("bzip2")
    machine = MachineConfig.paper_default(width=4)
    trace = _capture(programs["baseline"], machine)
    with pytest.raises(TraceMismatch):
        replay_inorder(programs["decomposed"], trace, machine)


def test_content_digest_follows_the_data_segment():
    """A program's cached content digest never outlives its data: the
    segment ``assemble`` builds is read-only, and a program whose
    segment is replaced hashes to what a fresh program with the new
    words hashes to."""
    code = [Instruction(opcode=Opcode.HALT)]
    program = assemble(code, {}, data={10: 5})
    before = content_digest(program)
    with pytest.raises(TypeError):
        program.data[10] = 6
    assert content_digest(program) == before
    assert content_digest(assemble(code, {}, data={10: 5})) == before
    after = content_digest(assemble(code, {}, data={10: 6}))
    assert after != before
    program.data = DataSegment({10: 6})
    assert content_digest(program) == after
    program.data = DataSegment({10: 5})
    assert content_digest(program) == before


def test_container_detects_corruption():
    program = _programs("mcf")["baseline"]
    trace = _capture(program, MachineConfig.paper_default(width=2))
    blob = trace.to_bytes()
    with pytest.raises(TraceError):
        Trace.from_bytes(blob[: len(blob) // 2])  # truncated
    with pytest.raises(TraceError):
        Trace.from_bytes(b"NOTTRACE" + blob[8:])  # bad magic
    flipped = bytearray(blob)
    flipped[-1] ^= 0xFF  # corrupt the last column payload
    with pytest.raises(TraceError):
        Trace.from_bytes(bytes(flipped))


def test_replay_builds_its_memory_image_once(bzip2_programs, monkeypatch):
    """A replay leaves the final memory image in the trace's columns
    until it is read, then builds one ``Memory``, equal to the core's."""
    program = bzip2_programs["baseline"]
    machine = MachineConfig.paper_default()
    executed = InOrderCore(machine).run(
        program, max_instructions=generate.MAX_INSTRUCTIONS
    )
    builds = []
    real = Memory.from_snapshot

    def counting(pairs, faults_suppressed=0):
        builds.append(faults_suppressed)
        return real(pairs, faults_suppressed)

    monkeypatch.setattr(Memory, "from_snapshot", counting)
    replayed = replay_inorder(program, _capture(program, machine), machine)
    assert builds == []
    assert replayed.memory_snapshot() == executed.memory_snapshot()
    assert replayed.memory is replayed.memory
    assert (
        replayed.memory.faults_suppressed
        == executed.memory.faults_suppressed
    )
    assert len(builds) == 1


def test_max_outstanding_predicts_is_size_independent():
    """The DBB occupancy statistic read off the trace: positive for a
    program that converts branches, zero for baseline."""
    programs = _programs("bzip2")
    machine = MachineConfig.paper_default(width=4)
    dec_trace = _capture(programs["decomposed"], machine)
    base_trace = _capture(programs["baseline"], machine)
    assert dec_trace.max_outstanding_predicts(
        programs["decomposed"]
    ) >= 1
    assert base_trace.max_outstanding_predicts(
        programs["baseline"]
    ) == 0
