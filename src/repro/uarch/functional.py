"""Timing-free functional executor.

Three uses:

* **Profiling** (the paper's TRAIN runs): execute the baseline program and
  record every conditional branch's (branch_id, outcome) so the selection
  heuristic can measure bias and predictability.
* **Differential correctness**: the Decomposed Branch Transformation must
  preserve program semantics *regardless of prediction accuracy* -- the
  correction code repairs any misprediction.  This executor takes an
  arbitrary prediction policy for PREDICT instructions, so tests can drive
  transformed programs down always-taken, always-not-taken, random, and
  adversarial prediction streams and assert identical final memory.
* **Trace capture** (:func:`capture_trace`): record the committed
  instruction stream that trace replay (:mod:`repro.uarch.replay`)
  re-times, without running the timing machinery at all.

Like the timing cores, the interpreter loop drives off the program's
pre-decoded rows (:mod:`repro.isa.decode`): integer-kind dispatch and
pre-bound evaluators instead of dataclass attribute walks, sharing one
decode pass with every timing run of the same program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple, Union

from ..branchpred import DirectionPredictor
from ..core.dbb import DecomposedBranchBuffer
from ..isa import Memory, Program
from ..isa.decode import (
    K_BINOP,
    K_BRANCH,
    K_CALL,
    K_CONST,
    K_HALT,
    K_JMP,
    K_LOAD,
    K_NOP,
    K_PREDICT,
    K_RESOLVE,
    K_RET,
    K_SEL,
    K_STORE,
    predecode,
)
from .core import SimulationError, _evaluate_row
from .trace import Trace, TraceCapture, predictor_id

Value = Union[int, float]

#: Maps a static branch id to a predicted direction for PREDICT.
PredictPolicy = Callable[[int], bool]


def always_taken(_branch_id: int) -> bool:
    return True


def always_not_taken(_branch_id: int) -> bool:
    return False


@dataclass
class FunctionalResult:
    registers: List[Value]
    memory: Memory
    instructions_executed: int
    branch_trace: List[Tuple[int, bool]] = field(default_factory=list)
    halted: bool = False
    #: Dynamic count of RESOLVEs that diverted into correction code.
    resolve_mispredicts: int = 0

    def memory_snapshot(self):
        return self.memory.snapshot()


def execute(
    program: Program,
    predict_policy: PredictPolicy = always_not_taken,
    max_instructions: int = 5_000_000,
    record_branch_trace: bool = False,
) -> FunctionalResult:
    """Run ``program`` functionally.

    ``predict_policy`` chooses the direction of each PREDICT instruction;
    the RESOLVE on the chosen path then checks the real condition and, on a
    "mispredict", diverts into the correction code exactly as the hardware
    would.
    """
    decoded = predecode(program)
    rows = decoded.rows
    program_len = decoded.length
    regs: List[Value] = [0] * 64
    memory = Memory.from_segment(program.data)
    mem_load = memory.load
    mem_store = memory.store

    trace: List[Tuple[int, bool]] = []
    trace_append = trace.append
    executed = 0
    resolve_mispredicts = 0
    halted = False
    pc = 0

    while executed < max_instructions:
        if pc < 0 or pc >= program_len:
            raise SimulationError(
                f"pc {pc} outside program of length {program_len}"
            )
        row = rows[pc]
        kind = row[0]
        executed += 1

        if kind == K_BINOP:
            b_reg = row[4]
            regs[row[1]] = row[12](
                regs[row[2][0]], row[3] if b_reg < 0 else regs[b_reg]
            )
            pc += 1
        elif kind == K_BRANCH:
            taken = (regs[row[4]] != 0) == row[12]
            if record_branch_trace:
                trace_append((row[6], taken))
            pc = row[5] if taken else pc + 1
        elif kind == K_LOAD:
            regs[row[1]] = mem_load(
                regs[row[4]] + row[3], speculative=row[9]
            )
            pc += 1
        elif kind == K_STORE:
            mem_store(regs[row[4]] + row[3], regs[row[2][0]])
            pc += 1
        elif kind == K_CONST:
            regs[row[1]] = row[3]
            pc += 1
        elif kind == K_SEL:
            srcs = row[2]
            regs[row[1]] = (
                regs[srcs[1]] if regs[srcs[0]] else regs[srcs[2]]
            )
            pc += 1
        elif kind == K_PREDICT:
            pc = row[5] if predict_policy(row[6]) else pc + 1
        elif kind == K_RESOLVE:
            if (regs[row[4]] != 0) == row[12]:
                resolve_mispredicts += 1
                pc = row[5]
            else:
                pc += 1
        elif kind == K_JMP:
            pc = row[5]
        elif kind == K_CALL:
            regs[row[1]] = pc + 1
            pc = row[5]
        elif kind == K_RET:
            pc = regs[row[4]]
        elif kind == K_NOP:
            pc += 1
        elif kind == K_HALT:
            halted = True
            break
        else:  # K_EVAL_GEN
            regs[row[1]] = _evaluate_row(row, regs)
            pc += 1

    return FunctionalResult(
        registers=regs,
        memory=memory,
        instructions_executed=executed,
        branch_trace=trace,
        halted=halted,
        resolve_mispredicts=resolve_mispredicts,
    )


def collect_branch_trace(
    program: Program, max_instructions: int = 5_000_000
) -> List[Tuple[int, bool]]:
    """The profiling entry point: run and return the branch trace."""
    result = execute(
        program,
        max_instructions=max_instructions,
        record_branch_trace=True,
    )
    return result.branch_trace


def capture_trace(
    program: Program,
    predictor_factory: Callable[[], DirectionPredictor],
    max_instructions: int = 2_000_000,
) -> Trace:
    """Record ``program``'s committed stream for trace replay, untimed.

    The committed stream is timing-invariant (:mod:`.trace`), so this
    walks the pre-decoded rows in program order and builds no memory
    hierarchy, BTB, RAS, scoreboard or port ring.  The one piece of
    machine state that steers the stream is the direction predictor
    (through a decomposed program's PREDICTs), and it is driven in
    exactly :meth:`InOrderCore.run`'s call order: a PREDICT looks up
    and inserts into the DBB, a conditional branch looks up and then
    updates with its outcome, and a RESOLVE applies the deferred update
    held in the DBB tail entry.  The tail is the newest PREDICT's entry
    at any DBB size, so a default-size DBB stands in for every swept
    size.  The trace -- columns, final registers, memory image and
    meta -- is therefore the committed stream of
    ``InOrderCore(config).run`` under every configuration with this
    predictor.

    Raises :class:`SimulationError` when the pc leaves the program, as
    the core does.
    """
    decoded = predecode(program)
    rows = decoded.rows
    program_len = decoded.length
    regs: List[Value] = [0] * 64
    memory = Memory.from_segment(program.data)
    mem_load = memory.load
    mem_spec_load = memory.load_speculative
    mem_store = memory.store

    predictor = predictor_factory()
    predictor_lookup = predictor.lookup
    predictor_update = predictor.update
    dbb = DecomposedBranchBuffer()
    dbb_insert = dbb.insert
    dbb_resolve = dbb.resolve

    capture = TraceCapture()
    cap_pc = capture.pcs.append
    cap_branch_pred = capture.branch_pred.append
    cap_branch_taken = capture.branch_taken.append
    cap_predict_taken = capture.predict_taken.append
    cap_resolve_diverted = capture.resolve_diverted.append
    cap_load_addr = capture.load_addrs.append
    cap_load_suppressed = capture.load_suppressed.append
    cap_store_addr = capture.store_addrs.append
    cap_ret_target = capture.ret_targets.append

    halted = False
    pc = 0

    for _ in range(max_instructions):
        if pc < 0 or pc >= program_len:
            raise SimulationError(
                f"pc {pc} outside program of length {program_len}"
            )
        row = rows[pc]
        kind = row[0]
        cap_pc(pc)

        if kind == K_BINOP:
            b_reg = row[4]
            regs[row[1]] = row[12](
                regs[row[2][0]], row[3] if b_reg < 0 else regs[b_reg]
            )
            pc += 1
        elif kind == K_LOAD:
            address = regs[row[4]] + row[3]
            if row[9]:  # speculative: faults are suppressed
                regs[row[1]], suppressed = mem_spec_load(address)
                cap_load_addr(address)
                cap_load_suppressed(1 if suppressed else 0)
            else:
                regs[row[1]] = mem_load(address)
                cap_load_addr(address)
            pc += 1
        elif kind == K_BRANCH:
            prediction = predictor_lookup(row[6])
            taken = (regs[row[4]] != 0) == row[12]
            predictor_update(prediction, taken)
            cap_branch_pred(1 if prediction.taken else 0)
            if taken:
                cap_branch_taken(1)
                pc = row[5]
            else:
                cap_branch_taken(0)
                pc += 1
        elif kind == K_STORE:
            address = regs[row[4]] + row[3]
            mem_store(address, regs[row[2][0]])
            cap_store_addr(address)
            pc += 1
        elif kind == K_CONST:
            regs[row[1]] = row[3]
            pc += 1
        elif kind == K_SEL:
            srcs = row[2]
            regs[row[1]] = (
                regs[srcs[1]] if regs[srcs[0]] else regs[srcs[2]]
            )
            pc += 1
        elif kind == K_PREDICT:
            branch_id = row[6]
            prediction = predictor_lookup(branch_id)
            dbb_insert(prediction, branch_id)
            if prediction.taken:
                cap_predict_taken(1)
                pc = row[5]
            else:
                cap_predict_taken(0)
                pc += 1
        elif kind == K_RESOLVE:
            predicted_dir = row[11]
            if (regs[row[4]] != 0) == row[12]:
                cap_resolve_diverted(1)
                dbb_resolve(dbb.tail, not predicted_dir, predictor)
                pc = row[5]
            else:
                cap_resolve_diverted(0)
                dbb_resolve(dbb.tail, predicted_dir, predictor)
                pc += 1
        elif kind == K_JMP:
            pc = row[5]
        elif kind == K_CALL:
            regs[row[1]] = pc + 1
            pc = row[5]
        elif kind == K_RET:
            pc = regs[row[4]]
            cap_ret_target(pc)
        elif kind == K_NOP:
            pc += 1
        elif kind == K_HALT:
            halted = True
            break
        else:  # K_EVAL_GEN
            regs[row[1]] = _evaluate_row(row, regs)
            pc += 1

    return capture.finish(
        program,
        regs,
        memory,
        halted,
        max_instructions,
        predictor_id(predictor_factory),
    )
