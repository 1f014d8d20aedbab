"""One-time pre-decode of a :class:`Program` into flat dispatch arrays.

The timing and functional simulators are the hot path of every
experiment: they execute the same static program millions of dynamic
instructions at a time, across several widths and REF seeds.  Walking
``Instruction`` dataclasses per dynamic instruction pays for attribute
lookups, ``Opcode`` enum identity chains, and property recomputation
(``fu_class`` re-derives frozenset membership on every call) -- none of
which depends on anything but the static instruction.

:func:`predecode` lowers each instruction once into a flat tuple of
plain ints/bools/functions (a "row"), pre-resolving everything the
simulators dispatch on:

* an integer *kind* (see the ``K_*`` constants) replacing the
  ``is Opcode.X`` chains;
* the functional-unit index and latency (``FU_*``), pre-resolved from
  the ``fu_class``/``latency`` properties;
* the effective branch id (``branch_id`` falling back to the pc);
* the branch/resolve *sense* bit, unifying BNZ/BZ and
  RESOLVE_NZ/RESOLVE_Z;
* a bound evaluator function for straight-line ALU/FP/compare ops, so
  executing one costs a single call instead of an opcode chain.

The decoded form is cached on the ``Program`` instance, keyed on the
identity of its instruction list, so repeated runs (every width x seed
combination the experiment engine schedules) decode exactly once.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .instructions import Instruction, LATENCY, Opcode, _DEFAULT_LATENCY
from .registers import wrap_int

__all__ = [
    "DecodedProgram",
    "predecode",
    "K_BINOP",
    "K_CONST",
    "K_SEL",
    "K_EVAL_GEN",
    "K_LOAD",
    "K_STORE",
    "K_BRANCH",
    "K_RESOLVE",
    "K_JMP",
    "K_CALL",
    "K_RET",
    "K_NOP",
    "K_PREDICT",
    "K_HALT",
    "FU_NONE",
    "FU_INT",
    "FU_MEM",
    "FU_FP",
    "evaluate_code",
]

# ---------------------------------------------------------------------------
# Dispatch kinds.  PREDICT/HALT sit at the top so the front-end-only gate
# in the simulators is a single ``kind >= K_PREDICT`` comparison.
# ---------------------------------------------------------------------------

K_BINOP = 0  # ALU/FP/compare with the standard (a, b) operand plan
K_CONST = 1  # LI: value fully known at decode time
K_SEL = 2  # conditional select, three register reads
K_EVAL_GEN = 3  # degenerate ALU shapes (no sources); generic evaluator
K_LOAD = 4
K_STORE = 5
K_BRANCH = 6  # BNZ / BZ
K_RESOLVE = 7  # RESOLVE_NZ / RESOLVE_Z
K_JMP = 8
K_CALL = 9
K_RET = 10
K_NOP = 11
K_PREDICT = 12
K_HALT = 13

#: Functional-unit indices (list-indexable, unlike the FuClass enum).
FU_NONE = 0
FU_INT = 1
FU_MEM = 2
FU_FP = 3

#: Row layout (indices into one decoded row tuple).
#: (kind, dest, srcs, imm, aux, target, branch_id, latency, fu,
#:  speculative, hoisted, predicted_dir, fn)
#: ``imm``  -- op-normalised immediate: the ``b`` operand for an
#:             immediate-form binop, the address offset for LOAD/STORE
#:             (``None`` mapped to 0), the constant for LI.
#: ``aux``  -- op-specific small int: the ``b`` source register for a
#:             register-form binop (-1 = use ``imm``), the condition /
#:             address register for branches, resolves, loads and RET,
#:             the value register for STORE.
#: ``fn``   -- bound ``(a, b)`` evaluator for K_BINOP rows, the
#:             taken/divert *sense* bool for K_BRANCH / K_RESOLVE rows,
#:             else ``None``.


def _int_binop(op):
    """ADD/SUB/MUL/DIV evaluators shared by :func:`evaluate_code` and
    the K_BINOP rows, including the int-vs-float wrap_int behaviour."""

    def add(a, b):
        if isinstance(a, int) and isinstance(b, int):
            return wrap_int(a + b)
        return a + b

    def sub(a, b):
        if isinstance(a, int) and isinstance(b, int):
            return wrap_int(a - b)
        return a - b

    def mul(a, b):
        if isinstance(a, int) and isinstance(b, int):
            return wrap_int(a * b)
        return a * b

    def div(a, b):
        if b == 0:
            return 0
        if isinstance(a, int) and isinstance(b, int):
            quotient = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                quotient = -quotient
            return wrap_int(quotient)
        return a / b

    return {
        Opcode.ADD: add,
        Opcode.SUB: sub,
        Opcode.MUL: mul,
        Opcode.DIV: div,
    }[op]


_EVAL_FNS = {
    Opcode.ADD: _int_binop(Opcode.ADD),
    Opcode.SUB: _int_binop(Opcode.SUB),
    Opcode.MUL: _int_binop(Opcode.MUL),
    Opcode.DIV: _int_binop(Opcode.DIV),
    Opcode.AND: lambda a, b: wrap_int(int(a) & int(b)),
    Opcode.OR: lambda a, b: wrap_int(int(a) | int(b)),
    Opcode.XOR: lambda a, b: wrap_int(int(a) ^ int(b)),
    Opcode.SHL: lambda a, b: wrap_int(int(a) << (int(b) & 63)),
    Opcode.SHR: lambda a, b: wrap_int(int(a) >> (int(b) & 63)),
    Opcode.MOV: lambda a, b: a,
    Opcode.FADD: lambda a, b: float(a) + float(b),
    Opcode.FSUB: lambda a, b: float(a) - float(b),
    Opcode.FMUL: lambda a, b: float(a) * float(b),
    Opcode.FDIV: lambda a, b: float(a) / float(b) if b else 0.0,
    Opcode.CMP_EQ: lambda a, b: int(a == b),
    Opcode.CMP_NE: lambda a, b: int(a != b),
    Opcode.CMP_LT: lambda a, b: int(a < b),
    Opcode.CMP_LE: lambda a, b: int(a <= b),
    Opcode.CMP_GT: lambda a, b: int(a > b),
    Opcode.CMP_GE: lambda a, b: int(a >= b),
}

_KIND_BY_OPCODE = {
    Opcode.LOAD: K_LOAD,
    Opcode.STORE: K_STORE,
    Opcode.BNZ: K_BRANCH,
    Opcode.BZ: K_BRANCH,
    Opcode.RESOLVE_NZ: K_RESOLVE,
    Opcode.RESOLVE_Z: K_RESOLVE,
    Opcode.JMP: K_JMP,
    Opcode.CALL: K_CALL,
    Opcode.RET: K_RET,
    Opcode.NOP: K_NOP,
    Opcode.PREDICT: K_PREDICT,
    Opcode.HALT: K_HALT,
    Opcode.LI: K_CONST,
    Opcode.SEL: K_SEL,
}

#: Opcodes whose condition sense is "nonzero" (taken/divert when the
#: condition register is truthy).
_NONZERO_SENSE = frozenset({Opcode.BNZ, Opcode.RESOLVE_NZ})


def evaluate_code(op: Opcode, srcs, imm, regs):
    """Generic straight-line evaluation over the evaluator table the
    K_BINOP rows bind; used for degenerate operand shapes and by
    callers that still hold an :class:`Instruction`."""
    if op is Opcode.LI:
        return imm if imm is not None else 0
    if op is Opcode.SEL:
        return regs[srcs[1]] if regs[srcs[0]] else regs[srcs[2]]
    fn = _EVAL_FNS.get(op)
    if fn is None:
        raise KeyError(f"unhandled opcode {op}")
    a = regs[srcs[0]] if srcs else 0
    if imm is not None:
        b = imm
    elif len(srcs) > 1:
        b = regs[srcs[1]]
    else:
        b = 0
    return fn(a, b)


def _fu_index(inst: Instruction) -> int:
    op = inst.opcode
    if op in (Opcode.PREDICT, Opcode.NOP, Opcode.HALT):
        return FU_NONE
    if op in (Opcode.LOAD, Opcode.STORE):
        return FU_MEM
    if op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV):
        return FU_FP
    return FU_INT


def _decode_one(pc: int, inst: Instruction) -> Tuple:
    op = inst.opcode
    srcs = inst.srcs
    imm = inst.imm
    dest = inst.dest
    latency = LATENCY.get(op, _DEFAULT_LATENCY)
    fu = _fu_index(inst)
    branch_id = inst.branch_id if inst.branch_id is not None else pc
    kind = _KIND_BY_OPCODE.get(op)
    aux = -1
    fn = None

    if kind is None:  # straight-line ALU/FP/compare/move
        fn = _EVAL_FNS.get(op)
        if srcs and fn is not None:
            # Standard operand plan: a = regs[srcs[0]]; b comes from the
            # immediate when present, from regs[aux] when aux >= 0,
            # else a literal 0 (normalised into ``imm``).
            kind = K_BINOP
            if imm is not None:
                aux = -1
            elif len(srcs) > 1:
                aux = srcs[1]
            else:
                aux = -1
                imm = 0
        else:
            # Degenerate shapes (no sources) and unknown opcodes fall
            # back to the generic evaluator at execute time, carrying
            # the opcode in the fn slot.
            kind = K_EVAL_GEN
            fn = op
    elif kind == K_CONST:
        imm = imm if imm is not None else 0
    elif kind in (K_BRANCH, K_RESOLVE):
        aux = srcs[0]
        fn = op in _NONZERO_SENSE  # sense bit
    elif kind == K_LOAD:
        aux = srcs[0]
        imm = imm if imm is not None else 0
    elif kind == K_STORE:
        aux = srcs[1]  # address register; value register is srcs[0]
        imm = imm if imm is not None else 0
    elif kind == K_RET:
        aux = srcs[0]

    return (
        kind,
        dest,
        srcs,
        imm,
        aux,
        inst.target,
        branch_id,
        latency,
        fu,
        inst.speculative,
        inst.hoisted,
        inst.predicted_dir,
        fn,
    )


class DecodedProgram:
    """Flat pre-decoded form of one :class:`Program`."""

    __slots__ = ("rows", "length", "source_id", "has_decomposed")

    def __init__(self, program) -> None:
        instructions = program.instructions
        self.rows: List[Tuple] = [
            _decode_one(pc, inst) for pc, inst in enumerate(instructions)
        ]
        self.length = len(instructions)
        #: Identity of the instruction list the rows were decoded from;
        #: a mutated Program (new list) re-decodes, an unchanged one
        #: hits the cache.
        self.source_id = id(instructions)
        #: Whether any PREDICT/RESOLVE row exists.  A program without
        #: them commits a predictor-independent instruction stream (the
        #: predictor only steers *timing*), so its execution trace can
        #: be keyed -- and shared -- across predictor sweeps
        #: (:mod:`repro.uarch.trace`).
        self.has_decomposed = any(
            row[0] == K_PREDICT or row[0] == K_RESOLVE
            for row in self.rows
        )


def predecode(program) -> DecodedProgram:
    """Return the cached :class:`DecodedProgram` for ``program``.

    Decodes at most once per (program, instruction-list) pair; the
    decoded rows are attached to the program instance so every
    simulation of the same object -- across widths, seeds and predictor
    sweeps -- shares one decode pass.
    """
    cached: Optional[DecodedProgram] = getattr(program, "_decoded", None)
    if cached is not None and cached.source_id == id(program.instructions):
        return cached
    decoded = DecodedProgram(program)
    try:
        program._decoded = decoded
    except AttributeError:  # exotic Program stand-ins without __dict__
        pass
    return decoded
