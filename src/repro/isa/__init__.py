"""Instruction set architecture for the Branch Vanguard reproduction.

Public surface: :class:`Instruction`, :class:`Opcode`, :class:`Program`,
:class:`DataSegment`, :class:`RegisterFile`, :class:`Memory`, and the
helpers used by the simulator to evaluate control flow.
"""

from .instructions import (
    FuClass,
    INSTRUCTION_BYTES,
    Instruction,
    LATENCY,
    Opcode,
    branch_taken,
    resolve_diverts,
)
from .asmtext import AsmSyntaxError, program_to_text, text_to_program
from .memory import Memory, MemoryFault, WORD_BYTES
from .program import AssemblyError, DataSegment, Program, assemble
from .registers import (
    FIRST_TEMP_REGISTER,
    LINK_REGISTER,
    NUM_REGISTERS,
    RegisterFile,
    wrap_int,
)

__all__ = [
    "AsmSyntaxError",
    "AssemblyError",
    "DataSegment",
    "FIRST_TEMP_REGISTER",
    "FuClass",
    "INSTRUCTION_BYTES",
    "Instruction",
    "LATENCY",
    "LINK_REGISTER",
    "Memory",
    "MemoryFault",
    "NUM_REGISTERS",
    "Opcode",
    "Program",
    "RegisterFile",
    "WORD_BYTES",
    "assemble",
    "program_to_text",
    "text_to_program",
    "branch_taken",
    "resolve_diverts",
    "wrap_int",
]
