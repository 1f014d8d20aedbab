"""Function-level structure: layout, insertion, validation, cloning."""

import pytest

from repro.ir import BasicBlock, Function, FunctionBuilder, IRError
from repro.isa import DataSegment, Instruction, Opcode


def simple_function():
    fb = FunctionBuilder("f")
    a = fb.block("a")
    a.li(1, 1)
    a.block.fallthrough = "b"
    b = fb.block("b")
    b.halt()
    return fb.build()


class TestLayout:
    def test_entry_is_first_block(self):
        func = simple_function()
        assert func.entry.name == "a"

    def test_layout_order(self):
        func = simple_function()
        assert func.layout() == ["a", "b"]
        assert func.layout_index("b") == 1

    def test_add_block_after(self):
        func = simple_function()
        func.add_block(BasicBlock(name="mid", fallthrough="b"), after="a")
        assert func.layout() == ["a", "mid", "b"]

    def test_add_block_after_missing_raises(self):
        func = simple_function()
        with pytest.raises(IRError):
            func.add_block(BasicBlock(name="x"), after="zzz")

    def test_duplicate_block_raises(self):
        func = simple_function()
        with pytest.raises(IRError):
            func.add_block(BasicBlock(name="a"))

    def test_fresh_block_name(self):
        func = simple_function()
        assert func.fresh_block_name("c") == "c"
        assert func.fresh_block_name("a") == "a.1"
        func.add_block(BasicBlock(name="a.1", fallthrough="b"))
        assert func.fresh_block_name("a") == "a.2"


class TestValidate:
    def test_valid_function_passes(self):
        simple_function().validate()

    def test_missing_successor_fails(self):
        func = simple_function()
        func.block("a").fallthrough = "nowhere"
        with pytest.raises(IRError):
            func.validate()

    def test_block_without_exit_fails(self):
        func = Function(name="f")
        func.add_block(BasicBlock(name="only"))
        with pytest.raises(IRError):
            func.validate()


class TestClone:
    def test_clone_is_structurally_equal(self):
        func = simple_function()
        clone = func.clone()
        assert clone.layout() == func.layout()
        assert clone.static_instruction_count() == func.static_instruction_count()

    def test_clone_blocks_are_independent(self):
        func = simple_function()
        clone = func.clone()
        clone.block("a").append(
            Instruction(opcode=Opcode.ADD, dest=2, srcs=(1,), imm=1)
        )
        assert len(func.block("a")) != len(clone.block("a"))

    def test_clone_data_is_independent(self):
        func = simple_function()
        func.data[5] = 1
        clone = func.clone()
        clone.data[5] = 2
        assert func.data[5] == 1

    def test_clone_shares_a_frozen_segment(self):
        func = simple_function()
        func.data = DataSegment({5: 1})
        assert func.clone().data is func.data


class TestCounts:
    def test_static_instruction_count(self):
        func = simple_function()
        assert func.static_instruction_count() == 2  # li + halt

    def test_instructions_iterates_everything(self):
        func = simple_function()
        assert len(list(func.instructions())) == 2
