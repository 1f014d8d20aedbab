"""Program container: label resolution, size accounting, disassembly."""

import pytest

from repro.isa import (
    AssemblyError,
    DataSegment,
    INSTRUCTION_BYTES,
    Instruction,
    Opcode,
    assemble,
)


def jmp(target):
    return Instruction(opcode=Opcode.JMP, target=target)


def halt():
    return Instruction(opcode=Opcode.HALT)


def add(dest, src, imm):
    return Instruction(opcode=Opcode.ADD, dest=dest, srcs=(src,), imm=imm)


class TestAssemble:
    def test_resolves_labels(self):
        program = assemble([jmp("end"), add(1, 1, 1), halt()], {"end": 2})
        assert program.instructions[0].target == 2

    def test_numeric_targets_pass_through(self):
        program = assemble([jmp(2), add(1, 1, 1), halt()], {})
        assert program.instructions[0].target == 2

    def test_undefined_label_raises(self):
        with pytest.raises(AssemblyError):
            assemble([jmp("missing")], {})

    def test_data_segment_copied(self):
        data = {10: 5}
        program = assemble([halt()], {}, data=data)
        data[10] = 99
        assert program.data[10] == 5

    def test_data_segment_read_only(self):
        program = assemble([halt()], {}, data={10: 5})
        assert isinstance(program.data, DataSegment)
        with pytest.raises(TypeError):
            program.data[10] = 6
        with pytest.raises(TypeError):
            del program.data[10]
        assert program.data == {10: 5}

    def test_data_segment_shared(self):
        segment = DataSegment({10: 5})
        assert assemble([halt()], {}, data=segment).data is segment

    def test_static_size(self):
        program = assemble([add(1, 1, 1), halt()], {})
        assert program.static_size_bytes == 2 * INSTRUCTION_BYTES
        assert len(program) == 2


class TestDataSegment:
    def test_reads_like_a_dict(self):
        words = {12: 1.5, 10: 5, 11: -3}
        segment = DataSegment(words)
        assert segment == words and words == segment
        assert segment == DataSegment(dict(words))
        assert segment != {10: 5}
        assert dict(segment) == words
        assert sorted(segment) == [10, 11, 12]
        assert sorted(segment.items()) == sorted(words.items())
        assert segment[12] == 1.5 and len(segment) == 3
        assert 11 in segment and 13 not in segment

    def test_digest_follows_the_words(self):
        assert DataSegment({10: 5}).digest() == DataSegment({10: 5}).digest()
        assert DataSegment({10: 5}).digest() != DataSegment({10: 6}).digest()
        assert DataSegment({10: 5}).digest() != DataSegment({10: 5.0}).digest()


class TestDisassembly:
    def test_labels_shown(self):
        program = assemble(
            [add(1, 1, 1), jmp("loop"), halt()], {"loop": 0}
        )
        text = program.disassemble()
        assert "loop:" in text
        assert "-> loop" in text

    def test_label_at(self):
        program = assemble([add(1, 1, 1), halt()], {"start": 0})
        assert program.label_at(0) == "start"
        assert program.label_at(1) is None

    def test_windowed_disassembly(self):
        program = assemble([add(1, 1, i) for i in range(10)] + [halt()], {})
        text = program.disassemble(start=2, count=3)
        assert "#2" in text and "#4" in text and "#5" not in text
