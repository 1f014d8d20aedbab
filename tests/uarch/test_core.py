"""Cycle-level in-order core: timing behaviours that carry the paper."""

import pytest

from repro.branchpred import StaticTakenPredictor
from repro.isa import Instruction, MemoryFault, Opcode, assemble
from repro.uarch import (
    InOrderCore,
    MachineConfig,
    OutOfOrderCore,
    capture_trace,
    execute,
)
from tests.conftest import build_diamond, tiny_program


def I(op, **kw):  # noqa: E743
    return Instruction(opcode=op, **kw)


def run(program, config=None, **kw):
    return InOrderCore(config or MachineConfig.paper_default()).run(program, **kw)


def straightline(n, width=4):
    """n independent single-cycle adds."""
    return tiny_program(*[
        I(Opcode.ADD, dest=1 + (k % 8), srcs=(0,), imm=k) for k in range(n)
    ])


class TestIssueWidth:
    def test_width_limits_throughput(self):
        program = straightline(64)
        cycles = {}
        for width in (2, 4, 8):
            cycles[width] = run(
                program, MachineConfig.paper_default(width)
            ).cycles
        assert cycles[2] > cycles[4] >= cycles[8]

    def test_int_port_limit_binds_below_width(self):
        """8-wide but only 2 INT ports: ALU-only code issues at 2/cycle."""
        program = straightline(64)
        wide = run(program, MachineConfig.paper_default(8))
        assert wide.stats.issued == 64
        assert wide.cycles >= 64 / 2  # bounded by INT ports, not width


class TestInOrderBlocking:
    def test_head_of_line_blocking(self):
        """An instruction stalled on a load blocks everything younger,
        even independent work -- the in-order property the paper's whole
        motivation rests on."""
        dependent = tiny_program(
            I(Opcode.LI, dest=1, imm=100),
            I(Opcode.LOAD, dest=2, srcs=(1,)),   # cold DRAM miss
            I(Opcode.ADD, dest=3, srcs=(2,)),    # waits ~140
            I(Opcode.ADD, dest=4, srcs=(0,)),    # independent, still waits
        )
        result = run(dependent)
        assert result.cycles > 140

    def test_load_use_stall_counted(self):
        program = tiny_program(
            I(Opcode.LI, dest=1, imm=100),
            I(Opcode.LOAD, dest=2, srcs=(1,)),
            I(Opcode.ADD, dest=3, srcs=(2,)),
        )
        assert run(program).stats.load_use_stall_cycles > 0


class TestBranches:
    def loop_program(self, iterations):
        return assemble(
            [
                I(Opcode.LI, dest=1, imm=0),
                I(Opcode.LI, dest=2, imm=iterations),
                I(Opcode.ADD, dest=1, srcs=(1,), imm=1),  # head
                I(Opcode.CMP_LT, dest=3, srcs=(1, 2)),
                I(Opcode.BNZ, srcs=(3,), target="head", branch_id=0),
                I(Opcode.HALT),
            ],
            {"head": 2},
        )

    def test_predictable_loop_few_mispredicts(self):
        result = run(self.loop_program(200))
        assert result.stats.cond_branches == 200
        assert result.stats.cond_mispredicts <= 5

    def test_mispredicts_cost_cycles(self):
        """Static always-taken on a 50/50 branch vs the hybrid on an
        always-taken loop: mispredicts must show up as cycles."""
        program = self.loop_program(200)
        good = run(program)
        bad_config = MachineConfig.paper_default().with_predictor(
            lambda: StaticTakenPredictor(taken=False)
        )
        bad = run(program, bad_config)
        assert bad.stats.cond_mispredicts > good.stats.cond_mispredicts
        assert bad.cycles > good.cycles

    def test_taken_redirect_bubbles(self):
        result = run(self.loop_program(64))
        assert result.stats.taken_redirects >= 60


class TestDecomposedBranches:
    def decomposed_program(self):
        """predict -> resolve confirm/divert micro-program."""
        return assemble(
            [
                I(Opcode.LI, dest=1, imm=1),  # cond: "taken"
                I(Opcode.PREDICT, target="t", branch_id=0),
                # predicted-not-taken path:
                I(Opcode.RESOLVE_NZ, srcs=(1,), target="fixc",
                  predicted_dir=False, branch_id=0),
                I(Opcode.LI, dest=2, imm=10),
                I(Opcode.HALT),
                # t: predicted-taken path
                I(Opcode.RESOLVE_Z, srcs=(1,), target="fixb",
                  predicted_dir=True, branch_id=0),
                I(Opcode.LI, dest=3, imm=30),
                I(Opcode.HALT),
                # fixc:
                I(Opcode.LI, dest=4, imm=40),
                I(Opcode.HALT),
                # fixb:
                I(Opcode.LI, dest=5, imm=50),
                I(Opcode.HALT),
            ],
            {"t": 5, "fixc": 8, "fixb": 10},
        )

    def test_predict_consumes_no_issue_slot(self):
        result = run(self.decomposed_program())
        assert result.stats.predicts == 1
        # issued excludes the predict.
        assert result.stats.issued < result.stats.committed

    def test_resolve_divert_redirects_to_correction(self):
        """Force a not-taken prediction; cond is 1 (taken) -> divert."""
        config = MachineConfig.paper_default().with_predictor(
            lambda: StaticTakenPredictor(taken=False)
        )
        result = run(self.decomposed_program(), config)
        assert result.stats.resolves == 1
        assert result.stats.resolve_mispredicts == 1
        assert result.register(4) == 40  # correction path ran

    def test_resolve_confirm_falls_through(self):
        """Force a taken prediction; cond is 1 -> confirmed, no divert."""
        config = MachineConfig.paper_default().with_predictor(
            lambda: StaticTakenPredictor(taken=True)
        )
        result = run(self.decomposed_program(), config)
        assert result.stats.resolve_mispredicts == 0
        assert result.register(3) == 30  # predicted-taken path completed

    def test_dbb_trains_predictor_across_iterations(self):
        """Looping decomposed branch with constant outcome: after warmup
        the predict instruction should steer correctly (no diverts)."""
        program = assemble(
            [
                I(Opcode.LI, dest=1, imm=1),  # cond always "taken"
                I(Opcode.LI, dest=6, imm=0),  # i
                I(Opcode.LI, dest=7, imm=100),
                I(Opcode.PREDICT, target="t", branch_id=0),  # head
                I(Opcode.RESOLVE_NZ, srcs=(1,), target="t_corr",
                  predicted_dir=False, branch_id=0),
                I(Opcode.JMP, target="merge"),
                I(Opcode.RESOLVE_Z, srcs=(1,), target="nt_corr",  # t:
                  predicted_dir=True, branch_id=0),
                I(Opcode.JMP, target="merge"),
                I(Opcode.JMP, target="merge"),  # t_corr:
                I(Opcode.JMP, target="merge"),  # nt_corr:
                I(Opcode.ADD, dest=6, srcs=(6,), imm=1),  # merge:
                I(Opcode.CMP_LT, dest=8, srcs=(6, 7)),
                I(Opcode.BNZ, srcs=(8,), target="head", branch_id=9),
                I(Opcode.HALT),
            ],
            {"head": 3, "t": 6, "t_corr": 8, "nt_corr": 9, "merge": 10},
        )
        result = run(program)
        assert result.stats.predicts == 100
        assert result.stats.resolves == 100
        # Only cold-start diverts; the DBB-trained predictor locks on.
        assert result.stats.resolve_mispredicts <= 5


class TestStatsCoherence:
    def test_diamond_stats(self):
        from repro.ir import lower

        func = build_diamond([1, 0] * 64)
        result = run(lower(func))
        stats = result.stats
        assert stats.halted
        assert stats.committed == stats.fetched
        assert stats.loads > 0 and stats.stores > 0
        assert 0 < stats.ipc <= 4
        assert stats.cond_branches == 2 * 128  # site + latch per iteration

    def test_trace_hook_called(self):
        rows = []
        program = straightline(10)
        run(program, trace=lambda *args: rows.append(args))
        assert len(rows) == 10  # HALT and nothing else excluded

    def test_pc_escape_raises(self):
        from repro.uarch import SimulationError

        program = assemble([I(Opcode.LI, dest=1, imm=0)], {})
        with pytest.raises(SimulationError):
            run(program)


@pytest.mark.parametrize(
    "run_program",
    [
        lambda p: InOrderCore(MachineConfig.paper_default()).run(p),
        lambda p: OutOfOrderCore(MachineConfig.paper_default()).run(p),
        execute,
        lambda p: capture_trace(
            p, MachineConfig.paper_default().predictor_factory, 100
        ),
    ],
    ids=["inorder", "ooo", "execute", "capture"],
)
@pytest.mark.parametrize("address", [-1, 1 << 24])
def test_segment_word_outside_memory_faults_before_running(
    run_program, address
):
    """Every run loads the data segment in one bounds-checked step: a
    word outside ``[0, limit)`` raises ``MemoryFault`` before the first
    instruction, which here would leave the program."""
    program = assemble(
        [I(Opcode.JMP, target=99)], {}, {0: 1, address: 5}
    )
    with pytest.raises(MemoryFault, match="data segment"):
        run_program(program)
