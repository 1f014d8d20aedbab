"""Shared test helpers: small hand-built programs and IR fragments, and
a per-session store root that keeps tests off ``results/.cache``."""

from __future__ import annotations

import os

import pytest

from repro.experiments.settings import restored
from repro.ir import FunctionBuilder
from repro.isa import Instruction, Opcode, assemble


@pytest.fixture(autouse=True, scope="session")
def _session_cache_root(tmp_path_factory):
    """Root every store a test does not root itself in this session's
    tmp directory, never in the checkout's ``results/.cache``.  A test's
    own ``monkeypatch.setenv("REPRO_CACHE_DIR", ...)`` still wins."""
    with restored("REPRO_CACHE_DIR"):
        os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache"))
        yield


def build_diamond(
    bias_data,
    iterations=None,
    hoistable_loads=2,
    branch_id=0,
):
    """A minimal profiled hammock: loop over a data-driven diamond.

    ``bias_data`` is the per-iteration branch condition (sequence of 0/1).
    Block B (not taken) adds 1, block C (taken) adds 2; a store in the
    merge makes every decision architecturally visible.
    """
    iterations = iterations if iterations is not None else len(bias_data)
    fb = FunctionBuilder("diamond")
    fb.data(1000, bias_data)

    init = fb.block("init")
    init.li(1, 0)  # i
    init.li(2, iterations)
    init.li(3, 0)  # acc
    init.block.fallthrough = "A"

    a = fb.block("A")
    a.add(4, 1, imm=1000)
    a.load(5, 4, 0)  # cond word
    for j in range(hoistable_loads):
        a.load(10 + j, 4, offset=100 + j)
    a.cmp_ne(6, 5, imm=0)
    a.bnz(6, target="C", fallthrough="B", branch_id=branch_id)

    b = fb.block("B")
    for j in range(hoistable_loads):
        b.load(12 + j, 4, offset=200 + j)
    b.add(3, 3, imm=1)
    b.store(3, 4, offset=500)
    b.jmp("M")

    c = fb.block("C")
    for j in range(hoistable_loads):
        c.load(12 + j, 4, offset=300 + j)
    c.add(3, 3, imm=2)
    c.store(3, 4, offset=500)
    c.block.fallthrough = "M"

    m = fb.block("M")
    m.block.fallthrough = "tail"

    tail = fb.block("tail")
    tail.add(1, 1, imm=1)
    tail.cmp_lt(7, 1, 2)
    tail.bnz(7, target="A", fallthrough="exit", branch_id=branch_id + 100)

    exit_block = fb.block("exit")
    exit_block.store(3, 4, offset=999)
    exit_block.halt()

    return fb.build()


def tiny_program(*instructions, labels=None, data=None):
    """Assemble a handful of instructions, appending HALT."""
    insts = list(instructions) + [Instruction(opcode=Opcode.HALT)]
    return assemble(insts, labels or {}, data=data or {})


@pytest.fixture
def diamond_function():
    pattern = [1, 0, 1, 1, 0, 1, 0, 0] * 16
    return build_diamond(pattern)


@pytest.fixture
def kernel_declines(monkeypatch):
    """One entry per vectorized replay-kernel call made during the test:
    ``True`` where the kernel declined and the reference core answered
    instead.  A replay that matches the reference core proves nothing
    about the kernel unless this shows the kernel served it."""
    from repro.uarch import replay_vec

    declines = []
    for name in ("replay_inorder_stats", "replay_ooo_stats"):
        kernel = getattr(replay_vec, name)

        def spy(*args, _kernel=kernel, **kwargs):
            stats = _kernel(*args, **kwargs)
            declines.append(stats is None)
            return stats

        monkeypatch.setattr(replay_vec, name, spy)
    return declines
