"""Vectorized replay vs the execute-driven reference core, tier-1 scale.

The golden suite already holds the vectorized replay path to the
execute-driven fingerprints; this file is the fast guard that
compares the kernels *directly* against the scalar reference cores
(``InOrderCore`` / ``OutOfOrderCore``) on a small workload -- in-order
and OOO, recorded and live prediction, OOO windows of one entry and
longer than the stream -- and checks that the kernel really is the one
answering: a decline would run the reference core and match
trivially, so every comparison also asserts (through the
``kernel_declines`` spy) that the kernel served it.  The decline path
itself (a live predictor without a stable name) must reproduce the
reference core too.  And it pins what the kernels leave behind: no
prep layer holds a Python list as long as the stream or an 8-byte
array as long as the stream, built or attached from a slice; an
attached slice leaves the same layers a fresh build does and keeps
the stream it counted against; and building a persisted prep slice
builds no OOO kernel layer.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.branchpred import GSharePredictor
from repro.compiler import (
    compile_baseline,
    compile_decomposed,
    profile_program,
)
from repro.ir import lower
from repro.uarch import (
    InOrderCore,
    MachineConfig,
    OutOfOrderCore,
    Trace,
    TraceMismatch,
    capture_trace,
    predictor_id,
    replay_inorder,
    replay_ooo,
)
from repro.uarch import replay_vec
from repro.uarch.replay_vec import attach_prep_slice, build_prep_slice
from repro.workloads import spec_benchmark

_BUDGET = 60_000


@pytest.fixture(scope="module")
def setup():
    # iterations=40 is the smallest h264ref scale whose profile is hot
    # enough to decompose branches (below it the decomposed program
    # degenerates to the baseline and the mode guards have nothing to
    # reject); the instruction budget keeps the streams tier-1 sized.
    spec = spec_benchmark("h264ref", iterations=40)
    profile = profile_program(
        lower(spec.build(seed=0)), max_instructions=_BUDGET
    )
    ref = spec.build(seed=1)
    programs = {
        "baseline": compile_baseline(ref, profile=profile).program,
        "decomposed": compile_decomposed(ref, profile=profile).program,
    }
    machine = MachineConfig.paper_default(width=4)
    traces = {}
    for kind, program in programs.items():
        trace = capture_trace(program, machine.predictor_factory, _BUDGET)
        traces[kind] = Trace.from_bytes(trace.to_bytes())
    return programs, traces, machine


def _assert_same_run(replayed, executed):
    assert dataclasses.asdict(replayed.stats) == dataclasses.asdict(
        executed.stats
    )
    assert replayed.registers == executed.registers
    assert replayed.memory.snapshot() == executed.memory.snapshot()


@pytest.mark.parametrize("kind", ["baseline", "decomposed"])
@pytest.mark.parametrize("width", [2, 8])
def test_inorder_vectorized_matches_scalar(
    setup, kernel_declines, kind, width
):
    programs, traces, _ = setup
    config = MachineConfig.paper_default(width=width)
    fast = replay_inorder(programs[kind], traces[kind], config)
    slow = InOrderCore(config).run(programs[kind], max_instructions=_BUDGET)
    _assert_same_run(fast, slow)
    assert kernel_declines == [False]


@pytest.mark.parametrize("kind", ["baseline", "decomposed"])
def test_ooo_vectorized_matches_scalar(setup, kernel_declines, kind):
    programs, traces, machine = setup
    fast = replay_ooo(programs[kind], traces[kind], machine, window=32)
    slow = OutOfOrderCore(machine, window=32).run(
        programs[kind], max_instructions=_BUDGET
    )
    _assert_same_run(fast, slow)
    assert kernel_declines == [False]


@pytest.mark.parametrize("kind", ["baseline", "decomposed"])
@pytest.mark.parametrize("window", ["one", "past_stream"])
def test_ooo_window_edges_match_scalar(setup, kernel_declines, kind, window):
    """A one-entry window gates every fetch on the previous back-end
    instruction; a window longer than the stream never fills, so its
    gate never fires."""
    programs, traces, machine = setup
    size = 1 if window == "one" else 2 * traces[kind].committed
    fast = replay_ooo(programs[kind], traces[kind], machine, window=size)
    slow = OutOfOrderCore(machine, window=size).run(
        programs[kind], max_instructions=_BUDGET
    )
    _assert_same_run(fast, slow)
    assert kernel_declines == [False]


def test_ooo_live_predictor_matches_scalar(setup, kernel_declines):
    """The OOO kernel under a live predictor (gshare over the baseline
    trace a hybrid predictor captured) equals the reference core."""
    programs, traces, _ = setup
    config = MachineConfig.paper_default(width=4).with_predictor(
        GSharePredictor
    )
    fast = replay_ooo(programs["baseline"], traces["baseline"], config)
    slow = OutOfOrderCore(config).run(
        programs["baseline"], max_instructions=_BUDGET
    )
    _assert_same_run(fast, slow)
    assert kernel_declines == [False]


def _stream_lists(value, n):
    """The Python lists of length ``n`` in ``value`` or its tuples."""
    if isinstance(value, list):
        return [value] if len(value) == n else []
    if isinstance(value, tuple):
        return [lst for item in value for lst in _stream_lists(item, n)]
    return []


def test_prep_layers_hold_no_stream_length_lists(setup):
    """Both kernels read the prep layers' arrays: after an OOO and an
    in-order replay of one trace, no entry of its base, memory or
    kernel layers is a Python list as long as the stream (the per-pc
    operand table is as long as the program)."""
    programs, traces, machine = setup
    trace = Trace.from_bytes(traces["baseline"].to_bytes())
    replay_ooo(programs["baseline"], trace, machine, window=32)
    replay_inorder(programs["baseline"], trace, machine)
    prep = trace._prep
    n = trace.committed
    assert n > len(programs["baseline"].instructions)
    layers = [prep.base, *prep.mems.values(), *prep.kernels.values()]
    assert len(layers) == 4  # base, one memory layer, both cores' kernels
    for layer in layers:
        for name, value in layer.items():
            assert not _stream_lists(value, n), name


def _arrays(value):
    """Every ndarray in ``value``, its dict values or tuple items."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


def _assert_narrow_layers(prep, n):
    """No layer holds an 8-byte array of stream length ``n``; the
    columns the kernels read per instruction are int32."""
    assert "line_s" not in prep.base
    assert "lat_np" not in prep.base
    layers = (
        prep.base, prep.pred_bits, prep.ras_bits, prep.streams,
        prep.mems, prep.btbs, prep.kernels,
    )
    wide = [
        array.dtype
        for array in _arrays(layers)
        if len(array) == n and array.itemsize == 8
    ]
    assert wide == []
    assert prep.mems and prep.kernels
    for mem in prep.mems.values():
        assert mem["fetch_add"].dtype == np.int32
    for kernel in prep.kernels.values():
        assert kernel["lat"].dtype == np.int32


def test_built_prep_layers_are_at_most_four_bytes_wide(setup):
    """After an OOO and an in-order replay that build every layer, the
    base layer keeps per-pc tables instead of gathered stream columns,
    and ``fetch_add`` and both kernels' ``lat`` are int32."""
    programs, traces, machine = setup
    trace = Trace.from_bytes(traces["baseline"].to_bytes())
    replay_ooo(programs["baseline"], trace, machine, window=32)
    replay_inorder(programs["baseline"], trace, machine)
    assert len(trace._prep.kernels) == 2
    _assert_narrow_layers(trace._prep, trace.committed)


def test_attached_prep_layers_are_at_most_four_bytes_wide(
    setup, kernel_declines
):
    """A slice's ``fetch_add`` attaches at int32, and the replay it
    serves matches the one a fresh build serves."""
    programs, traces, machine = setup
    program = programs["baseline"]
    built = Trace.from_bytes(traces["baseline"].to_bytes())
    blob = build_prep_slice(program, built, machine)
    attached = Trace.from_bytes(traces["baseline"].to_bytes())
    assert attach_prep_slice(program, attached, machine, blob)
    replayed = replay_inorder(program, attached, machine)
    assert kernel_declines == [False]
    _assert_narrow_layers(attached._prep, attached.committed)
    assert replayed.stats == replay_inorder(program, built, machine).stats


def _assert_same_layer(built, attached, where="prep"):
    """``attached`` equals ``built``: the same keys, every array equal
    at the same dtype, every other value equal."""
    if isinstance(built, np.ndarray):
        assert isinstance(attached, np.ndarray), where
        assert attached.dtype == built.dtype, where
        assert np.array_equal(attached, built), where
    elif isinstance(built, (dict, tuple)):
        assert type(attached) is type(built), where
        assert len(attached) == len(built), where
        if isinstance(built, dict):
            assert attached.keys() == built.keys(), where
            pairs = [(key, built[key], attached[key]) for key in built]
        else:
            pairs = list(zip(range(len(built)), built, attached))
        for key, one, other in pairs:
            _assert_same_layer(one, other, f"{where}[{key!r}]")
    else:
        assert attached == built, where


@pytest.mark.parametrize("mode", ["recorded", "live"])
def test_attached_layers_equal_built_layers(setup, kernel_declines, mode):
    """A slice plants only the pass outputs, so after one in-order and
    one OOO replay every layer on an attached trace -- streams, cache
    levels, memory layers, BTB bits, kernels, region tables -- equals
    what the same replays build on a fresh trace, array for array and
    dtype for dtype."""
    programs, traces, machine = setup
    program = programs["baseline"]
    if mode == "live":
        machine = machine.with_predictor(GSharePredictor)
    blob = build_prep_slice(
        program, Trace.from_bytes(traces["baseline"].to_bytes()), machine
    )
    fresh = Trace.from_bytes(traces["baseline"].to_bytes())
    attached = Trace.from_bytes(traces["baseline"].to_bytes())
    assert attach_prep_slice(program, attached, machine, blob)
    assert len(attached._prep.streams) == 1  # the one attach counted
    assert attached._prep.mems == {} and attached._prep.kernels == {}
    for trace in (fresh, attached):
        replay_inorder(program, trace, machine)
        replay_ooo(program, trace, machine, window=32)
    assert kernel_declines == [False] * 4
    for layer in (
        "base", "pred_bits", "ras_bits", "streams", "levels", "mems",
        "btbs", "kernels", "regions",
    ):
        _assert_same_layer(
            getattr(fresh._prep, layer), getattr(attached._prep, layer),
            layer,
        )
    assert len(fresh._prep.kernels) == 2


@pytest.mark.parametrize("mode", ["recorded", "live"])
def test_attach_keeps_the_stream_it_validates(
    setup, kernel_declines, monkeypatch, mode
):
    """Attach builds the stream its length checks count against and
    keeps it, so an attach plus one in-order replay builds the stream
    once."""
    programs, traces, machine = setup
    program = programs["baseline"]
    if mode == "live":
        machine = machine.with_predictor(GSharePredictor)
    blob = build_prep_slice(
        program, Trace.from_bytes(traces["baseline"].to_bytes()), machine
    )
    builds = []
    real = replay_vec._build_stream

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(replay_vec, "_build_stream", counting)
    attached = Trace.from_bytes(traces["baseline"].to_bytes())
    assert attach_prep_slice(program, attached, machine, blob)
    replay_inorder(program, attached, machine)
    assert kernel_declines == [False]
    assert len(builds) == 1


def test_prep_slice_builds_no_ooo_kernel(setup):
    """A prep slice carries the OOO core's BTB set but not its kernel
    layer: building one on a fresh trace leaves no ``"ooo"`` kernel
    behind, and its bytes equal a slice built after an OOO replay had
    built that kernel."""
    programs, traces, machine = setup
    program = programs["baseline"]
    fresh = Trace.from_bytes(traces["baseline"].to_bytes())
    blob = build_prep_slice(program, fresh, machine)
    assert blob is not None
    assert [key for key in fresh._prep.kernels if key[0] == "ooo"] == []
    replayed = Trace.from_bytes(traces["baseline"].to_bytes())
    replay_ooo(program, replayed, machine, window=32)
    assert any(key[0] == "ooo" for key in replayed._prep.kernels)
    assert build_prep_slice(program, replayed, machine) == blob


def test_live_predictor_replay_matches_scalar(setup, kernel_declines):
    """A baseline trace replayed under a *different* predictor runs
    the predictor live; the vectorized path batches that predictor
    pass and must still agree with the reference core."""
    programs, traces, _ = setup
    config = MachineConfig.paper_default(width=4).with_predictor(
        GSharePredictor
    )
    fast = replay_inorder(programs["baseline"], traces["baseline"], config)
    slow = InOrderCore(config).run(
        programs["baseline"], max_instructions=_BUDGET
    )
    _assert_same_run(fast, slow)
    assert kernel_declines == [False]


#: A budget the h264ref stream outruns (it halts after ~12k
#: instructions), so the decline path must honour the trace's budget.
_TRUNCATED = 5_000


class TestDeclineRunsReferenceCore:
    """A live predictor without a stable name has no prep key, so the
    kernels decline it; replay then runs the reference core on the
    program at the trace's budget and must match it exactly."""

    @pytest.fixture(scope="class")
    def declined(self, setup):
        programs, _, machine = setup
        program = programs["baseline"]
        trace = capture_trace(
            program, machine.predictor_factory, _TRUNCATED
        )
        assert not trace.meta["halted"]
        config = machine.with_predictor(lambda: GSharePredictor())
        assert predictor_id(config.predictor_factory) is None
        return program, trace, config

    def test_inorder(self, declined, kernel_declines):
        program, trace, config = declined
        replayed = replay_inorder(program, trace, config)
        assert kernel_declines == [True]
        _assert_same_run(
            replayed,
            InOrderCore(config).run(program, max_instructions=_TRUNCATED),
        )

    def test_ooo(self, declined, kernel_declines):
        program, trace, config = declined
        replayed = replay_ooo(program, trace, config, window=32)
        assert kernel_declines == [True]
        _assert_same_run(
            replayed,
            OutOfOrderCore(config, window=32).run(
                program, max_instructions=_TRUNCATED
            ),
        )


def test_degenerate_ooo_window_rejected(setup):
    programs, traces, machine = setup
    with pytest.raises(ValueError):
        replay_ooo(programs["baseline"], traces["baseline"], machine, window=0)
    with pytest.raises(ValueError):
        OutOfOrderCore(machine, window=0)


class TestMismatchMessages:
    """`TraceMismatch` must name both identities with cleanly
    shortened digests -- no ``{...!r:.20}`` truncation that leaves an
    unbalanced quote."""

    def test_wrong_program_message(self, setup):
        programs, traces, machine = setup
        with pytest.raises(TraceMismatch) as excinfo:
            replay_inorder(programs["decomposed"], traces["baseline"], machine)
        message = str(excinfo.value)
        assert "trace program" in message
        assert "requested program" in message
        # Shortened digests keep head..tail form, no dangling quote.
        assert message.count("'") % 2 == 0
        assert ".." in message

    def test_predictor_identity_message(self, setup):
        programs, traces, _ = setup
        config = MachineConfig.paper_default(width=4).with_predictor(
            GSharePredictor
        )
        with pytest.raises(TraceMismatch) as excinfo:
            replay_inorder(programs["decomposed"], traces["decomposed"], config)
        message = str(excinfo.value)
        assert "captured under" in message
        assert "cannot replay under" in message
        # Both predictor identities appear in full, distinguishable.
        assert "HybridPredictor" in message
        assert "GSharePredictor" in message
