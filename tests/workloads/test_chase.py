"""Pointer-chase chain properties (the cache-behaviour substrate)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import lower
from repro.uarch.trace import content_digest
from repro.workloads import spec_benchmark
from repro.workloads.synthetic import (
    CHASE_WINDOW_LINES,
    _LINE_WORDS,
    _chase_chain,
    _chase_chains,
)


@settings(max_examples=20, deadline=None)
@given(lines=st.integers(2, 512), seed=st.integers(0, 1000))
def test_chain_is_a_single_cycle(lines, seed):
    """Sattolo guarantee: following the chain visits every line exactly
    once before returning to the start -- the reuse distance is exactly
    ``lines`` steps for every line."""
    base = 1 << 20
    chain = _chase_chain(base, lines, random.Random(seed))
    assert len(chain) == lines

    visited = set()
    cursor = base
    for _ in range(lines):
        assert cursor not in visited
        visited.add(cursor)
        cursor = chain[cursor]
    assert cursor == base  # back at the start: one cycle
    assert len(visited) == lines


@given(lines=st.integers(2, 256), seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_chain_addresses_line_aligned_and_in_region(lines, seed):
    base = 1 << 16
    chain = _chase_chain(base, lines, random.Random(seed))
    upper = base + lines * _LINE_WORDS
    for address, target in chain.items():
        assert base <= address < upper
        assert base <= target < upper
        assert (address - base) % _LINE_WORDS == 0
        assert (target - base) % _LINE_WORDS == 0


def test_chain_deterministic_for_seeded_rng():
    a = _chase_chain(0, 64, random.Random(7))
    b = _chase_chain(0, 64, random.Random(7))
    assert a == b


def test_no_self_loops():
    chain = _chase_chain(0, 128, random.Random(3))
    for address, target in chain.items():
        assert address != target


@pytest.mark.parametrize("name", ["mcf", "omnetpp"])
def test_chase_cache_leaves_builds_unchanged(name):
    """mcf draws two 65,536-line DRAM chains, omnetpp two l3 chains
    whose windows grow with the iteration count.  Every (size, seed)
    build lowers to the same program with the chase cache cleared
    before it and with the cache warm from the other builds."""
    builds = [
        (spec_benchmark(name, iterations=iterations), seed)
        for iterations in (40, 80)
        for seed in (0, 1, 2)
    ]
    cold = []
    for spec, seed in builds:
        _chase_chains.cache_clear()
        cold.append(content_digest(lower(spec.build(seed=seed))))
    warm = [
        content_digest(lower(spec.build(seed=seed))) for spec, seed in builds
    ]
    assert warm == cold
    # Every seed of one size shares one pair (mcf's windows do not
    # depend on the size), and the cache keeps only the latest pair.
    info = _chase_chains.cache_info()
    assert info.hits > 0
    assert info.currsize == 1
    if name == "mcf":
        dram = CHASE_WINDOW_LINES["dram"]
        cond, cold_chain = _chase_chains(name, dram, dram)
        assert len(cond) == len(cold_chain) == 65536


def test_prepare_benchmark_drops_the_pair(tmp_path, monkeypatch):
    """Every REF build reads the pair: a cold ``prepare_benchmark``
    at its TRAIN build and again at its REF build, the next seed's
    call at its REF build.  The call for the config's last REF seed
    drops it, so no pair outlives the benchmark (mcf's would pin two
    65,536-line dicts)."""
    from dataclasses import replace

    from repro.experiments import harness
    from repro.experiments.artifacts import ArtifactStore

    released = []
    release = harness.release_chase_chains

    def counted_release():
        released.append(_chase_chains.cache_info())
        release()

    monkeypatch.setattr(harness, "release_chase_chains", counted_release)
    _chase_chains.cache_clear()
    config = replace(harness.RunConfig.quick(), ref_seeds=(1, 2))
    store = ArtifactStore(tmp_path)
    harness.prepare_benchmark("mcf", 1, config, store)
    assert not released
    assert _chase_chains.cache_info().currsize == 1
    harness.prepare_benchmark("mcf", 2, config, store)
    # Seed 2's REF build reused the pair seed 1's TRAIN build drew.
    [info] = released
    assert (info.misses, info.hits) == (1, 2)
    assert _chase_chains.cache_info().currsize == 0
