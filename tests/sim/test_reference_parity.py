"""The optimized kernels are pure strength reductions: every
simulation must produce results identical to the reference
(pre-optimization) implementations in :mod:`repro.sim.reference`.
"""

from __future__ import annotations

import pytest

from repro.arrays.base import CacheArray
from repro.arrays.set_assoc import SetAssociativeArray
from repro.arrays.skew import SkewAssociativeArray
from repro.arrays.zcache import ZCacheArray
from repro import telemetry
from repro.harness.env import require_bitwise
from repro.harness import build_policy
from repro.harness.schemes import build_cache
from repro.sim import CMPSystem, small_system
from repro.sim.reference import (
    as_reference_cache,
    as_reference_policy,
    reference_run,
)
from repro.workloads import make_mix

@pytest.fixture(autouse=True)
def _bitwise_guard():
    """The reference-parity suite pins exact simulation; a stray
    ``REPRO_FASTFWD=1`` in the environment must fail loudly, not
    produce baffling diffs."""
    require_bitwise("the reference-parity suite")


INSTRUCTIONS = 12_000


def _build(scheme: str, partitioned: bool, reference: bool, factories, config):
    cache = build_cache(scheme, config.l2_lines, config.num_cores, seed=0)
    policy = build_policy(cache, config, 0) if partitioned else None
    if reference:
        as_reference_cache(cache)
        if policy is not None:
            as_reference_policy(policy)
    return CMPSystem(cache, factories, config, policy=policy)


def _simulate(scheme: str, partitioned: bool, reference: bool):
    config = small_system()
    factories = make_mix("sftn", 1).trace_factories(0)
    system = _build(scheme, partitioned, reference, factories, config)
    if reference:
        return reference_run(system, INSTRUCTIONS)
    return system.run(INSTRUCTIONS)


def _cache_stats(cache) -> dict:
    st = cache.stats
    return {
        "accesses": list(st.accesses),
        "hits": list(st.hits),
        "misses": list(st.misses),
        "evictions": list(st.evictions),
        "sizes": cache.partition_sizes(),
    }


@pytest.mark.parametrize(
    "scheme,partitioned",
    [
        ("vantage-z4/52", True),
        ("vantage-z4/16", True),
        ("vantage-sa16", True),
        ("lru-sa16", False),
        ("lru-z4/52", False),
    ],
)
def test_reference_and_optimized_results_identical(scheme, partitioned):
    optimized = _simulate(scheme, partitioned, reference=False)
    reference = _simulate(scheme, partitioned, reference=True)
    assert optimized == reference


@pytest.mark.parametrize(
    "scheme,partitioned",
    [("vantage-z4/52", True), ("lru-sa16", False)],
)
def test_chunk_and_generator_feeds_identical(scheme, partitioned):
    """A plain generator factory is pulled into per-run buffers that
    re-encode the same stream the trace store compiles for its
    :class:`TraceSpec`: same events in the same order through the
    batch kernel, so bitwise-equal results and stats trees -- and
    both equal the reference event loop."""
    config = small_system()
    specs = make_mix("sftn", 1).trace_factories(0)
    plain = [lambda s=spec: s.generator() for spec in specs]

    runs = []
    for factories in (specs, plain):
        system = _build(scheme, partitioned, False, factories, config)
        tree = telemetry.system_tree(
            cache=system.cache, system=system, policy=system.policy
        )
        result = system.run(INSTRUCTIONS)
        assert system.batch_calls > 0
        runs.append((result, tree.snapshot()))

    (spec_result, spec_stats), (plain_result, plain_stats) = runs
    assert plain_result == spec_result
    assert plain_stats == spec_stats
    assert spec_result == _simulate(scheme, partitioned, reference=True)


def test_finite_plain_factory_restarts_like_reference():
    """A finite plain factory restarts where the reference loop
    restarts it: a 5-item trace on core 1 (restarted many times per
    buffer fill) beside a compiled trace on core 0 matches
    :func:`reference_run` bitwise through the batch kernel."""
    config = small_system(num_cores=2)
    base = 1 << 44
    items = [(3, base + 1), (0, base + 2), (7, base + 900), (1, base + 1), (2, base + 5)]
    factories = [
        make_mix("sftn", 1).trace_factories(0)[0],
        lambda: iter(items),
    ]

    optimized = _build("vantage-z4/52", True, False, factories, config)
    opt_result = optimized.run(INSTRUCTIONS)
    assert optimized.batch_calls > 0

    reference = _build("vantage-z4/52", True, True, factories, config)
    ref_result = reference_run(reference, INSTRUCTIONS)

    assert opt_result == ref_result
    assert _cache_stats(optimized.cache) == _cache_stats(reference.cache)


def test_chunk_feed_cold_and_warm_disk_cache_identical(tmp_path, monkeypatch):
    """Compiling chunks, reading them back from disk, and skipping the
    disk entirely must all replay the same simulation."""
    from repro.traces import get_store, reset_store

    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    reset_store()
    no_disk = _simulate("vantage-z4/52", True, reference=False)

    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    reset_store()
    cold = _simulate("vantage-z4/52", True, reference=False)
    assert get_store().bytes_written > 0  # the cold run populated disk

    reset_store()  # fresh memory: the warm run must come from disk
    warm = _simulate("vantage-z4/52", True, reference=False)
    assert get_store().disk_hits > 0
    assert get_store().compiles == 0

    reset_store()
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    assert cold == no_disk
    assert warm == no_disk


def _walk_parity(array: CacheArray, addrs: list[int]) -> None:
    """candidate_slots/make_candidate must reproduce candidates()
    exactly: same slots, same discovery order, same paths -- up to the
    early stop at the first empty candidate."""
    for addr in addrs:
        full = array.candidates(addr)
        fast = array.candidate_slots(addr)
        if fast is None:
            continue
        slots, parents, has_empty = fast
        slots = list(slots)
        assert slots == [c.slot for c in full[: len(slots)]]
        if has_empty:
            assert array.addr_at(slots[-1]) is None
        rebuilt = [
            array.make_candidate(slots, parents, i) for i in range(len(slots))
        ]
        assert rebuilt == full[: len(slots)]
        if not has_empty:
            assert len(slots) == len(full)
        # Install into the chosen victim exactly as a cache would, so
        # the parity check sweeps over changing occupancy.
        victim = rebuilt[-1]
        array.install(addr, victim)


def _fill_addrs(n: int, seed: int = 9) -> list[int]:
    import random

    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(n)]


@pytest.mark.parametrize(
    "factory",
    [
        lambda: ZCacheArray(256, num_ways=4, candidates_per_miss=16, seed=1),
        lambda: ZCacheArray(128, num_ways=4, candidates_per_miss=52, seed=2),
        lambda: SkewAssociativeArray(256, num_ways=4, seed=3),
        lambda: SetAssociativeArray(256, num_ways=16, seed=4),
    ],
)
def test_candidate_walk_parity_cold_to_full(factory):
    """Parity from an empty array through total occupancy, which
    drives the zcache walk through its careful mode (empty stops) and
    its full-array mode (_WalkLevels path reconstruction)."""
    array = factory()
    addrs = [a for a in _fill_addrs(3 * array.num_lines) if array.lookup(a) is None]
    # Dedup preserving order; install changes membership as we go, so
    # re-check inside the loop instead.
    seen = set()
    unique = [a for a in addrs if not (a in seen or seen.add(a))]
    installed = 0
    for addr in unique:
        if array.lookup(addr) is not None:
            continue
        _walk_parity(array, [addr])
        installed += 1
    assert installed > array.num_lines  # reached and exercised full mode
    assert len(array._slot_of) == array.num_lines


def test_zcache_full_mode_paths_are_valid():
    """In full-array mode every reconstructed path must be a real
    relocation chain: consecutive slots linked by the resident line's
    alternative positions."""
    array = ZCacheArray(64, num_ways=4, candidates_per_miss=16, seed=5)
    addrs = _fill_addrs(400, seed=6)
    for addr in addrs:
        if array.lookup(addr) is not None:
            continue
        fast = array.candidate_slots(addr)
        slots, parents, has_empty = fast
        slots = list(slots)
        for i in range(len(slots)):
            cand = array.make_candidate(slots, parents, i)
            assert cand.slot == slots[i]
            for parent, child in zip(cand.path, cand.path[1:]):
                line = array.addr_at(parent)
                assert line is not None
                assert child in array.positions(line)
        victim = array.make_candidate(slots, parents, len(slots) - 1)
        array.install(addr, victim)
