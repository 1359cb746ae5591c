"""Cross-path parity for the shared-memory trace fabric.

``REPRO_TRACE_SHM=1`` swaps the chunk *transport* -- workers map the
publisher's segments zero-copy instead of compiling private
``array('q')`` buffers -- and must never change a simulation: every
result here is required to be bitwise-identical with the fabric on
and off, across the ``REPRO_BATCH`` x ``REPRO_FUSED`` flag cube, and
through a real two-worker ``run_jobs`` fan-out (the publish phase,
the forked attaches, and the owner's unlink at the end).
"""

from __future__ import annotations

import random

import pytest

from repro import traces
from repro.harness import SimJob, run_jobs
from repro.harness.env import require_bitwise
from repro.harness.runner import run_mix
from repro.traces import shm
from repro.sim.configs import small_system
from repro.workloads import make_mix
from repro.workloads.mixes import mix_classes

pytestmark = pytest.mark.skipif(
    shm.shm_dir() is None, reason="no /dev/shm on this platform"
)

INSTRUCTIONS = 6_000
EPOCH_CYCLES = 20_000

FLAG_NAMES = ("REPRO_BATCH", "REPRO_FUSED")


@pytest.fixture(autouse=True)
def _fabric_isolation(monkeypatch):
    """Pin exact simulation, detach from any ambient caches, and tear
    the process-wide pool/store down so no segment leaks past a test."""
    require_bitwise("the shm-parity suite")
    for name in ("REPRO_TRACE_CACHE", "REPRO_RESULTS_CACHE", "REPRO_CACHE_DIR"):
        monkeypatch.delenv(name, raising=False)
    yield
    shm.get_pool().close(unlink=True)
    traces.reset_store()
    shm.reset_pool()


def _draw_combos():
    """Random points in the flag cube (seeded draw: failures repro)."""
    rng = random.Random(0x5421)
    classes = mix_classes()
    combos = []
    for scheme in ("lru-sa16", "vantage-z4/52", "drrip-z4/16"):
        for _ in range(2):
            flags = tuple(
                sorted((name, rng.choice(("0", "1"))) for name in FLAG_NAMES)
            )
            combos.append(
                (scheme, rng.choice(classes), rng.randrange(1000), flags)
            )
    return combos


@pytest.mark.parametrize("scheme,mix_class,seed,flags", _draw_combos())
def test_shm_lane_matches_private_lane(monkeypatch, scheme, mix_class, seed, flags):
    """Owner publishes, a fresh store attaches, and the simulation is
    bitwise-identical to the private-array lane under the same flags."""
    mix = make_mix(mix_class, 1)
    config = small_system(epoch_cycles=EPOCH_CYCLES)
    for name, value in flags:
        monkeypatch.setenv(name, value)

    monkeypatch.setenv("REPRO_TRACE_SHM", "0")
    traces.reset_store()
    baseline = run_mix(mix, scheme, config, INSTRUCTIONS, seed=seed)

    monkeypatch.setenv("REPRO_TRACE_SHM", "1")
    shm.reset_pool()
    owner = traces.reset_store()
    for spec in mix.trace_factories(seed):
        assert owner.publish_prefix(spec, INSTRUCTIONS) > 0

    consumer = traces.reset_store()  # cold store: must go through shm
    variant = run_mix(mix, scheme, config, INSTRUCTIONS, seed=seed)
    assert consumer.shm_hits > 0
    assert consumer.compiles == 0

    assert variant.result == baseline.result
    assert variant.stats() == baseline.stats()


def test_run_jobs_two_worker_fanout_parity(monkeypatch):
    """The full batch path: ``run_jobs`` publishes, forked workers
    attach (``shm_hits`` in their counters), outcomes are identical to
    the serial no-shm run, and the owner's segments are unlinked by
    the pool teardown."""
    jobs = [
        SimJob(
            make_mix("sftn", 1),
            scheme,
            small_system(epoch_cycles=EPOCH_CYCLES),
            INSTRUCTIONS,
            seed=3,
        )
        for scheme in ("lru-sa16", "srrip-sa16", "drrip-z4/16")
    ]

    monkeypatch.setenv("REPRO_TRACE_SHM", "0")
    traces.reset_store()
    serial = run_jobs(jobs, workers=1, use_cache=False)

    monkeypatch.setenv("REPRO_TRACE_SHM", "1")
    shm.reset_pool()
    traces.reset_store()
    fanned = run_jobs(jobs, workers=2, use_cache=False)

    assert [o.result for o in fanned] == [o.result for o in serial]
    assert [o.size_series for o in fanned] == [o.size_series for o in serial]
    worker_hits = [o.trace_counters["shm_hits"] for o in fanned if o.trace_counters]
    assert max(worker_hits) > 0, "no worker attached a shared segment"

    owned = shm.get_pool().owned_names()
    assert owned, "run_jobs parent published nothing"
    shm.get_pool().close(unlink=True)
    leftovers = [
        p.name
        for p in shm.shm_dir().glob(shm.SEGMENT_PREFIX + "*")
        if p.name in owned
    ]
    assert not leftovers


def test_publish_phase_skipped_when_disabled(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_SHM", "0")
    from repro.harness.parallel import publish_traces

    jobs = [
        SimJob(make_mix("sftn", 1), "lru-sa16", small_system(), 2000, seed=1)
    ]
    assert publish_traces(jobs) == 0
    assert shm.get_pool().owned_names() == []


def test_dropped_publishes_are_counted_and_logged(monkeypatch, capsys):
    """A publish that raises is counted once per trace, logged to
    stderr, and the sweep still completes on the private layers."""
    from repro.harness import parallel
    from repro.telemetry import StatGroup

    def broken(self, spec, instructions, **kwargs):
        raise OSError("no space left on device")

    jobs = [
        SimJob(make_mix("sftn", 1), scheme, small_system(), 2_000, seed=3)
        for scheme in ("lru-sa16", "vantage-z4/52")
    ]
    monkeypatch.setenv("REPRO_TRACE_SHM", "0")
    serial = run_jobs(jobs, workers=1, use_cache=False)

    monkeypatch.setenv("REPRO_TRACE_SHM", "1")
    shm.reset_pool()
    store = traces.reset_store()
    monkeypatch.setattr(traces.TraceStore, "publish_prefix", broken)
    fanned = run_jobs(jobs, workers=2, use_cache=False)

    assert [o.result for o in fanned] == [o.result for o in serial]
    distinct = len({store.key_of(s) for s in jobs[0].mix.trace_factories(3)})
    assert store.publish_errors == distinct == jobs[0].mix.num_cores
    assert store.counters()["publish_errors"] == distinct
    tree = StatGroup("harness")
    parallel.register_stats(tree)
    assert tree.snapshot()["trace_store"]["publish_errors"] == distinct
    dropped = [
        line for line in capsys.readouterr().err.splitlines()
        if "trace publish dropped" in line
    ]
    assert len(dropped) == distinct
    assert all("OSError: no space left on device" in line for line in dropped)
