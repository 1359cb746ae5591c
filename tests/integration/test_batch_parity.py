"""Cross-path parity for the batch access kernel layer.

The batch kernels (``REPRO_BATCH``, on by default) run whole segments
of compiled trace chunks inside one closure call, returning to the
event loop only at epoch/sample boundaries, chunk refills, and run
completion.  They are strength reductions over the fused single-access
path, which is itself a strength reduction over the object path -- so
every flag combination must produce bitwise-identical results:

* ``REPRO_BATCH`` on/off across every scheme family,
* every point of the ``REPRO_BATCH`` x ``REPRO_FUSED`` cube,
* mid-run ``set_allocations`` (epoch repartitions land *between*
  batched segments: the kernel parks at the service boundary and the
  loop re-enters it),
* the heap scheduler path (``num_cores > 8``), which has its own run
  continuation.
"""

import random

import pytest

from repro.harness.env import require_bitwise
from repro.harness.runner import run_mix
from repro.harness.schemes import scheme_partitioned
from repro.sim.configs import small_system
from repro.workloads import make_mix
from repro.workloads.mixes import mix_classes

@pytest.fixture(autouse=True)
def _bitwise_guard():
    """The batch-parity suite pins exact simulation; a stray
    ``REPRO_FASTFWD=1`` in the environment must fail loudly, not
    produce baffling diffs."""
    require_bitwise("the batch-parity suite")


INSTRUCTIONS = 6_000

#: Short epoch so partitioned schemes repartition mid-run, splitting
#: batched segments at service boundaries (reason-1 returns).
EPOCH_CYCLES = 20_000

SCHEMES = [
    "vantage-z4/52",
    "vantage-sa16",
    "drrip-z4/16",
    "lru-sa16",
    "lru-z4/52",
    "srrip-z4/52",
    "waypart-sa16",
    "pipp-sa64",
]

FLAG_NAMES = ("REPRO_BATCH", "REPRO_FUSED")


def _clear_flags(monkeypatch):
    for name in FLAG_NAMES:
        monkeypatch.delenv(name, raising=False)


def _config(scheme: str, **overrides):
    if scheme_partitioned(scheme) and not scheme.startswith("pipp"):
        return small_system(epoch_cycles=EPOCH_CYCLES, **overrides)
    return small_system(**overrides)


def _draw_combos():
    rng = random.Random(0xBA7C4)
    classes = mix_classes()
    return [
        (scheme, rng.choice(classes), rng.randrange(4), rng.randrange(1000))
        for scheme in SCHEMES
    ]


COMBOS = _draw_combos()


@pytest.mark.parametrize("scheme,mix_class,mix_index,seed", COMBOS)
def test_batch_matches_single_access(monkeypatch, scheme, mix_class, mix_index, seed):
    """Whole-segment dispatch vs the per-access loop, every scheme."""
    mix = make_mix(mix_class, mix_index)
    config = _config(scheme)

    _clear_flags(monkeypatch)
    batched = run_mix(mix, scheme, config, INSTRUCTIONS, seed=seed)
    assert batched.system.batch_calls > 0

    monkeypatch.setenv("REPRO_BATCH", "0")
    plain = run_mix(mix, scheme, config, INSTRUCTIONS, seed=seed)
    assert plain.system.batch_calls == 0

    assert batched.result == plain.result
    assert batched.stats() == plain.stats()


#: The ``REPRO_BATCH`` x ``REPRO_FUSED`` cube minus its default (both
#: on), which every point is compared against.
FLAG_POINTS = (
    (("REPRO_BATCH", "0"), ("REPRO_FUSED", "0")),
    (("REPRO_BATCH", "0"), ("REPRO_FUSED", "1")),
    (("REPRO_BATCH", "1"), ("REPRO_FUSED", "0")),
)

#: One (scheme, mix class, seed) per scheme and cube point, fixed so
#: failures reproduce.
FLAG_MIXES = (
    ("lru-sa16", "tttn", 304),
    ("lru-sa16", "tnnn", 284),
    ("lru-sa16", "fttn", 930),
    ("vantage-z4/52", "ssft", 768),
    ("vantage-z4/52", "fftn", 48),
    ("vantage-z4/52", "tnnn", 608),
    ("waypart-sa16", "nnnn", 581),
    ("waypart-sa16", "sftt", 367),
    ("waypart-sa16", "nnnn", 903),
)

FLAG_COMBOS = [
    (scheme, mix_class, seed, flags)
    for (scheme, mix_class, seed), flags in zip(FLAG_MIXES, FLAG_POINTS * 3)
]


@pytest.mark.parametrize("scheme,mix_class,seed,flags", FLAG_COMBOS)
def test_random_flag_combinations(monkeypatch, scheme, mix_class, seed, flags):
    """Every point in the REPRO_BATCH x REPRO_FUSED cube is the same
    simulation."""
    mix = make_mix(mix_class, 1)
    config = _config(scheme)

    _clear_flags(monkeypatch)
    baseline = run_mix(mix, scheme, config, INSTRUCTIONS, seed=seed)

    for name, value in flags:
        monkeypatch.setenv(name, value)
    variant = run_mix(mix, scheme, config, INSTRUCTIONS, seed=seed)

    assert variant.result == baseline.result
    assert variant.stats() == baseline.stats()


@pytest.mark.parametrize("scheme", ["waypart-sa16", "vantage-sa16"])
def test_set_allocations_mid_batch_segment(monkeypatch, scheme):
    """Epoch repartitions fire *during* a batched run: the kernel must
    park at the service boundary, let ``set_allocations`` mutate the
    partition registers it captured as closure cells, and resume
    bitwise-identically to the per-access loop."""
    mix = make_mix("nftt", 2)
    config = _config(scheme)

    _clear_flags(monkeypatch)
    batched = run_mix(mix, scheme, config, INSTRUCTIONS, seed=11)
    # At least one service boundary split the run into multiple
    # kernel entries -- otherwise this test exercises nothing.
    assert batched.system.batch_calls >= 2

    monkeypatch.setenv("REPRO_BATCH", "0")
    plain = run_mix(mix, scheme, config, INSTRUCTIONS, seed=11)

    assert batched.result == plain.result
    assert batched.stats() == plain.stats()


@pytest.mark.parametrize("scheme", ["lru-sa16", "vantage-z4/52"])
def test_heap_scheduler_batch_parity(monkeypatch, scheme):
    """The heap scheduler (num_cores > 8) drives the same batch
    kernels through the ``(t, cid)`` heap instead of the two-minimum
    scan; both selection orders and the heap-path run continuation
    must agree with the per-access loop."""
    mix = make_mix("nfts", 1, apps_per_slot=3)  # 12 cores
    assert mix.num_cores == 12
    config = _config(scheme, num_cores=12)

    _clear_flags(monkeypatch)
    batched = run_mix(mix, scheme, config, INSTRUCTIONS, seed=5)
    assert batched.system.batch_calls > 0

    monkeypatch.setenv("REPRO_BATCH", "0")
    plain = run_mix(mix, scheme, config, INSTRUCTIONS, seed=5)

    assert batched.result == plain.result
    assert batched.stats() == plain.stats()

