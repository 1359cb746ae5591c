"""Bulk chunk compilers: byte-identical to the generators they replace.

For the private trace kinds the trace store compiles chunks through
:meth:`TraceSpec.compiler` (array operations over a numpy MT19937
stream) instead of pulling pairs from :meth:`TraceSpec.generator`.
The generator stays the oracle: every chunk the store produces must
equal ``compile_chunk(spec.generator(), n)`` byte for byte, across
chunk boundaries, phase switches and producer restarts -- and again
with numpy hidden, where the store falls back to the generator.
"""

from __future__ import annotations

import pytest

from repro.traces import TraceSpec, TraceStore, compile_chunk
from repro.workloads import generators

CHUNK_PAIRS = 60
CHUNKS = 4

#: One spec per private kind and gap mode.  The phased spec's
#: 40-access phases switch inside chunk 0 (pair 40), inside chunk 1
#: (pair 80), at the start of chunk 2 (pair 120) and inside it again.
PRIVATE_SPECS = [
    TraceSpec("zipf-gap", "zipf", (500, 0.9, 25.0), 3 << 44, 11),
    TraceSpec("zipf-nogap", "zipf", (300, 1.1, 0), 1 << 44, 4),
    TraceSpec("loop", "loop", (37, 22.0), 2 << 44, 7),
    TraceSpec("scan", "scan", (1000, 14.0), 5 << 44, 3),
    TraceSpec("phased", "phased-loop", (50, 70, 26.0, 40), 4 << 44, 9),
    TraceSpec("phased-nogap", "phased-loop", (23, 31, 0, 40), 6 << 44, 2),
]


@pytest.fixture(params=["numpy", "no-numpy"])
def numpy_mode(request, monkeypatch):
    if request.param == "no-numpy":
        monkeypatch.setattr(generators, "_np", None)
    return request.param


def _oracle_chunks(spec: TraceSpec, count: int) -> list[bytes]:
    gen = spec.generator()
    return [compile_chunk(gen, CHUNK_PAIRS).tobytes() for _ in range(count)]


@pytest.mark.parametrize("spec", PRIVATE_SPECS, ids=lambda s: s.name)
def test_store_chunks_match_generator(spec, numpy_mode):
    assert (spec.compiler() is None) == (numpy_mode == "no-numpy")
    store = TraceStore(chunk_pairs=CHUNK_PAIRS)
    chunks = [store.get_chunk(spec, i).tobytes() for i in range(CHUNKS)]
    assert chunks == _oracle_chunks(spec, CHUNKS)
    assert store.compiles == CHUNKS


@pytest.mark.parametrize("spec", PRIVATE_SPECS, ids=lambda s: s.name)
def test_restarted_producer_matches_generator(spec, numpy_mode):
    """A request below the producer's next index restarts the stream
    from item zero and still yields the oracle's chunk."""
    store = TraceStore(chunk_pairs=CHUNK_PAIRS, max_chunks=1)
    for index in range(CHUNKS):
        store.get_chunk(spec, index)
    expected = _oracle_chunks(spec, CHUNKS)
    assert store.get_chunk(spec, 1).tobytes() == expected[1]
    assert store.compiles == CHUNKS + 2  # restart recompiled chunks 0 and 1
    assert store.get_chunk(spec, 2).tobytes() == expected[2]


def test_shared_kinds_have_no_compiler():
    private = PRIVATE_SPECS[0]
    spec = TraceSpec(
        "shared", "pc-shared",
        (private.kind, private.params, 9 << 44, 64, 0.3, 0, 0, 2, 5),
        private.base, private.seed,
    )
    assert spec.compiler() is None
    store = TraceStore(chunk_pairs=CHUNK_PAIRS)
    assert store.get_chunk(spec, 2).tobytes() == _oracle_chunks(spec, 3)[2]


def test_degenerate_params_fall_back_to_the_generator():
    """The generator owns the error behaviour of malformed specs."""
    spec = TraceSpec("empty", "loop", (0, 10.0), 0, 1)
    assert spec.compiler() is None
    with pytest.raises(ValueError, match="ws_lines"):
        TraceStore(chunk_pairs=CHUNK_PAIRS).get_chunk(spec, 0)
