"""Synthetic address-stream generators.

Each generator yields an infinite stream of ``(gap, line_addr)``
pairs: ``gap`` is the number of instructions executed since the
previous L2 access (the traces are post-L1, matching how the paper's
L2 sees each core), and ``line_addr`` is a line address inside the
application's private address space.

The four shapes map to the paper's four workload categories (Table 3)
through their miss-versus-capacity curves under LRU:

- ``zipf_stream`` over a small working set: *insensitive* -- all
  reuse hits in a tiny footprint, so extra capacity changes nothing.
- ``zipf_stream`` over a large working set: *cache-friendly* -- the
  skewed popularity law makes misses fall smoothly as capacity grows.
- ``loop_stream``: *cache-fitting* -- a sequential loop under LRU
  misses on everything until the allocation covers the whole working
  set, then on nothing: the sharp knee.
- ``scan_stream``: *thrashing/streaming* -- sequential access over a
  region far larger than the cache; no allocation helps.

``phased_stream`` alternates two generators to create the time-varying
behaviour UCP reacts to in Figure 8.

Each private shape also has a *chunk compiler* (``zipf_compiler``,
``loop_compiler``, ``scan_compiler``, ``phased_loop_compiler``) that
produces the same stream a whole chunk at a time.  It hands the
generator's ``random.Random`` state to ``numpy.random.RandomState``
(legacy ``random_sample`` uses ``random.random``'s 53-bit formula, so
the draws are the same doubles) and builds gaps and addresses with
array operations.  The generators stay the reference: compiled chunks
are byte-identical to ``compile_chunk(generator, n)``, and a compiler
returns ``None`` -- falling back to the generator -- when numpy is
unavailable or the parameters are degenerate.

The ``*_shared`` wrappers turn a private per-core stream into a
multi-threaded one: with probability ``fraction`` an access is
redirected into a *shared region* that overlaps the same lines on
every core of the mix.  The private stream still advances (its gap is
kept, so timing is unchanged); only the line address is substituted.
Three sharing shapes are provided:

- ``producer_consumer_stream``: every core sweeps one common ring in
  the same order, offset by a per-core phase -- lines installed by one
  core are re-read by the cores trailing it.
- ``shared_table_stream``: Zipf-popular reads of a common table; the
  popularity law and line permutation derive from ``shared_seed``
  alone, so the *same* lines are hot on every core (read-mostly
  sharing).
- ``migratory_stream``: cores take turns owning the shared set in
  time-slice windows; within its window a core sweeps the region with
  boosted probability, so lines migrate between partitions over time.
"""

from __future__ import annotations

import bisect
import random
from array import array
from collections.abc import Callable, Iterator
from math import log as _log

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

TracePair = tuple[int, int]

#: ``next_chunk(pairs)``: the next ``pairs`` pairs of a stream as one
#: flat ``array('q')`` of interleaved ``gap, addr`` items.
ChunkCompiler = Callable[[int], array]


def _gap(rng: random.Random, mean_gap: float) -> int:
    """Geometric-ish instruction gap with the requested mean."""
    return int(rng.expovariate(1.0 / mean_gap)) if mean_gap > 0 else 0


def zipf_stream(
    ws_lines: int,
    alpha: float,
    mean_gap: float,
    base: int,
    seed: int,
) -> Iterator[TracePair]:
    """Independent references with Zipf(alpha) popularity over
    ``ws_lines`` lines."""
    if ws_lines <= 0:
        raise ValueError("ws_lines must be positive")
    rng = random.Random(seed)
    cumulative, total, perm = _zipf_table(ws_lines, alpha, rng)
    # Hot loop: expovariate is inlined (its body is exactly
    # ``-log(1 - random()) / lambd``) so each item costs two C-level
    # RNG draws, one bisect and one log -- no Python calls.
    rnd = rng.random
    bisect_left = bisect.bisect_left
    lambd = 1.0 / mean_gap if mean_gap > 0 else None
    if lambd is None:
        while True:
            rank = bisect_left(cumulative, rnd() * total)
            yield 0, base + perm[rank]
    while True:
        rank = bisect_left(cumulative, rnd() * total)
        yield int(-_log(1.0 - rnd()) / lambd), base + perm[rank]


def _zipf_table(
    lines: int, alpha: float, rng: random.Random
) -> tuple[list[float], float, list[int]]:
    """Cumulative Zipf(alpha) weights over ``lines`` ranks, their
    total, and a ``rng``-shuffled rank-to-line permutation."""
    cumulative = []
    total = 0.0
    for rank in range(1, lines + 1):
        total += rank**-alpha
        cumulative.append(total)
    # Map popularity ranks to scattered line offsets so the footprint
    # is not contiguous (defeats accidental spatial effects).
    perm = list(range(lines))
    rng.shuffle(perm)
    return cumulative, total, perm


def loop_stream(
    ws_lines: int,
    mean_gap: float,
    base: int,
    seed: int,
) -> Iterator[TracePair]:
    """Sequential loop over ``ws_lines`` lines (cache-fitting knee)."""
    if ws_lines <= 0:
        raise ValueError("ws_lines must be positive")
    rng = random.Random(seed)
    rnd = rng.random
    lambd = 1.0 / mean_gap if mean_gap > 0 else None
    index = 0
    while True:
        if lambd is None:
            yield 0, base + index
        else:
            yield int(-_log(1.0 - rnd()) / lambd), base + index
        index += 1
        if index >= ws_lines:
            index = 0


def scan_stream(
    region_lines: int,
    mean_gap: float,
    base: int,
    seed: int,
) -> Iterator[TracePair]:
    """Endless sequential scan over a huge region (streaming)."""
    return loop_stream(region_lines, mean_gap, base, seed)


def _shared_rng(shared_seed: int, seed: int) -> random.Random:
    """Per-core RNG for shared-region decisions.

    ``seed`` is the core's private stream seed (which already encodes
    the run seed and the core id), so cores draw independent decision
    streams while the run as a whole stays reproducible.
    """
    return random.Random(shared_seed * 1_000_003 + seed)


def producer_consumer_stream(
    private: Iterator[TracePair],
    shared_base: int,
    shared_lines: int,
    fraction: float,
    core: int,
    num_cores: int,
    shared_seed: int,
    seed: int,
) -> Iterator[TracePair]:
    """Common ring swept in the same order by every core.

    Each core starts at a phase offset of ``shared_lines/num_cores``
    lines, so the lines one core installs are re-touched by the cores
    behind it: classic producer/consumer reuse where the requester is
    rarely the line's first-touch owner.
    """
    if shared_lines <= 0:
        raise ValueError("shared_lines must be positive")
    rnd = _shared_rng(shared_seed, seed).random
    pos = (core * shared_lines) // max(1, num_cores)
    while True:
        gap, addr = next(private)
        if rnd() < fraction:
            addr = shared_base + pos
            pos += 1
            if pos >= shared_lines:
                pos = 0
        yield gap, addr


def shared_table_stream(
    private: Iterator[TracePair],
    shared_base: int,
    shared_lines: int,
    fraction: float,
    alpha: float,
    core: int,
    num_cores: int,
    shared_seed: int,
    seed: int,
) -> Iterator[TracePair]:
    """Read-mostly shared table with Zipf(alpha) popularity.

    The popularity ranking and the rank-to-line permutation are drawn
    from ``shared_seed`` only, so every core hammers the *same* hot
    lines -- the read-shared lookup-table pattern.
    """
    if shared_lines <= 0:
        raise ValueError("shared_lines must be positive")
    cumulative, total, perm = _zipf_table(
        shared_lines, alpha, random.Random(shared_seed)
    )
    rnd = _shared_rng(shared_seed, seed).random
    bisect_left = bisect.bisect_left
    while True:
        gap, addr = next(private)
        if rnd() < fraction:
            rank = bisect_left(cumulative, rnd() * total)
            addr = shared_base + perm[rank]
        yield gap, addr


def migratory_stream(
    private: Iterator[TracePair],
    shared_base: int,
    shared_lines: int,
    fraction: float,
    window: int,
    core: int,
    num_cores: int,
    shared_seed: int,
    seed: int,
) -> Iterator[TracePair]:
    """Shared lines whose ownership migrates between cores over time.

    Cores take turns in round-robin windows of ``window`` accesses
    (counted per core): inside its window a core sweeps the shared
    region with probability ``min(1, fraction * num_cores)``, outside
    it almost never touches it -- so over the run the whole shared set
    is handed from partition to partition.  The sweep position
    persists across a core's windows, so successive owners re-touch
    the same lines.
    """
    if shared_lines <= 0:
        raise ValueError("shared_lines must be positive")
    if window <= 0:
        raise ValueError("window must be positive")
    rnd = _shared_rng(shared_seed, seed).random
    boost = min(1.0, fraction * max(1, num_cores))
    cores = max(1, num_cores)
    pos = (core * shared_lines) // cores
    n = 0
    while True:
        gap, addr = next(private)
        mine = (n // window) % cores == core
        n += 1
        if mine and rnd() < boost:
            addr = shared_base + pos
            pos += 1
            if pos >= shared_lines:
                pos = 0
        yield gap, addr


def phased_stream(
    make_phase_a,
    make_phase_b,
    phase_accesses: int,
    base: int,
    seed: int,
) -> Iterator[TracePair]:
    """Alternate two sub-streams every ``phase_accesses`` accesses.

    ``make_phase_a`` / ``make_phase_b`` are called as
    ``fn(base, seed)`` and must return generators; phases resume where
    they left off, preserving each phase's locality.
    """
    gen_a = make_phase_a(base, seed)
    gen_b = make_phase_b(base + (1 << 30), seed + 1)
    while True:
        for _ in range(phase_accesses):
            yield next(gen_a)
        for _ in range(phase_accesses):
            yield next(gen_b)


# -- chunk compilers ---------------------------------------------------


def _numpy_rng(rng: random.Random):
    """A ``numpy.random.RandomState`` that continues ``rng``'s MT19937
    stream: ``random_sample(n)`` returns the next ``n`` values
    ``rng.random()`` would, bit for bit."""
    _version, internal, _gauss = rng.getstate()
    state = _np.random.RandomState(0)
    state.set_state(
        ("MT19937", _np.array(internal[:624], dtype=_np.uint32), internal[624])
    )
    return state


def _gaps(draws, lambd: float):
    """``int(-log(1.0 - u) / lambd)`` for every draw ``u``.

    The logs come from the interpreter's ``math.log``, not ``np.log``:
    the two may round differently in the last place, and ``int()``
    turns a 1-ulp difference into a different gap.
    """
    logs = _np.fromiter(
        map(_log, (1.0 - draws).tolist()), dtype=_np.float64, count=len(draws)
    )
    return (-logs / lambd).astype(_np.int64)


def _interleave(gaps, addrs) -> array:
    """Flat ``gap, addr, gap, addr, ...`` chunk from two columns
    (``gaps`` may be the scalar 0)."""
    out = _np.empty(2 * len(addrs), dtype=_np.int64)
    out[0::2] = gaps
    out[1::2] = addrs
    chunk = array("q")
    chunk.frombytes(out.tobytes())
    return chunk


def zipf_compiler(
    ws_lines: int,
    alpha: float,
    mean_gap: float,
    base: int,
    seed: int,
) -> ChunkCompiler | None:
    """``zipf_stream`` a chunk at a time: ``searchsorted`` (left side)
    over the same table stands in for ``bisect_left``.  Per pair the
    generator draws the rank first and then the gap, so the two
    columns take alternate draws."""
    if _np is None or ws_lines <= 0:
        return None
    rng = random.Random(seed)
    cumulative, total, perm = _zipf_table(ws_lines, alpha, rng)
    cumulative = _np.array(cumulative)
    lines = _np.array(perm, dtype=_np.int64) + base
    draw = _numpy_rng(rng).random_sample
    lambd = 1.0 / mean_gap if mean_gap > 0 else None

    def next_chunk(pairs: int) -> array:
        if lambd is None:
            ranks = cumulative.searchsorted(draw(pairs) * total)
            return _interleave(0, lines[ranks])
        draws = draw(2 * pairs)
        ranks = cumulative.searchsorted(draws[0::2] * total)
        return _interleave(_gaps(draws[1::2], lambd), lines[ranks])

    return next_chunk


def _loop_columns(ws_lines: int, mean_gap: float, base: int, seed: int):
    """``take(n) -> (gaps, addrs)``: the next ``n`` pairs of
    ``loop_stream`` as two columns (``gaps`` is 0 without a mean gap)."""
    draw = _numpy_rng(random.Random(seed)).random_sample
    lambd = 1.0 / mean_gap if mean_gap > 0 else None
    index = 0

    def take(count: int):
        nonlocal index
        addrs = (index + _np.arange(count, dtype=_np.int64)) % ws_lines + base
        index = (index + count) % ws_lines
        return (0 if lambd is None else _gaps(draw(count), lambd)), addrs

    return take


def loop_compiler(
    ws_lines: int,
    mean_gap: float,
    base: int,
    seed: int,
) -> ChunkCompiler | None:
    """``loop_stream`` a chunk at a time."""
    if _np is None or ws_lines <= 0:
        return None
    take = _loop_columns(ws_lines, mean_gap, base, seed)
    return lambda pairs: _interleave(*take(pairs))


def scan_compiler(
    region_lines: int,
    mean_gap: float,
    base: int,
    seed: int,
) -> ChunkCompiler | None:
    """``scan_stream`` a chunk at a time."""
    return loop_compiler(region_lines, mean_gap, base, seed)


def phased_loop_compiler(
    ws_lines: int,
    ws2_lines: int,
    mean_gap: float,
    phase_accesses: int,
    base: int,
    seed: int,
) -> ChunkCompiler | None:
    """``phased_stream`` over two ``loop_stream`` phases, a chunk at a
    time: each position's phase is ``(position // phase_accesses) % 2``,
    and each phase's loop supplies as many pairs as the chunk holds of
    that phase."""
    if _np is None or min(ws_lines, ws2_lines, phase_accesses) <= 0:
        return None
    take_a = _loop_columns(ws_lines, mean_gap, base, seed)
    take_b = _loop_columns(ws2_lines, mean_gap, base + (1 << 30), seed + 1)
    position = 0

    def next_chunk(pairs: int) -> array:
        nonlocal position
        offsets = position + _np.arange(pairs, dtype=_np.int64)
        in_b = (offsets // phase_accesses) % 2 == 1
        in_a = ~in_b
        position += pairs
        gaps = _np.empty(pairs, dtype=_np.int64)
        addrs = _np.empty(pairs, dtype=_np.int64)
        count_b = int(_np.count_nonzero(in_b))
        gaps[in_a], addrs[in_a] = take_a(pairs - count_b)
        gaps[in_b], addrs[in_b] = take_b(count_b)
        return _interleave(gaps, addrs)

    return next_chunk
