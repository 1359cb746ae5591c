"""The shared-memory trace fabric (``REPRO_TRACE_SHM=1``).

Contracts under test, from :mod:`repro.traces.shm`'s docstring:

- a published chunk attaches bitwise-identical to the private
  ``array('q')`` lane, in this process and in a fresh one;
- publishing is first-creator-wins and idempotent;
- a torn segment (publisher died mid-copy, seal word never written)
  is *never* served, the scavenger removes it, and the consumer falls
  back to compiling -- same for segments orphaned by a SIGKILLed
  publisher;
- owners unlink their names at exit (no leaks after a clean close
  *or* a hard kill plus one scavenge);
- the store's shm layer sits between the in-process LRU and disk, and
  its counters (``shm_hits`` et al.) observe real traffic.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from array import array
from pathlib import Path

import pytest

from repro.traces import TraceStore, shm
from repro.traces.shm import SEGMENT_PREFIX, SharedChunkPool, segment_name
from repro.workloads import APPS

pytestmark = pytest.mark.skipif(
    shm.shm_dir() is None, reason="no /dev/shm on this platform"
)

#: Keys in tests use this marker so cleanup can never collide with a
#: concurrent real sweep on the same host.
KEY = "feedc0de" * 8


@pytest.fixture(autouse=True)
def _shm_env(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_SHM", "1")
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    pool = shm.reset_pool()
    yield
    pool = shm.get_pool()
    pool.close(unlink=True)
    leaked = [
        p
        for p in shm.shm_dir().glob(SEGMENT_PREFIX + "*")
        if KEY[:20] in p.name
    ]
    for p in leaked:
        p.unlink(missing_ok=True)
    assert not leaked, f"test leaked segments: {[p.name for p in leaked]}"


def _chunk(pairs: int = 8, seed: int = 1) -> array:
    buf = array("q")
    for i in range(pairs):
        buf.append((seed * 31 + i) % 7 + 1)  # gap
        buf.append((seed << 20) + 64 * i)  # addr
    return buf


def _subprocess(code: str, check: bool = True) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_TRACE_SHM"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


# -- publish / attach ---------------------------------------------------


def test_publish_attach_round_trip_bitwise():
    pool = shm.get_pool()
    buf = _chunk(16)
    view, fresh = pool.publish(KEY, 0, buf, 16)
    assert fresh
    assert isinstance(view, memoryview) and view.format == "q"
    assert view.tolist() == buf.tolist()
    assert bytes(view) == bytes(memoryview(buf))

    other = SharedChunkPool()
    attached = other.attach(KEY, 0, 16)
    assert attached is not None
    assert bytes(attached) == bytes(memoryview(buf))
    other.close(unlink=False)


def test_publish_is_idempotent_and_attach_counts():
    pool = shm.get_pool()
    buf = _chunk(4)
    _, first = pool.publish(KEY, 1, buf, 4)
    view, again = pool.publish(KEY, 1, buf, 4)
    assert first and not again
    assert view.tolist() == buf.tolist()
    assert pool.publishes == 1
    assert pool.is_published(KEY, 1)


def test_attach_misses_cleanly():
    pool = shm.get_pool()
    assert pool.attach("0" * 64, 0, 8) is None
    buf = _chunk(8)
    pool.publish(KEY, 2, buf, 8)
    fresh = SharedChunkPool()
    # Wrong geometry for the key is a miss, not a wrong answer.
    assert fresh.attach(KEY, 2, 16) is None
    assert fresh.attach(KEY, 2, 4) is None


def test_attach_survives_publisher_unlink():
    """POSIX semantics: unlinking removes the name, not live maps."""
    pool = shm.get_pool()
    buf = _chunk(8)
    pool.publish(KEY, 3, buf, 8)
    reader = SharedChunkPool()
    view = reader.attach(KEY, 3, 8)
    assert pool.unlink_owned() == 1
    assert view.tolist() == buf.tolist()  # mapping still valid
    fresh = SharedChunkPool()
    assert fresh.attach(KEY, 3, 8) is None  # new attaches miss
    reader.close(unlink=False)


def test_fresh_process_attaches_by_name():
    pool = shm.get_pool()
    buf = _chunk(8, seed=9)
    pool.publish(KEY, 4, buf, 8)
    proc = _subprocess(
        f"""
        from repro.traces import shm
        view = shm.get_pool().attach({KEY!r}, 4, 8)
        assert view is not None
        print(view.tolist())
        """
    )
    assert proc.stdout.strip() == str(buf.tolist())
    assert proc.stderr.strip() == ""  # no tracker/finalizer noise


# -- torn segments and the scavenger ------------------------------------


def _spawn_torn_publisher() -> None:
    """A process that dies mid-publish: segment created and payload
    half-written, seal word never set."""
    _subprocess(
        f"""
        import os, struct
        from repro.traces import shm
        path = shm.shm_dir() / shm.segment_name({KEY!r}, 5)
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        os.ftruncate(fd, shm.HEADER_BYTES + 8 * 16)
        os.write(fd, struct.pack(
            "<8q", shm.SEGMENT_MAGIC, shm.SEGMENT_VERSION, 8, 16,
            os.getpid(), 0, 0, 0))
        os.close(fd)
        os._exit(0)  # dies before sealing: a torn segment
        """
    )


def test_torn_segment_never_served_and_scavenged():
    _spawn_torn_publisher()
    name = segment_name(KEY, 5)
    assert (shm.shm_dir() / name).exists()
    pool = shm.get_pool()
    assert pool.attach(KEY, 5, 8) is None  # unsealed: refused
    assert SharedChunkPool.scavenge() >= 1
    assert not (shm.shm_dir() / name).exists()


def test_job_falls_back_to_compile_past_torn_segment(monkeypatch):
    """A consumer that misses on a torn segment still gets its chunk
    (from the compile layer) and counts the fabric miss."""
    spec = APPS["mcf"].trace_spec(base=0, seed=3)
    store = TraceStore(chunk_pairs=32)
    key = store.key_of(spec)
    # Torn segment squatting on the real chunk's name.
    path = shm.shm_dir() / segment_name(key, 0)
    path.write_bytes(b"\0" * (shm.HEADER_BYTES + 8 * 64))
    try:
        chunk = store.get_chunk(spec, 0)
        assert store.shm_misses == 1
        assert store.shm_hits == 0
        assert store.compiles == 1
        assert list(chunk) == list(TraceStore(chunk_pairs=32).get_chunk(spec, 0))
    finally:
        path.unlink(missing_ok=True)


def test_scavenge_reclaims_sigkilled_publisher():
    """The acceptance scenario: a publisher SIGKILLed mid-run leaves
    sealed segments behind; one scavenge removes them all."""
    proc_code = f"""
        import os, sys, time
        from array import array
        from repro.traces import shm
        pool = shm.get_pool()
        buf = array("q", range(32))
        pool.publish({KEY!r}, 6, buf, 16)
        pool.publish({KEY!r}, 7, buf, 16)
        print("published", flush=True)
        time.sleep(60)
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    env["REPRO_TRACE_SHM"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(proc_code)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        assert proc.stdout.readline().strip() == "published"
        names = [segment_name(KEY, 6), segment_name(KEY, 7)]
        assert all((shm.shm_dir() / n).exists() for n in names)
        # Publisher alive: scavenge must not touch its segments.
        SharedChunkPool.scavenge()
        assert all((shm.shm_dir() / n).exists() for n in names)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        assert SharedChunkPool.scavenge() >= 2
        assert not any((shm.shm_dir() / n).exists() for n in names)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_owner_atexit_unlinks_no_leaks():
    proc = _subprocess(
        f"""
        from array import array
        from repro.traces import shm
        pool = shm.get_pool()
        pool.publish({KEY!r}, 8, array("q", range(16)), 8)
        assert (shm.shm_dir() / shm.segment_name({KEY!r}, 8)).exists()
        """
    )
    assert proc.stderr.strip() == ""
    assert not (shm.shm_dir() / segment_name(KEY, 8)).exists()


def test_forked_worker_exit_does_not_unlink(monkeypatch):
    """The atexit hook is pid-guarded: a forked child inheriting the
    owner's registry must not unlink the parent's segments."""
    pool = shm.get_pool()
    pool.publish(KEY, 9, _chunk(8), 8)
    pid = os.fork()
    if pid == 0:
        # Child: exercise the cleanup path directly, then vanish.
        try:
            pool._atexit_cleanup()
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    assert (shm.shm_dir() / segment_name(KEY, 9)).exists()
    fresh = SharedChunkPool()
    assert fresh.attach(KEY, 9, 8) is not None
    fresh.close(unlink=False)


def test_atexit_cleanup_survives_live_export():
    """A payload slice still held at exit keeps its mapping exported:
    cleanup leaves that mapping to the OS (no BufferError escapes, the
    slice stays readable) and still unlinks the owner's name.  Errors
    other than a live export propagate."""
    pool = shm.get_pool()
    buf = _chunk(8)
    view, _ = pool.publish(KEY, 10, buf, 8)
    held = view[0:4]
    pool._atexit_cleanup()
    assert held.tolist() == buf[0:4].tolist()
    assert not (shm.shm_dir() / segment_name(KEY, 10)).exists()
    held.release()

    class BrokenView:
        def release(self):
            raise RuntimeError("not an export error")

    pool.publish(KEY, 11, buf, 8)
    seg = next(iter(pool._segments.values()))
    real_view, seg.view = seg.view, BrokenView()
    with pytest.raises(RuntimeError, match="not an export error"):
        pool._atexit_cleanup()
    seg.view = real_view  # the fixture's close() releases it


# -- store integration --------------------------------------------------


def test_store_layers_mem_then_shm_then_compile():
    spec = APPS["soplex"].trace_spec(base=1 << 44, seed=7)
    owner = TraceStore(chunk_pairs=64)
    baseline = list(owner.get_chunk(spec, 0))
    created = owner.publish_prefix(spec, 1, max_chunks=1)
    assert created == 1 and owner.shm_publishes == 1

    reader = TraceStore(chunk_pairs=64)
    chunk = reader.get_chunk(spec, 0)
    assert isinstance(chunk, memoryview)
    assert list(chunk) == baseline
    assert (reader.shm_hits, reader.compiles) == (1, 0)
    assert reader.shm_bytes == 64 * 2 * 8
    # Second read is a memory hit on the remembered view.
    reader.get_chunk(spec, 0)
    assert (reader.mem_hits, reader.shm_hits) == (1, 1)


def test_publish_prefix_pops_private_copies():
    """Published chunks leave the owner's LRU, so forked workers that
    inherit the store observe ``shm_hits``, not inherited arrays."""
    spec = APPS["milc"].trace_spec(base=0, seed=2)
    store = TraceStore(chunk_pairs=64)
    store.get_chunk(spec, 0)
    key = store.key_of(spec)
    assert (key, 0) in store._chunks
    store.publish_prefix(spec, 1, max_chunks=2)
    assert (key, 0) not in store._chunks
    view = store.get_chunk(spec, 0)
    assert isinstance(view, memoryview)
    assert store.shm_hits == 1


def test_publish_prefix_horizon_and_cap():
    spec = APPS["mcf"].trace_spec(base=0, seed=4)
    store = TraceStore(chunk_pairs=16)
    # max_chunks caps the prefix regardless of the target.
    assert store.publish_prefix(spec, 10**9, max_chunks=3) == 3
    # Re-publishing covers the same prefix without creating segments.
    assert store.publish_prefix(spec, 10**9, max_chunks=3) == 0
    # A tiny target publishes a single chunk (slack rounds up to one).
    other = APPS["mcf"].trace_spec(base=1 << 44, seed=4)
    assert store.publish_prefix(other, 1, slack=1.0, max_chunks=64) == 1


def test_shm_disabled_is_invisible(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_SHM", "0")
    spec = APPS["astar"].trace_spec(base=0, seed=1)
    store = TraceStore(chunk_pairs=32)
    chunk = store.get_chunk(spec, 0)
    assert isinstance(chunk, array)
    assert store.publish_prefix(spec, 10**9) == 0
    assert store.shm_hits == store.shm_misses == store.shm_publishes == 0


def test_attachment_lru_is_bounded(monkeypatch):
    monkeypatch.setattr(shm, "MAX_ATTACHED", 4)
    pool = shm.get_pool()
    buf = _chunk(4)
    for index in range(8):
        pool.publish(KEY, 10 + index, buf, 4)
    reader = SharedChunkPool()
    for index in range(8):
        view = reader.attach(KEY, 10 + index, 4)
        view.release()  # reader done with it: evictable
    assert sum(1 for s in reader._segments.values() if not s.owned) <= 4
    # Evicted attachments transparently re-attach.
    assert reader.attach(KEY, 10, 4).tolist() == buf.tolist()
    reader.close(unlink=False)


def test_host_segments_lists_fabric_state():
    pool = shm.get_pool()
    pool.publish(KEY, 18, _chunk(8), 8)
    rows = [r for r in SharedChunkPool.host_segments() if KEY[:20] in r["name"]]
    assert len(rows) == 1
    row = rows[0]
    assert row["sealed"] and row["publisher_alive"]
    assert row["pid"] == os.getpid()
    assert row["chunk_pairs"] == 8
    assert row["bytes"] == shm.HEADER_BYTES + 16 * 8
    assert row["attached"] >= 1
