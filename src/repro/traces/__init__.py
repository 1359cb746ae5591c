"""repro.traces: the batched trace pipeline.

The workload generators (:mod:`repro.workloads.generators`) define
each core's address stream; this package decouples *producing* those
streams from *consuming* them, the way zsim batches its instruction
feed ahead of the timing model:

- :class:`TraceSpec` names a stream by value (app name, parameters,
  base, seed) and doubles as a plain trace factory;
- :meth:`TraceSpec.compiler` builds whole ``array('q')`` gap/addr
  chunk buffers with array operations for the private kinds, and
  :func:`~repro.traces.chunks.compile_chunk` flattens any generator
  stream into the same buffers (the fallback and the oracle);
- :class:`TraceStore` caches chunks under content keys, with an
  in-process LRU, an optional host-wide shared-memory layer
  (``REPRO_TRACE_SHM=1``, :class:`SharedChunkPool`) and an optional
  on-disk layer (``REPRO_TRACE_CACHE``), so one compilation feeds
  every scheme job -- and every worker process -- in a sweep;
- :meth:`repro.sim.system.CMPSystem.run` consumes chunks through an
  index cursor instead of per-event generator calls; it is the event
  loop's only trace feed (plain factories are pulled into buffers of
  the same shape), while :func:`repro.sim.reference.reference_run`
  keeps the per-event generator loop as the oracle.
"""

from repro.traces.chunks import DEFAULT_CHUNK_PAIRS, chunk_nbytes, compile_chunk
from repro.traces.shm import SharedChunkPool, get_pool, reset_pool, shm_enabled
from repro.traces.spec import TRACE_FORMAT_VERSION, TraceSpec, generator_fingerprint
from repro.traces.store import PUBLISH_ERRORS, TraceStore, get_store, reset_store


def register_stats(group) -> None:
    """Register the process-wide trace store into a stats tree group."""
    get_store().register_stats(group)


__all__ = [
    "DEFAULT_CHUNK_PAIRS",
    "PUBLISH_ERRORS",
    "TRACE_FORMAT_VERSION",
    "SharedChunkPool",
    "TraceSpec",
    "TraceStore",
    "chunk_nbytes",
    "compile_chunk",
    "generator_fingerprint",
    "get_pool",
    "get_store",
    "register_stats",
    "reset_pool",
    "reset_store",
    "shm_enabled",
]
