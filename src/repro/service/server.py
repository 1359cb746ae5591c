"""The experiment daemon: a local worker-pool backend for the v1 protocol.

One :class:`ExperimentDaemon` owns the
:class:`~repro.service.jobqueue.JobQueue` and the supervised
:class:`~repro.service.workers.WorkerPool`.  Sockets, connections and
request dispatch belong to
:class:`~repro.service.frontend.ProtocolServer`, which it extends with
admission, lookup, cancel, summary and stats (a Unix socket always; a
TCP endpoint too when ``REPRO_SERVICE_ADDR`` or ``ServiceConfig.tcp``
names one).

Results flow: ``submit`` first consults the on-disk results cache
(the same :func:`~repro.harness.results_cache.job_key` contract as
the batch harness -- a daemon restart still reuses every finished
simulation), then coalesces onto an identical queued/running entry,
then enqueues.  Completed outcomes are persisted by the pool through
:func:`~repro.harness.parallel.record_outcome`, so the daemon and
``run_jobs`` share one cache.

Telemetry: :meth:`ExperimentDaemon.register_stats` publishes the
service group (queue depth, in-flight, dedupe/cache hits, retries,
restarts, per-job wall-time distribution, worker trace-store
counters) in the PR-2 stats-tree schema; the ``stats`` op snapshots
it in the exact shape ``repro run-mix --stats-json`` writes.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import traces
from repro.harness import results_cache
from repro.harness.parallel import SimJob, default_workers
from repro.service import protocol
from repro.service.frontend import Admission, ProtocolServer, Refused
from repro.service.jobqueue import JobQueue, QueueClosed, QueueFull
from repro.service.workers import WorkerPool
from repro.telemetry import StatGroup


@dataclass
class ServiceConfig:
    """Everything the daemon needs to come up."""

    socket_path: Path = field(default_factory=protocol.default_socket)
    tcp: tuple[str, int] | None = field(default_factory=protocol.tcp_addr)
    workers: int = field(default_factory=default_workers)
    queue_size: int = 256
    job_timeout: float | None = None
    max_retries: int = 2
    use_cache: bool = True


class ExperimentDaemon(ProtocolServer):
    """Resident multi-client service over the simulation harness."""

    def __init__(self, config: ServiceConfig | None = None):
        super().__init__(config or ServiceConfig())
        self.queue = JobQueue(maxsize=self.config.queue_size)
        self.pool = WorkerPool(
            self.queue,
            workers=self.config.workers,
            job_timeout=self.config.job_timeout,
            max_retries=self.config.max_retries,
            use_cache=self.config.use_cache,
        )
        # Shared-memory trace fabric (REPRO_TRACE_SHM): the daemon is
        # the publishing owner; resident workers only ever attach.
        # The lock serialises publish work (the store and segment pool
        # are not thread-safe); the memo keeps resubmitted mixes from
        # re-walking their chunk prefixes.
        self._publish_lock = asyncio.Lock()
        self._published_traces: dict[str, int] = {}
        self.cache_hits = 0

    # -- telemetry ------------------------------------------------------

    def register_stats(self, group: StatGroup) -> None:
        """Register the service telemetry group (PR-2 schema)."""
        queue = self.queue
        pool = self.pool
        group.stat("uptime_s", lambda: time.monotonic() - self.started_at, "seconds since daemon start")
        group.stat("connections_total", lambda: self.connections_total, "client connections accepted")
        group.stat("connections_open", lambda: self.connections_open, "client connections currently open")
        group.stat("protocol_errors", lambda: self.protocol_errors, "malformed request lines answered with errors")
        q = group.group("queue", "priority job queue")
        q.stat("depth", queue.depth, "jobs waiting to run")
        q.stat("in_flight", queue.in_flight, "jobs running on workers")
        q.stat("submitted", lambda: queue.submitted, "unique jobs accepted")
        q.stat("dedupe_hits", lambda: queue.dedupe_hits, "submissions coalesced onto an identical active job")
        q.stat("cache_hits", lambda: self.cache_hits, "submissions served from the on-disk results cache")
        q.stat("completed", lambda: queue.completed, "jobs finished successfully")
        q.stat("failed", lambda: queue.failed, "jobs that exhausted retries or raised")
        q.stat("cancelled", lambda: queue.cancelled, "jobs cancelled before running")
        q.stat("rejected", lambda: queue.rejected, "submissions refused by backpressure (queue full)")
        q.stat("batches", lambda: self.batches, "submit_batch requests accepted")
        q.stat("batch_jobs", lambda: self.batch_jobs, "job slots carried by submit_batch requests")
        w = group.group("workers", "supervised persistent worker pool")
        w.stat("configured", lambda: pool.workers, "worker slots")
        w.stat("alive", pool.alive, "worker processes currently alive")
        w.stat("restarts", lambda: pool.restarts, "workers respawned after a crash or timeout")
        w.stat("retries", lambda: pool.retries, "jobs re-queued after their worker died")
        w.stat("timeouts", lambda: pool.timeouts, "jobs killed by the per-job timeout")
        w.stat("job_wall_time", pool.job_wall_time.value, "per-job wall time distribution, seconds")
        w.stat("trace_store", pool.trace_counters, "workers' trace-chunk store counters, summed")

    def stats_tree(self) -> StatGroup:
        """The daemon's stats tree (``service`` + harness groups)."""
        from repro.harness import parallel

        root = StatGroup("root", "experiment daemon statistics")
        self.register_stats(root.group("service", "resident experiment service"))
        parallel.register_stats(
            root.group("harness", "daemon-process harness counters")
        )
        return root

    # -- backend ----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "op": "status",
            "uptime_s": time.monotonic() - self.started_at,
            "queue_depth": self.queue.depth(),
            "in_flight": self.queue.in_flight(),
            "workers_alive": self.pool.alive(),
            "submitted": self.queue.submitted,
            "dedupe_hits": self.queue.dedupe_hits,
            "cache_hits": self.cache_hits,
            "completed": self.queue.completed,
            "failed": self.queue.failed,
        }

    async def admit(self, job: SimJob, packed: str, priority: int) -> Admission:
        """Results cache, then trace publish, then the job queue."""
        if self.config.use_cache:
            key = results_cache.job_key(job)
            cached = results_cache.load(key)
            if cached is not None:
                self.cache_hits += 1
                return Admission(key=key, cached=protocol.pack(cached))
        await self._publish_job_traces(job)
        try:
            entry, deduped = self.queue.submit(job, priority=priority)
        except QueueFull:
            raise Refused(protocol.error(
                "queue_full", depth=self.queue.depth(),
                maxsize=self.queue.maxsize,
            )) from None
        except QueueClosed:
            raise Refused(protocol.error("shutting_down")) from None
        return Admission(entry=entry, deduped=deduped)

    def lookup(self, entry_id: int):
        return self.queue.get(entry_id)

    def cancel(self, entry_id: int):
        return self.queue.cancel(entry_id)

    pack_outcome = staticmethod(protocol.pack)

    async def _publish_job_traces(self, job: SimJob) -> None:
        """Publish ``job``'s traces to the shared fabric before it can
        reach a worker (no-op unless ``REPRO_TRACE_SHM=1``).

        Runs in the default executor so a cold compile never stalls
        the event loop; other clients keep submitting and watching
        while the fabric warms up.  Best-effort: a failed publish is
        counted and logged, and workers fall back to their private
        layers.
        """
        if not traces.shm_enabled():
            return
        loop = asyncio.get_running_loop()
        async with self._publish_lock:
            await loop.run_in_executor(None, self._publish_job_traces_sync, job)

    def _publish_job_traces_sync(self, job: SimJob) -> None:
        store = traces.get_store()
        try:
            factories = job.mix.trace_factories(job.seed)
        except traces.PUBLISH_ERRORS as exc:
            store.drop_publish(f"mix {job.mix.name}", exc)
            return
        for spec in factories:
            if not isinstance(spec, traces.TraceSpec):
                continue
            key = store.key_of(spec)
            if self._published_traces.get(key, -1) >= job.instructions:
                continue
            try:
                store.publish_prefix(spec, job.instructions)
            except traces.PUBLISH_ERRORS as exc:
                store.drop_publish(f"trace {spec.name}", exc)
                continue
            if len(self._published_traces) >= 4096:
                self._published_traces.clear()
            self._published_traces[key] = job.instructions

    # -- lifecycle ------------------------------------------------------

    async def on_start(self) -> None:
        """Spawn the worker pool before the sockets are bound."""
        if traces.shm_enabled():
            # Reclaim segments orphaned by crashed runs before workers
            # fork; live publishers' segments are never touched.
            traces.SharedChunkPool.scavenge()
        await self.pool.start()

    async def on_stop(self) -> None:
        await self.pool.stop()
        if traces.shm_enabled() or self._published_traces:
            # Workers are gone; release the fabric.  Unlinks every
            # segment this daemon published and closes idle mappings
            # (segments other owners published stay untouched).  Also
            # checked against the publish memo, not just the env flag:
            # segments published earlier must be unlinked even if the
            # flag was flipped off while the daemon ran.
            traces.get_pool().close(unlink=True)
            self._published_traces.clear()


def serve(config: ServiceConfig | None = None) -> None:
    """Blocking entry point: run a daemon in this process."""
    asyncio.run(ExperimentDaemon(config).serve())
