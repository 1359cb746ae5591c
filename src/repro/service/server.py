"""The experiment daemon: an asyncio JSON-lines server.

One :class:`ExperimentDaemon` owns the
:class:`~repro.service.jobqueue.JobQueue`, the supervised
:class:`~repro.service.workers.WorkerPool` and the listening sockets
(a Unix socket always; a TCP endpoint too when ``REPRO_SERVICE_ADDR``
or ``ServiceConfig.tcp`` names one).  Each client connection is an
independent coroutine speaking :mod:`repro.service.protocol`; a
protocol error on one line is answered with an ``error`` line and the
connection keeps serving, so one confused client cannot take the
daemon down.

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
import contextlib
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import traces
from repro.harness import results_cache
from repro.harness.parallel import SimJob, default_workers
from repro.service import protocol
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


class ExperimentDaemon:
    """Resident multi-client front-end over the simulation harness."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.queue = JobQueue(maxsize=self.config.queue_size)
        self.pool = WorkerPool(
            self.queue,
            workers=self.config.workers,
            job_timeout=self.config.job_timeout,
            max_retries=self.config.max_retries,
            use_cache=self.config.use_cache,
        )
        self.started_at = time.monotonic()
        self._servers: list[asyncio.base_events.Server] = []
        self._shutdown = asyncio.Event()
        # Shared-memory trace fabric (REPRO_TRACE_SHM): the daemon is
        # the publishing owner; resident workers only ever attach.
        # The lock serialises publish work (the store and segment pool
        # are not thread-safe); the memo keeps resubmitted mixes from
        # re-walking their chunk prefixes.
        self._publish_lock = asyncio.Lock()
        self._published_traces: dict[str, int] = {}
        # Telemetry counters.
        self.connections_total = 0
        self.connections_open = 0
        self.cache_hits = 0
        self.protocol_errors = 0
        self.batches = 0
        self.batch_jobs = 0

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

    # -- request handlers -----------------------------------------------

    def _summary(self) -> dict:
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

    async def _reply(self, writer: asyncio.StreamWriter, msg: dict) -> None:
        writer.write(protocol.encode(msg))
        await writer.drain()

    async def _admit(self, job: SimJob, priority: int):
        """Cache-check, trace-publish and enqueue one job.

        Returns ``(ticket, entry, cached_outcome)``; exactly one of
        ``entry`` / ``cached_outcome`` is set on success, both are
        ``None`` when the ticket is an error dict instead.
        """
        if self.config.use_cache:
            key = results_cache.job_key(job)
            cached = results_cache.load(key)
            if cached is not None:
                self.cache_hits += 1
                ticket = {
                    "id": 0,
                    "key": key,
                    "state": protocol.DONE,
                    "deduped": False,
                    "cached": True,
                }
                return ticket, None, cached
        await self._publish_job_traces(job)
        try:
            entry, deduped = self.queue.submit(job, priority=priority)
        except QueueFull:
            error = protocol.error(
                "queue_full", depth=self.queue.depth(),
                maxsize=self.queue.maxsize,
            )
            return error, None, None
        except QueueClosed:
            return protocol.error("shutting_down"), None, None
        ticket = {
            "id": entry.id,
            "key": entry.key,
            "state": entry.state,
            "deduped": deduped,
            "cached": False,
        }
        return ticket, entry, None

    async def _handle_submit(self, msg: dict, writer) -> None:
        job = protocol.unpack(msg["job"]) if "job" in msg else None
        if not isinstance(job, SimJob):
            await self._reply(
                writer, protocol.error("submit carries no SimJob payload")
            )
            return
        wait = bool(msg.get("wait", True))
        priority = int(msg.get("priority", 0))
        ticket, entry, cached = await self._admit(job, priority)
        if entry is None and cached is None:
            await self._reply(writer, ticket)  # an error dict
            return
        await self._reply(writer, {"op": "submitted", **ticket})
        if not wait:
            return
        if cached is not None:
            await self._reply(
                writer,
                {"op": "result", "id": 0, "outcome": protocol.pack(cached)},
            )
            return
        try:
            outcome = await asyncio.shield(entry.future)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            await self._reply(
                writer, protocol.error(str(exc), id=entry.id, state=entry.state)
            )
            return
        await self._reply(
            writer,
            {
                "op": "result",
                "id": entry.id,
                "outcome": protocol.pack(outcome),
            },
        )

    async def _handle_submit_batch(self, msg: dict, writer) -> None:
        """One request, a whole sweep: admit every job, then stream
        per-slot ``result`` lines as each finishes (cache hits first,
        completion order after that -- ``index`` maps a line back to
        its slot), ending with a ``batch_done`` summary."""
        packed = msg.get("jobs")
        if not isinstance(packed, list) or not packed:
            await self._reply(
                writer, protocol.error("submit_batch carries no job list")
            )
            return
        jobs = []
        for i, blob in enumerate(packed):
            try:
                job = protocol.unpack(blob)
            except protocol.ProtocolError:
                job = None
            if not isinstance(job, SimJob):
                await self._reply(
                    writer,
                    protocol.error(f"submit_batch slot {i} is not a SimJob"),
                )
                return
            jobs.append(job)
        wait = bool(msg.get("wait", True))
        priority = int(msg.get("priority", 0))
        self.batches += 1
        self.batch_jobs += len(jobs)
        ids: list[int] = []
        cached_flags: list[bool] = []
        deduped_flags: list[bool] = []
        ready: dict[int, object] = {}
        errors: dict[int, str] = {}
        entries: dict[int, object] = {}
        for i, job in enumerate(jobs):
            ticket, entry, cached = await self._admit(job, priority)
            if entry is None and cached is None:
                errors[i] = ticket.get("error", "rejected")
                ids.append(0)
                cached_flags.append(False)
                deduped_flags.append(False)
                continue
            ids.append(ticket["id"])
            cached_flags.append(ticket["cached"])
            deduped_flags.append(ticket["deduped"])
            if cached is not None:
                ready[i] = cached
            else:
                entries[i] = entry
        await self._reply(
            writer,
            {
                "op": "batch_submitted",
                "count": len(jobs),
                "ids": ids,
                "cached": cached_flags,
                "deduped": deduped_flags,
            },
        )
        if not wait:
            return
        completed = failed = 0
        for i in sorted(ready):
            completed += 1
            await self._reply(
                writer,
                {
                    "op": "result",
                    "index": i,
                    "id": ids[i],
                    "outcome": protocol.pack(ready[i]),
                },
            )
        for i in sorted(errors):
            failed += 1
            await self._reply(
                writer,
                {"op": "result", "index": i, "id": 0, "error": errors[i]},
            )
        # Two batch slots holding identical jobs share one queue entry
        # (and so one future); shield each slot separately so a closed
        # connection never cancels the underlying simulation.
        shields = {i: asyncio.shield(e.future) for i, e in entries.items()}
        remaining = dict(entries)
        while remaining:
            await asyncio.wait(
                set(shields[i] for i in remaining),
                return_when=asyncio.FIRST_COMPLETED,
            )
            for i in [i for i, e in remaining.items() if e.future.done()]:
                entry = remaining.pop(i)
                try:
                    outcome = entry.future.result()
                except Exception as exc:
                    failed += 1
                    await self._reply(
                        writer,
                        {
                            "op": "result",
                            "index": i,
                            "id": entry.id,
                            "error": str(exc),
                        },
                    )
                else:
                    completed += 1
                    await self._reply(
                        writer,
                        {
                            "op": "result",
                            "index": i,
                            "id": entry.id,
                            "outcome": protocol.pack(outcome),
                        },
                    )
        await self._reply(
            writer,
            {"op": "batch_done", "completed": completed, "failed": failed},
        )

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

    async def _handle_watch(self, msg: dict, writer) -> None:
        entry = self.queue.get(int(msg.get("id", -1)))
        if entry is None:
            await self._reply(writer, protocol.error("unknown_job"))
            return
        events: asyncio.Queue = asyncio.Queue()
        entry.watchers.append(events)
        try:
            event = entry.describe()
            await self._reply(writer, {"op": "event", **event})
            while event["state"] not in protocol.TERMINAL_STATES:
                event = await events.get()
                await self._reply(writer, {"op": "event", **event})
        finally:
            entry.watchers.remove(events)

    async def _handle_one(self, msg: dict, writer) -> bool:
        """Dispatch one request; returns False to end the connection."""
        op = msg["op"]
        if op == "submit":
            await self._handle_submit(msg, writer)
        elif op == "submit_batch":
            await self._handle_submit_batch(msg, writer)
        elif op == "status":
            if "id" in msg:
                entry = self.queue.get(int(msg["id"]))
                if entry is None:
                    await self._reply(writer, protocol.error("unknown_job"))
                else:
                    await self._reply(
                        writer, {"op": "status", **entry.describe()}
                    )
            else:
                await self._reply(writer, self._summary())
        elif op == "watch":
            await self._handle_watch(msg, writer)
        elif op == "cancel":
            try:
                entry = self.queue.cancel(int(msg.get("id", -1)))
            except KeyError:
                await self._reply(writer, protocol.error("unknown_job"))
            except ValueError as exc:
                await self._reply(writer, protocol.error(str(exc)))
            else:
                await self._reply(writer, {"op": "ok", "id": entry.id})
        elif op == "stats":
            await self._reply(
                writer, {"op": "stats", "tree": self.stats_tree().snapshot()}
            )
        elif op == "ping":
            await self._reply(writer, {"op": "pong"})
        elif op == "shutdown":
            await self._reply(writer, {"op": "ok"})
            self.request_shutdown()
            return False
        else:
            self.protocol_errors += 1
            await self._reply(writer, protocol.error(f"unknown op {op!r}"))
        return True

    async def _handle_client(self, reader, writer) -> None:
        self.connections_total += 1
        self.connections_open += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._reply(
                        writer, protocol.error("line exceeds the protocol cap")
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    msg = protocol.decode(line)
                except protocol.VersionMismatch as exc:
                    # Structured: both versions, so whichever peer sees
                    # the error knows exactly who needs upgrading.
                    self.protocol_errors += 1
                    await self._reply(
                        writer,
                        protocol.error(
                            str(exc),
                            code="version_mismatch",
                            client_version=exc.peer_version,
                            server_version=exc.our_version,
                        ),
                    )
                    continue
                except protocol.ProtocolError as exc:
                    self.protocol_errors += 1
                    await self._reply(writer, protocol.error(str(exc)))
                    continue
                if not await self._handle_one(msg, writer):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.connections_open -= 1
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    # -- lifecycle ------------------------------------------------------

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def start(self) -> None:
        """Bind sockets and spawn the worker pool (no blocking wait)."""
        if traces.shm_enabled():
            # Reclaim segments orphaned by crashed runs before workers
            # fork; live publishers' segments are never touched.
            traces.SharedChunkPool.scavenge()
        await self.pool.start()
        path = self.config.socket_path
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            path.unlink()
        self._servers.append(
            await asyncio.start_unix_server(
                self._handle_client, path=str(path),
                limit=protocol.MAX_LINE_BYTES,
            )
        )
        if self.config.tcp is not None:
            host, port = self.config.tcp
            self._servers.append(
                await asyncio.start_server(
                    self._handle_client, host=host, port=port,
                    limit=protocol.MAX_LINE_BYTES,
                )
            )

    async def stop(self) -> None:
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
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
        with contextlib.suppress(OSError):
            self.config.socket_path.unlink()

    async def serve(self, install_signals: bool = True) -> None:
        """Run until ``shutdown`` (op, SIGTERM or SIGINT)."""
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(signum, self.request_shutdown)
        try:
            await self._shutdown.wait()
        finally:
            await self.stop()


def serve(config: ServiceConfig | None = None) -> None:
    """Blocking entry point: run a daemon in this process."""
    asyncio.run(ExperimentDaemon(config).serve())
