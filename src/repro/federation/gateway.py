"""The federation gateway: one scheduler over N experiment daemons.

A :class:`FederationGateway` is the second backend of
:class:`~repro.service.frontend.ProtocolServer`, beside
:class:`~repro.service.server.ExperimentDaemon`, so every client op
(``submit`` / ``submit_batch`` / ``status`` / ``watch`` / ``cancel`` /
``stats`` / ``ping`` / ``shutdown``) works against a gateway
unchanged -- but instead of running workers it *routes*:

- **placement**: jobs are consistent-hash routed by their content key
  (:func:`~repro.harness.results_cache.job_key`) through the
  rendezvous ring (:mod:`repro.federation.ring`), so duplicate
  submissions from any client land on the same node and coalesce in
  that node's queue;
- **dedupe, three layers deep**: the gateway's own read-through
  results cache first (a job computed on node A is a hit when
  resubmitted anywhere, even if node A is gone), then gateway-level
  coalescing of concurrently in-flight identical jobs, then the
  target node's queue dedupe;
- **failover**: a connection that dies mid-job marks the node dead
  and requeues the job to the next node in the ring -- the same
  bounded-retry discipline :class:`~repro.service.workers.WorkerPool`
  applies to crashed workers, one level up.  Health probes (periodic
  ``ping`` + ``status``) drive the membership table for new work and
  revive nodes that come back;
- **federated stores**: outcomes returned by any node are written
  through to the gateway's on-disk results cache (the standard
  ``REPRO_CACHE_DIR`` format), so the fleet's results federate
  without the nodes sharing a filesystem.

Telemetry is a ``federation`` stats group in the PR-2 tree (routed /
dedupe / failover counters, ring state, per-node queue depth), and a
``watch`` with no ``id`` streams periodic snapshots of it over the
existing event channel.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.federation.ring import ALIVE, DEAD, Membership, NodeInfo
from repro.harness import results_cache
from repro.harness.parallel import SimJob
from repro.service import protocol
from repro.service.frontend import Admission, ProtocolServer, number
from repro.telemetry import StatGroup


def default_gateway_socket() -> Path:
    """``REPRO_GATEWAY_SOCKET`` or ``results/gateway.sock``."""
    override = os.environ.get("REPRO_GATEWAY_SOCKET")
    if override:
        return Path(override)
    return Path("results") / "gateway.sock"


def parse_node(spec: str) -> tuple[str, int] | Path:
    """A node address spec: ``host:port`` / ``[v6]:port`` or a Unix
    socket path (anything with a path separator or no colon)."""
    text = spec.strip()
    if not text:
        raise protocol.ProtocolError("empty federation node address")
    if "/" in text or os.sep in text or ":" not in text:
        return Path(text)
    return protocol.parse_addr(text, what="federation node address")


class NodeUnavailable(Exception):
    """The node refused, reset or dropped the connection -- the job
    should fail over to the next node in the ring."""


class NodeRejected(Exception):
    """The node answered an error for this job (deterministic failure
    or malformed payload) -- not retryable elsewhere."""


@dataclass
class GatewayConfig:
    """Everything the gateway needs to come up."""

    socket_path: Path = field(default_factory=default_gateway_socket)
    tcp: tuple[str, int] | None = None
    #: Backend daemon address specs (``host:port`` or socket paths).
    nodes: list[str] = field(default_factory=list)
    health_interval: float = 1.0
    #: Consecutive failed probes before a node is marked dead.
    fail_threshold: int = 2
    #: Concurrent jobs forwarded per node (≈ the node's worker count
    #: plus some queue headroom).
    per_node_inflight: int = 8
    #: Failover hops tolerated per job before it is failed.
    max_retries: int = 2
    use_cache: bool = True
    connect_timeout: float = 10.0
    #: Terminal entries remembered for status/watch queries.
    history: int = 2048


@dataclass
class FedEntry:
    """One deduplicated federated job and everything observing it."""

    id: int
    key: str
    job: SimJob
    packed: str
    priority: int
    state: str = protocol.QUEUED
    node: str | None = None
    retries: int = 0
    refs: int = 1
    error: str | None = None
    #: Packed outcome (base64 pickle) -- passed through to clients
    #: without a decode/encode round-trip.
    outcome_packed: str | None = None
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None
    future: asyncio.Future = field(default_factory=asyncio.Future)
    watchers: list[asyncio.Queue] = field(default_factory=list)

    def describe(self) -> dict:
        return {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "priority": self.priority,
            "node": self.node,
            "retries": self.retries,
            "refs": self.refs,
            "error": self.error,
            "wall_time_s": (
                self.finished_at - self.started_at
                if self.finished_at is not None and self.started_at is not None
                else None
            ),
        }


class FederationGateway(ProtocolServer):
    """Scheduler/router fronting a fleet of experiment daemons."""

    role = "gateway"

    def __init__(self, config: GatewayConfig):
        if not config.nodes:
            raise ValueError("a gateway needs at least one --node")
        super().__init__(config)
        nodes = [
            NodeInfo(name=f"node{i}", addr=parse_node(spec))
            for i, spec in enumerate(config.nodes)
        ]
        self.membership = Membership(
            nodes, fail_threshold=config.fail_threshold
        )
        self._sems = {
            node.name: asyncio.Semaphore(config.per_node_inflight)
            for node in nodes
        }
        self._health_task: asyncio.Task | None = None
        self._entry_tasks: set[asyncio.Task] = set()
        self._entries: dict[int, FedEntry] = {}
        self._active: dict[str, FedEntry] = {}
        self._next_id = 1
        # Telemetry counters (pulled by the federation stats group).
        self.routed = 0
        self.dedupe_hits = 0
        self.cache_hits = 0
        self.failover_requeues = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.bad_outcomes = 0
        self.health_probes = 0

    # -- telemetry ------------------------------------------------------

    def register_stats(self, group: StatGroup) -> None:
        """Register the ``federation`` stats group (PR-2 schema)."""
        group.stat("uptime_s", lambda: time.monotonic() - self.started_at, "seconds since gateway start")
        group.stat("connections_total", lambda: self.connections_total, "client connections accepted")
        group.stat("connections_open", lambda: self.connections_open, "client connections currently open")
        group.stat("protocol_errors", lambda: self.protocol_errors, "malformed request lines answered with errors")
        group.stat("routed", lambda: self.routed, "jobs forwarded to a federation node")
        group.stat("dedupe_hits", lambda: self.dedupe_hits, "submissions coalesced onto an in-flight federated job")
        group.stat("cache_hits", lambda: self.cache_hits, "submissions served from the gateway's read-through results cache")
        group.stat("failover_requeues", lambda: self.failover_requeues, "jobs requeued to another node after theirs died")
        group.stat("completed", lambda: self.completed, "federated jobs finished successfully")
        group.stat("failed", lambda: self.failed, "federated jobs that exhausted failover or raised")
        group.stat("cancelled", lambda: self.cancelled, "federated jobs cancelled before forwarding")
        group.stat("bad_outcomes", lambda: self.bad_outcomes, "jobs failed because their node answered an unpackable outcome")
        group.stat("batches", lambda: self.batches, "submit_batch requests accepted")
        group.stat("batch_jobs", lambda: self.batch_jobs, "job slots carried by submit_batch requests")
        group.stat("health_probes", lambda: self.health_probes, "node health probes performed")
        group.stat("in_flight", lambda: sum(n.in_flight for n in self.membership.nodes()), "jobs currently forwarded to nodes")
        group.stat("active", lambda: len(self._active), "deduplicated jobs queued or in flight")
        ring = group.group("ring", "rendezvous ring and membership")
        ring.stat("nodes", lambda: len(self.membership), "configured federation nodes")
        ring.stat("alive", self.membership.alive, "nodes whose last health probe succeeded")
        ring.stat("dead", self.membership.dead, "nodes past the failure threshold")
        nodes = group.group("nodes", "per-node routing and health state")
        for node in self.membership.nodes():
            sub = nodes.group(node.name, f"daemon at {node.addr_text()}")
            sub.stat("alive", lambda n=node: n.state == ALIVE, "last probe succeeded")
            sub.stat("routed", lambda n=node: n.routed, "jobs routed to this node")
            sub.stat("in_flight", lambda n=node: n.in_flight, "jobs currently forwarded here")
            sub.stat("failures", lambda n=node: n.failures, "consecutive failed probes")
            sub.stat("queue_depth", lambda n=node: n.summary.get("queue_depth", -1), "node queue depth at the last probe (-1 before any)")
            sub.stat("workers_alive", lambda n=node: n.summary.get("workers_alive", -1), "node worker processes at the last probe (-1 before any)")

    def stats_tree(self) -> StatGroup:
        root = StatGroup("root", "federation gateway statistics")
        self.register_stats(
            root.group("federation", "gateway scheduler over N daemons")
        )
        return root

    def summary(self) -> dict:
        return {
            "op": "status",
            "role": self.role,
            "uptime_s": time.monotonic() - self.started_at,
            "nodes": self.membership.rows(),
            "routed": self.routed,
            "dedupe_hits": self.dedupe_hits,
            "cache_hits": self.cache_hits,
            "failover_requeues": self.failover_requeues,
            "completed": self.completed,
            "failed": self.failed,
            "in_flight": sum(n.in_flight for n in self.membership.nodes()),
            "active": len(self._active),
        }

    # -- entry lifecycle ------------------------------------------------

    def _notify(self, entry: FedEntry) -> None:
        event = entry.describe()
        for watcher in entry.watchers:
            watcher.put_nowait(event)

    def _finish(self, entry: FedEntry, state: str) -> None:
        entry.state = state
        entry.finished_at = time.monotonic()
        self._active.pop(entry.key, None)
        self._notify(entry)

    def _finish_done(
        self, entry: FedEntry, packed_outcome: str, node: NodeInfo
    ) -> None:
        try:
            outcome = protocol.unpack(packed_outcome)
        except protocol.ProtocolError as exc:
            # Garbage is never cached or passed on: the job fails.
            self.bad_outcomes += 1
            message = (
                f"{node.name} ({node.addr_text()}) answered an "
                f"unpackable outcome: {exc}"
            )
            print(
                f"repro gateway: job {entry.id} failed: {message}",
                file=sys.stderr,
            )
            self._finish_failed(entry, message)
            return
        entry.outcome_packed = packed_outcome
        self.completed += 1
        self._finish(entry, protocol.DONE)
        if not entry.future.done():
            entry.future.set_result(packed_outcome)
        if self.config.use_cache:
            results_cache.store(entry.key, outcome)

    def _finish_failed(self, entry: FedEntry, message: str) -> None:
        entry.error = message
        self.failed += 1
        self._finish(entry, protocol.FAILED)
        if not entry.future.done():
            entry.future.set_exception(RuntimeError(message))
        entry.future.exception()  # fire-and-forget submits must not warn

    def _prune_history(self) -> None:
        if len(self._entries) <= self.config.history:
            return
        for entry_id in sorted(self._entries):
            entry = self._entries[entry_id]
            if entry.state in protocol.TERMINAL_STATES and not entry.watchers:
                del self._entries[entry_id]
                if len(self._entries) <= self.config.history:
                    return

    async def admit(self, job: SimJob, packed: str, priority: int) -> Admission:
        """Results cache, then coalescing onto an active job, then a
        new entry routed through the ring."""
        key = results_cache.job_key(job)
        if self.config.use_cache:
            cached = results_cache.load(key)
            if cached is not None:
                self.cache_hits += 1
                return Admission(key=key, cached=protocol.pack(cached))
        active = self._active.get(key)
        if active is not None:
            self.dedupe_hits += 1
            active.refs += 1
            return Admission(entry=active, deduped=True)
        entry = FedEntry(
            id=self._next_id, key=key, job=job, packed=packed,
            priority=priority,
        )
        self._next_id += 1
        self._entries[entry.id] = entry
        self._active[key] = entry
        task = asyncio.ensure_future(self._run_entry(entry))
        self._entry_tasks.add(task)
        task.add_done_callback(self._entry_tasks.discard)
        self._prune_history()
        return Admission(entry=entry)

    # -- routing and forwarding -----------------------------------------

    async def _run_entry(self, entry: FedEntry) -> None:
        """Drive one job to a terminal state, failing over across
        nodes under the bounded-retry discipline."""
        tried: set[str] = set()
        while True:
            if entry.state == protocol.CANCELLED:
                return
            name = self.membership.route(entry.key, exclude=tried)
            if name is None:
                self._finish_failed(
                    entry,
                    f"no live federation nodes (of {len(self.membership)})",
                )
                return
            node = self.membership.node(name)
            entry.node = name
            async with self._sems[name]:
                if entry.state == protocol.CANCELLED:
                    return
                node.in_flight += 1
                node.routed += 1
                self.routed += 1
                entry.state = protocol.RUNNING
                if entry.started_at is None:
                    entry.started_at = time.monotonic()
                self._notify(entry)
                try:
                    packed_outcome = await self._forward(node, entry)
                except NodeUnavailable as exc:
                    failure = exc
                except NodeRejected as exc:
                    self._finish_failed(entry, str(exc))
                    return
                except asyncio.CancelledError:
                    raise
                else:
                    self._finish_done(entry, packed_outcome, node)
                    return
                finally:
                    node.in_flight -= 1
            # Node died under the job: requeue to the next in the
            # ring, same bounded discipline as WorkerPool retries.
            self.failover_requeues += 1
            entry.retries += 1
            tried.add(name)
            self.membership.note_failure(name, fatal=True)
            entry.state = protocol.QUEUED
            entry.node = None
            self._notify(entry)
            if entry.retries > self.config.max_retries:
                self._finish_failed(
                    entry,
                    f"{failure} (gave up after {entry.retries} failovers)",
                )
                return

    async def _open(self, node: NodeInfo):
        if isinstance(node.addr, tuple):
            host, port = node.addr
            coro = asyncio.open_connection(
                host=host, port=port, limit=protocol.MAX_LINE_BYTES
            )
        else:
            coro = asyncio.open_unix_connection(
                path=str(node.addr), limit=protocol.MAX_LINE_BYTES
            )
        return await asyncio.wait_for(coro, self.config.connect_timeout)

    async def _forward(self, node: NodeInfo, entry: FedEntry) -> str:
        """Run one job on ``node`` over a dedicated connection and
        return the packed outcome (no unpickle on the hot path)."""
        try:
            reader, writer = await self._open(node)
        except (OSError, asyncio.TimeoutError) as exc:
            raise NodeUnavailable(
                f"{node.name} ({node.addr_text()}) unreachable: {exc}"
            ) from None
        try:
            writer.write(protocol.encode({
                "op": "submit",
                "job": entry.packed,
                "priority": entry.priority,
                "wait": True,
            }))
            await writer.drain()
            submitted = await self._read_node_line(node, reader)
            if submitted["op"] == "error":
                self._raise_node_error(node, submitted)
            if submitted["op"] != "submitted":
                raise NodeRejected(
                    f"{node.name} answered {submitted['op']!r} to submit"
                )
            result = await self._read_node_line(node, reader)
            if result["op"] == "error":
                self._raise_node_error(node, result)
            if result["op"] != "result":
                raise NodeRejected(
                    f"{node.name} answered {result['op']!r}, expected result"
                )
            return result.get("outcome")
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise NodeUnavailable(f"{node.name} reset: {exc}") from None
        finally:
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()

    async def _read_node_line(self, node: NodeInfo, reader) -> dict:
        line = await reader.readline()
        if not line:
            raise NodeUnavailable(
                f"{node.name} dropped the connection mid-job"
            )
        try:
            return protocol.decode(line)
        except protocol.VersionMismatch as exc:
            raise NodeRejected(
                f"{node.name} speaks protocol v{exc.peer_version!r}, "
                f"gateway speaks v{exc.our_version}"
            ) from None
        except protocol.ProtocolError as exc:
            raise NodeRejected(f"{node.name} answered garbage: {exc}") from None

    @staticmethod
    def _raise_node_error(node: NodeInfo, msg: dict) -> None:
        error = msg.get("error", "unknown error")
        # Backpressure and shutdown are the node's problem, not the
        # job's: fail over instead of failing the client.
        if error in ("queue_full", "shutting_down"):
            raise NodeUnavailable(f"{node.name}: {error}")
        raise NodeRejected(f"{node.name}: {error}")

    # -- health ---------------------------------------------------------

    async def _probe(self, node: NodeInfo) -> None:
        self.health_probes += 1
        try:
            reader, writer = await self._open(node)
        except (OSError, asyncio.TimeoutError):
            self.membership.note_failure(node.name)
            return
        try:
            writer.write(protocol.encode({"op": "ping"}))
            writer.write(protocol.encode({"op": "status"}))
            await writer.drain()
            pong = await asyncio.wait_for(
                reader.readline(), self.config.connect_timeout
            )
            status = await asyncio.wait_for(
                reader.readline(), self.config.connect_timeout
            )
            if not pong or protocol.decode(pong)["op"] != "pong":
                raise OSError("bad ping reply")
            summary = protocol.decode(status) if status else {}
        except (OSError, asyncio.TimeoutError, protocol.ProtocolError):
            self.membership.note_failure(node.name)
            return
        finally:
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()
        self.membership.mark_alive(
            node.name,
            {
                "queue_depth": summary.get("queue_depth"),
                "in_flight": summary.get("in_flight"),
                "workers_alive": summary.get("workers_alive"),
            },
        )

    async def _probe_all(self) -> None:
        await asyncio.gather(
            *(self._probe(n) for n in self.membership.nodes()),
            return_exceptions=True,
        )

    async def _health_loop(self) -> None:
        # Sleep first: start-up has just probed, and a second failure
        # at once would mark a node that is still coming up dead.
        while True:
            await asyncio.sleep(self.config.health_interval)
            await self._probe_all()

    # -- backend ----------------------------------------------------------

    async def watch_all(self, msg: dict, writer) -> None:
        """``watch`` without an id: stream periodic federation stats
        snapshots (``count`` bounds them; ``interval`` seconds apart)."""
        count = msg.get("count")
        count = None if count is None else max(1, number(msg, "count", None))
        interval = number(
            msg, "interval", self.config.health_interval, cast=float
        )
        sent = 0
        while count is None or sent < count:
            await self._reply(
                writer,
                {
                    "op": "event",
                    "kind": "federation",
                    "tree": self.stats_tree().snapshot(),
                },
            )
            sent += 1
            if count is not None and sent >= count:
                return
            await asyncio.sleep(max(0.05, interval))

    def lookup(self, entry_id: int) -> FedEntry | None:
        return self._entries.get(entry_id)

    @staticmethod
    def pack_outcome(packed_outcome: str) -> str:
        return packed_outcome  # nodes answer packed; pass it through

    def cancel(self, entry_id: int) -> FedEntry:
        entry = self._entries.get(entry_id)
        if entry is None:
            raise KeyError(entry_id)
        if entry.state != protocol.QUEUED:
            raise ValueError(f"job {entry_id} is {entry.state}, not queued")
        entry.error = "cancelled"
        self.cancelled += 1
        self._finish(entry, protocol.CANCELLED)
        if not entry.future.done():
            entry.future.set_exception(
                RuntimeError(f"job {entry_id} cancelled")
            )
        entry.future.exception()
        return entry

    # -- lifecycle ------------------------------------------------------

    async def on_start(self) -> None:
        """Probe every node once, then start the health loop."""
        await self._probe_all()
        self._health_task = asyncio.create_task(
            self._health_loop(), name="federation-health"
        )

    async def on_stop(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
            self._health_task = None
        for task in list(self._entry_tasks):
            task.cancel()
        await asyncio.gather(*self._entry_tasks, return_exceptions=True)
        for entry in list(self._active.values()):
            self._finish_failed(entry, "gateway shutting down")


def serve_gateway(config: GatewayConfig) -> None:
    """Blocking entry point: run a gateway in this process."""
    asyncio.run(FederationGateway(config).serve())
