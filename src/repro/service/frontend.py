"""The v1 protocol front-end shared by the daemon and the gateway.

:class:`ProtocolServer` is the one implementation of
:mod:`repro.service.protocol` on the server side: socket binding (a
Unix socket always, TCP when ``config.tcp`` names an endpoint), the
per-connection line loop, op dispatch, the per-slot result streaming
of ``submit_batch`` and the ``start``/``stop``/``serve`` lifecycle.
A malformed request -- bad JSON, a version mismatch, an unknown op, a
payload that does not unpack, a field of the wrong type -- is
answered with one ``error`` line and counted in ``protocol_errors``;
the connection keeps serving.

What the server *does* with a job is its backend's business.  A
subclass supplies:

- ``admit(job, packed, priority)`` -> :class:`Admission`, or raises
  :class:`Refused` with the error reply (``queue_full`` ...);
- ``lookup(id)`` -> an entry or ``None``; ``cancel(id)`` -> the
  cancelled entry, raising ``KeyError`` (unknown) or ``ValueError``
  (not cancellable).  Entries carry ``id``, ``key``, ``state``,
  ``future``, ``watchers`` and ``describe()``;
- ``pack_outcome(value)``: an entry future's result as a wire string;
- ``summary()`` (the id-less ``status`` reply) and ``stats_tree()``;
- ``on_start()`` / ``on_stop()``: work around binding and closing;
- optionally ``role`` (added to ``pong``) and ``watch_all`` (the
  id-less ``watch``; unknown by default).

:class:`~repro.service.server.ExperimentDaemon` (a local worker pool)
and :class:`~repro.federation.gateway.FederationGateway` (a ring of
remote daemons) are the two backends, so they match on the wire by
construction.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import time
from dataclasses import dataclass

from repro.harness.parallel import SimJob
from repro.service import protocol
from repro.telemetry import StatGroup


class BadRequest(Exception):
    """A well-formed line whose fields are not usable; answered with
    an ``error`` line and counted as a protocol error."""


class Refused(Exception):
    """The backend declined a job; ``reply`` is the error line."""

    def __init__(self, reply: dict):
        super().__init__(reply["error"])
        self.reply = reply


@dataclass
class Admission:
    """A backend's answer to one job: an active ``entry`` (new or
    coalesced), or a ``cached`` packed outcome under ``key``."""

    entry: object = None
    deduped: bool = False
    key: str | None = None
    cached: str | None = None

    def ticket(self) -> dict:
        if self.cached is not None:
            return {"id": 0, "key": self.key, "state": protocol.DONE,
                    "deduped": False, "cached": True}
        entry = self.entry
        return {"id": entry.id, "key": entry.key, "state": entry.state,
                "deduped": self.deduped, "cached": False}


def number(msg: dict, name: str, default, cast=int):
    """``cast(msg[name])``, or :class:`BadRequest` naming the field."""
    value = msg.get(name, default)
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if cast is int else "a number"
        raise BadRequest(f"{name!r} must be {kind}, got {value!r}") from None


def unpack_job(blob) -> SimJob | None:
    if not isinstance(blob, str):
        return None
    try:
        job = protocol.unpack(blob)
    except protocol.ProtocolError:
        return None
    return job if isinstance(job, SimJob) else None


class ProtocolServer:
    """v1 JSON-lines server over a backend (see the module docstring)."""

    #: Added to ``pong`` replies when set.
    role: str | None = None

    def __init__(self, config):
        self.config = config
        self.started_at = time.monotonic()
        self._servers: list[asyncio.base_events.Server] = []
        self._shutdown = asyncio.Event()
        self.connections_total = 0
        self.connections_open = 0
        self.protocol_errors = 0
        self.batches = 0
        self.batch_jobs = 0

    # -- backend interface ----------------------------------------------

    async def admit(self, job: SimJob, packed: str, priority: int) -> Admission:
        raise NotImplementedError

    def lookup(self, entry_id: int):
        raise NotImplementedError

    def cancel(self, entry_id: int):
        raise NotImplementedError

    def pack_outcome(self, value) -> str:
        raise NotImplementedError

    def summary(self) -> dict:
        raise NotImplementedError

    def stats_tree(self) -> StatGroup:
        raise NotImplementedError

    async def on_start(self) -> None:
        pass

    async def on_stop(self) -> None:
        pass

    async def watch_all(self, msg: dict, writer) -> None:
        await self._reply(writer, protocol.error("unknown_job"))

    # -- request handlers -----------------------------------------------

    async def _reply(self, writer: asyncio.StreamWriter, msg: dict) -> None:
        writer.write(protocol.encode(msg))
        await writer.drain()

    async def _handle_submit(self, msg: dict, writer) -> None:
        packed = msg.get("job")
        job = unpack_job(packed)
        if job is None:
            raise BadRequest("submit carries no SimJob payload")
        wait = bool(msg.get("wait", True))
        priority = number(msg, "priority", 0)
        try:
            admission = await self.admit(job, packed, priority)
        except Refused as exc:
            await self._reply(writer, exc.reply)
            return
        await self._reply(writer, {"op": "submitted", **admission.ticket()})
        if not wait:
            return
        if admission.cached is not None:
            await self._reply(
                writer, {"op": "result", "id": 0, "outcome": admission.cached}
            )
            return
        entry = admission.entry
        try:
            value = await asyncio.shield(entry.future)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            await self._reply(
                writer, protocol.error(str(exc), id=entry.id, state=entry.state)
            )
            return
        await self._reply(
            writer,
            {"op": "result", "id": entry.id,
             "outcome": self.pack_outcome(value)},
        )

    async def _handle_submit_batch(self, msg: dict, writer) -> None:
        """One request, a whole sweep: admit every job, then stream
        per-slot ``result`` lines as each finishes (cache hits first,
        completion order after that -- ``index`` maps a line back to
        its slot), ending with a ``batch_done`` summary."""
        packed_jobs = msg.get("jobs")
        if not isinstance(packed_jobs, list) or not packed_jobs:
            raise BadRequest("submit_batch carries no job list")
        jobs = []
        for i, blob in enumerate(packed_jobs):
            job = unpack_job(blob)
            if job is None:
                raise BadRequest(f"submit_batch slot {i} is not a SimJob")
            jobs.append(job)
        wait = bool(msg.get("wait", True))
        priority = number(msg, "priority", 0)
        self.batches += 1
        self.batch_jobs += len(jobs)
        tickets: list[dict] = []
        ready: dict[int, str] = {}
        errors: dict[int, str] = {}
        entries: dict[int, object] = {}
        for i, (job, blob) in enumerate(zip(jobs, packed_jobs)):
            try:
                admission = await self.admit(job, blob, priority)
            except Refused as exc:
                errors[i] = str(exc)
                tickets.append({"id": 0, "cached": False, "deduped": False})
                continue
            tickets.append(admission.ticket())
            if admission.cached is not None:
                ready[i] = admission.cached
            else:
                entries[i] = admission.entry
        ids = [t["id"] for t in tickets]
        await self._reply(
            writer,
            {
                "op": "batch_submitted",
                "count": len(jobs),
                "ids": ids,
                "cached": [t["cached"] for t in tickets],
                "deduped": [t["deduped"] for t in tickets],
            },
        )
        if not wait:
            return
        completed = failed = 0
        for i in sorted(ready):
            completed += 1
            await self._reply(
                writer,
                {"op": "result", "index": i, "id": ids[i], "outcome": ready[i]},
            )
        for i in sorted(errors):
            failed += 1
            await self._reply(
                writer,
                {"op": "result", "index": i, "id": 0, "error": errors[i]},
            )
        # Two batch slots holding identical jobs share one entry (and
        # so one future); shield each slot separately so a closed
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
                reply = {"op": "result", "index": i, "id": entry.id}
                try:
                    reply["outcome"] = self.pack_outcome(entry.future.result())
                except Exception as exc:
                    failed += 1
                    reply["error"] = str(exc)
                else:
                    completed += 1
                await self._reply(writer, reply)
        await self._reply(
            writer,
            {"op": "batch_done", "completed": completed, "failed": failed},
        )

    async def _handle_watch(self, msg: dict, writer) -> None:
        if "id" not in msg:
            await self.watch_all(msg, writer)
            return
        entry = self.lookup(number(msg, "id", -1))
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

    async def _handle_status(self, msg: dict, writer) -> None:
        if "id" not in msg:
            await self._reply(writer, self.summary())
            return
        entry = self.lookup(number(msg, "id", -1))
        if entry is None:
            await self._reply(writer, protocol.error("unknown_job"))
        else:
            await self._reply(writer, {"op": "status", **entry.describe()})

    async def _handle_cancel(self, msg: dict, writer) -> None:
        entry_id = number(msg, "id", -1)
        try:
            entry = self.cancel(entry_id)
        except KeyError:
            await self._reply(writer, protocol.error("unknown_job"))
        except ValueError as exc:
            await self._reply(writer, protocol.error(str(exc)))
        else:
            await self._reply(writer, {"op": "ok", "id": entry.id})

    async def _handle_one(self, msg: dict, writer) -> bool:
        """Dispatch one request; returns False to end the connection."""
        op = msg["op"]
        try:
            if op == "submit":
                await self._handle_submit(msg, writer)
            elif op == "submit_batch":
                await self._handle_submit_batch(msg, writer)
            elif op == "status":
                await self._handle_status(msg, writer)
            elif op == "watch":
                await self._handle_watch(msg, writer)
            elif op == "cancel":
                await self._handle_cancel(msg, writer)
            elif op == "stats":
                await self._reply(
                    writer, {"op": "stats", "tree": self.stats_tree().snapshot()}
                )
            elif op == "ping":
                pong = {"op": "pong"}
                if self.role is not None:
                    pong["role"] = self.role
                await self._reply(writer, pong)
            elif op == "shutdown":
                await self._reply(writer, {"op": "ok"})
                self.request_shutdown()
                return False
            else:
                raise BadRequest(f"unknown op {op!r}")
        except BadRequest as exc:
            self.protocol_errors += 1
            await self._reply(writer, protocol.error(str(exc)))
        return True

    async def _handle_client(self, reader, writer) -> None:
        self.connections_total += 1
        self.connections_open += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self.protocol_errors += 1
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
            with contextlib.suppress(OSError):
                writer.close()
                await writer.wait_closed()

    # -- lifecycle ------------------------------------------------------

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def start(self) -> None:
        """Run the backend's start-up work, then bind the sockets
        (no blocking wait)."""
        await self.on_start()
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
        await self.on_stop()
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
