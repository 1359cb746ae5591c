"""The shared v1 protocol front-end over a fake backend.

:class:`~repro.service.frontend.ProtocolServer` owns the connection
loop and op dispatch for both the daemon and the gateway; here a
scripted in-memory backend stands in for either, so the tests pin the
front-end's own contract -- malformed requests are answered and
counted, the connection keeps serving, and admission results stream
back in the documented shapes -- without a worker pool or a ring.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from types import SimpleNamespace

import pytest

from repro.harness import SimJob
from repro.service import protocol
from repro.service.frontend import Admission, ProtocolServer, Refused
from repro.sim import small_system
from repro.telemetry import StatGroup
from repro.workloads import make_mix

#: Admission of a job with this priority is refused by the fake.
REFUSE = 7


def _packed_job(seed: int = 0) -> str:
    return protocol.pack(
        SimJob(make_mix("sftn", 1), "lru-sa16", small_system(), 1000, seed=seed)
    )


@dataclass
class FakeEntry:
    id: int
    key: str
    state: str = protocol.DONE
    future: asyncio.Future = field(default_factory=asyncio.Future)
    watchers: list = field(default_factory=list)

    def describe(self) -> dict:
        return {"id": self.id, "key": self.key, "state": self.state}


class FakeBackend(ProtocolServer):
    """Every admitted job finishes at once with outcome ``"out-<id>"``;
    seed 1 is a cache hit, priority :data:`REFUSE` is refused."""

    role = "fake"

    def __init__(self, socket_path):
        super().__init__(SimpleNamespace(socket_path=socket_path, tcp=None))
        self.entries: dict[int, FakeEntry] = {}

    async def admit(self, job, packed, priority):
        if priority == REFUSE:
            raise Refused(protocol.error("queue_full"))
        if job.seed == 1:
            return Admission(key="k1", cached="cached-out")
        entry = FakeEntry(id=len(self.entries) + 1, key=f"k{job.seed}")
        entry.future.set_result(f"out-{entry.id}")
        self.entries[entry.id] = entry
        return Admission(entry=entry)

    def lookup(self, entry_id):
        return self.entries.get(entry_id)

    def cancel(self, entry_id):
        if entry_id not in self.entries:
            raise KeyError(entry_id)
        raise ValueError(f"job {entry_id} is done, not queued")

    def pack_outcome(self, value):
        return value

    def summary(self):
        return {"op": "status", "entries": len(self.entries)}

    def stats_tree(self):
        root = StatGroup("root", "fake")
        root.stat("protocol_errors", lambda: self.protocol_errors, "errors")
        return root


async def _session(tmp_path, lines: list[bytes], replies: int):
    """Send ``lines`` on one connection; read ``replies`` lines back."""
    server = FakeBackend(tmp_path / "fake.sock")
    await server.start()
    try:
        reader, writer = await asyncio.open_unix_connection(
            str(server.config.socket_path)
        )
        for line in lines:
            writer.write(line)
        await writer.drain()
        out = [
            protocol.decode(await asyncio.wait_for(reader.readline(), 10))
            for _ in range(replies)
        ]
        writer.close()
        await writer.wait_closed()
    finally:
        await server.stop()
    return out, server


def _line(**msg) -> bytes:
    return protocol.encode(msg)


#: One malformed request each: the reply is one error line naming the
#: problem, and the same connection answers the following ping.
MALFORMED = {
    "submit-no-job": (_line(op="submit"), "submit carries no SimJob payload"),
    "submit-job-not-a-string": (
        _line(op="submit", job=42), "submit carries no SimJob payload"
    ),
    "submit-job-garbage": (
        _line(op="submit", job="@@not base64@@"),
        "submit carries no SimJob payload",
    ),
    "submit-job-not-a-simjob": (
        _line(op="submit", job=protocol.pack({"not": "a job"})),
        "submit carries no SimJob payload",
    ),
    "submit-priority": (
        _line(op="submit", job=_packed_job(), priority="high"),
        "'priority' must be an integer, got 'high'",
    ),
    "batch-priority": (
        _line(op="submit_batch", jobs=[_packed_job()], priority=[1]),
        "'priority' must be an integer, got [1]",
    ),
    "batch-slot": (
        _line(op="submit_batch", jobs=[_packed_job(), "junk"]),
        "submit_batch slot 1 is not a SimJob",
    ),
    "batch-no-jobs": (
        _line(op="submit_batch", jobs=[]), "submit_batch carries no job list"
    ),
    "status-id": (
        _line(op="status", id="abc"), "'id' must be an integer, got 'abc'"
    ),
    "watch-id": (
        _line(op="watch", id="abc"), "'id' must be an integer, got 'abc'"
    ),
    "cancel-id": (
        _line(op="cancel", id="abc"), "'id' must be an integer, got 'abc'"
    ),
    "unknown-op": (_line(op="frobnicate"), "unknown op 'frobnicate'"),
}


class TestMalformedRequests:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_answered_counted_and_connection_survives(self, tmp_path, case):
        line, message = MALFORMED[case]
        replies, server = asyncio.run(
            _session(tmp_path, [line, _line(op="ping")], replies=2)
        )
        error, pong = replies
        assert error["op"] == "error"
        assert error["error"] == message
        assert pong == {"op": "pong", "role": "fake", "v": 1}
        assert server.protocol_errors == 1

    def test_garbage_and_version_mismatch_lines(self, tmp_path):
        lines = [b"not json\n", b'{"v":99,"op":"ping"}\n', _line(op="ping")]
        replies, server = asyncio.run(_session(tmp_path, lines, replies=3))
        garbage, mismatch, pong = replies
        assert garbage["op"] == "error"
        assert garbage["error"].startswith("undecodable message")
        assert mismatch["code"] == "version_mismatch"
        assert mismatch["client_version"] == 99
        assert pong["op"] == "pong"
        assert server.protocol_errors == 2


class TestBackendContract:
    def test_submit_streams_ticket_then_outcome(self, tmp_path):
        lines = [
            _line(op="submit", job=_packed_job(0)),
            _line(op="submit", job=_packed_job(1)),
            _line(op="submit", job=_packed_job(2), priority=REFUSE),
        ]
        replies, _ = asyncio.run(_session(tmp_path, lines, replies=5))
        fresh, fresh_result, cached, cached_result, refused = replies
        assert fresh == {"op": "submitted", "id": 1, "key": "k0",
                         "state": protocol.DONE, "deduped": False,
                         "cached": False, "v": 1}
        assert fresh_result == {"op": "result", "id": 1,
                                "outcome": "out-1", "v": 1}
        assert cached["cached"] is True and cached["id"] == 0
        assert cached_result["outcome"] == "cached-out"
        assert refused == {"op": "error", "error": "queue_full", "v": 1}

    def test_batch_streams_every_slot(self, tmp_path):
        jobs = [_packed_job(0), _packed_job(1)]
        lines = [
            _line(op="submit_batch", jobs=jobs),
            _line(op="submit_batch", jobs=jobs[:1], priority=REFUSE),
        ]
        replies, server = asyncio.run(_session(tmp_path, lines, replies=7))
        submitted, cached, fresh, done = replies[:4]
        assert submitted["ids"] == [1, 0]
        assert submitted["cached"] == [False, True]
        assert cached == {"op": "result", "index": 1, "id": 0,
                          "outcome": "cached-out", "v": 1}
        assert fresh == {"op": "result", "index": 0, "id": 1,
                         "outcome": "out-1", "v": 1}
        assert done == {"op": "batch_done", "completed": 2, "failed": 0,
                        "v": 1}
        refused_submitted, refused, refused_done = replies[4:7]
        assert refused_submitted["ids"] == [0]
        assert refused["error"] == "queue_full"
        assert refused_done["failed"] == 1
        assert server.batches == 2 and server.batch_jobs == 3

    def test_lookup_cancel_and_summary(self, tmp_path):
        lines = [
            _line(op="submit", job=_packed_job(0), wait=False),
            _line(op="status"),
            _line(op="status", id=1),
            _line(op="watch", id=1),
            _line(op="cancel", id=1),
            _line(op="status", id=9),
            _line(op="watch", id=9),
            _line(op="cancel", id=9),
            _line(op="watch"),
        ]
        replies, server = asyncio.run(_session(tmp_path, lines, replies=9))
        assert replies[0]["op"] == "submitted"
        assert replies[1] == {"op": "status", "entries": 1, "v": 1}
        assert replies[2] == {"op": "status", "id": 1, "key": "k0",
                              "state": protocol.DONE, "v": 1}
        assert replies[3]["op"] == "event" and replies[3]["id"] == 1
        assert replies[4]["error"] == "job 1 is done, not queued"
        assert [r["error"] for r in replies[5:]] == ["unknown_job"] * 4
        assert server.protocol_errors == 0
