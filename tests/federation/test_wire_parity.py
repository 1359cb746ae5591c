"""Wire parity: a daemon and a gateway over it answer alike.

Both servers are backends of one protocol front-end, so every request
line -- well-formed or not -- must draw the same reply ``op`` and
``error`` from a live daemon and from a live gateway (the gateway adds
a ``role`` field, which is ignored here), and both must count the same
malformed lines as protocol errors.
"""

from __future__ import annotations

import json
import socket
from pathlib import Path

from fedutil import make_jobs
from repro.service import protocol


def _line(**msg) -> bytes:
    return protocol.encode(msg)


def _table(packed_job: str) -> list[tuple[str, bytes, int]]:
    """``(name, request line, reply lines)`` rows, played in order
    on one connection.  The over-cap line ends the connection, so it
    comes last."""
    return [
        ("ping", _line(op="ping"), 1),
        ("status", _line(op="status"), 1),
        ("status-unknown", _line(op="status", id=999_999), 1),
        ("status-bad-id", _line(op="status", id="abc"), 1),
        ("watch-unknown", _line(op="watch", id=999_999), 1),
        ("watch-bad-id", _line(op="watch", id="abc"), 1),
        ("cancel-unknown", _line(op="cancel", id=999_999), 1),
        ("cancel-bad-id", _line(op="cancel", id="abc"), 1),
        ("unknown-op", _line(op="frobnicate"), 1),
        ("garbage", b"this is not json\n", 1),
        ("version", b'{"v":2,"op":"ping"}\n', 1),
        ("submit-garbage", _line(op="submit", job="garbage"), 1),
        ("submit-non-job", _line(op="submit", job=protocol.pack([1, 2])), 1),
        ("submit-priority",
         _line(op="submit", job=packed_job, priority="high"), 1),
        ("batch-bad-slot",
         _line(op="submit_batch", jobs=[packed_job, "garbage"]), 1),
        ("submit", _line(op="submit", job=packed_job), 2),
        ("resubmit", _line(op="submit", job=packed_job), 2),
        ("ping-again", _line(op="ping"), 1),
        ("over-cap", b"x" * (protocol.MAX_LINE_BYTES + 1) + b"\n", 1),
    ]


#: Rows answered with an error *and* counted in ``protocol_errors``.
MALFORMED = 11


def _connect(addr) -> socket.socket:
    if isinstance(addr, Path):
        sock = socket.socket(socket.AF_UNIX)
        sock.connect(str(addr))
    else:
        sock = socket.create_connection(addr)
    sock.settimeout(120)
    return sock


def _play(addr, table) -> dict[str, list[dict]]:
    replies = {}
    with _connect(addr) as sock, sock.makefile("rb") as fh:
        for name, line, count in table:
            try:
                sock.sendall(line)
            except OSError:
                pass  # the over-cap line: the server stops reading
            replies[name] = [json.loads(fh.readline()) for _ in range(count)]
        assert fh.readline() == b"", "over-cap line must end the connection"
    with _connect(addr) as sock, sock.makefile("rb") as fh:
        sock.sendall(_line(op="stats"))
        replies["stats"] = [json.loads(fh.readline())]
    return replies


def _shape(replies: list[dict]) -> list[tuple]:
    return [(r["op"], r.get("error"), r.get("code")) for r in replies]


class TestWireParity:
    def test_daemon_and_gateway_answer_every_line_alike(self, fleet):
        job = make_jobs(mixes=1, schemes=("lru-sa16",))[0]
        table = _table(protocol.pack(job))
        node = fleet.nodes[0]
        daemon = _play(("127.0.0.1", node.port), table)
        gateway = _play(fleet.gateway.config.socket_path, table)

        for name, _, _ in table:
            assert _shape(daemon[name]) == _shape(gateway[name]), name

        assert daemon["ping"] == [{"op": "pong", "v": 1}]
        assert gateway["ping"] == [{"op": "pong", "role": "gateway", "v": 1}]
        for name in ("status-bad-id", "watch-bad-id", "cancel-bad-id"):
            assert daemon[name][0]["error"] == (
                "'id' must be an integer, got 'abc'"
            )
        assert daemon["submit-garbage"][0]["error"] == (
            "submit carries no SimJob payload"
        )
        assert daemon["version"][0]["code"] == "version_mismatch"
        for replies in (daemon, gateway):
            assert _shape(replies["submit"]) == [
                ("submitted", None, None), ("result", None, None)
            ]
            assert replies["submit"][0]["cached"] is False
            assert replies["resubmit"][0]["cached"] is True
            fresh = protocol.unpack(replies["submit"][1]["outcome"])
            cached = protocol.unpack(replies["resubmit"][1]["outcome"])
            assert fresh.result == cached.result
        assert daemon["over-cap"][0]["error"] == "line exceeds the protocol cap"

        service = daemon["stats"][0]["tree"]["service"]
        federation = gateway["stats"][0]["tree"]["federation"]
        assert service["protocol_errors"] == MALFORMED
        assert federation["protocol_errors"] == MALFORMED
