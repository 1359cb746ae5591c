"""Gateway failure paths that must never be silent.

- A node that answers a ``result`` whose outcome does not unpack:
  the job fails with an error naming the node, the ``bad_outcomes``
  counter and one stderr line record it, and nothing is cached.  A
  scripted fake node (plain sockets, in the style of the fake daemon
  in ``tests/service/test_client_retry.py``) plays the broken node.
- A daemon that comes up just after the gateway: the gateway's
  start-up probe fails once, and a job submitted before the next
  probe must still run there.
- Malformed ``count`` / ``interval`` on the id-less ``watch`` stream.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from fedutil import (
    DaemonProc,
    GatewayHarness,
    free_port,
    make_jobs,
    serial_results,
)
from repro.harness import results_cache
from repro.service import ServiceError, protocol


class FakeNode:
    """Answers health probes like a live daemon and every ``submit``
    with ``submitted`` then a ``result`` carrying ``outcome`` (no
    ``outcome`` field at all when it is ``None``)."""

    def __init__(self, outcome):
        self.outcome = outcome
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.addr = f"127.0.0.1:{self.sock.getsockname()[1]}"
        self.submits = 0
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _replies(self, op: str) -> list[dict]:
        if op == "ping":
            return [{"op": "pong"}]
        if op == "status":
            return [{"op": "status", "queue_depth": 0, "in_flight": 0,
                     "workers_alive": 1}]
        self.submits += 1
        result = {"op": "result", "id": 1}
        if self.outcome is not None:
            result["outcome"] = self.outcome
        return [{"op": "submitted", "id": 1, "key": "k", "state": "queued",
                 "deduped": False, "cached": False}, result]

    def _serve(self, conn):
        with conn, conn.makefile("rwb") as fh:
            for line in fh:
                for reply in self._replies(json.loads(line)["op"]):
                    fh.write(protocol.encode(reply))
                fh.flush()

    def close(self):
        self.sock.close()


class TestBadNodeOutcome:
    @pytest.mark.parametrize("outcome", ["not a pickle", None],
                             ids=["garbage", "missing"])
    def test_unpackable_outcome_fails_the_job_naming_the_node(
        self, fed_env, capfd, outcome
    ):
        node = FakeNode(outcome)
        harness = GatewayHarness(fed_env, [node.addr])
        try:
            job = make_jobs(mixes=1, schemes=("lru-sa16",))[0]
            with harness.client(timeout=60) as fed:
                with pytest.raises(ServiceError, match="node0") as info:
                    fed.submit(job)
                assert "unpackable outcome" in str(info.value)
                assert node.addr in str(info.value)
                tree = fed.stats()["federation"]
                assert fed.ping()
            gateway = harness.gateway
            assert node.submits == 1
            assert gateway.bad_outcomes == tree["bad_outcomes"] == 1
            assert gateway.completed == 0 and gateway.failed == 1
            assert results_cache.load(results_cache.job_key(job)) is None
            err = capfd.readouterr().err
            assert err.count("unpackable outcome") == 1
        finally:
            harness.stop()
            node.close()


class TestStartupRace:
    def test_daemon_up_after_first_probe_runs_jobs_before_next(
        self, fed_env
    ):
        port = free_port()
        harness = GatewayHarness(
            fed_env, [f"127.0.0.1:{port}"], health_interval=60.0
        )
        daemon = None
        try:
            gateway = harness.gateway
            (row,) = gateway.membership.rows()
            assert gateway.health_probes == 1 and row["failures"] == 1
            daemon = DaemonProc(fed_env, "node0", port=port)
            daemon.wait_ready()
            job = make_jobs(mixes=1, schemes=("lru-sa16",))[0]
            with harness.client() as fed:
                outcome = fed.submit(job)
            assert outcome.result == serial_results([job])[0]
            assert gateway.health_probes == 1, "no second probe yet"
        finally:
            harness.stop()
            if daemon is not None:
                daemon.stop()


class TestWatchStream:
    @pytest.mark.parametrize("field,value,message", [
        ("count", "many", "'count' must be an integer, got 'many'"),
        ("interval", "soon", "'interval' must be a number, got 'soon'"),
    ])
    def test_bad_stream_fields_are_answered(
        self, fed_env, field, value, message
    ):
        harness = GatewayHarness(fed_env, ["127.0.0.1:1"])
        try:
            path = str(harness.config.socket_path)
            with socket.socket(socket.AF_UNIX) as sock:
                sock.connect(path)
                sock.settimeout(30)
                with sock.makefile("rwb") as fh:
                    for msg in ({"op": "watch", field: value},
                                {"op": "ping"}):
                        fh.write(protocol.encode(msg))
                    fh.flush()
                    error = protocol.decode(fh.readline())
                    pong = protocol.decode(fh.readline())
            assert error == {"op": "error", "error": message, "v": 1}
            assert pong["op"] == "pong"
            assert harness.gateway.protocol_errors == 1
        finally:
            harness.stop()
