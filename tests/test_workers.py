"""The supervised worker substrate (:mod:`repro.gpos.workers`).

The fleet and the morsel pool run every child process through one
handle, so its guarantees are pinned here directly: a silent child is
reaped as ``wedged`` and a vanished one as ``died``, ``stop`` escalates
from goodbye to SIGTERM to SIGKILL and reports the exit code, and the
child's ``serve`` loop turns failures into error replies instead of
dying.
"""

from __future__ import annotations

import signal
import time

import pytest

from repro.gpos.workers import Worker, WorkerLost, serve


def _echo(conn):
    def handle(message):
        if message == "raise":
            raise ValueError("bad message")
        if message == "unpicklable":
            return {"ok": True, "fn": lambda: None}
        if message == "quiet":
            return None
        return {"ok": True, "echo": message}

    serve(conn, handle)


def _silent(conn):
    time.sleep(60)


def _stubborn(conn):
    """Ignores both the goodbye message and SIGTERM."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send("ready")
    while True:
        time.sleep(1)


def test_serve_replies_and_exits_on_goodbye():
    worker = Worker("substrate-echo", _echo)
    assert worker.process.name == "substrate-echo"
    assert worker.process.daemon
    assert worker.call("hi", 10.0) == {"ok": True, "echo": "hi"}
    worker.send("quiet")  # no reply: the next reply answers the next call
    failed = worker.call("raise", 10.0)
    assert failed["ok"] is False and failed["error_class"] == "ValueError"
    assert failed["message"] == "bad message"
    failed = worker.call("unpicklable", 10.0)
    assert failed["ok"] is False
    assert failed["message"].startswith("reply serialization failed")
    assert worker.call("still here", 10.0)["echo"] == "still here"
    assert worker.stop(timeout=5.0) == 0


def test_silent_child_is_reaped_as_wedged():
    worker = Worker("substrate-silent", _silent)
    worker.send("anything")
    start = time.monotonic()
    with pytest.raises(WorkerLost) as lost:
        worker.recv(0.3)
    assert lost.value.reason == "wedged"
    assert time.monotonic() - start < 5.0
    assert not worker.alive
    worker.restart()
    assert worker.alive
    assert worker.stop(timeout=0.1) == -signal.SIGTERM


def test_dead_child_is_reported_as_died():
    worker = Worker("substrate-dead", _echo)
    worker.process.kill()
    worker.process.join(5.0)
    with pytest.raises(WorkerLost) as lost:
        worker.call("hi", 5.0)
    assert lost.value.reason == "died"
    assert worker.stop() == -signal.SIGKILL


def test_stop_escalates_to_kill_when_goodbye_and_sigterm_are_ignored():
    worker = Worker("substrate-stubborn", _stubborn)
    assert worker.recv(10.0) == "ready"  # SIGTERM is ignored from here
    start = time.monotonic()
    assert worker.stop(timeout=0.2) == -signal.SIGKILL
    # goodbye wait + SIGTERM reap wait, then the kill.
    assert time.monotonic() - start >= 0.2
    assert not worker.alive
