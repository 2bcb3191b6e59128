"""Supervised worker processes: the one place ``src/`` forks.

GPOS gives every optimizer component one OS abstraction (paper §3); this
is that abstraction for child processes.  The optimizer fleet and the
morsel pool both run their children through it.

Parent side, :class:`Worker` is a handle on one daemonic, named child
behind a duplex pipe.  A reply that does not arrive within its timeout,
or a broken pipe, kills and reaps the child and raises
:class:`WorkerLost` (``wedged`` or ``died``); the caller decides whether
to restart, re-route or fail its request.  :meth:`Worker.stop` asks the
child to exit, then terminates it, then kills it.  Child side,
:func:`serve` answers messages until EOF or :data:`GOODBYE`, turning a
handler exception or an unpicklable reply into an :func:`error_reply`.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Callable, Optional

from repro.errors import ReproError

#: The start method, chosen once: fork where the platform has it (cheap,
#: and children inherit the parent's imports), else spawn.
CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)

#: The message that ends a child's :func:`serve` loop.
GOODBYE = "goodbye"

#: Seconds to wait for a child to exit after SIGTERM or SIGKILL.
_REAP_SECONDS = 1.0


class WorkerLost(ReproError):
    """A child stopped answering (``wedged``) or went away (``died``).

    By the time this is raised the child has been killed and reaped."""

    code = "WORKER_LOST"

    def __init__(self, name: str, reason: str):
        super().__init__(f"worker {name} {reason}")
        self.reason = reason


def error_reply(exc: BaseException, message: Optional[str] = None) -> dict:
    """The reply a child sends in place of a failed one: plain data the
    parent can re-raise by class name."""
    return {
        "ok": False,
        "error_class": type(exc).__name__,
        "code": exc.code if isinstance(exc, ReproError) else "WORKER",
        "message": str(exc) if message is None else message,
    }


class Worker:
    """Parent-side handle on one supervised child process.

    The child runs ``target(conn, *args)`` and is started at once."""

    def __init__(self, name: str, target: Callable, *args):
        self.name = name
        self.target = target
        self.args = args
        self._start()

    def _start(self) -> None:
        parent_conn, child_conn = CONTEXT.Pipe()
        self.process = CONTEXT.Process(
            target=self.target,
            args=(child_conn, *self.args),
            name=self.name,
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    def _kill(self) -> None:
        if self.process.is_alive():
            self.process.kill()
        self.process.join(_REAP_SECONDS)
        self.conn.close()

    def _lose(self, reason: str):
        self._kill()
        raise WorkerLost(self.name, reason)

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, message: Any) -> None:
        """Send one message; a broken pipe means the child died."""
        try:
            self.conn.send(message)
        except OSError:
            self._lose("died")

    def recv(self, timeout: float) -> Any:
        """The child's next reply, waiting at most ``timeout`` seconds."""
        try:
            if self.conn.poll(timeout):
                return self.conn.recv()
        except (EOFError, OSError):
            self._lose("died")
        self._lose("wedged")

    def call(self, message: Any, timeout: float) -> Any:
        """One request/reply round trip."""
        self.send(message)
        return self.recv(timeout)

    def restart(self, *args) -> None:
        """Kill the child if it still runs and start a fresh one, with
        new arguments when given."""
        self._kill()
        if args:
            self.args = args
        self._start()

    def stop(self, timeout: float = 2.0) -> Optional[int]:
        """Ask the child to exit, wait up to ``timeout`` seconds, then
        terminate it, then kill it.  Returns its exit code."""
        try:
            self.conn.send(GOODBYE)
        except OSError:
            pass  # already gone (or already lost and closed)
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(_REAP_SECONDS)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(_REAP_SECONDS)
        self.conn.close()
        return self.process.exitcode


def gather(workers: list[Worker], timeout: float) -> list:
    """One reply from each worker, in order, all within ``timeout``
    seconds."""
    deadline = time.monotonic() + timeout
    return [w.recv(max(0.0, deadline - time.monotonic())) for w in workers]


def serve(conn, handle: Callable[[Any], Any]) -> None:
    """Child side: answer each message with ``handle(message)`` until
    EOF or :data:`GOODBYE`.  A handler returning None sends no reply."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # the parent went away
        if message == GOODBYE:
            break
        try:
            reply = handle(message)
        except Exception as exc:  # noqa: BLE001 - downgraded to a reply
            reply = error_reply(exc)
        if reply is None:
            continue
        try:
            conn.send(reply)
        except OSError:
            break
        except Exception as exc:  # noqa: BLE001 - the reply did not pickle
            conn.send(
                error_reply(exc, f"reply serialization failed: {exc}")
            )
    conn.close()
