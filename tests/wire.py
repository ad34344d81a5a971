"""The suites' one raw end of the wire.

A :class:`Wire` is a :class:`repro.server.transport.Connection` taken one
frame at a time: what a test uses to play a hand-written client against a
real listener, or — handed to a :class:`ScriptedPeer`'s closure — a
hand-written server against a real client or replica.  It reads through the
transport, so the frame format has one reader in the tests as it has in
``src/``; it *writes* raw bytes, so a test can send a frame that is torn,
corrupt or oversized.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.server import protocol
from repro.server.transport import Connection, Listener, connect

#: How long any read may block before the test fails instead of hanging.
WAIT_S = 10.0


def until(condition: Callable[[], object], what: str) -> None:
    """Poll ``condition`` until it holds; fail the test after ``WAIT_S``."""
    deadline = time.monotonic() + WAIT_S
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.001)


class Wire:
    def __init__(self, connection: Connection) -> None:
        self.connection = connection
        connection.sock.settimeout(WAIT_S)
        self._frames = connection.frames()

    @classmethod
    def connect(cls, host: str, port: int) -> "Wire":
        return cls(connect(host, port, WAIT_S))

    def send(self, data: bytes) -> None:
        self.connection.send(data)

    def body(self) -> Optional[bytes]:
        """The next frame body; ``None`` at the clean end of the stream (a
        torn tail or a poisoned stream raises its ``ProtocolError``)."""
        return next(self._frames, None)

    def request(self) -> Optional[protocol.Request]:
        body = self.body()
        return None if body is None else protocol.decode_request(body)

    def response(self):
        """The next response as ``(request_id, status, reader)``, or ``None``."""
        body = self.body()
        return None if body is None else protocol.decode_response(body)

    def ended(self) -> bool:
        """Whether the peer has closed the stream: cleanly, or by reset."""
        try:
            return self.body() is None
        except ConnectionError:
            return True

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "Wire":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ScriptedPeer:
    """A listener whose per-connection behaviour is a test closure.

    The closure receives each accepted connection as a :class:`Wire`; the
    client or replica under test connects to :attr:`host`/:attr:`port`.  An
    exception in the closure is re-raised at exit, so a broken script fails
    the test instead of hanging it.
    """

    def __init__(self, script: Callable[[Wire], None]) -> None:
        self._script = script
        self._errors: List[Exception] = []
        self._listener = Listener(
            "127.0.0.1", 0, self._serve, "scripted-peer", "scripted-peer-conn"
        )
        self.host, self.port = self._listener.host, self._listener.port
        self._listener.start()

    def _serve(self, connection: Connection) -> None:
        try:
            self._script(Wire(connection))
        except Exception as exc:  # noqa: BLE001 - surfaced at exit
            self._errors.append(exc)

    def __enter__(self) -> "ScriptedPeer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._listener.stop()
        if exc_type is None and self._errors:
            raise self._errors[0]
