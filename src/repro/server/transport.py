"""The transport: every socket in ``src/`` — the one listener core and the one
framed connection under the server, the replication primary, the client and
the replica.

**The frame** is :mod:`repro.server.protocol`'s ``[u32 length][u32 crc][body]``;
:func:`~repro.server.protocol.encode_frame` writes it and
:func:`~repro.server.protocol.slice_frames` is the only code that reads it.

**A** :class:`Connection` is one end of a TCP stream, ``TCP_NODELAY`` set,
blocking without a timeout (:func:`connect`'s timeout bounds the connect
alone: an idle peer is healthy).  :meth:`Connection.read_frames` blocks for a
*burst* — one ``recv``, which for a pipelining peer holds many frames — and
returns every complete frame body in it; a frame's tail that has not arrived
is carried to the next read.  A stream ends one of three ways:

* **clean end** — EOF between frames (or this end shut its read side):
  ``read_frames`` returns ``[]``, now and on every later call;
* **torn tail** — EOF inside a frame:
  :exc:`~repro.server.protocol.TruncatedFrameError`;
* **poisoned** — a length above ``MAX_BODY_BYTES``
  (:exc:`~repro.server.protocol.FrameTooLargeError`) or a CRC mismatch
  (:exc:`~repro.server.protocol.ChecksumError`): the frame boundary is lost.
  The bodies sliced before the fault are handed out first; the call after
  them raises, and so does every later one.

:meth:`Connection.send` is one ``sendall`` under the connection's lock, so
frames from two threads never interleave.  A reset or cut connection surfaces
as ``OSError`` from either call.  What a fault *means* is the user's:
:class:`~repro.server.service.ReproServer` and
:class:`~repro.replication.primary.ReplicationPrimary` drop that connection
only, the client poisons the channel and fails every waiter, a replica
resubscribes from its mirror cursor.

**A** :class:`Listener` binds when it is built (so ``port=0`` can be read back
before anything runs) and owns two kinds of thread, the only ones that touch
its sockets: the accept loop (``accept_name``) and one thread per accepted
connection (``<connection_name>-N``), which runs the user's ``handler`` on a
:class:`Connection` and closes it when the handler returns.  The connection
table holds live connections only.  Threads a handler starts are the
handler's to join before it returns (the primary's ``repl-stream-*`` are);
the client's ``repro-client-demux`` and a replica's ``replica-*-tail*``
belong to the connecting side.

:meth:`Listener.stop` promises: no new connection is accepted; every handler
sees a clean end instead of its next burst and may finish answering the one it
has (up to ``timeout`` seconds); a handler still running then — blocked
sending to a peer that never reads — is cut off on both sides and given
:data:`CUT_GRACE_S` more; when ``stop`` returns no thread of this listener is
alive, or it raises ``RuntimeError`` naming the ones that are.
:meth:`Listener.kill` is the same shutdown with no patience: peers see their
streams end mid-frame, as they would on a machine loss.

A simulated transport (ROADMAP item 7) has these two classes and
:func:`connect` to implement, and nothing else.
"""

from __future__ import annotations

import itertools
import socket
import threading
from time import monotonic
from typing import Callable, Dict, Iterator, List, Optional

from repro.server import protocol

#: How much one ``recv`` pulls off a socket.  A pipelining peer's burst of
#: frames lands in one read.  Kept under the allocator's mmap threshold
#: (128 KiB): ``recv`` allocates its whole argument before it knows how little
#: arrived, and above the threshold that is an mmap/munmap pair per read
#: (measured here: 12 µs instead of 1).
READ_CHUNK_BYTES = 64 * 1024

#: How long :meth:`Listener.stop` waits for a thread whose socket it has
#: already cut: long enough to finish the store call it is in, short enough
#: that a wedged one is reported instead of waited out.
CUT_GRACE_S = 5.0


class Connection:
    """One end of a framed TCP stream (see the module docstring)."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        self.sock = sock
        #: Set by :meth:`shutdown` (and so by :meth:`close`): reads have ended.
        self.shut = False
        self._send_lock = threading.Lock()
        self._partial = b""  # the head of a frame whose tail has not arrived
        self._fault: Optional[protocol.ProtocolError] = None

    def read_frames(self) -> List[bytes]:
        """Block for the next burst; every complete frame body in it.

        ``[]`` is the clean end of the stream; a torn tail or a poisoned
        stream raises its :exc:`~repro.server.protocol.ProtocolError`.
        """
        while True:
            if self._fault is not None:
                raise self._fault
            if self.shut:
                return []
            data = self.sock.recv(READ_CHUNK_BYTES)
            buffer = self._partial + data if self._partial else data
            bodies, consumed, self._fault = protocol.slice_frames(buffer, at_eof=not data)
            self._partial = buffer[consumed:]
            if bodies:
                return bodies
            if not data and self._fault is None:
                return []

    def frames(self) -> Iterator[bytes]:
        """Every frame body up to the clean end, for a reader that takes
        them one at a time."""
        for bodies in iter(self.read_frames, []):
            yield from bodies

    def send(self, data: bytes) -> None:
        """Write whole frames; concurrent senders take turns."""
        with self._send_lock:
            self.sock.sendall(data)

    def shutdown(self, how: int = socket.SHUT_RDWR) -> None:
        """Wake whoever is blocked on this connection: a reader sees the
        clean end (``SHUT_RD``), a sender too an ``OSError`` (``SHUT_RDWR``,
        the only other ``how`` in use).  ``close()`` alone would wake neither."""
        self.shut = True
        try:
            self.sock.shutdown(how)
        except OSError:
            pass  # the peer already reset it

    def close(self) -> None:
        self.shutdown()
        self.sock.close()


def connect(host: str, port: int, timeout: Optional[float]) -> Connection:
    """Connect within ``timeout`` seconds (``OSError`` otherwise); the
    connection then blocks without one."""
    return Connection(socket.create_connection((host, port), timeout=timeout))


class Listener:
    """Accept connections; run ``handler(connection)`` on a thread each."""

    def __init__(
        self,
        host: str,
        port: int,
        handler: Callable[[Connection], None],
        accept_name: str,
        connection_name: str,
    ) -> None:
        self._sock = socket.create_server((host, port), backlog=128)
        self.host, self.port = self._sock.getsockname()[:2]
        self._handler = handler
        self._connection_name = connection_name
        self._thread = threading.Thread(
            target=self._accept_loop, name=accept_name, daemon=True
        )
        self._lock = threading.Lock()
        self._connections: Dict[Connection, threading.Thread] = {}
        self._stopping = False

    def start(self) -> None:
        self._thread.start()

    def wait(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds; whether the accept loop has ended."""
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def _accept_loop(self) -> None:
        for number in itertools.count(1):
            try:
                sock, _ = self._sock.accept()
            except OSError:
                if self._stopping:
                    return
                continue  # the connection died in the backlog
            if self._stopping:
                sock.close()  # stop()'s wake-up call, or a late client
                return
            connection = Connection(sock)
            thread = threading.Thread(
                target=self._serve,
                args=(connection,),
                name=f"{self._connection_name}-{number}",
                daemon=True,
            )
            with self._lock:
                self._connections[connection] = thread
            thread.start()

    def _serve(self, connection: Connection) -> None:
        try:
            self._handler(connection)
        finally:
            with self._lock:
                del self._connections[connection]
            connection.close()

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown (the module docstring says what it promises).
        Idempotent: a second call finds nothing left to stop."""
        deadline = monotonic() + timeout
        self._stopping = True
        if self._thread.is_alive():
            # ``close()`` from another thread does not reliably wake a
            # blocked ``accept()`` on Linux; one more connection does.
            try:
                socket.create_connection((self.host, self.port), timeout=1.0).close()
            except OSError:
                pass  # the accept loop left on its own
            self._thread.join(CUT_GRACE_S)
        self._sock.close()
        with self._lock:
            connections = dict(self._connections)
        for connection in connections:
            # A handler blocked in ``read_frames`` sees the clean end and
            # leaves; one in the middle of a burst can still answer it.
            connection.shutdown(socket.SHUT_RD)
        for thread in connections.values():
            thread.join(max(0.0, deadline - monotonic()))
        for connection, thread in connections.items():
            if thread.is_alive():  # e.g. sending to a peer that never reads
                connection.shutdown()
                thread.join(CUT_GRACE_S)
        alive = [
            thread.name for thread in (self._thread, *connections.values()) if thread.is_alive()
        ]
        if alive:
            raise RuntimeError(f"{self._thread.name} did not shut down in time: {alive}")

    def kill(self) -> None:
        """Abrupt death, the failure-injection hook: :meth:`stop` with no
        patience, so a frame being sent is cut where it is."""
        self.stop(timeout=0.0)
