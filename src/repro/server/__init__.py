"""The network service layer: the version store, served over TCP.

``repro.server`` packages four pieces:

* :mod:`~repro.server.protocol` — the struct-framed, CRC-checked wire
  protocol (WAL-style ``[length][crc][body]`` frames);
* :mod:`~repro.server.transport` — every socket: the one listener core and
  the one framed connection (the client and the replication tier use them
  too);
* :mod:`~repro.server.registry` — the per-tenant store registry
  (open-on-first-use, device-retaining close/reopen);
* :mod:`~repro.server.service` — :class:`ReproServer`, the TCP server: one
  blocking thread per connection (a pipelined burst is read, executed and
  answered in request order on the thread it arrived on), table-driven
  dispatch, ``workers`` execution slots and ``SERVER_BUSY`` admission
  control.

The matching synchronous client lives in :mod:`repro.client`.
"""

from repro.server.protocol import (
    MAX_BODY_BYTES,
    ChecksumError,
    FrameTooLargeError,
    Opcode,
    ProtocolError,
    Status,
    TruncatedFrameError,
)
from repro.server.registry import (
    StoreRegistry,
    TenantNotResumableError,
    UnknownTenantError,
)
from repro.server.service import ReproServer, default_catalog

__all__ = [
    "MAX_BODY_BYTES",
    "ChecksumError",
    "FrameTooLargeError",
    "Opcode",
    "ProtocolError",
    "ReproServer",
    "Status",
    "StoreRegistry",
    "TenantNotResumableError",
    "TruncatedFrameError",
    "UnknownTenantError",
    "default_catalog",
]
