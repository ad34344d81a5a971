"""Write-ahead logging, group commit and restart recovery.

The paper's versioning scheme (section 4) assumes commit is atomic and
durable: a transaction's versions become visible only with its commit
timestamp.  This package supplies the durability half of that contract for
the reproduction:

* :mod:`repro.recovery.log_records` — the binary log-record format.
* :class:`LogManager` — LSN assignment, the write-ahead disciplines, group
  commit and (full or fuzzy) checkpoints over a
  :class:`~repro.storage.logdevice.LogDevice`.
* :mod:`repro.recovery.replay` — :class:`~repro.recovery.replay.LogReplayer`,
  the one way a log is applied to a tree: restart recovery, a replica's
  follower apply and promotion all run it.
* :class:`RecoveryManager` — restart recovery: reopen the tree at its last
  checkpoint, replay the durable log from there, verify the result against
  the structural checker.

The façade wires these to a tree (``VersionStore.open(..., log_device=)``
runs restart recovery); nothing here knows the façade exists.
"""

from repro.recovery.log_manager import LogManager, RecoveryRequiredError
from repro.recovery.log_records import (
    ActiveTransaction,
    LogRecord,
    LogRecordError,
    LogRecordType,
    decode_stream,
    encode_record,
)
from repro.recovery.recovery_manager import (
    RecoveryError,
    RecoveryManager,
    RecoveryReport,
    RecoveryResult,
)

__all__ = [
    "ActiveTransaction",
    "LogManager",
    "LogRecord",
    "LogRecordError",
    "LogRecordType",
    "RecoveryError",
    "RecoveryManager",
    "RecoveryReport",
    "RecoveryRequiredError",
    "RecoveryResult",
    "decode_stream",
    "encode_record",
]
