"""Transaction-processing support for the TSB-tree (paper section 4)."""

from repro.txn.clock import TimestampOracle
from repro.txn.locks import LockConflictError, LockManager, LockMode
from repro.txn.manager import (
    Transaction,
    TransactionError,
    TransactionManager,
    TransactionState,
)

__all__ = [
    "LockConflictError",
    "LockManager",
    "LockMode",
    "TimestampOracle",
    "Transaction",
    "TransactionError",
    "TransactionManager",
    "TransactionState",
]
