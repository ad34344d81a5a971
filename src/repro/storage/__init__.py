"""Two-tier storage substrate for the TSB-tree reproduction.

The package models the hardware environment the paper assumes:

* :class:`MagneticDisk` — erasable, page-oriented device holding the
  *current* database.
* :class:`WormDisk` — write-once, sector-oriented optical disk holding the
  *historical* database.
* :class:`OpticalLibrary` — a robot-served jukebox of WORM platters.
* :class:`LogDevice` — append-only, force-batched log disk for the WAL.
* :class:`PageCache` — the buffer pool of resident pages over the magnetic disk.
* :class:`CostModel` — seek/mount latencies and the storage cost function
  ``CS = SpaceM * CM + SpaceO * CO`` of paper section 3.2.
"""

from repro.storage.costmodel import CostModel
from repro.storage.device import (
    Address,
    Device,
    InvalidAddressError,
    OutOfSpaceError,
    PageOverflowError,
    StorageError,
    Tier,
    WriteOnceViolationError,
)
from repro.storage.iostats import IOStats, TieredIOStats
from repro.storage.logdevice import LogDevice
from repro.storage.magnetic import MagneticDisk
from repro.storage.optical_library import OpticalLibrary
from repro.storage.pagecache import CacheStats, PageCache
from repro.storage.worm import SectorExtent, WormDisk

__all__ = [
    "Address",
    "CacheStats",
    "CostModel",
    "Device",
    "IOStats",
    "InvalidAddressError",
    "LogDevice",
    "MagneticDisk",
    "OpticalLibrary",
    "OutOfSpaceError",
    "PageCache",
    "PageOverflowError",
    "SectorExtent",
    "StorageError",
    "Tier",
    "TieredIOStats",
    "WormDisk",
    "WriteOnceViolationError",
]
