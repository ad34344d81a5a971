"""Abstract storage-device model shared by the magnetic and optical tiers.

The paper (section 1) requires only that both the current and the historical
database live on *random access* devices, and that the current database lives
on an *erasable* one.  This module defines the small amount of vocabulary both
tiers share:

* :class:`Tier` — which half of the database an address refers to.
* :class:`Address` — a device-independent pointer stored inside index entries.
  Following section 3.4 of the paper, a historical address records the start
  sector and the byte length of the consolidated node ("The index pointer to a
  historical node needs only to record its address on the optical disk and its
  length"), while a magnetic address is simply an erasable page number.
* :class:`Device` — the interface implemented by
  :class:`~repro.storage.magnetic.MagneticDisk`,
  :class:`~repro.storage.worm.WormDisk` and
  :class:`~repro.storage.optical_library.OpticalLibrary`.
* The exception hierarchy raised on misuse (writing a burned WORM sector,
  reading a freed magnetic page, ...).
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional


class StorageError(Exception):
    """Base class for every error raised by the storage substrate."""


class InvalidAddressError(StorageError):
    """An address does not refer to live data on the device."""


class WriteOnceViolationError(StorageError):
    """An attempt was made to rewrite or erase data on a write-once device."""


class OutOfSpaceError(StorageError):
    """The device has no room left for the requested allocation."""


class PageOverflowError(StorageError):
    """A page image larger than the device page/sector budget was written."""


class Tier(enum.Enum):
    """Which half of the versioned database an address belongs to.

    ``MAGNETIC`` addresses are erasable pages holding *current* nodes.
    ``HISTORICAL`` addresses are immutable regions on the historical device
    (typically a WORM optical disk) holding migrated nodes.
    """

    MAGNETIC = "magnetic"
    HISTORICAL = "historical"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tier.{self.name}"


@dataclass(frozen=True)
class Address:
    """Device-independent pointer stored in TSB-tree index entries.

    Parameters
    ----------
    tier:
        Which device tier the pointer refers to.
    page_id:
        For ``Tier.MAGNETIC``: the erasable page number.
        For ``Tier.HISTORICAL``: the region identifier returned by the
        historical device when the node was appended.
    sector_start:
        First sector of the historical region (``None`` for magnetic pages).
    length:
        Byte length of the historical region (``None`` for magnetic pages).
    platter:
        Platter index when the historical device is a multi-platter
        :class:`~repro.storage.optical_library.OpticalLibrary`; ``0`` for a
        single WORM disk, ``None`` for magnetic pages.
    """

    tier: Tier
    page_id: int
    sector_start: Optional[int] = None
    length: Optional[int] = None
    platter: Optional[int] = None

    @staticmethod
    @lru_cache(maxsize=65536)
    def magnetic(page_id: int) -> "Address":
        """Build an address for an erasable magnetic page (interned).

        A magnetic address is fully determined by its page number and the
        dataclass is frozen, so every call site can share one instance —
        page decoding builds tens of thousands of these on hot paths.
        """
        return Address(tier=Tier.MAGNETIC, page_id=page_id)

    @staticmethod
    def historical(
        region_id: int,
        sector_start: int,
        length: int,
        platter: int = 0,
    ) -> "Address":
        """Build an address for an immutable historical region."""
        return Address(
            tier=Tier.HISTORICAL,
            page_id=region_id,
            sector_start=sector_start,
            length=length,
            platter=platter,
        )

    @property
    def is_magnetic(self) -> bool:
        return self.tier is Tier.MAGNETIC

    @property
    def is_historical(self) -> bool:
        return self.tier is Tier.HISTORICAL

    @property
    def identity(self):
        """The address as plain ints, equal exactly when the addresses are:
        the page number of a magnetic page, the ``(region id, sector start,
        length, platter)`` of a historical region."""
        if self.tier is Tier.MAGNETIC:
            return self.page_id
        return (self.page_id, self.sector_start, self.length, self.platter)

    @staticmethod
    def of_identity(identity) -> "Address":
        """The address whose :attr:`identity` is ``identity``."""
        if type(identity) is int:
            return Address.magnetic(identity)
        return Address.historical(*identity)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_magnetic:
            return f"M:{self.page_id}"
        return f"H:{self.page_id}@{self.sector_start}+{self.length}"


class Device(abc.ABC):
    """Minimal interface shared by the magnetic and historical devices.

    The TSB-tree only ever performs whole-node reads and writes, so the
    interface is deliberately page/region oriented rather than byte oriented.
    Concrete devices add their own allocation calls (``allocate_page`` on the
    magnetic disk, ``append_region`` on the WORM disk).
    """

    #: human-readable device name used in reports.
    name: str = "device"

    @abc.abstractmethod
    def read(self, address: Address) -> bytes:
        """Return the bytes stored at ``address``.

        Raises :class:`InvalidAddressError` if the address does not refer to
        live data on this device.
        """

    @property
    @abc.abstractmethod
    def bytes_used(self) -> int:
        """Total bytes of device capacity consumed (including waste)."""

    @property
    @abc.abstractmethod
    def bytes_stored(self) -> int:
        """Total bytes of useful payload stored on the device."""

    @property
    def utilization(self) -> float:
        """Fraction of consumed capacity holding useful payload."""
        used = self.bytes_used
        if used == 0:
            return 1.0
        return self.bytes_stored / used
