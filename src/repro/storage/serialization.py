"""Binary encoding primitives shared by every page/sector image.

The TSB-tree and WOBT decide when to split a node by the *serialised* size of
its contents, and the storage devices only accept bytes; this module provides
the low-level codecs both trees build their page images from:

* :class:`ByteWriter` / :class:`ByteReader` — little append/consume buffers.
* key codec — integer and string keys with a tag byte, ordered semantics are
  handled by the tree (keys within one tree must be mutually comparable).
* timestamp codec — commit timestamps are unsigned integers; ``None`` encodes
  an *uncommitted* version (paper section 4: "Records created by uncommitted
  transactions have no timestamps").
* value codec — opaque length-prefixed byte payloads.
* address codec — :class:`~repro.storage.device.Address` values stored inside
  index entries.

All integers are big-endian and fixed width so that sizes are deterministic
and independent of the values stored.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Optional, Union

from repro.storage.device import Address, Tier

#: Keys may be Python ints or strings; a single tree must use one kind.
Key = Union[int, str]

_TAG_INT_KEY = 0
_TAG_STR_KEY = 1

_TAG_TS_NONE = 0
_TAG_TS_VALUE = 1

_TAG_ADDR_MAGNETIC = 0
_TAG_ADDR_HISTORICAL = 1

_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_U32 = struct.Struct(">I")
_U8 = struct.Struct(">B")


class SerializationError(Exception):
    """Raised when a page image cannot be encoded or decoded."""


@lru_cache(maxsize=65536)
def encode_str_key(key: str) -> bytes:
    """UTF-8 encoding of a string key, memoized.

    Workloads hit the same keys over and over (every descent re-serialises
    the node's keys when sizing it), so the encodings are worth caching;
    the cache is keyed by the immutable string itself.
    """
    return key.encode("utf-8")


@lru_cache(maxsize=65536)
def decode_str_key(data: bytes) -> str:
    """Inverse of :func:`encode_str_key`, memoized on the raw bytes."""
    return data.decode("utf-8")


class ByteWriter:
    """Append-only byte buffer used to build page images.

    Backed by one growable ``bytearray`` (amortised O(1) appends) rather
    than a chunk list, so building a page image does not allocate one small
    ``bytes`` object per field.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def put_u8(self, value: int) -> None:
        self._buf += _U8.pack(value)

    def put_u32(self, value: int) -> None:
        self._buf += _U32.pack(value)

    def put_u64(self, value: int) -> None:
        self._buf += _U64.pack(value)

    def put_i64(self, value: int) -> None:
        self._buf += _I64.pack(value)

    def put_bytes(self, data: bytes) -> None:
        """Write a length-prefixed byte string."""
        self._buf += _U32.pack(len(data))
        self._buf += data

    def put_raw(self, data: bytes) -> None:
        """Write bytes without a length prefix."""
        self._buf += data

    @property
    def size(self) -> int:
        """Bytes written so far."""
        return len(self._buf)

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class ByteReader:
    """Sequential reader over a page image produced by :class:`ByteWriter`.

    ``offset`` starts the read cursor past an already-decoded prefix (e.g.
    a wire envelope) without slicing ``data`` — the reader shares the
    original buffer, so skipping the prefix costs no copy.
    """

    __slots__ = ("_data", "_offset", "_length")

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._offset = offset
        self._length = len(data)

    def get_u8(self) -> int:
        offset = self._offset
        if offset >= self._length:
            raise SerializationError("truncated page image")
        self._offset = offset + 1
        return self._data[offset]

    def peek_u8(self) -> int:
        """The next byte, without consuming it."""
        if self._offset >= self._length:
            raise SerializationError("truncated page image")
        return self._data[self._offset]

    def get_struct(self, codec: struct.Struct) -> tuple:
        """Several fixed-width fields in one call: one precompiled struct."""
        offset = self._offset
        if offset + codec.size > self._length:
            raise SerializationError("truncated page image")
        self._offset = offset + codec.size
        return codec.unpack_from(self._data, offset)

    def get_u32(self) -> int:
        return self._unpack(_U32)

    def get_u64(self) -> int:
        return self._unpack(_U64)

    def get_i64(self) -> int:
        return self._unpack(_I64)

    def get_bytes(self) -> bytes:
        length = self.get_u32()
        return self.get_raw(length)

    def get_raw(self, length: int) -> bytes:
        offset = self._offset
        if offset + length > self._length:
            raise SerializationError("truncated page image")
        data = self._data[offset : offset + length]
        self._offset = offset + length
        return data

    @property
    def remaining(self) -> int:
        return self._length - self._offset

    @property
    def exhausted(self) -> bool:
        return self.remaining == 0

    def _unpack(self, codec: struct.Struct) -> int:
        offset = self._offset
        if offset + codec.size > self._length:
            raise SerializationError("truncated page image")
        (value,) = codec.unpack_from(self._data, offset)
        self._offset = offset + codec.size
        return value


# ----------------------------------------------------------------------
# Key codec
# ----------------------------------------------------------------------
def write_key(writer: ByteWriter, key: Key) -> None:
    """Encode an integer or string key with a one-byte type tag."""
    if isinstance(key, bool) or not isinstance(key, (int, str)):
        raise SerializationError(f"unsupported key type: {type(key).__name__}")
    if isinstance(key, int):
        writer.put_u8(_TAG_INT_KEY)
        writer.put_i64(key)
    else:
        encoded = encode_str_key(key)
        writer.put_u8(_TAG_STR_KEY)
        writer.put_bytes(encoded)


def read_key(reader: ByteReader) -> Key:
    tag = reader.get_u8()
    if tag == _TAG_INT_KEY:
        return reader.get_i64()
    if tag == _TAG_STR_KEY:
        data = reader.get_bytes()
        if not isinstance(data, bytes):
            data = bytes(data)  # lru_cache needs a hashable key
        return decode_str_key(data)
    raise SerializationError(f"unknown key tag {tag}")


def key_size(key: Key) -> int:
    """Serialized size of a key, in bytes."""
    if isinstance(key, bool) or not isinstance(key, (int, str)):
        raise SerializationError(f"unsupported key type: {type(key).__name__}")
    if isinstance(key, int):
        return 1 + 8
    return 1 + 4 + len(encode_str_key(key))


# ----------------------------------------------------------------------
# Timestamp codec (None == uncommitted)
# ----------------------------------------------------------------------
def write_timestamp(writer: ByteWriter, timestamp: Optional[int]) -> None:
    if timestamp is None:
        writer.put_u8(_TAG_TS_NONE)
        return
    if timestamp < 0:
        raise SerializationError("commit timestamps must be non-negative")
    writer.put_u8(_TAG_TS_VALUE)
    writer.put_u64(timestamp)


def read_timestamp(reader: ByteReader) -> Optional[int]:
    tag = reader.get_u8()
    if tag == _TAG_TS_NONE:
        return None
    if tag == _TAG_TS_VALUE:
        return reader.get_u64()
    raise SerializationError(f"unknown timestamp tag {tag}")


def timestamp_size(timestamp: Optional[int]) -> int:
    return 1 if timestamp is None else 9


# ----------------------------------------------------------------------
# Value codec
# ----------------------------------------------------------------------
def write_value(writer: ByteWriter, value: bytes) -> None:
    if not isinstance(value, (bytes, bytearray)):
        raise SerializationError("record values must be bytes")
    writer.put_bytes(bytes(value))


def read_value(reader: ByteReader) -> bytes:
    return reader.get_bytes()


def value_size(value: bytes) -> int:
    return 4 + len(value)


# ----------------------------------------------------------------------
# Address codec
# ----------------------------------------------------------------------
def write_address(writer: ByteWriter, address: Address) -> None:
    if address.tier is Tier.MAGNETIC:
        writer.put_u8(_TAG_ADDR_MAGNETIC)
        writer.put_u64(address.page_id)
        return
    writer.put_u8(_TAG_ADDR_HISTORICAL)
    writer.put_u64(address.page_id)
    writer.put_u64(address.sector_start or 0)
    writer.put_u64(address.length or 0)
    writer.put_u32(address.platter or 0)


def read_address(reader: ByteReader) -> Address:
    tag = reader.get_u8()
    if tag == _TAG_ADDR_MAGNETIC:
        return Address.magnetic(reader.get_u64())
    if tag == _TAG_ADDR_HISTORICAL:
        region_id = reader.get_u64()
        sector_start = reader.get_u64()
        length = reader.get_u64()
        platter = reader.get_u32()
        return Address.historical(region_id, sector_start, length, platter)
    raise SerializationError(f"unknown address tag {tag}")


def address_size(address: Address) -> int:
    if address.tier is Tier.MAGNETIC:
        return 1 + 8
    return 1 + 8 + 8 + 8 + 4
