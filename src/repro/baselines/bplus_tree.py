"""A conventional single-version B+-tree on the magnetic disk.

The paper's introduction contrasts the TSB-tree with what an ordinary
database would do: keep only the current version in a B+-tree and lose (or
separately archive) history.  This baseline provides that reference point:

* it stores exactly one value per key, overwritten in place on update;
* it lives entirely on the erasable magnetic device with the same
  byte-accurate page images as the TSB-tree, so current-database space is
  directly comparable;
* it supports the current-state operations (insert/update, point lookup,
  range scan) but, by construction, no temporal queries.

It also serves as the substrate for the
:class:`~repro.baselines.naive_multiversion.NaiveMultiversionIndex`
straw-man, which stores *every* version in one magnetic B+-tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.storage.device import Address
from repro.storage.magnetic import MagneticDisk
from repro.storage.pagecache import PageCache
from repro.storage.serialization import (
    ByteReader,
    ByteWriter,
    Key,
    SerializationError,
    key_size,
    read_key,
    read_value,
    write_key,
    write_value,
)

_LEAF_TAG = 0xB1
_BRANCH_TAG = 0xB2
_HEADER_SIZE = 16


def _is_branch_image(image: bytes) -> bool:
    """The buffer pool keeps branch pages until no leaf is left to evict, as
    it does the TSB-tree's index pages."""
    return bool(image) and image[0] == _BRANCH_TAG


class BPlusTreeError(Exception):
    """Raised on invalid B+-tree operations."""


@dataclass
class _Leaf:
    address: Address
    items: List[Tuple[Key, bytes]] = field(default_factory=list)  # sorted by key

    def serialized_size(self) -> int:
        return _HEADER_SIZE + sum(
            key_size(key) + 4 + len(value) for key, value in self.items
        )

    def encode(self) -> bytes:
        writer = ByteWriter()
        writer.put_u8(_LEAF_TAG)
        writer.put_u32(len(self.items))
        for key, value in self.items:
            write_key(writer, key)
            write_value(writer, value)
        return writer.getvalue()

    @staticmethod
    def decode(address: Address, data: bytes) -> "_Leaf":
        reader = ByteReader(data)
        if reader.get_u8() != _LEAF_TAG:
            raise SerializationError("not a B+-tree leaf image")
        count = reader.get_u32()
        items = []
        for _ in range(count):
            key = read_key(reader)
            value = read_value(reader)
            items.append((key, value))
        return _Leaf(address=address, items=items)


@dataclass
class _Branch:
    address: Address
    #: separator keys; children has exactly one more element than keys.
    keys: List[Key] = field(default_factory=list)
    children: List[Address] = field(default_factory=list)

    def serialized_size(self) -> int:
        return (
            _HEADER_SIZE
            + sum(key_size(key) for key in self.keys)
            + 9 * len(self.children)
        )

    def encode(self) -> bytes:
        writer = ByteWriter()
        writer.put_u8(_BRANCH_TAG)
        writer.put_u32(len(self.keys))
        for key in self.keys:
            write_key(writer, key)
        writer.put_u32(len(self.children))
        for child in self.children:
            writer.put_u64(child.page_id)
        return writer.getvalue()

    @staticmethod
    def decode(address: Address, data: bytes) -> "_Branch":
        reader = ByteReader(data)
        if reader.get_u8() != _BRANCH_TAG:
            raise SerializationError("not a B+-tree branch image")
        key_count = reader.get_u32()
        keys = [read_key(reader) for _ in range(key_count)]
        child_count = reader.get_u32()
        children = [Address.magnetic(reader.get_u64()) for _ in range(child_count)]
        return _Branch(address=address, keys=keys, children=children)

    def child_for(self, key: Key) -> Address:
        index = 0
        while index < len(self.keys) and not key < self.keys[index]:
            index += 1
        return self.children[index]


@dataclass
class BPlusTreeStats:
    """Space accounting for the baseline tree."""

    pages: int = 0
    bytes_used: int = 0
    bytes_stored: int = 0
    keys: int = 0
    height: int = 0
    leaf_nodes: int = 0
    branch_nodes: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "pages": self.pages,
            "bytes_used": self.bytes_used,
            "bytes_stored": self.bytes_stored,
            "keys": self.keys,
            "height": self.height,
            "leaf_nodes": self.leaf_nodes,
            "branch_nodes": self.branch_nodes,
        }


class BPlusTree:
    """A page-oriented single-version B+-tree on an erasable magnetic disk."""

    def __init__(
        self,
        page_size: int = 1024,
        magnetic: Optional[MagneticDisk] = None,
        cache_pages: int = 128,
    ) -> None:
        if page_size < 128:
            raise ValueError("page_size must be at least 128 bytes")
        self.page_size = page_size
        self.magnetic = magnetic or MagneticDisk(page_size=page_size)
        self.cache = PageCache(self.magnetic, capacity=cache_pages, is_index=_is_branch_image)
        root_address = self.magnetic.allocate_page()
        self._store(_Leaf(address=root_address))
        self._root_address = root_address
        self._height = 1
        self._key_count = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def insert(self, key: Key, value: bytes) -> None:
        """Insert ``key`` or overwrite its value if it already exists."""
        value = bytes(value)
        probe = key_size(key) + 4 + len(value) + _HEADER_SIZE
        if probe > self.page_size:
            raise BPlusTreeError(
                f"record for key {key!r} needs {probe} bytes (> page {self.page_size})"
            )
        split = self._insert_into(self._root_address, key, value)
        if split is not None:
            separator, right_address = split
            new_root_address = self.magnetic.allocate_page()
            new_root = _Branch(
                address=new_root_address,
                keys=[separator],
                children=[self._root_address, right_address],
            )
            self._store(new_root)
            self._root_address = new_root_address
            self._height += 1

    def search(self, key: Key) -> Optional[bytes]:
        """Return the value stored under ``key`` or ``None``."""
        node = self._load(self._root_address)
        while isinstance(node, _Branch):
            node = self._load(node.child_for(key))
        for stored_key, value in node.items:
            if stored_key == key:
                return value
        return None

    def range_search(self, low: Optional[Key] = None, high: Optional[Key] = None) -> List[Tuple[Key, bytes]]:
        """All (key, value) pairs with ``low <= key < high`` in key order."""
        results: List[Tuple[Key, bytes]] = []
        for key, value in self.items():
            if low is not None and key < low:
                continue
            if high is not None and not key < high:
                continue
            results.append((key, value))
        return results

    def items(self) -> Iterator[Tuple[Key, bytes]]:
        """Iterate every (key, value) pair in key order."""
        yield from self._iter_leaf_items(self._root_address)

    def __contains__(self, key: Key) -> bool:
        return self.search(key) is not None

    def __len__(self) -> int:
        return self._key_count

    @property
    def height(self) -> int:
        return self._height

    def flush(self) -> None:
        self.cache.flush()

    def space_stats(self) -> BPlusTreeStats:
        """Pages, bytes and node counts consumed on the magnetic device."""
        self.flush()
        stats = BPlusTreeStats(
            pages=self.magnetic.allocated_pages,
            bytes_used=self.magnetic.bytes_used,
            bytes_stored=self.magnetic.bytes_stored,
            keys=self._key_count,
            height=self._height,
        )
        stack = [self._root_address]
        while stack:
            node = self._load(stack.pop())
            if isinstance(node, _Leaf):
                stats.leaf_nodes += 1
            else:
                stats.branch_nodes += 1
                stack.extend(node.children)
        return stats

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------
    def _load(self, address: Address):
        data = self.cache.read(address)
        if not data:
            raise BPlusTreeError(f"page {address} is empty")
        if data[0] == _LEAF_TAG:
            return _Leaf.decode(address, data)
        if data[0] == _BRANCH_TAG:
            return _Branch.decode(address, data)
        raise SerializationError(f"unknown B+-tree page tag {data[0]:#x}")

    def _store(self, node) -> None:
        self.cache.write(node.address, node.encode())

    def _insert_into(self, address: Address, key: Key, value: bytes):
        """Recursive insert; returns (separator, new sibling address) on split."""
        node = self._load(address)
        if isinstance(node, _Leaf):
            return self._insert_into_leaf(node, key, value)

        child_address = node.child_for(key)
        split = self._insert_into(child_address, key, value)
        if split is None:
            return None
        separator, right_address = split
        position = 0
        while position < len(node.keys) and node.keys[position] < separator:
            position += 1
        node.keys.insert(position, separator)
        node.children.insert(position + 1, right_address)
        if node.serialized_size() <= self.page_size:
            self._store(node)
            return None
        return self._split_branch(node)

    def _insert_into_leaf(self, leaf: _Leaf, key: Key, value: bytes):
        inserted_new = False
        for position, (stored_key, _stored_value) in enumerate(leaf.items):
            if stored_key == key:
                leaf.items[position] = (key, value)
                break
            if key < stored_key:
                leaf.items.insert(position, (key, value))
                inserted_new = True
                break
        else:
            leaf.items.append((key, value))
            inserted_new = True
        if inserted_new:
            self._key_count += 1
        if leaf.serialized_size() <= self.page_size:
            self._store(leaf)
            return None
        return self._split_leaf(leaf)

    def _split_leaf(self, leaf: _Leaf):
        middle = len(leaf.items) // 2
        right_items = leaf.items[middle:]
        leaf.items = leaf.items[:middle]
        right_address = self.magnetic.allocate_page()
        right = _Leaf(address=right_address, items=right_items)
        self._store(leaf)
        self._store(right)
        return right_items[0][0], right_address

    def _split_branch(self, branch: _Branch):
        middle = len(branch.keys) // 2
        separator = branch.keys[middle]
        right = _Branch(
            address=self.magnetic.allocate_page(),
            keys=branch.keys[middle + 1 :],
            children=branch.children[middle + 1 :],
        )
        branch.keys = branch.keys[:middle]
        branch.children = branch.children[: middle + 1]
        self._store(branch)
        self._store(right)
        return separator, right.address

    def _iter_leaf_items(self, address: Address) -> Iterator[Tuple[Key, bytes]]:
        node = self._load(address)
        if isinstance(node, _Leaf):
            yield from node.items
            return
        for child in node.children:
            yield from self._iter_leaf_items(child)
