"""Secondary indexes as Time-Split B-trees (paper section 3.6).

A secondary index maps a *secondary attribute value* to the primary keys of
the records carrying that value, versioned over time exactly like the primary
index.  The paper's design:

* secondary entries are ``<timestamp, secondary key, primary key>`` records;
* each entry inherits the timestamp of the primary-record change that caused
  it;
* when the primary data splits (by key or by time), secondary indexes do not
  change;
* the secondary tree alone can answer questions such as "how many records had
  secondary value V at time T" without touching the primary data.

Because one secondary value maps to many primary keys, the secondary TSB-tree
is keyed by a *composite key* built from the secondary value and the primary
key.  When a record's secondary attribute changes, the old association is
closed by a tombstone entry stamped with the change time and a new
association is opened under the new secondary value — both are ordinary
versioned inserts, so the full history remains queryable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.policy import SplitPolicy
from repro.core.tsb_tree import TSBTree
from repro.storage.magnetic import MagneticDisk
from repro.storage.serialization import Key
from repro.storage.worm import WormDisk

#: Width used when zero-padding integer components of composite keys so that
#: their lexicographic order matches numeric order.
_INT_PAD = 20


def encode_component(component: Key) -> str:
    """Encode one key component so lexicographic order is meaningful."""
    if isinstance(component, bool) or not isinstance(component, (int, str)):
        raise TypeError(f"unsupported key component type {type(component).__name__}")
    if isinstance(component, int):
        if component < 0:
            raise ValueError("negative integer components are not supported")
        return f"i{component:0{_INT_PAD}d}"
    if "\x00" in component:
        raise ValueError("string key components must not contain NUL")
    return f"s{component}"


def composite_key(secondary: Key, primary: Key) -> str:
    """Build the secondary tree's key for one (secondary value, primary key) pair."""
    return f"{encode_component(secondary)}\x00{encode_component(primary)}"


def decode_component(text: str) -> Key:
    """Invert :func:`encode_component`."""
    if not text:
        raise ValueError("empty key component")
    tag, payload = text[0], text[1:]
    if tag == "i":
        return int(payload)
    if tag == "s":
        return payload
    raise ValueError(f"unknown key component tag {tag!r}")


def split_composite_key(key: str) -> Tuple[Key, Key]:
    """Invert :func:`composite_key`."""
    secondary_text, primary_text = key.split("\x00", 1)
    return decode_component(secondary_text), decode_component(primary_text)


class SecondaryIndex:
    """A versioned secondary index over one attribute of a primary TSB-tree.

    The index is itself a TSB-tree: current associations live on its magnetic
    device and superseded ones migrate to its historical device under the
    same splitting policies as the primary tree.

    Parameters mirror :class:`~repro.core.tsb_tree.TSBTree`; by default the
    secondary index gets its own pair of (simulated) devices, matching the
    paper's description of secondary indexes spanning both databases.
    """

    def __init__(
        self,
        attribute: str,
        page_size: int = 1024,
        policy: Optional[SplitPolicy] = None,
        magnetic: Optional[MagneticDisk] = None,
        historical: Optional[WormDisk] = None,
    ) -> None:
        self.attribute = attribute
        self.tree = TSBTree(
            page_size=page_size,
            policy=policy,
            magnetic=magnetic,
            historical=historical,
        )
        #: primary key -> current secondary value, kept to close old
        #: associations when the attribute changes.
        self._current_value: Dict[Key, Key] = {}

    # ------------------------------------------------------------------
    # Maintenance (called when primary records change)
    # ------------------------------------------------------------------
    def record_change(
        self, primary_key: Key, new_value: Optional[Key], timestamp: int
    ) -> None:
        """Register that ``primary_key``'s attribute became ``new_value`` at ``timestamp``.

        ``new_value=None`` records that the primary record was (logically)
        deleted or stopped carrying the attribute.  The entry inherits the
        timestamp of the primary change, per section 3.6.
        """
        old_value = self._current_value.get(primary_key)
        if old_value == new_value:
            return
        if old_value is not None:
            self.tree.delete(composite_key(old_value, primary_key), timestamp=timestamp)
        if new_value is not None:
            self.tree.insert(
                composite_key(new_value, primary_key),
                self._encode_primary(primary_key),
                timestamp=timestamp,
            )
            self._current_value[primary_key] = new_value
        else:
            self._current_value.pop(primary_key, None)

    # ------------------------------------------------------------------
    # Queries answered from the secondary tree alone (section 3.6)
    # ------------------------------------------------------------------
    def primary_keys_with_value(
        self, value: Key, as_of: Optional[int] = None
    ) -> List[Key]:
        """Primary keys whose attribute equals ``value`` at ``as_of`` (default now)."""
        low = encode_component(value) + "\x00"
        high = encode_component(value) + "\x01"
        versions = self.tree.range_search(low, high, as_of=as_of)
        keys = []
        for version in versions:
            _secondary, primary = split_composite_key(version.key)
            keys.append(primary)
        return keys

    def count_with_value(self, value: Key, as_of: Optional[int] = None) -> int:
        """How many records carried ``value`` at ``as_of`` — no primary access needed."""
        return len(self.primary_keys_with_value(value, as_of=as_of))

    def value_history(self, primary_key: Key) -> List[Tuple[int, Optional[Key]]]:
        """The attribute-value history of one primary key, as (timestamp, value) steps."""
        events: List[Tuple[int, Optional[Key]]] = []
        region_versions = []
        for value_key in self._all_composite_keys_for(primary_key):
            region_versions.extend(self.tree.key_history(value_key))
        for version in region_versions:
            secondary, _primary = split_composite_key(version.key)
            events.append(
                (version.timestamp, None if version.is_tombstone else secondary)
            )
        # An attribute *change* writes two entries with one timestamp: the
        # tombstone closing the old association and the insert opening the
        # new one.  Sorted by timestamp alone their order is whatever the
        # per-key traversal produced, and a (ts, None) landing after the
        # (ts, new-value) step misreports the change as a deletion.  The
        # tombstone must sort first so the last event at each timestamp is
        # the value that actually held from then on.
        events.sort(key=lambda item: (item[0], 0 if item[1] is None else 1))
        return events

    def lookup(
        self, primary_tree: TSBTree, value: Key, as_of: Optional[int] = None
    ):
        """Fetch the primary versions carrying ``value`` at ``as_of``.

        This is the two-step lookup of section 3.6: the secondary tree yields
        (timestamp, primary key) pairs, which are then resolved against the
        primary TSB-tree.
        """
        timestamp = primary_tree.now if as_of is None else as_of
        results = []
        for primary_key in self.primary_keys_with_value(value, as_of=as_of):
            version = primary_tree.search_as_of(primary_key, timestamp)
            if version is not None:
                results.append(version)
        return results

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _all_composite_keys_for(self, primary_key: Key) -> List[str]:
        suffix = "\x00" + encode_component(primary_key)
        keys = set()
        for node in self.tree.data_nodes():
            for key in node.keys():
                if isinstance(key, str) and key.endswith(suffix):
                    keys.add(key)
        return sorted(keys)

    @staticmethod
    def _encode_primary(primary_key: Key) -> bytes:
        return encode_component(primary_key).encode("utf-8")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SecondaryIndex(attribute={self.attribute!r})"
