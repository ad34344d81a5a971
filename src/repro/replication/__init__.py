"""Replication tier: WAL shipping, follower reads, failover, migration.

Layers:

* :mod:`repro.replication.apply` — :class:`LogReplayer`, re-exported from
  :mod:`repro.recovery.replay`: follower apply and restart recovery are the
  same replayer, started from an empty tree or from a checkpoint image.
* :mod:`repro.replication.primary` — :class:`ReplicationPrimary`: tails a
  WAL-enabled store's log devices and streams durable bytes to subscribers.
* :mod:`repro.replication.replica` — :class:`Replica`: mirrors the log,
  applies it, serves follower reads, and :meth:`~Replica.promote`\\ s to a
  writable primary on failover (:func:`elect` picks the longest durable
  prefix).
* :mod:`repro.replication.cluster` — multi-node routing and online shard
  migration: :class:`ClusterNode`, :class:`ClusterClient`,
  :func:`migrate_range`.
"""

from repro.replication.apply import LogReplayer, replay_device, scan_offset
from repro.replication.primary import ReplicationError, ReplicationPrimary
from repro.replication.replica import Replica, elect
from repro.replication.cluster import (
    ClusterClient,
    ClusterNode,
    NodeRole,
    RoutingTable,
    migrate_range,
)

__all__ = [
    "LogReplayer",
    "replay_device",
    "scan_offset",
    "ReplicationError",
    "ReplicationPrimary",
    "Replica",
    "elect",
    "ClusterClient",
    "ClusterNode",
    "NodeRole",
    "RoutingTable",
    "migrate_range",
]
