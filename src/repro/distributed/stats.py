"""Failure-event counters of the distributed shard tier."""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.counters import counter


@dataclass
class DistributedStats:
    """Cumulative counters over one :class:`RemoteExecutor`'s lifetime.

    Everything that went wrong (and was survived) is counted here and
    exported through the ``stats`` frame, ``/metrics`` and the final
    ``remote:`` summary line — a cluster quietly riding its retry budget
    must be visible before it stops being quiet.
    """

    rpc_retries: int = counter(
        "RPC deadline expiries answered by a resend (the worker deduplicates "
        "by seq, so a resend never double-applies)."
    )
    rpc_timeouts: int = counter(
        "RPC deadline expiries, including the final one before a worker is "
        "declared lost (>= rpc_retries)."
    )
    workers_lost: int = counter(
        "Workers declared dead: connection drop, retry budget or heartbeat "
        "miss budget exhausted."
    )
    shards_failed_over: int = counter(
        "Shards re-restored on a surviving or new worker after their owner died."
    )
    failover_seconds: float = counter(
        "Wall-clock seconds spent failing shards over (restore + ledger replay).",
        0.0,
    )
    workers_joined: int = counter(
        "Workers admitted over the lifetime (initial fleet + elastic joins)."
    )
    shards_migrated: int = counter(
        "Shards moved to re-balance after membership changed (owner alive)."
    )
    heartbeats_sent: int = counter(
        "Heartbeat probes sent by the coordinator's monitor thread."
    )
    heartbeat_misses: int = counter(
        "Heartbeat probes that expired without an answer."
    )
    replies_discarded: int = counter(
        "Stale reply frames discarded (answers to a resend's earlier copy)."
    )


__all__ = ["DistributedStats"]
