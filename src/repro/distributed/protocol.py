"""Worker dialect of the length-prefixed frame protocol.

Frames reuse the network tier's codec (:mod:`repro.server.protocol`): a
4-byte big-endian length prefix plus one JSON object with a ``"type"``
key.  Shard messages and replies are Python object graphs
(:class:`~repro.streams.objects.SpatialObject` chunks,
:class:`~repro.service.shards.UnitRecord` lists, detector results), so they
ride inside the JSON frame as a base85-encoded pickle — the same trust
model and the same exact float round-trip as the process executor's
pipes and the snapshot files.

Worker → coordinator
--------------------
``hello``          first frame on a new connection: schema, worker name,
                   pid.  Answered with ``hello_ack`` (or ``error``).
``reply``          the answer to one ``scatter``/``assign``/``release``:
                   carries the shard index, the request's ``seq`` and the
                   pickled result.
``ckpt_ack``       a ``reply`` whose request was a ``("checkpoint", ...)``
                   shard message — called out as its own frame kind
                   because receiving *all* of them is the coordinator's
                   signal that the generation is durable and the replay
                   ledger can be truncated.
``heartbeat_ack``  liveness answer.
``error``          a deterministic failure inside the shard (not a
                   transport failure): carries ``seq``, the exception
                   text and type name.

Coordinator → worker
--------------------
``hello_ack``      admission; carries the coordinator-assigned worker id.
``assign``         host a shard: the payload is either
                   ``("specs", specs)`` — build fresh pipelines — or
                   ``("snapshot", path)`` — restore the shard's latest
                   durable generation from shared checkpoint storage
                   (the failover path).
``scatter``        one shard message (chunk/advance/add/remove/results/
                   checkpoint/restore/trace/...), tagged with a per-shard
                   monotonic ``seq``.
``release``        drop a shard (live migration after rebalance).
``heartbeat``      liveness probe.
``bye``            orderly shutdown.

At-most-once delivery: every shard-scoped request carries a per-shard
monotonically increasing ``seq``.  The worker caches its last reply per
shard; a request re-sent with the same ``seq`` (the coordinator's
deadline expired but the worker was merely slow) returns the cached
reply without re-applying the message — a retried scatter can never
double-apply a chunk.  The coordinator discards replies whose ``seq``
does not match the request in flight (they are answers to a resend's
earlier copy).
"""

from __future__ import annotations

import base64
import pickle
from typing import Any

from repro.server.protocol import (  # noqa: F401  (re-exported for callers)
    ProtocolError,
    recv_frame,
    send_frame,
)

#: Protocol version spoken by both sides; a mismatched worker is refused.
DISTRIBUTED_SCHEMA = "remote-shard/v1"

#: ``shard`` value of shard-less frames (heartbeats).
NO_SHARD = -1


def encode_payload(obj: Any) -> str:
    """Pickle an object graph into a JSON-safe ASCII string."""
    return base64.b85encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_payload(text: str) -> Any:
    return pickle.loads(base64.b85decode(text.encode("ascii")))


# ----------------------------------------------------------------------
# Frame constructors
# ----------------------------------------------------------------------
def hello_frame(name: str, pid: int) -> dict[str, Any]:
    return {
        "type": "hello",
        "schema": DISTRIBUTED_SCHEMA,
        "name": name,
        "pid": pid,
    }


def hello_ack_frame(worker_id: int) -> dict[str, Any]:
    return {
        "type": "hello_ack",
        "schema": DISTRIBUTED_SCHEMA,
        "worker_id": worker_id,
    }


def assign_frame(shard: int, seq: int, base: tuple) -> dict[str, Any]:
    return {
        "type": "assign",
        "shard": shard,
        "seq": seq,
        "payload": encode_payload(base),
    }


def scatter_frame(shard: int, seq: int, message: tuple) -> dict[str, Any]:
    return {
        "type": "scatter",
        "shard": shard,
        "seq": seq,
        "payload": encode_payload(message),
    }


def release_frame(shard: int, seq: int) -> dict[str, Any]:
    return {"type": "release", "shard": shard, "seq": seq}


def heartbeat_frame(seq: int) -> dict[str, Any]:
    return {"type": "heartbeat", "shard": NO_SHARD, "seq": seq}


def heartbeat_ack_frame(seq: int) -> dict[str, Any]:
    return {"type": "heartbeat_ack", "shard": NO_SHARD, "seq": seq}


def reply_frame(shard: int, seq: int, result: Any, *, ckpt: bool = False) -> dict[str, Any]:
    return {
        "type": "ckpt_ack" if ckpt else "reply",
        "shard": shard,
        "seq": seq,
        "payload": encode_payload(result),
    }


def worker_error_frame(shard: int, seq: int, exc: BaseException) -> dict[str, Any]:
    return {
        "type": "error",
        "shard": shard,
        "seq": seq,
        "error": str(exc),
        "error_type": type(exc).__name__,
    }


def bye_frame() -> dict[str, Any]:
    return {"type": "bye"}


__all__ = [
    "DISTRIBUTED_SCHEMA",
    "NO_SHARD",
    "ProtocolError",
    "assign_frame",
    "bye_frame",
    "decode_payload",
    "encode_payload",
    "heartbeat_ack_frame",
    "heartbeat_frame",
    "hello_ack_frame",
    "hello_frame",
    "recv_frame",
    "release_frame",
    "reply_frame",
    "scatter_frame",
    "send_frame",
    "worker_error_frame",
]
