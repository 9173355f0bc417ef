"""Multi-query monitoring service: shared stream, N queries, sharded execution.

Public surface:

* :class:`~repro.service.spec.QuerySpec` — one query registration (routing
  keyword + SURGE query + detector choice), with the ``queries.json``
  round-trip and :func:`~repro.service.spec.load_query_specs` /
  :func:`~repro.service.spec.make_query_grid` helpers;
* :class:`~repro.service.service.SurgeService` — the service facade
  (``push_many`` / ``run`` / ``add_query`` / ``remove_query`` / ``results``);
* :mod:`~repro.service.shards` — the shared-work execution plan and the
  pluggable ``serial`` / ``process`` / ``remote`` shard executors
  (:data:`~repro.service.shards.EXECUTOR_NAMES`);
* :mod:`~repro.service.bus` — :class:`~repro.service.bus.QueryUpdate`,
  :class:`~repro.service.bus.QueryStats`,
  :class:`~repro.service.bus.ServiceStats` and the subscriber bus, with
  bounded :class:`~repro.service.bus.Subscription` queues;
* :mod:`~repro.service.overload` — the overload tier:
  :class:`~repro.service.overload.OverloadConfig` (watermarks + policy),
  :class:`~repro.service.overload.OverloadStats`, the typed
  :class:`~repro.service.overload.OverloadError` and the
  :class:`~repro.service.overload.OverloadGovernor` state machine.

Durability — :meth:`SurgeService.checkpoint` / :meth:`SurgeService.restore`,
the ``checkpoint_dir`` / ``checkpoint_policy`` constructor options and the
``repro serve --checkpoint-dir --resume`` CLI — is provided by
:mod:`repro.state` (snapshot codec, write-ahead log, policies, and the
:class:`~repro.state.durability.Durability` object the service owns).
"""

from repro.service.bus import (
    QueryStats,
    QueryUpdate,
    ResultBus,
    ServiceStats,
    Subscription,
    SubscriptionSelfBlockError,
)
from repro.service.overload import OverloadConfig, OverloadError, OverloadStats
from repro.service.service import SurgeService
from repro.service.shards import EXECUTOR_NAMES, make_executor
from repro.service.spec import QuerySpec, load_query_specs, make_query_grid

__all__ = [
    "EXECUTOR_NAMES",
    "OverloadConfig",
    "OverloadError",
    "OverloadStats",
    "QuerySpec",
    "QueryStats",
    "QueryUpdate",
    "ResultBus",
    "ServiceStats",
    "Subscription",
    "SubscriptionSelfBlockError",
    "SurgeService",
    "load_query_specs",
    "make_executor",
    "make_query_grid",
]
