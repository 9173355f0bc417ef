"""Overload tier: typed errors, configuration and counters for degraded mode.

The service is only production-credible if it stays *bounded* when consumers
or detectors cannot keep up.  Three cooperating mechanisms live behind this
module's types:

* **Backpressure** — ``SurgeService(max_inflight_chunks=)`` bounds how many
  chunks' worth of raw arrivals may sit buffered ahead of the shards, and
  :class:`~repro.service.bus.Subscription` bounds every subscriber queue.
* **Load-shedding / degraded mode** — when the observed queue depth crosses
  ``high_watermark_chunks`` the service flips into a counted degraded state
  and applies :attr:`OverloadConfig.policy` until depth falls back to
  ``low_watermark_chunks`` (hysteresis, so the service does not flap on a
  boundary).  ``shed`` skips whole sheddable route classes (lowest-priority
  queries first), ``stretch`` widens the checkpoint cadence, and ``error``
  raises :class:`OverloadError` for strict deployments that prefer failing
  loudly over degrading silently.
* **Observability** — every transition and every shed unit of work is
  counted in :class:`OverloadStats`, exported through
  :class:`~repro.service.bus.ServiceStats`, persisted in checkpoint
  manifests, and printed in the ``repro serve`` final block, so a resumed
  service reports exactly what an uninterrupted one would.

The config and the counters are plain data with exact JSON round-trips;
:class:`OverloadGovernor` is the state machine over them.  It needs no
service: :class:`~repro.service.service.SurgeService` hands it the observed
queue depth and the live specs once per chunk, and reads the shed set back.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Collection, Mapping

from repro.obs.counters import counter, gauge

if TYPE_CHECKING:
    from repro.service.spec import QuerySpec

__all__ = [
    "OverloadError",
    "OverloadConfig",
    "OverloadGovernor",
    "OverloadStats",
    "OVERLOAD_POLICIES",
]

#: Selectable degraded-mode policies (see :class:`OverloadConfig.policy`).
OVERLOAD_POLICIES = ("shed", "stretch", "error")


class OverloadError(RuntimeError):
    """The service crossed its overload watermark under the ``error`` policy.

    Raised from the ingestion path (``push_many`` / ``run``) so strict
    deployments fail fast instead of degrading silently.  The queue depth
    that tripped the watermark is carried for the operator.
    """

    def __init__(self, message: str, *, depth_chunks: float = 0.0) -> None:
        super().__init__(message)
        self.depth_chunks = depth_chunks


@dataclass(frozen=True)
class OverloadConfig:
    """Degraded-mode thresholds and policy for one service instance.

    ``high_watermark_chunks`` / ``low_watermark_chunks``
        Queue depth (in chunks of buffered work) at which the service
        enters / exits degraded mode.  ``low < high`` gives hysteresis:
        once degraded, the service stays degraded until depth falls to the
        low watermark, so a depth oscillating around one threshold does not
        flap the mode (and the transition counters stay meaningful).
    ``policy``
        ``"shed"``  — skip sheddable route classes (queries whose
        :attr:`~repro.service.spec.QuerySpec.priority` is below
        ``shed_below_priority``) while degraded, counting every skipped
        chunk and suppressed update.
        ``"stretch"`` — multiply the checkpoint cadence by
        ``checkpoint_stretch`` while degraded, trading recovery granularity
        for ingest throughput.
        ``"error"`` — raise :class:`OverloadError` on entry (strict mode).
    ``shed_below_priority``
        Queries with ``priority`` strictly below this rank are sheddable.
        ``None`` (default) sheds everything below the highest priority
        present — with uniform priorities nothing is sheddable and ``shed``
        degrades to counting transitions only, which is the safe default.
    ``checkpoint_stretch``
        Cadence multiplier for the ``stretch`` policy (must be ``>= 1``).
    """

    high_watermark_chunks: float = 8.0
    low_watermark_chunks: float = 2.0
    policy: str = "shed"
    shed_below_priority: int | None = None
    checkpoint_stretch: int = 4

    def __post_init__(self) -> None:
        if self.policy not in OVERLOAD_POLICIES:
            raise ValueError(
                f"policy must be one of {OVERLOAD_POLICIES}, got {self.policy!r}"
            )
        if not self.high_watermark_chunks > 0:
            raise ValueError(
                f"high_watermark_chunks must be positive, "
                f"got {self.high_watermark_chunks!r}"
            )
        if not 0 <= self.low_watermark_chunks <= self.high_watermark_chunks:
            raise ValueError(
                f"low_watermark_chunks must satisfy 0 <= low <= high, got "
                f"low={self.low_watermark_chunks!r} "
                f"high={self.high_watermark_chunks!r}"
            )
        if self.checkpoint_stretch < 1:
            raise ValueError(
                f"checkpoint_stretch must be >= 1, got {self.checkpoint_stretch!r}"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON form stored in service checkpoint manifests."""
        return asdict(self)

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "OverloadConfig":
        return cls(**record)


@dataclass
class OverloadStats:
    """Counters of everything the overload tier did."""

    degraded: bool = gauge(
        "Whether the service is currently in degraded mode (0/1).", False
    )
    entered_degraded: int = counter(
        "Entries into degraded mode (at most one more than the exits)."
    )
    exited_degraded: int = counter("Exits from degraded mode.")
    chunks_shed: int = counter(
        "Chunks skipped for at least one query while shedding."
    )
    updates_shed: int = counter(
        "Per-query updates suppressed while shedding."
    )
    checkpoints_deferred: int = counter(
        "Checkpoints the stretch policy postponed while degraded."
    )
    compactions: int = counter("Safe-boundary re-epoching passes that ran.")
    queries_compacted: int = counter(
        "Late-registered queries merged back into shared plan groups."
    )
    max_depth_chunks: float = gauge(
        "Deepest queue depth ever observed, in chunks.", 0.0
    )
    #: Query ids currently being shed (live view, not checkpointed as truth —
    #: recomputed from the registry + config after restore).
    shedding: list[str] = field(default_factory=list)

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "OverloadStats":
        return cls(**record)


_NO_SHED: frozenset[str] = frozenset()


class OverloadGovernor:
    """Degraded-mode state machine: hysteresis, shed set, stretched cadence.

    Owns the :class:`OverloadConfig` (``None`` = never degrades; the
    compaction counters still count), the one live :class:`OverloadStats`
    and the cached shed set.  Restoring a checkpoint passes the recorded
    ``stats`` back in: the cumulative counters carry over, and the
    ``degraded`` flag among them makes the resumed run continue shedding
    exactly where the victim stopped (the hysteresis re-evaluates from the
    restored depth on the next chunk).
    """

    def __init__(
        self, config: OverloadConfig | None = None, stats: OverloadStats | None = None
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else OverloadStats()
        self._shed_cache: frozenset[str] | None = None

    def registry_changed(self) -> None:
        """A query was added or removed: the shed set must be recomputed."""
        self._shed_cache = None

    def _sheddable(self, specs: Collection["QuerySpec"]) -> frozenset[str]:
        """Query ids shed while degraded: whole low-priority route classes.

        Shedding is decided at *route class* granularity — the
        (keyword, window lengths) key that also defines shared window
        groups — and a class is shed only when **every** member is below
        the priority threshold.  A partially-shed class would force a
        shared window group's clock to advance for some members but not
        others, splitting provably-identical state; whole classes keep
        every group fully shed or fully active.
        """
        if self._shed_cache is not None:
            return self._shed_cache
        if self.config is None or not specs:
            self._shed_cache = _NO_SHED
            return _NO_SHED
        threshold = self.config.shed_below_priority
        if threshold is None:
            # Default: shed everything ranked below the best present.  With
            # uniform priorities nothing is sheddable — degrading to
            # transition-counting only, never to silently dropped work.
            threshold = max(spec.priority for spec in specs)
        classes: dict[tuple, list["QuerySpec"]] = {}
        for spec in specs:
            query = spec.query
            key = (spec.keyword, query.current_length, query.past_length)
            classes.setdefault(key, []).append(spec)
        shed: set[str] = set()
        for members in classes.values():
            if all(member.priority < threshold for member in members):
                shed.update(member.query_id for member in members)
        self._shed_cache = frozenset(shed)
        return self._shed_cache

    def evaluate(self, depth: float, specs: Collection["QuerySpec"]) -> frozenset[str]:
        """Run the hysteresis on one observed ``depth``; return the shed set.

        Degraded mode is entered at ``depth >= high_watermark_chunks`` and
        left at ``depth <= low_watermark_chunks`` — the dead band between
        them keeps a depth oscillating around one threshold from flapping
        the mode.  Under the ``error`` policy entry raises
        :class:`OverloadError` (strict mode fails loudly); ``shed`` returns
        the sheddable route classes of ``specs``; ``stretch`` only flags the
        mode (:meth:`defers_checkpoint` consults it).
        """
        config = self.config
        if config is None:
            return _NO_SHED
        stats = self.stats
        if depth > stats.max_depth_chunks:
            stats.max_depth_chunks = depth
        if not stats.degraded:
            if depth >= config.high_watermark_chunks:
                stats.degraded = True
                stats.entered_degraded += 1
                if config.policy == "error":
                    raise OverloadError(
                        f"queue depth {depth:.2f} chunks crossed the "
                        f"high watermark "
                        f"({config.high_watermark_chunks} chunks) under the "
                        f"error policy",
                        depth_chunks=depth,
                    )
        elif depth <= config.low_watermark_chunks:
            stats.degraded = False
            stats.exited_degraded += 1
        if stats.degraded and config.policy == "shed":
            shed = self._sheddable(specs)
            stats.shedding = sorted(shed)
            return shed
        stats.shedding = []
        return _NO_SHED

    def count_shed(self, updates: int) -> None:
        """One chunk was dispatched with ``updates`` queries shed."""
        self.stats.chunks_shed += 1
        self.stats.updates_shed += updates

    def count_compaction(self, merged: int) -> None:
        """One compaction pass ran and merged ``merged`` queries."""
        self.stats.compactions += 1
        self.stats.queries_compacted += merged

    def defers_checkpoint(self, due_when_stretched: Callable[[int], bool]) -> bool:
        """Whether the ``stretch`` policy postpones a checkpoint that is due.

        While degraded under ``stretch`` the configured cadence is
        multiplied by ``checkpoint_stretch``: ``due_when_stretched(factor)``
        says whether the widened cadence wants the checkpoint too.  One the
        base cadence wanted and the stretched one defers is counted.
        """
        config = self.config
        if config is None or config.policy != "stretch" or not self.stats.degraded:
            return False
        if due_when_stretched(config.checkpoint_stretch):
            return False
        self.stats.checkpoints_deferred += 1
        return True
