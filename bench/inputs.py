"""Deterministic, stdlib-only input generators for the four workloads.

Everything here is a pure function of its arguments: the same ``seed`` gives
the same objects, byte for byte (``input_sha256`` proves it between runs).
The program under test receives only the generated
:class:`~repro.streams.objects.SpatialObject` lists and
:class:`~repro.service.spec.QuerySpec` lists.

The *shape* of a workload (extent, hotspot layout, keyword skew, disorder
share) is a constant of the workload, not of the seed, so that two seeds give
two samples of the same traffic and their timings are comparable; only the
sampled locations, weights, keywords and displacements depend on the seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence

from repro.core.query import SurgeQuery
from repro.service.spec import QuerySpec
from repro.streams.objects import SpatialObject

#: Side of the square extent the workloads draw locations from.
EXTENT = 8.0

#: ``(centre x, centre y, share)`` of the six Gaussian hotspots; the unequal
#: shares make a few cells much denser than the rest, as in the paper's
#: clustered data.  Shares sum to 1 *within* the hotspot fraction.
HOTSPOTS = (
    (1.7, 1.9, 0.30),
    (5.9, 2.3, 0.22),
    (3.6, 6.1, 0.18),
    (6.4, 6.2, 0.14),
    (2.2, 4.4, 0.10),
    (4.6, 3.9, 0.06),
)
HOTSPOT_SIGMA = 0.35
#: Share of objects drawn from the hotspots (the rest is uniform background).
HOTSPOT_FRACTION = 0.70

#: Keyword vocabulary, most frequent first (Zipf rank order).
VOCABULARY = (
    "traffic",
    "food",
    "weather",
    "sports",
    "news",
    "music",
    "work",
    "travel",
)
#: Routes the service workloads register queries on (``None`` = match-all).
ROUTES = ("traffic", "food", "weather", None)

ALPHA = 0.5
DEFAULT_SEED = 20180416


def _cumulative(weights: Sequence[float]) -> list[float]:
    total = float(sum(weights))
    acc = 0.0
    out = []
    for weight in weights:
        acc += weight / total
        out.append(acc)
    out[-1] = 1.0
    return out


_HOTSPOT_CDF = _cumulative([share for _, _, share in HOTSPOTS])
_ZIPF_CDF = _cumulative([1.0 / rank for rank in range(1, len(VOCABULARY) + 1)])


def _pick(cdf: Sequence[float], u: float) -> int:
    for index, bound in enumerate(cdf):
        if u < bound:
            return index
    return len(cdf) - 1


def object_stream(
    seed: int,
    n: int,
    *,
    layout: str,
    spacing: float = 1.0,
    keywords: bool = False,
    height: float = EXTENT,
) -> list[SpatialObject]:
    """``n`` timestamp-ordered objects, one every ``spacing`` stream seconds.

    ``layout`` is ``"hotspot"`` (70% from :data:`HOTSPOTS`, 30% uniform) or
    ``"uniform"``, over an ``EXTENT`` × ``height`` area.  Weights are integers
    1–100 (paper §VII-A).  With ``keywords`` every object carries one
    Zipf-distributed keyword.
    """
    if layout not in ("hotspot", "uniform"):
        raise ValueError(f"unknown layout {layout!r}")
    rng = random.Random(seed)
    rand = rng.random
    gauss = rng.gauss
    hotspot = layout == "hotspot"
    objects = []
    for index in range(n):
        if hotspot and rand() < HOTSPOT_FRACTION:
            cx, cy, _ = HOTSPOTS[_pick(_HOTSPOT_CDF, rand())]
            while True:
                x = gauss(cx, HOTSPOT_SIGMA)
                y = gauss(cy, HOTSPOT_SIGMA)
                if 0.0 <= x <= EXTENT and 0.0 <= y <= height:
                    break
        else:
            x = rand() * EXTENT
            y = rand() * height
        weight = float(1 + int(rand() * 100.0))
        if keywords:
            attributes = {"keywords": (VOCABULARY[_pick(_ZIPF_CDF, rand())],)}
            objects.append(
                SpatialObject(x, y, index * spacing, weight, index, attributes)
            )
        else:
            objects.append(SpatialObject(x, y, index * spacing, weight, index))
    return objects


def displace(
    objects: Sequence[SpatialObject],
    seed: int,
    *,
    fraction: float = 0.05,
    max_shift: float = 4.0,
) -> list[SpatialObject]:
    """Arrival order with ``fraction`` of the objects arriving late.

    A displaced object keeps its timestamp but arrives up to ``max_shift``
    stream seconds after it (strictly less, so a reorder buffer with
    ``max_lateness == max_shift`` never has to drop it).  Sorting the result
    by ``(timestamp, object_id)`` gives back the input.
    """
    rng = random.Random(seed ^ 0x5DEECE66D)
    keyed = []
    for position, obj in enumerate(objects):
        arrival = obj.timestamp
        if rng.random() < fraction:
            arrival += rng.random() * max_shift * 0.999
        keyed.append((arrival, position, obj))
    keyed.sort()
    return [obj for _, _, obj in keyed]


def chunked(objects: Sequence[SpatialObject], size: int) -> list[list[SpatialObject]]:
    """Consecutive ``size``-object chunks (the last may be short)."""
    return [list(objects[i : i + size]) for i in range(0, len(objects), size)]


def paced_schedule(n_batches: int, batch_size: int, rate: float) -> list[float]:
    """Due offsets (seconds from the phase start) of an open-loop schedule
    offering ``batch_size``-object batches at ``rate`` objects per second."""
    period = batch_size / rate
    return [index * period for index in range(n_batches)]


def exact_query(window_length: float) -> SurgeQuery:
    """The one query of an exact workload: a 1×1 region."""
    return SurgeQuery(1.0, 1.0, window_length=window_length, alpha=ALPHA)


def _spec_grid(
    windows: Sequence[float], algorithms: Sequence[str], tenants: int
) -> list[QuerySpec]:
    specs = []
    distinct = 0
    for route in ROUTES:
        for side in (1.0, 1.5):
            for window in windows:
                # Alternate, shifted every second spec, so an algorithm is
                # tied to neither a window length nor a rectangle size.
                algorithm = algorithms[(distinct + distinct // 2) % len(algorithms)]
                for tenant in range(tenants):
                    specs.append(
                        QuerySpec(
                            query_id=f"s{distinct:02d}-t{tenant:02d}",
                            query=SurgeQuery(side, side, window, alpha=ALPHA),
                            algorithm=algorithm,
                            keyword=route,
                        )
                    )
                distinct += 1
    return specs


def fanout_specs() -> list[QuerySpec]:
    """256 queries: 16 distinct specs (4 routes × 2 rects × 2 windows,
    algorithm alternating gaps/mgaps) × 16 tenants registering the same spec."""
    return _spec_grid((1000.0, 2000.0), ("gaps", "mgaps"), tenants=16)


def wire_specs() -> list[QuerySpec]:
    """16 distinct gaps queries (4 routes × 2 rects × windows 20 s / 40 s)."""
    return _spec_grid((20.0, 40.0), ("gaps",), tenants=1)


def input_sha256(
    objects: Sequence[SpatialObject], specs: Sequence[QuerySpec] = ()
) -> str:
    """Hex digest of the generated inputs, in arrival order."""
    digest = hashlib.sha256()
    for obj in objects:
        digest.update(
            repr(
                (
                    obj.x,
                    obj.y,
                    obj.timestamp,
                    obj.weight,
                    obj.object_id,
                    obj.attributes.get("keywords", ()),
                )
            ).encode()
        )
    for spec in specs:
        digest.update(repr(sorted(spec.to_dict().items())).encode())
    return digest.hexdigest()
