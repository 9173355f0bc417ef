"""The replay-shaping settings record (:mod:`repro.service.replay`).

One frozen record validates the five settings that decide which chunks exist
and what happens to them, round-trips through the manifest's ``replay``
section, and refuses a resume that changes any of them — naming every
conflict at once — while restated and unset requests pass.
"""

from __future__ import annotations

import re

import pytest

from repro.core.query import SurgeQuery
from repro.service import OverloadConfig, QuerySpec, SurgeService
from repro.service.replay import ReplaySettings, recorded_settings
from repro.streams.objects import SpatialObject

OVERLOAD = OverloadConfig(high_watermark_chunks=4.0, low_watermark_chunks=1.0)


def test_validation_names_the_setting_and_its_flag():
    for kwargs, name in (
        ({"chunk_size": 0}, "chunk_size (--chunk-size)"),
        ({"max_lateness": -1.0}, "max_lateness (--max-lateness)"),
        ({"max_lateness": 1.0, "max_inflight_chunks": 0}, "max_inflight_chunks"),
        ({"compact_every_chunks": 0}, "compact_every_chunks (--compact-every)"),
        ({"max_lateness": 0.0, "max_inflight_chunks": 2}, "reorder buffer"),
    ):
        with pytest.raises(ValueError, match=re.escape(name)):
            ReplaySettings(**kwargs)
    # Unset lateness: a budget may be requested against a recorded one.
    assert ReplaySettings(max_inflight_chunks=2).max_lateness is None
    with pytest.raises(ValueError, match="max_lateness"):
        SurgeService(max_lateness=-1.0)


def test_round_trip_and_service_keywords():
    settings = ReplaySettings(64, 2.5, 4, OVERLOAD, 8)
    assert ReplaySettings.from_dict(settings.to_dict()) == settings
    assert settings.to_dict()["overload"] == OVERLOAD.to_dict()
    assert ReplaySettings().keywords() == {
        "max_lateness": 0.0,
        "max_inflight_chunks": None,
        "overload": None,
        "compact_every_chunks": None,
    }


def test_conflicts_pass_unset_and_restated_and_name_every_change():
    recorded = ReplaySettings(64, 2.5, 4, OVERLOAD, 8)
    recorded.conflicts(ReplaySettings())
    recorded.conflicts(recorded)
    recorded.conflicts(ReplaySettings(max_lateness=2.5))
    # Nothing cut yet: any chunk size lines up.
    ReplaySettings(None, 0.0).conflicts(ReplaySettings(chunk_size=7))
    with pytest.raises(ValueError) as excinfo:
        recorded.conflicts(ReplaySettings(32, 2.5, 3, OVERLOAD, None))
    message = str(excinfo.value)
    assert "--chunk-size 32 (recorded: 64)" in message
    assert "--max-inflight-chunks 3 (recorded: 4)" in message
    assert "--max-lateness" not in message and "--overload" not in message
    with pytest.raises(ValueError, match="--overload-high"):
        ReplaySettings(64, 0.0).conflicts(ReplaySettings(overload=OVERLOAD))


def test_service_records_the_chunk_size_it_was_fed_at(tmp_path):
    spec = QuerySpec("q", SurgeQuery(1.0, 1.0, 20.0))
    stream = [SpatialObject(float(i % 5), 1.0, float(i), object_id=i) for i in range(30)]
    with SurgeService(
        [spec], checkpoint_dir=tmp_path, max_lateness=1.0, compact_every_chunks=3
    ) as service:
        assert service.replay == ReplaySettings(None, 1.0, None, None, 3)
        service.push_many(stream[:5])  # bare chunks: still nothing cut
        assert service.replay.chunk_size is None
        for _ in service.feed(stream[5:], 8):
            pass
        service.checkpoint()
        assert service.replay.chunk_size == 8
    executor, recorded = recorded_settings(tmp_path)
    assert (executor, recorded) == ("serial", ReplaySettings(8, 1.0, None, None, 3))
    with SurgeService.restore(tmp_path, attach=False) as restored:
        assert restored.replay == recorded
        assert not restored.strict
