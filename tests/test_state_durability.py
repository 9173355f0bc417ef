"""Unit tests for :class:`repro.state.durability.Durability` — no service.

The object is driven the way ``SurgeService`` drives it (attach, log each
chunk, allocate, publish) with hand-made manifests, so the attach rules, the
cadence marks and the generation bookkeeping are pinned without an executor
or a stream.
"""

from __future__ import annotations

import os

import pytest

from repro.state import CheckpointPolicy
from repro.state.durability import (
    DEFAULT_CHECKPOINT_EVERY_CHUNKS,
    Durability,
)
from repro.state.recovery import (
    ServiceManifest,
    previous_manifest_path,
    read_manifest,
    wal_path,
)
from repro.state.wal import ChunkWal


def make_manifest(generation: int, chunk_offset: int, stream_time: float, policy=None):
    return ServiceManifest(
        generation=generation,
        chunk_offset=chunk_offset,
        chunk_index=chunk_offset,
        stream_time=stream_time,
        n_shards=1,
        executor="serial",
        order=[],
        shard_of={},
        registered=0,
        specs=[],
        policy=policy or {},
        stats={},
        shard_files=[],
        replay={},
    )


class TestDetached:
    def test_carries_policy_and_extra_but_never_logs(self, tmp_path):
        policy = CheckpointPolicy(every_chunks=2)
        durability = Durability(None, policy, {"chunk_size": 8})
        assert not durability.attached and durability.directory is None
        assert durability.policy == policy
        assert durability.extra == {"chunk_size": 8}
        with pytest.raises(ValueError, match="no checkpoint directory"):
            durability.allocate()
        # A one-off target continues whatever the directory holds.
        target, generation = durability.allocate(tmp_path / "one-off")
        assert (target, generation) == (tmp_path / "one-off", 1)
        durability.publish(target, make_manifest(1, 3, 9.5))
        assert durability.allocate(target) == (target, 2)
        assert ChunkWal.read(wal_path(target)).checkpoint.chunk_offset == 3

    def test_defaults_to_manual_checkpoints(self):
        assert Durability().policy == CheckpointPolicy()


class TestAttached:
    def test_default_cadence_and_fresh_wal(self, tmp_path):
        durability = Durability(tmp_path / "ckpt")
        assert durability.attached
        assert durability.policy == CheckpointPolicy(
            every_chunks=DEFAULT_CHECKPOINT_EVERY_CHUNKS
        )
        state = ChunkWal.read(wal_path(tmp_path / "ckpt"))
        assert state.checkpoint is None and state.lost_chunks == 0

    def test_refuses_a_directory_that_holds_a_checkpoint(self, tmp_path):
        Durability().publish(tmp_path, make_manifest(1, 0, float("-inf")))
        with pytest.raises(ValueError, match="already holds a service checkpoint"):
            Durability(tmp_path)

    def test_remote_floor_applies_to_an_attached_cadence_only(self, tmp_path):
        from repro.distributed.executor import REMOTE_CHECKPOINT_FLOOR_CHUNKS

        loose = CheckpointPolicy(every_chunks=100_000)
        attached = Durability(tmp_path, loose, remote=True)
        assert attached.policy.every_chunks == REMOTE_CHECKPOINT_FLOOR_CHUNKS
        assert Durability(None, loose, remote=True).policy == loose

    def test_log_chunk_says_when_the_cadence_is_due(self, tmp_path):
        durability = Durability(tmp_path, CheckpointPolicy(every_chunks=3))
        assert [durability.log_chunk(i, 8, float(i)) for i in range(3)] == [
            False,
            False,
            True,
        ]
        assert ChunkWal.read(wal_path(tmp_path)).lost_chunks == 3
        # The stretched cadence (overload's "stretch" policy) is not yet due.
        assert durability.due(3, 2.0) and not durability.due(3, 2.0, stretch=2)
        assert durability.due(6, 5.0, stretch=2)

    def test_publish_moves_the_marks_and_restarts_the_wal(self, tmp_path):
        durability = Durability(tmp_path, CheckpointPolicy(every_chunks=2))
        durability.log_chunk(0, 8, 1.0)
        assert durability.log_chunk(1, 8, 2.0)
        target, generation = durability.allocate()
        assert (target, generation) == (tmp_path, 1)
        durability.publish(target, make_manifest(generation, 2, 2.0))
        state = ChunkWal.read(wal_path(tmp_path))
        assert (state.checkpoint.generation, state.checkpoint.chunk_offset) == (1, 2)
        assert state.lost_chunks == 0
        assert not durability.log_chunk(2, 8, 3.0)  # one chunk since the mark
        assert durability.log_chunk(3, 8, 4.0)
        # The generation counter lives in memory; a different spelling of
        # the attached directory is still the attached directory.
        relative = os.path.relpath(tmp_path)
        assert durability.allocate(relative)[1] == 2
        durability.publish(tmp_path, make_manifest(2, 4, 4.0))
        assert read_manifest(tmp_path).generation == 2
        assert previous_manifest_path(tmp_path).exists()

    def test_one_off_target_leaves_the_attached_marks_alone(self, tmp_path):
        durability = Durability(tmp_path / "a", CheckpointPolicy(every_chunks=2))
        durability.log_chunk(0, 8, 1.0)
        target, generation = durability.allocate(tmp_path / "b")
        durability.publish(target, make_manifest(generation, 1, 1.0))
        assert durability.allocate()[1] == 1  # a's counter did not move
        assert durability.log_chunk(1, 8, 2.0)  # nor did its cadence mark
        assert ChunkWal.read(wal_path(tmp_path / "a")).lost_chunks == 2

    def test_resuming_resets_a_stale_wal_to_the_restored_checkpoint(self, tmp_path):
        crashed = Durability(tmp_path, CheckpointPolicy(every_chunks=4))
        target, generation = crashed.allocate()
        crashed.publish(
            target, make_manifest(generation, 2, 2.0, policy=crashed.policy.to_dict())
        )
        crashed.log_chunk(2, 8, 3.0)  # applied, then lost with the process
        recorded = read_manifest(tmp_path)
        resumed = Durability(
            tmp_path, CheckpointPolicy.from_dict(recorded.policy), resumed=recorded
        )
        state = ChunkWal.read(wal_path(tmp_path))
        assert state.checkpoint.generation == 1 and state.lost_chunks == 0
        assert resumed.allocate()[1] == 2
        # The cadence counts from the restored offset, not from zero.
        assert not resumed.log_chunk(2, 8, 3.0)
        assert [resumed.log_chunk(i, 8, float(i)) for i in (3, 4, 5)][-1]
