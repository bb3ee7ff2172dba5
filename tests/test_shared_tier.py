"""The shared-memory hot-plan tier: seqlock, epochs, trimming, races.

Unit tests run publisher and reader in one process (shared memory does
not care).  No program module uses the tier; the module stays until
its last importer, the repository benchmark's traced daemon launcher,
drops it.
"""

from __future__ import annotations

import pytest

from repro.cache.plan_cache import PlanCache
from repro.core.identity import process_token
from repro.serving.shared_tier import (
    _GEN,
    _GEN_OFFSET,
    TIER_HEADER_BYTES,
    HotTierPublisher,
    HotTierReader,
)


@pytest.fixture
def warm_cache():
    cache = PlanCache(capacity=64)
    for i in range(8):
        cache.store(f"key{i}", (f"recipe{i}",), f"sd{i}", float(i))
    return cache


@pytest.fixture
def tier():
    publisher = HotTierPublisher(capacity_bytes=1 << 16)
    try:
        yield publisher
    finally:
        publisher.close(unlink=True)


class TestPublishSnapshot:
    def test_roundtrip(self, tier, warm_cache):
        assert tier.publish_from(warm_cache) == 8
        reader = HotTierReader(tier.name)
        generation, epoch, rows = reader.snapshot()
        assert generation == 2 and epoch == 0
        assert [row[1] for row in rows] == [f"key{i}" for i in range(8)]
        # rows are the sync_since 5-tuples, values intact
        assert rows[3] == (4, "key3", ("recipe3",), "sd3", 3.0)
        reader.close()

    def test_incremental_publish_is_a_delta(self, tier, warm_cache):
        tier.publish_from(warm_cache)
        warm_cache.store("key8", ("recipe8",), "sd8", 8.0)
        assert tier.publish_from(warm_cache) == 9
        # nothing changed: publish_from is a no-op, generation holds
        generation = tier.counters()["generation"]
        tier.publish_from(warm_cache)
        assert tier.counters()["generation"] == generation

    def test_bootstrap_is_capped_to_hottest(self, warm_cache):
        publisher = HotTierPublisher(
            capacity_bytes=1 << 16, bootstrap_entries=3
        )
        try:
            assert publisher.publish_from(warm_cache) == 3
            reader = HotTierReader(publisher.name)
            _, _, rows = reader.snapshot()
            # the 3 most recently used survive, LRU-first
            assert [row[1] for row in rows] == ["key5", "key6", "key7"]
            reader.close()
        finally:
            publisher.close(unlink=True)

    def test_empty_cache_publishes_nothing(self, tier):
        assert tier.publish_from(PlanCache(capacity=4)) == 0
        reader = HotTierReader(tier.name)
        assert reader.snapshot() == (0, 0, ())
        reader.close()


class TestEpochDiscipline:
    def test_epoch_bump_clears_published_rows(self, tier, warm_cache):
        tier.publish_from(warm_cache)
        warm_cache.bump_epoch()
        warm_cache.store("fresh", ("r",), "sd", 1.0)
        tier.publish_from(warm_cache)
        reader = HotTierReader(tier.name)
        _, epoch, rows = reader.snapshot()
        assert epoch == 1
        assert [row[1] for row in rows] == ["fresh"]
        reader.close()

    def test_process_scoped_keys_never_published(self, tier):
        cache = PlanCache(capacity=8)
        cache.store(process_token("local"), ("r",), "sd", 1.0)
        cache.store("portable", ("r",), "sd", 2.0)
        assert tier.publish_from(cache) == 1
        assert tier.counters()["rows_skipped"] == 1
        reader = HotTierReader(tier.name)
        _, _, rows = reader.snapshot()
        assert [row[1] for row in rows] == ["portable"]
        reader.close()


class TestTrimming:
    def test_least_recently_published_rows_trim_first(self):
        publisher = HotTierPublisher(
            capacity_bytes=TIER_HEADER_BYTES + 256
        )
        cache = PlanCache(capacity=64)
        for i in range(20):
            cache.store(f"key{i:02d}", ("recipe-" + "x" * 20,), "sd", 1.0)
        try:
            resident = publisher.publish_from(cache)
            counters = publisher.counters()
            assert 0 < resident < 20
            assert counters["rows_trimmed"] == 20 - resident
            assert counters["bytes_published"] <= 256
            reader = HotTierReader(publisher.name)
            _, _, rows = reader.snapshot()
            # the survivors are the hottest (most recently stored) keys
            assert [row[1] for row in rows] == [
                f"key{i:02d}" for i in range(20 - resident, 20)
            ]
            reader.close()
        finally:
            publisher.close(unlink=True)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            HotTierPublisher(capacity_bytes=TIER_HEADER_BYTES)
        with pytest.raises(ValueError):
            HotTierPublisher(bootstrap_entries=0)


class TestSeqlock:
    def test_odd_generation_reads_as_torn(self, tier, warm_cache):
        tier.publish_from(warm_cache)
        reader = HotTierReader(tier.name)
        assert reader.snapshot() is not None
        # simulate a publisher caught mid-write: odd generation
        _GEN.pack_into(tier._shm.buf, _GEN_OFFSET, 3)
        assert reader.snapshot(retries=2) is None
        assert reader.counters()["torn_reads"] == 2
        # the publisher finishes (even again): reads resume
        _GEN.pack_into(tier._shm.buf, _GEN_OFFSET, 4)
        generation, _, rows = reader.snapshot()
        assert generation == 4 and len(rows) == 8
        reader.close()

    def test_generation_probe_is_cheap_and_current(self, tier, warm_cache):
        reader = HotTierReader(tier.name)
        assert reader.generation() == 0
        tier.publish_from(warm_cache)
        assert reader.generation() == 2
        # probing does not count as a payload read
        assert reader.counters()["reads"] == 0
        reader.close()


class TestReaderDegradation:
    def test_missing_segment_degrades_to_none(self):
        reader = HotTierReader("psm_repro_does_not_exist")
        assert reader.generation() is None
        assert reader.snapshot() is None
        reader.close()

    def test_foreign_magic_is_rejected(self):
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=256)
        try:
            shm.buf[:8] = b"NOTTIER!"
            reader = HotTierReader(shm.name)
            assert reader.snapshot() is None
            assert reader.counters()["rejected"] == 1
            reader.close()
        finally:
            shm.close()
            shm.unlink()

    def test_garbage_payload_counts_parse_failure(self, tier):
        body = b"(1, 2, 3"  # truncated repr: SyntaxError
        buf = tier._shm.buf
        buf[TIER_HEADER_BYTES:TIER_HEADER_BYTES + len(body)] = body
        from repro.serving.shared_tier import _LENGTH_OFFSET

        _GEN.pack_into(buf, _LENGTH_OFFSET, len(body))
        reader = HotTierReader(tier.name)
        assert reader.snapshot() is None
        assert reader.counters()["parse_failures"] == 1
        reader.close()
