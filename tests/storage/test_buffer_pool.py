"""Unit tests for the buffer pool and replacement policies."""

import numpy as np
import pytest

from repro.storage import BlockDevice, BufferPool, make_policy


def _fill_device(dev: BlockDevice, n: int) -> list[int]:
    first = dev.allocate(n)
    for i in range(n):
        dev.write_floats(first + i, np.full(dev.block_size // 8, float(i)))
    return list(range(first, first + n))


class TestBasics:
    def test_hit_costs_no_io(self, device):
        blocks = _fill_device(device, 2)
        pool = BufferPool(device, 4)
        pool.get(blocks[0])
        before = device.stats.total
        pool.get(blocks[0])
        assert device.stats.total == before
        assert pool.stats.hits == 1

    def test_miss_reads_device(self, device):
        blocks = _fill_device(device, 1)
        pool = BufferPool(device, 4)
        before = device.stats.reads
        pool.get(blocks[0])
        assert device.stats.reads == before + 1

    def test_capacity_never_exceeded(self, device):
        blocks = _fill_device(device, 32)
        pool = BufferPool(device, 8)
        for bid in blocks:
            pool.get(bid)
            assert pool.resident <= 8

    def test_invalid_capacity(self, device):
        with pytest.raises(ValueError):
            BufferPool(device, 0)

    def test_put_skips_read(self, device):
        dev_blocks = _fill_device(device, 1)
        pool = BufferPool(device, 4)
        before = device.stats.reads
        pool.put(dev_blocks[0], np.zeros(device.block_size, np.uint8))
        assert device.stats.reads == before


class TestDirtyWriteback:
    def test_dirty_page_written_on_eviction(self, device):
        blocks = _fill_device(device, 3)
        pool = BufferPool(device, 2)
        pool.get(blocks[0], for_write=True)
        writes_before = device.stats.writes
        pool.get(blocks[1])
        pool.get(blocks[2])  # evicts block 0, which is dirty
        assert device.stats.writes == writes_before + 1

    def test_clean_page_eviction_is_free(self, device):
        blocks = _fill_device(device, 3)
        pool = BufferPool(device, 2)
        pool.get(blocks[0])
        writes_before = device.stats.writes
        pool.get(blocks[1])
        pool.get(blocks[2])
        assert device.stats.writes == writes_before

    def test_flush_persists_changes(self, device):
        blocks = _fill_device(device, 1)
        pool = BufferPool(device, 2)
        frame = pool.get(blocks[0], for_write=True)
        frame[:8] = 255
        pool.flush_all()
        pool.invalidate(blocks[0])
        assert pool.get(blocks[0])[0] == 255

    def test_mark_dirty_requires_residency(self, device):
        blocks = _fill_device(device, 1)
        pool = BufferPool(device, 2)
        with pytest.raises(KeyError):
            pool.mark_dirty(blocks[0])


class TestPinning:
    def test_pinned_frame_survives_pressure(self, device):
        blocks = _fill_device(device, 10)
        pool = BufferPool(device, 2)
        pool.get(blocks[0])
        pool.pin(blocks[0])
        for bid in blocks[1:]:
            pool.get(bid)
        # block 0 must still be resident (hit, no device read)
        reads_before = device.stats.reads
        pool.get(blocks[0])
        assert device.stats.reads == reads_before
        pool.unpin(blocks[0])

    def test_all_pinned_raises(self, device):
        blocks = _fill_device(device, 3)
        pool = BufferPool(device, 2)
        pool.get(blocks[0])
        pool.pin(blocks[0])
        pool.get(blocks[1])
        pool.pin(blocks[1])
        with pytest.raises(RuntimeError):
            pool.get(blocks[2])

    def test_pin_nonresident_raises(self, device):
        blocks = _fill_device(device, 1)
        pool = BufferPool(device, 2)
        with pytest.raises(KeyError):
            pool.pin(blocks[0])


class TestPolicies:
    def test_lru_evicts_least_recent(self, device):
        blocks = _fill_device(device, 3)
        pool = BufferPool(device, 2, policy="lru")
        pool.get(blocks[0])
        pool.get(blocks[1])
        pool.get(blocks[0])       # 1 is now least recent
        pool.get(blocks[2])       # evicts 1
        reads_before = device.stats.reads
        pool.get(blocks[0])       # hit
        assert device.stats.reads == reads_before
        pool.get(blocks[1])       # miss
        assert device.stats.reads == reads_before + 1

    def test_clock_gives_second_chance(self, device):
        blocks = _fill_device(device, 4)
        pool = BufferPool(device, 2, policy="clock")
        for bid in blocks:
            pool.get(bid)
        assert pool.resident == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("mru")

    @pytest.mark.parametrize("policy", ["lru", "clock"])
    def test_scan_workload_correctness(self, device, policy):
        """Any policy must return correct data under heavy churn."""
        blocks = _fill_device(device, 64)
        pool = BufferPool(device, 4, policy=policy)
        for _rep in range(2):
            for i, bid in enumerate(blocks):
                frame = pool.get(bid)
                assert frame.view(np.float64)[0] == float(i)

    def test_clear_flushes_and_empties(self, device):
        blocks = _fill_device(device, 2)
        pool = BufferPool(device, 4)
        frame = pool.get(blocks[0], for_write=True)
        frame[:8] = 7
        pool.clear()
        assert pool.resident == 0
        assert device.read_block(blocks[0])[0] == 7

    def test_hit_rate(self, device):
        blocks = _fill_device(device, 1)
        pool = BufferPool(device, 2)
        pool.get(blocks[0])
        pool.get(blocks[0])
        pool.get(blocks[0])
        assert pool.stats.hit_rate == pytest.approx(2 / 3)


class TestPrefetchEdgeCases:
    def test_prefetch_resident_pages_is_free(self, device):
        blocks = _fill_device(device, 4)
        pool = BufferPool(device, 8)
        for bid in blocks:
            pool.get(bid)
        before = device.stats.reads
        assert pool.prefetch(blocks) == 0
        assert device.stats.reads == before
        assert pool.stats.prefetched == 0

    def test_prefetch_mixed_fetches_only_missing(self, device):
        blocks = _fill_device(device, 6)
        pool = BufferPool(device, 8)
        pool.get(blocks[0])
        pool.get(blocks[1])
        before = device.stats.reads
        assert pool.prefetch(blocks) == 4
        assert device.stats.reads == before + 4

    def test_prefetch_then_get_is_a_hit(self, device):
        blocks = _fill_device(device, 4)
        pool = BufferPool(device, 8)
        pool.prefetch(blocks)
        before = device.stats.reads
        frame = pool.get(blocks[2])
        assert device.stats.reads == before
        assert frame.view(np.float64)[0] == 2.0
        assert pool.stats.readahead_hits == 1
        assert device.stats.readahead_hits == 1

    def test_prefetch_never_evicts_pinned_frames(self, device):
        """Prefetch racing eviction: pins win, hint is clipped."""
        blocks = _fill_device(device, 12)
        pool = BufferPool(device, 4)
        for bid in blocks[:3]:
            pool.get(bid)
            pool.pin(bid)
        # Room for one demand fault only: the hint must clip to nothing
        # rather than raise or touch a pinned frame.
        assert pool.prefetch(blocks[3:]) == 0
        reads_before = device.stats.reads
        for bid in blocks[:3]:
            pool.get(bid)
        assert device.stats.reads == reads_before

    def test_prefetch_with_one_pin_keeps_demand_room(self, device):
        blocks = _fill_device(device, 10)
        pool = BufferPool(device, 4)
        pool.get(blocks[0])
        pool.pin(blocks[0])
        # capacity 4, 1 pinned, 1 frame reserved for demand -> 2 fetched.
        assert pool.prefetch(blocks[1:]) == 2
        assert pool.resident <= 4
        # The pinned frame survived and a demand fault still fits.
        pool.get(blocks[9])
        reads_before = device.stats.reads
        pool.get(blocks[0])
        assert device.stats.reads == reads_before

    def test_prefetch_disabled_scheduler_is_noop(self, device):
        blocks = _fill_device(device, 4)
        pool = BufferPool(device, 8)
        pool.scheduler.enabled = False
        assert pool.prefetch(blocks) == 0
        assert device.stats.reads == 0

    def test_wasted_prefetch_is_counted(self, device):
        blocks = _fill_device(device, 8)
        pool = BufferPool(device, 4)
        pool.prefetch(blocks[:3])
        # A scan of other blocks evicts the prefetched frames unused.
        for bid in blocks[3:]:
            pool.get(bid)
        assert pool.stats.prefetch_wasted == 3

    def test_put_cancels_prefetched_status(self, device):
        blocks = _fill_device(device, 2)
        pool = BufferPool(device, 4)
        pool.prefetch(blocks)
        pool.put(blocks[0], np.zeros(device.block_size, np.uint8))
        pool.get(blocks[0])
        assert pool.stats.readahead_hits == 0

    def test_prefetch_larger_than_capacity_is_truncated(self, device):
        """A footprint bigger than the pool clips, never thrashes.

        Sparse kernels announce whole tile footprints that can exceed a
        small pool; the contract is: fetch only what fits (capacity
        minus the reserved demand frame), keep residency bounded, and
        count exactly the fetched blocks as reads.
        """
        blocks = _fill_device(device, 32)
        pool = BufferPool(device, 8)
        fetched = pool.prefetch(blocks)
        assert fetched == 7          # capacity 8 minus one demand frame
        assert pool.resident <= 8
        assert device.stats.reads == 7
        # The surviving prefix is resident: reading it costs nothing.
        before = device.stats.reads
        for bid in blocks[:fetched]:
            pool.get(bid)
        assert device.stats.reads == before
        assert pool.stats.readahead_hits == fetched

    def test_oversized_prefetch_never_evicts_earlier_prefetch(self, device):
        """With unread prefetched frames filling the pool, a second
        oversized hint must back off entirely instead of cannibalizing
        the blocks the first hint promised."""
        blocks = _fill_device(device, 24)
        pool = BufferPool(device, 8)
        assert pool.prefetch(blocks[:16]) == 7
        before = device.stats.reads
        assert pool.prefetch(blocks[16:]) == 0
        assert device.stats.reads == before
        assert pool.stats.prefetch_wasted == 0


class TestClockPinnedVictims:
    def test_victim_when_all_but_one_pinned(self, device):
        """CLOCK must find the single unpinned frame, however many spins
        of the hand that takes, and never evict a pinned one."""
        blocks = _fill_device(device, 6)
        pool = BufferPool(device, 4, policy="clock")
        for bid in blocks[:4]:
            pool.get(bid)
        for bid in blocks[:3]:
            pool.pin(bid)
        pool.get(blocks[4])  # must evict blocks[3], the only unpinned
        reads_before = device.stats.reads
        for bid in blocks[:3]:
            pool.get(bid)  # pinned frames: all hits
        assert device.stats.reads == reads_before
        pool.get(blocks[3])  # was evicted: a miss
        assert device.stats.reads == reads_before + 1

    def test_repeated_eviction_through_one_unpinned_slot(self, device):
        blocks = _fill_device(device, 16)
        pool = BufferPool(device, 4, policy="clock")
        for bid in blocks[:4]:
            pool.get(bid)
        for bid in blocks[:3]:
            pool.pin(bid)
        for bid in blocks[4:]:
            pool.get(bid)
            assert pool.resident <= 4
        for bid in blocks[:3]:
            pool.pin(bid)   # still resident, pin again (refcount)
            pool.unpin(bid)

    def test_clock_all_pinned_raises_on_prefetchless_get(self, device):
        blocks = _fill_device(device, 5)
        pool = BufferPool(device, 4, policy="clock")
        for bid in blocks[:4]:
            pool.get(bid)
            pool.pin(bid)
        with pytest.raises(RuntimeError):
            pool.get(blocks[4])


class TestGetManyEvictionRace:
    def test_resident_block_evicted_by_installs_is_refetched(self, device):
        """A block resident when the misses were collected can be evicted
        while installing them; get_many must fault it back in, not crash."""
        blocks = _fill_device(device, 6)
        pool = BufferPool(device, 4)
        pool.get(blocks[0])
        frames = pool.get_many(blocks[1:] + [blocks[0]])
        values = [f.view(np.float64)[0] for f in frames]
        assert values == [1.0, 2.0, 3.0, 4.0, 5.0, 0.0]


class TestDuplicateIds:
    def test_get_many_counts_every_occurrence_fetches_once(self, device):
        blocks = _fill_device(device, 3)
        pool = BufferPool(device, 8)
        reads = device.stats.reads
        ids = [blocks[0], blocks[1], blocks[0], blocks[2], blocks[1],
               blocks[0]]
        frames = pool.get_many(ids)
        assert [f.view(np.float64)[0] for f in frames] == \
            [0.0, 1.0, 0.0, 2.0, 1.0, 0.0]
        assert (pool.stats.misses, pool.stats.hits) == (3, 3)
        assert device.stats.reads == reads + 3

    def test_prefetch_fetches_each_block_once(self, device):
        blocks = _fill_device(device, 2)
        pool = BufferPool(device, 8)
        reads = device.stats.reads
        assert pool.prefetch([blocks[1], blocks[0], blocks[1],
                              blocks[0]]) == 2
        assert device.stats.reads == reads + 2


class TestPutMany:
    @staticmethod
    def _payload(bs, value):
        return np.full(bs // 8, float(value)).view(np.uint8)

    def test_matches_a_loop_of_put(self):
        """Per-block accounting, replacement and the data that reaches
        the device are those of calling put once per item; only the
        number of write calls may shrink."""
        rng = np.random.default_rng(7)
        devices = [BlockDevice(block_size=512) for _ in range(2)]
        pools = [BufferPool(dev, 4) for dev in devices]
        for dev in devices:
            dev.allocate(12)
        for step in range(300):
            ids = rng.integers(0, 12, size=int(rng.integers(1, 7)))
            items = [(int(b), self._payload(512, step * 100 + k))
                     for k, b in enumerate(ids)]
            for bid, data in items:
                pools[0].put(bid, data)
            pools[1].put_many(items)
            if step % 5 == 0:
                probe = int(rng.integers(0, 12))
                for pool in pools:
                    pool.get(probe)
        for pool in pools:
            pool.flush_all()
        loop, batch = (dev.stats for dev in devices)
        assert pools[0].stats == pools[1].stats
        assert (batch.reads, batch.writes) == (loop.reads, loop.writes)
        assert batch.write_calls < loop.write_calls
        for bid in range(12):
            assert np.array_equal(devices[0].read_block(bid),
                                  devices[1].read_block(bid))

    def test_dirty_victims_share_one_write_back(self, device):
        first = device.allocate(8)
        pool = BufferPool(device, 4)
        pool.put_many((first + k, self._payload(device.block_size, k))
                      for k in range(8))
        # The first four frames were evicted dirty to make room for the
        # last four: one coalesced device write moves all of them.
        assert device.stats.writes == 4
        assert device.stats.write_calls == 1
        assert pool.stats.dirty_writebacks == 4
        assert device.read_floats(first + 3)[0] == 3.0

    def test_victim_put_again_in_the_same_call(self, device):
        first = device.allocate(3)
        a, b, c = first, first + 1, first + 2
        bs = device.block_size
        pool = BufferPool(device, 2)
        pool.put(a, self._payload(bs, 1))
        pool.put(b, self._payload(bs, 2))
        # c evicts a; re-putting a then evicts b.  The old contents of a
        # reach the device first, the new ones on flush.
        pool.put_many([(c, self._payload(bs, 3)), (a, self._payload(bs, 4))])
        assert device.read_floats(a)[0] == 1.0
        assert device.read_floats(b)[0] == 2.0
        pool.flush_all()
        assert device.read_floats(a)[0] == 4.0
        assert device.read_floats(c)[0] == 3.0
