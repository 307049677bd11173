"""MOESI protocol tests: state transitions, transfers, and invariants."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.mem.cache import EMPTY_SET, Cache, State
from repro.mem.coherence import CoherenceDomain, MemLatencies
from repro.mem.dram import DRAM
from repro.mem.hierarchy import MemConfig, MemoryHierarchy
from repro.mem.memory import lines_touched


def make_domain(num_l1=2, prefetch=False, l1_size=1024, l2_bw=None):
    l1s = [Cache(f"l1.{i}", l1_size, 2, 64) for i in range(num_l1)]
    l2 = Cache("l2", 64 * 1024, 8, 64)
    dram = DRAM()
    return CoherenceDomain(l1s, l2, dram, MemLatencies(), prefetch=prefetch,
                           l2_bandwidth_gbps=l2_bw)


LINE = 0x1000


def access(dom, requester, addr, nbytes, is_write, now_ns):
    """One access: ``(stall_ns, line_hits, line_misses)``, the counts read
    off the requester's CacheStats around the call."""
    stats = dom.l1s[requester].stats
    accesses, misses = stats.accesses, stats.misses
    stall = dom.access(requester, addr, nbytes, is_write, now_ns)
    missed = stats.misses - misses
    return stall, stats.accesses - accesses - missed, missed


def test_cold_read_installs_exclusive():
    dom = make_domain()
    _, _, misses = access(dom, 0, LINE, 4, False, 0.0)
    assert misses == 1
    assert dom.l1s[0].lookup(LINE) is State.EXCLUSIVE
    assert dom.l2.lookup(LINE).is_valid  # inclusion


def test_second_reader_shares_and_downgrades():
    dom = make_domain()
    dom.access(0, LINE, 4, False, 0.0)
    dom.access(1, LINE, 4, False, 0.0)
    assert dom.l1s[0].lookup(LINE) is State.SHARED
    assert dom.l1s[1].lookup(LINE) is State.SHARED


def test_write_installs_modified():
    dom = make_domain()
    dom.access(0, LINE, 4, True, 0.0)
    assert dom.l1s[0].lookup(LINE) is State.MODIFIED


def test_write_invalidates_peers():
    dom = make_domain()
    dom.access(0, LINE, 4, False, 0.0)
    dom.access(1, LINE, 4, False, 0.0)
    dom.access(0, LINE, 4, True, 0.0)  # upgrade
    assert dom.l1s[0].lookup(LINE) is State.MODIFIED
    assert dom.l1s[1].lookup(LINE) is State.INVALID
    assert dom.stats.upgrades == 1


def test_silent_upgrade_from_exclusive():
    dom = make_domain()
    dom.access(0, LINE, 4, False, 0.0)  # E
    dom.access(0, LINE, 4, True, 0.0)   # E -> M without bus traffic
    assert dom.l1s[0].lookup(LINE) is State.MODIFIED
    assert dom.stats.upgrades == 0


def test_dirty_line_supplied_cache_to_cache():
    dom = make_domain()
    dom.access(0, LINE, 4, True, 0.0)   # PE0 has M
    _, _, misses = access(dom, 1, LINE, 4, False, 0.0)
    assert misses == 1
    assert dom.stats.c2c_transfers == 1
    # Owner keeps the dirty data in O; reader gets S.
    assert dom.l1s[0].lookup(LINE) is State.OWNED
    assert dom.l1s[1].lookup(LINE) is State.SHARED


def test_write_miss_pulls_dirty_copy():
    dom = make_domain()
    dom.access(0, LINE, 4, True, 0.0)  # PE0 M
    dom.access(1, LINE, 4, True, 0.0)  # PE1 write miss
    assert dom.l1s[1].lookup(LINE) is State.MODIFIED
    assert dom.l1s[0].lookup(LINE) is State.INVALID
    assert dom.stats.c2c_transfers == 1


def test_read_hits_are_free():
    dom = make_domain()
    dom.access(0, LINE, 4, False, 0.0)
    stall, hits, _ = access(dom, 0, LINE, 4, False, 0.0)
    assert stall == 0.0
    assert hits == 1


def test_writes_are_posted():
    dom = make_domain()
    stall = dom.access(0, LINE, 4, True, 0.0)  # write miss
    assert stall == 0.0


def test_read_miss_latency_includes_l2():
    dom = make_domain()
    dom.access(0, LINE, 4, False, 0.0)
    # Evict-free second line from L2: first prime the L2.
    dom.l1s[0].invalidate(LINE)
    stall = dom.access(0, LINE, 4, False, 0.0)
    assert stall == pytest.approx(dom.lat.l2_hit_ns)


def test_dirty_eviction_writes_back():
    dom = make_domain(num_l1=1, l1_size=128)  # 2 lines capacity, 1 set? 128/2/64=1 set
    # Fill the single set with two dirty lines, then force an eviction.
    dom.access(0, 0, 4, True, 0.0)
    dom.access(0, 128, 4, True, 0.0)
    dom.access(0, 256, 4, True, 0.0)
    assert dom.stats.l1_writebacks >= 1
    # The written-back line is marked dirty in the L2.
    assert dom.l2.lookup(0) is State.MODIFIED


def test_prefetch_next_line():
    dom = make_domain(prefetch=True)
    dom.access(0, LINE, 4, False, 0.0)
    assert dom.l1s[0].lookup(LINE + 64).is_valid
    assert dom.stats.prefetch_issued >= 1


def test_prefetch_skips_peer_held_lines():
    dom = make_domain(prefetch=True)
    dom.access(1, LINE + 64, 4, True, 0.0)   # peer owns next line in M
    dom.access(0, LINE, 4, False, 0.0)
    # Prefetch must not disturb the peer's modified copy.
    assert dom.l1s[1].lookup(LINE + 64) is State.MODIFIED
    assert dom.l1s[0].lookup(LINE + 64) is State.INVALID


def test_streaming_read_hits_after_first_miss():
    dom = make_domain(prefetch=True, l1_size=4096)
    _, hits, misses = access(dom, 0, 0, 1024, False, 0.0)  # 16 lines
    assert misses == 1
    assert hits == 15


def test_multiline_op_stall_is_max_not_sum():
    dom = make_domain(prefetch=False)
    stall, _, misses = access(dom, 0, 0, 256, False, 0.0)  # 4 cold lines
    assert misses == 4
    single = make_domain(prefetch=False).access(0, 0, 64, False, 0.0)
    # Overlapped fetches: far less than 4x a single miss.
    assert stall < 4 * single


def test_l2_bandwidth_queues():
    dom = make_domain(prefetch=False, l2_bw=0.064)  # 1 line per 1000 ns
    dom.l2.fill(0, State.EXCLUSIVE)
    dom.l2.fill(64, State.EXCLUSIVE)
    first = dom.access(0, 0, 4, False, 0.0)
    second = dom.access(1, 64, 4, False, 0.0)
    assert second > first + 500


def test_back_invalidation_counts_every_l1_copy():
    """An L2 inclusion eviction counts each valid L1 copy it removes,
    clean or dirty; only dirty data is written back."""
    l1s = [Cache(f"l1.{i}", 1024, 2, 64) for i in range(2)]
    l2 = Cache("l2", 128, 2, 64)  # one set of two lines
    dom = CoherenceDomain(l1s, l2, DRAM(), MemLatencies(), prefetch=False)
    dom.access(0, 0, 4, False, 0.0)
    dom.access(1, 0, 4, False, 0.0)    # line 0 Shared in both L1s
    dom.access(0, 64, 4, True, 0.0)    # line 64 Modified in l1.0
    dom.access(0, 128, 4, False, 0.0)  # L2 evicts line 0
    assert l1s[0].lookup(0) is State.INVALID
    assert l1s[1].lookup(0) is State.INVALID
    assert dom.stats.back_invalidations == 2
    assert dom.stats.l2_writebacks == 0
    dom.access(1, 192, 4, False, 0.0)  # L2 evicts line 64
    assert l1s[0].lookup(64) is State.INVALID
    assert dom.stats.back_invalidations == 3
    assert dom.stats.l2_writebacks == 1
    assert dom.check_inclusion()


def test_l1s_must_share_geometry():
    l2 = Cache("l2", 64 * 1024, 8, 64)
    # Same set count with different associativity is allowed.
    CoherenceDomain([Cache("l1.0", 1024, 2, 64), Cache("l1.1", 2048, 4, 64)],
                    l2, DRAM())
    with pytest.raises(ValueError, match="'l1.1'"):
        CoherenceDomain([Cache("l1.0", 1024, 2, 64),
                         Cache("l1.1", 2048, 2, 64)], l2, DRAM())
    with pytest.raises(ValueError, match="'l1.2'"):
        CoherenceDomain([Cache("l1.0", 1024, 2, 64),
                         Cache("l1.1", 1024, 2, 64),
                         Cache("l1.2", 1024, 1, 128)], l2, DRAM())


def test_inclusion_invariant_random_traffic():
    dom = make_domain(num_l1=4, prefetch=True, l1_size=512)
    import random

    rng = random.Random(7)
    for _ in range(2000):
        requester = rng.randrange(4)
        line = rng.randrange(64) * 64
        dom.access(requester, line, 4, rng.random() < 0.3, 0.0)
        assert dom.check_coherence()
    assert dom.check_inclusion()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 31),
                          st.booleans()),
                min_size=1, max_size=200))
def test_single_writer_invariant(ops):
    dom = make_domain(num_l1=3, prefetch=False, l1_size=512)
    for requester, line_idx, is_write in ops:
        dom.access(requester, line_idx * 64, 4, is_write, 0.0)
    assert dom.check_coherence()
    assert dom.check_inclusion()


# -- the per-access line range and set index, computed inline --------------


def test_unaligned_access_crossing_a_line_boundary():
    """Bytes 60..67 straddle lines 0 and 64: both count, and the
    prefetcher runs one line past the second."""
    dom = make_domain(prefetch=True)
    _, hits, misses = access(dom, 0, 60, 8, False, 0.0)
    # Line 0 misses and prefetches line 64, which then hits.
    assert (misses, hits) == (1, 1)
    assert sorted(dom.l1s[0].contents()) == [0, 64, 128]
    assert dom.stats.prefetch_issued == 2
    _, hits, misses = access(make_domain(prefetch=False), 0, 60, 8, False,
                             0.0)
    assert (misses, hits) == (2, 0)


@pytest.mark.parametrize("nbytes", [0, -4])
def test_empty_access_rejected(nbytes):
    dom = make_domain()
    with pytest.raises(ValueError,
                       match=f"access must cover at least one byte: {nbytes}"):
        dom.access(0, LINE, nbytes, False, 0.0)
    assert dom.l1s[0].stats.accesses == 0
    hierarchy = MemoryHierarchy(MemConfig(num_l1=2))
    with pytest.raises(ValueError,
                       match=f"access must cover at least one byte: {nbytes}"):
        hierarchy.access(0, LINE, nbytes, True, 0.0)
    assert hierarchy.total_misses() == 0


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([32, 64, 128]), st.integers(1, 512),
       st.integers(0, 2**32), st.integers(1, 512))
@example(32, 1, 60, 512)
@example(128, 512, 512 * 128 - 4, 8)
def test_cold_read_fills_exactly_lines_touched(line_size, num_sets, addr,
                                               nbytes):
    """The inline range and set index agree with ``lines_touched`` and
    ``Cache.set_index`` for any L1 geometry.  One access touches at most
    17 lines, so 17 ways hold it even in a single set: nothing is
    evicted."""
    l1s = [Cache(f"l1.{i}", num_sets * 17 * line_size, 17, line_size)
           for i in range(2)]
    l2 = Cache("l2", 1024 * 8 * line_size, 8, line_size)
    dom = CoherenceDomain(l1s, l2, DRAM(), MemLatencies(), prefetch=False,
                          line_size=line_size)
    _, hits, misses = access(dom, 0, addr, nbytes, False, 0.0)
    expected = lines_touched(addr, nbytes, line_size)
    l1 = l1s[0]
    assert sorted(l1.contents()) == list(expected)
    for line in expected:
        assert line in l1._sets[l1.set_index(line)]
    assert misses == len(expected)
    assert hits == 0


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([32, 64, 128]), st.integers(1, 512),
       st.integers(2, 4), st.integers(0, 2**32))
@example(64, 1, 2, 0)
@example(128, 512, 2, 512 * 128 - 4)
def test_inline_l2_index_finds_filled_lines(line_size, l2_sets, l2_assoc,
                                            addr):
    """The L2 set index that ``_from_l2``, ``_prefetch_line`` and
    ``_l2_note_modified`` compute inline agrees with
    ``Cache.set_index``: lines ``Cache.fill`` placed are found there, so
    no access below reaches DRAM."""
    l1s = [Cache(f"l1.{i}", 8 * line_size, 2, line_size) for i in range(2)]
    l2 = Cache("l2", l2_sets * l2_assoc * line_size, l2_assoc, line_size)
    dom = CoherenceDomain(l1s, l2, DRAM(), MemLatencies(), prefetch=True,
                          line_size=line_size)
    line = addr - addr % line_size
    for held in (line, line + line_size):
        l2.fill(held, State.EXCLUSIVE)
    dom.access(0, addr, 1, False, 0.0)   # _from_l2, then a prefetch
    dom.access(1, addr, 1, True, 0.0)    # _from_l2, _l2_note_modified
    assert (dom.stats.l2_hits, dom.stats.l2_misses) == (2, 0)
    assert dom.stats.prefetch_issued == 1
    assert dom.dram.stats.requests == 0
    assert l2.lookup(line) is State.MODIFIED


def _assert_sets_consistent(cache):
    """Every line a cache holds sits in its ``set_index`` set, and no
    set holds more than ``assoc`` lines."""
    for index, lru in enumerate(cache._sets):
        assert len(lru) <= cache.assoc
        for line in lru:
            assert cache.set_index(line) == index


@settings(max_examples=150, deadline=None)
@given(
    line_size=st.sampled_from([32, 64]),
    l1_sets=st.sampled_from([1, 2, 4]),
    l1_assoc=st.integers(1, 2),
    l2_sets=st.sampled_from([1, 2, 4]),
    l2_assoc=st.integers(2, 4),
    prefetch=st.booleans(),
    ops=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 47),
                           st.integers(1, 3), st.booleans()),
                 min_size=1, max_size=120),
)
def test_random_traffic_keeps_sets_inclusion_and_coherence(
        line_size, l1_sets, l1_assoc, l2_sets, l2_assoc, prefetch, ops):
    """Reads and writes from three requesters over geometries small
    enough that both the L1s and the L2 evict, through the inline
    per-line path, leave every cache set-consistent, inclusive and
    single-writer, and never write into the shared empty set."""
    l1s = [Cache(f"l1.{i}", l1_sets * l1_assoc * line_size, l1_assoc,
                 line_size) for i in range(3)]
    l2 = Cache("l2", l2_sets * l2_assoc * line_size, l2_assoc, line_size)
    dom = CoherenceDomain(l1s, l2, DRAM(), MemLatencies(), prefetch=prefetch,
                          line_size=line_size)
    for requester, line_idx, nlines, is_write in ops:
        dom.access(requester, line_idx * line_size + 4,
                   nlines * line_size - 8, is_write, 0.0)
    for cache in l1s + [l2]:
        _assert_sets_consistent(cache)
    assert dom.check_inclusion()
    assert dom.check_coherence()
    assert len(EMPTY_SET) == 0
    with pytest.raises(TypeError, match="EMPTY_SET"):
        EMPTY_SET[0] = State.SHARED
