"""MOESI snooping coherence across the L1 caches and the shared L2.

One :class:`CoherenceDomain` spans all L1 caches (accelerator tile caches
and/or CPU core caches) plus the inclusive shared L2 and DRAM.  The model
resolves each line access to a stall time:

* L1 hits cost no stall — 1-cycle hits are absorbed by the pipelined worker
  datapath (or the OOO core), per Table III.
* Read misses snoop the peers: a dirty peer (M/O) supplies the line
  cache-to-cache and keeps ownership (M→O); otherwise the L2/DRAM supplies
  it and the requester takes E (no other sharer) or S.
* Write hits in S/O need a bus upgrade that invalidates the peers; write
  misses invalidate peers and fetch the line in M.
* Dirty evictions write back to the L2; L2 evictions back-invalidate the
  L1s (inclusion) and write dirty data to DRAM as background bandwidth.
* A next-line prefetcher fills ``line + line_size`` on every L1 *read*
  (hit or miss) without stalling the requester (background DRAM bandwidth
  only), so streaming reads settle into all-hit behaviour after the first
  miss — matching a pipelined HLS worker with a stream prefetcher.
* Writes are posted: write misses and upgrades perform all state changes
  and consume DRAM bandwidth, but do not stall the requester (store
  buffers on the CPU, decoupled store queues in the accelerator).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from repro.mem.cache import EMPTY_SET, Cache, State
from repro.mem.dram import DRAM


@dataclass(frozen=True)
class MemLatencies:
    """Stall contributions in nanoseconds (Table III, converted).

    An L1 hit (2.5 ns, 1 cycle at the 400 MHz accelerator L1) is absorbed
    by the pipelined worker datapath, and a bus upgrade (an 8 ns
    invalidation round) is posted through the store buffer, so neither
    has a stall term.  DRAM latency is ``MemConfig.dram_access_ns``.
    """

    l2_hit_ns: float = 10.0     # 10 cycles at 1 GHz
    c2c_ns: float = 15.0        # snoop + cache-to-cache transfer


@dataclass
class AccessResult:
    """Outcome of a (possibly multi-line) memory access."""

    stall_ns: float = 0.0
    line_hits: int = 0
    line_misses: int = 0


@dataclass
class DomainStats:
    c2c_transfers: int = 0
    upgrades: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    l1_writebacks: int = 0
    l2_writebacks: int = 0
    #: Valid L1 copies removed because the L2 evicted their line.
    back_invalidations: int = 0
    prefetch_issued: int = 0


# The per-line path tests states by identity against these members.
MODIFIED = State.MODIFIED
OWNED = State.OWNED
EXCLUSIVE = State.EXCLUSIVE
SHARED = State.SHARED


class CoherenceDomain:
    """All L1s + inclusive shared L2 + DRAM under MOESI snooping.

    Every L1 must have the same number of sets and line size, so one set
    index per line serves the requester and all of its peers.
    """

    def __init__(
        self,
        l1s: List[Cache],
        l2: Cache,
        dram: DRAM,
        latencies: MemLatencies = MemLatencies(),
        prefetch: bool = True,
        line_size: int = 64,
        l2_bandwidth_gbps: Optional[float] = 32.0,
    ) -> None:
        first = l1s[0]
        for l1 in l1s:
            if (l1.num_sets, l1.line_size) != (first.num_sets,
                                               first.line_size):
                raise ValueError(
                    f"L1 {l1.name!r} has {l1.num_sets} sets of "
                    f"{l1.line_size} B lines but {first.name!r} has "
                    f"{first.num_sets} sets of {first.line_size} B: all "
                    "L1s of a coherence domain must share one geometry"
                )
        self.l1s = l1s
        self.l2 = l2
        self.dram = dram
        self.lat = latencies
        self.prefetch = prefetch
        self.line_size = line_size
        # Shared-L2 port bandwidth (GB/s == bytes/ns); None = unlimited.
        self.l2_bytes_per_ns = l2_bandwidth_gbps
        self._l2_next_free = 0.0
        self.stats = DomainStats()
        self._l1_set_index = first.set_index
        self._l1_num_sets = first.num_sets
        # Cache.set_index of the L2, computed inline on the per-line path.
        self._l2_sets = l2._sets
        self._l2_line_size = l2.line_size
        self._l2_num_sets = l2.num_sets
        #: Per requester, the other L1s in snoop order.
        self._peers = [[peer for peer in l1s if peer is not l1]
                       for l1 in l1s]

    # ------------------------------------------------------------------
    def access(
        self,
        requester: int,
        addr: int,
        nbytes: int,
        is_write: bool,
        now_ns: float,
    ) -> AccessResult:
        """Perform an access from L1 ``requester``; returns stall/hit info.

        All lines of one access are issued together (the worker's memory
        port streams a block with full memory-level parallelism), so the
        op's stall is the *slowest* line, not the sum — the L2 and DRAM
        port horizons still serialise the individual line services, so a
        long burst's last line naturally queues behind the earlier ones.
        Dependent accesses (e.g. spmv's x gathers) are separate ops and
        therefore still serialise against each other.
        """
        if nbytes <= 0:
            raise ValueError(f"access must cover at least one byte: {nbytes}")
        line_size = self.line_size
        num_sets = self._l1_num_sets
        l1 = self.l1s[requester]
        sets = l1._sets
        prefetch = self.prefetch and not is_write
        hits = misses = 0
        max_stall = 0.0
        # lines_touched() and Cache.set_index(), inline: the lines from
        # the one holding the first byte to the one holding the last, and
        # the first line's set, whose successor is always the next set.
        mask = ~(line_size - 1)
        first = addr & mask
        index = (first // line_size) % num_sets
        for line in range(first, ((addr + nbytes - 1) & mask) + line_size,
                          line_size):
            lru = sets[index]
            state = lru.get(line)
            if state is None:
                misses += 1
                if is_write:
                    # Posted write: all state changes and DRAM traffic
                    # happen, but the requester does not stall.
                    self._fetch_line(requester, l1, line, index, True,
                                     now_ns)
                else:
                    stall = self._fetch_line(requester, l1, line, index,
                                             False, now_ns)
                    if stall > max_stall:
                        max_stall = stall
            else:
                hits += 1
                lru.move_to_end(line)
                if is_write:
                    if state is SHARED or state is OWNED:
                        # Bus upgrade, posted like a write miss.
                        l1.stats.upgrades += 1
                        self.stats.upgrades += 1
                        self._invalidate_peers(requester, line, index)
                    lru[line] = MODIFIED
            # The next line is both the prefetch target and the next
            # line of this access.
            ahead = line + line_size
            index = (index + 1) % num_sets
            if prefetch and ahead not in sets[index]:
                self._prefetch_line(requester, l1, ahead, index, now_ns)
        stats = l1.stats
        if is_write:
            stats.write_hits += hits
            stats.write_misses += misses
        else:
            stats.read_hits += hits
            stats.read_misses += misses
        return AccessResult(max_stall, hits, misses)

    # ------------------------------------------------------------------
    def _fetch_line(self, requester: int, l1: Cache, line: int, index: int,
                    is_write: bool, now_ns: float) -> float:
        """Fetch ``line`` (set ``index``) into the requester's L1 after a
        miss, snooping the peers; returns the stall."""
        dirty = clean = None
        for peer in self._peers[requester]:
            state = peer._sets[index].get(line)
            if state is None:
                continue
            if state is MODIFIED or state is OWNED:
                dirty = peer
            elif clean is None:
                clean = peer
        if is_write:
            # Invalidate every other copy; dirty data is handed over c2c.
            self._invalidate_peers(requester, line, index)
            if dirty is not None:
                self.stats.c2c_transfers += 1
                stall = self.lat.c2c_ns
            else:
                stall = self._from_l2(line, now_ns)
            self._fill_l1(l1, line, index, MODIFIED, now_ns)
            # L2 copy becomes stale relative to the M line; mark it so an
            # inclusion eviction knows to expect the dirty writeback.
            self._l2_note_modified(line)
            return stall
        # Read miss.
        if dirty is not None:
            dirty.stats.snoop_hits += 1
            held = dirty._sets[index]
            if held[line] is MODIFIED:
                held[line] = OWNED
            self.stats.c2c_transfers += 1
            self._fill_l1(l1, line, index, SHARED, now_ns)
            return self.lat.c2c_ns
        if clean is not None:
            clean.stats.snoop_hits += 1
            held = clean._sets[index]
            if held[line] is EXCLUSIVE:
                held[line] = SHARED
            stall = self._from_l2(line, now_ns)
            self._fill_l1(l1, line, index, SHARED, now_ns)
            return stall
        stall = self._from_l2(line, now_ns)
        self._fill_l1(l1, line, index, EXCLUSIVE, now_ns)
        return stall

    def _invalidate_peers(self, requester: int, line: int,
                          index: int) -> None:
        for peer in self._peers[requester]:
            if peer._sets[index].pop(line, None) is not None:
                peer.stats.invalidations_received += 1

    def _fill_l1(self, l1: Cache, line: int, index: int, state: State,
                 now_ns: float) -> None:
        """Install ``line`` in set ``index`` of ``l1``, which lacks it (a
        miss or a prefetch target): ``Cache.fill``'s LRU insert and victim
        pop inline, then the dirty victim's writeback to the L2."""
        sets = l1._sets
        lru = sets[index]
        victim = None
        if lru is EMPTY_SET:
            lru = sets[index] = OrderedDict()
        elif len(lru) >= l1.assoc:
            victim = lru.popitem(last=False)
            l1.stats.evictions += 1
        lru[line] = state
        if victim is not None:
            victim_line, victim_state = victim
            if victim_state is MODIFIED or victim_state is OWNED:
                l1.stats.writebacks += 1
                self.stats.l1_writebacks += 1
                self._l2_note_modified(victim_line, fill_if_absent=True,
                                       now_ns=now_ns)

    def _from_l2(self, line: int, now_ns: float) -> float:
        """Stall for supplying a line from the L2, fetching DRAM on miss.

        The stall starts with the queue time behind other requesters at
        the shared L2 port (none when its bandwidth is unlimited).
        """
        queue_ns = 0.0
        if self.l2_bytes_per_ns is not None:
            service = self.line_size / self.l2_bytes_per_ns
            start = max(now_ns, self._l2_next_free)
            self._l2_next_free = start + service
            queue_ns = start - now_ns
            now_ns += queue_ns
        lru = self._l2_sets[(line // self._l2_line_size) % self._l2_num_sets]
        if line in lru:
            lru.move_to_end(line)
            self.l2.stats.read_hits += 1
            self.stats.l2_hits += 1
            return queue_ns + self.lat.l2_hit_ns
        self.l2.stats.read_misses += 1
        self.stats.l2_misses += 1
        dram_ns = self.dram.access(now_ns + self.lat.l2_hit_ns)
        self._fill_l2(line, EXCLUSIVE, now_ns)
        return queue_ns + self.lat.l2_hit_ns + dram_ns

    def _fill_l2(self, line: int, state: State, now_ns: float) -> None:
        victim = self.l2.fill(line, state)
        if victim is not None:
            victim_line, victim_state = victim
            # Inclusion: evicting from L2 removes the line from all L1s;
            # a dirty L1 copy is folded into the writeback.
            dirty = victim_state is MODIFIED or victim_state is OWNED
            index = self._l1_set_index(victim_line)
            for l1 in self.l1s:
                held = l1._sets[index].pop(victim_line, None)
                if held is not None:
                    l1.stats.invalidations_received += 1
                    self.stats.back_invalidations += 1
                    if held is MODIFIED or held is OWNED:
                        dirty = True
            if dirty:
                self.l2.stats.writebacks += 1
                self.stats.l2_writebacks += 1
                self.dram.record_background(now_ns)

    def _l2_note_modified(self, line: int, fill_if_absent: bool = False,
                          now_ns: float = 0.0) -> None:
        lru = self._l2_sets[(line // self._l2_line_size) % self._l2_num_sets]
        if line in lru:
            lru[line] = MODIFIED
            lru.move_to_end(line)
        elif fill_if_absent:
            self._fill_l2(line, MODIFIED, now_ns)

    def _prefetch_line(self, requester: int, l1: Cache, line: int,
                       index: int, now_ns: float) -> None:
        """Next-line prefetch of ``line`` (set ``index``, absent from the
        requester's L1) without stalling."""
        # Skip if any peer holds the line: a prefetch must not steal
        # ownership or force invalidations.
        for peer in self._peers[requester]:
            if line in peer._sets[index]:
                return
        self.stats.prefetch_issued += 1
        l1.stats.prefetch_fills += 1
        lru = self._l2_sets[(line // self._l2_line_size) % self._l2_num_sets]
        if line in lru:
            lru.move_to_end(line)
        else:
            self.dram.record_background(now_ns)
            self._fill_l2(line, EXCLUSIVE, now_ns)
        self._fill_l1(l1, line, index, EXCLUSIVE, now_ns)

    # ------------------------------------------------------------------
    def check_inclusion(self) -> bool:
        """Inclusion invariant: every valid L1 line is present in the L2."""
        l2_lines = set(self.l2.contents())
        for l1 in self.l1s:
            for line in l1.contents():
                if line not in l2_lines:
                    return False
        return True

    def check_coherence(self) -> bool:
        """Single-writer invariant: at most one M/E holder per line, and
        no other valid copies may coexist with an M or E copy."""
        holders: dict = {}
        for i, l1 in enumerate(self.l1s):
            for line, state in l1.contents().items():
                holders.setdefault(line, []).append(state)
        for line, states in holders.items():
            exclusive = sum(1 for s in states
                            if s in (State.MODIFIED, State.EXCLUSIVE))
            if exclusive > 1:
                return False
            if exclusive == 1 and len(states) > 1:
                return False
            if sum(1 for s in states if s.is_dirty) > 1:
                return False
        return True
