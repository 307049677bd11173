"""Unit tests for the LFSR victim selector."""

import pytest
from hypothesis import given, strategies as st

from repro.core.lfsr import LFSR16, default_seed


def test_zero_seed_rejected():
    with pytest.raises(ValueError):
        LFSR16(0)


def test_state_never_zero_over_period_sample():
    lfsr = LFSR16(0xACE1)
    for _ in range(10000):
        assert lfsr.next() != 0


def test_full_period():
    lfsr = LFSR16(1)
    seen_initial_again_at = None
    for step in range(1, LFSR16.PERIOD + 1):
        if lfsr.next() == 1:
            seen_initial_again_at = step
            break
    assert seen_initial_again_at == LFSR16.PERIOD


def test_pick_range():
    lfsr = LFSR16()
    for _ in range(1000):
        assert 0 <= lfsr.pick(7) < 7


def test_pick_invalid():
    with pytest.raises(ValueError):
        LFSR16().pick(0)


def test_victim_never_self():
    lfsr = LFSR16()
    for _ in range(2000):
        assert lfsr.pick_victim(8, 3) != 3


def test_victim_needs_two_pes():
    with pytest.raises(ValueError):
        LFSR16().pick_victim(1, 0)


def test_victim_distribution_roughly_uniform():
    lfsr = LFSR16()
    counts = [0] * 8
    trials = 8000
    for _ in range(trials):
        counts[lfsr.pick_victim(8, 0)] += 1
    assert counts[0] == 0
    for pe in range(1, 8):
        # Each of the 7 victims should get roughly 1/7 of the picks.
        assert abs(counts[pe] - trials / 7) < trials / 7 * 0.25


@pytest.mark.parametrize("n", [3, 5, 7])
def test_pick_uniform_for_non_power_of_two(n):
    """Rejection sampling removes the modulo bias: over a full period of
    draws every residue lands within a whisker of trials/n."""
    lfsr = LFSR16()
    trials = LFSR16.PERIOD
    counts = [0] * n
    for _ in range(trials):
        counts[lfsr.pick(n)] += 1
    expected = trials / n
    for count in counts:
        assert abs(count - expected) < expected * 0.02


@pytest.mark.parametrize("num_pes", [3, 5, 7])
def test_victim_distribution_uniform_across_pe_counts(num_pes):
    lfsr = LFSR16(default_seed(1))
    trials = 70000
    counts = [0] * num_pes
    for _ in range(trials):
        counts[lfsr.pick_victim(num_pes, 1)] += 1
    assert counts[1] == 0  # never steals from itself
    expected = trials / (num_pes - 1)
    for pe, count in enumerate(counts):
        if pe == 1:
            continue
        assert abs(count - expected) < expected * 0.02


def test_pick_redraw_cap_keeps_range_for_large_n():
    # n close to the period forces heavy rejection; the redraw cap must
    # still terminate with an in-range value.
    lfsr = LFSR16()
    for _ in range(5000):
        assert 0 <= lfsr.pick(40000) < 40000


@given(st.integers(min_value=0, max_value=4096))
def test_default_seeds_nonzero(pe_id):
    assert default_seed(pe_id) != 0


def test_default_seeds_distinct_for_small_ids():
    seeds = [default_seed(i) for i in range(64)]
    assert len(set(seeds)) == 64


@given(st.integers(min_value=2, max_value=64),
       st.integers(min_value=0, max_value=63))
def test_pick_victim_in_range(n, self_id):
    self_id %= n
    lfsr = LFSR16(default_seed(self_id))
    for _ in range(50):
        victim = lfsr.pick_victim(n, self_id)
        assert 0 <= victim < n
        assert victim != self_id


def _composed_pick_victim(lfsr, n, self_id):
    """``pick_victim`` written through ``pick`` and ``next``."""
    victim = lfsr.pick(n - 1)
    return victim + 1 if victim >= self_id else victim


@given(st.integers(min_value=1, max_value=0xFFFF),
       st.integers(min_value=2, max_value=40001),
       st.integers(min_value=0, max_value=40000))
def test_inline_pick_victim_is_pick_of_the_others(seed, n, self_id):
    """The inline draw returns and leaves what ``pick(n - 1)`` does, also
    when the redraw cap fires (victim counts near the period)."""
    self_id %= n
    inline, composed = LFSR16(seed), LFSR16(seed)
    for _ in range(40):
        assert (inline.pick_victim(n, self_id)
                == _composed_pick_victim(composed, n, self_id))
        assert inline.state == composed.state


def test_inline_pick_victim_hits_the_redraw_cap():
    """Over a full period of draws with n - 1 = 40000, some draw uses all
    four states (three redraws) and the two forms still agree."""
    inline, composed = LFSR16(1), LFSR16(1)
    longest = 0
    for _ in range(LFSR16.PERIOD // 4):
        before = composed.state
        assert (inline.pick_victim(40001, 0)
                == _composed_pick_victim(composed, 40001, 0))
        steps, probe = 0, LFSR16(before)
        while probe.state != composed.state:
            probe.next()
            steps += 1
        longest = max(longest, steps)
    assert longest == 1 + LFSR16.MAX_REDRAWS
