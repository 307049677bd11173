"""Linear feedback shift register used for steal-victim selection.

The TMU picks a random victim PE with an LFSR (Section III-A).  We implement
the classic 16-bit Fibonacci LFSR with taps at bits 16, 15, 13 and 4
(polynomial x^16 + x^14 + x^13 + x^11 + 1), which has a maximal period of
65535.  Seeding each PE with a distinct nonzero state keeps the selection
cheap, deterministic and well-distributed — exactly the hardware trade-off.
"""

from __future__ import annotations


class LFSR16:
    """16-bit maximal-period Fibonacci LFSR."""

    PERIOD = 65535

    #: Redraw cap for :meth:`pick` rejection sampling.  Hardware would use
    #: a fixed small retry budget; the residual bias after three redraws is
    #: below (n / PERIOD)^4 — immeasurable for victim counts.
    MAX_REDRAWS = 3

    def __init__(self, seed: int = 0xACE1) -> None:
        seed &= 0xFFFF
        if seed == 0:
            raise ValueError("LFSR seed must be nonzero")
        self.state = seed

    def next(self) -> int:
        """Advance one step and return the new 16-bit state."""
        lfsr = self.state
        bit = ((lfsr >> 0) ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1
        self.state = (lfsr >> 1) | (bit << 15)
        return self.state

    def pick(self, n: int) -> int:
        """Return a value in ``[0, n)`` from the next LFSR state.

        A plain ``state % n`` is biased when ``n`` does not divide the
        65535-state period: the first ``PERIOD % n`` residues appear once
        more than the rest (for n=3 that is a 1-in-21845 skew per residue).
        Reject states above the largest multiple of ``n`` and redraw, so
        each accepted residue is exactly equally likely; the redraw budget
        is capped as hardware would cap it, falling back to the (tiny)
        biased draw in the astronomically rare all-rejected case.
        """
        if n <= 0:
            raise ValueError(f"cannot pick from {n} choices")
        span = n * (self.PERIOD // n)
        state = self.next()
        for _ in range(self.MAX_REDRAWS):
            if state <= span:
                break
            state = self.next()
        return state % n

    def pick_victim(self, n: int, self_id: int) -> int:
        """Pick a victim PE id in ``[0, n)`` different from ``self_id``.

        Matches the hardware behaviour: draw from the other ``n - 1`` PEs so
        a thief never targets itself.  The draw is ``pick(n - 1)`` with
        :meth:`next` and :meth:`pick` run inline, because every steal
        attempt (and every replayed one, ``repro/sched/random.py``)
        makes it; ``tests/core/test_lfsr.py`` pins it to those two.
        """
        if n < 2:
            raise ValueError("need at least two PEs to steal")
        m = n - 1
        span = m * (self.PERIOD // m)
        state = self.state
        draws = 1 + self.MAX_REDRAWS
        while True:
            state = (state >> 1) | (
                ((state ^ (state >> 2) ^ (state >> 3) ^ (state >> 5)) & 1)
                << 15)
            draws -= 1
            if state <= span or not draws:
                break
        self.state = state
        victim = state % m
        if victim >= self_id:
            victim += 1
        return victim


def default_seed(pe_id: int) -> int:
    """Distinct nonzero per-PE seed (a fixed odd stride avoids zero)."""
    return ((pe_id * 0x9E37 + 0xACE1) & 0xFFFF) or 0xACE1
