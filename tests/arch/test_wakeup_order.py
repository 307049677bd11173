"""The tie order of woken PEs against the original positional walk.

``repro/arch/wakeup.py`` orders tied resumes by comparing the woken
chains' backward event histories position by position.  For two uniform
idle cadences with the same head and period it skips their shared
prefix in closed form.  The reference below is the comparator and the
chain builders as they were before that change: a walk from position 0.
The product comparator must answer every pair exactly as the walk does,
and a sort of woken plans must come out in the same order, because the
comparator is not transitive over chains tied on a shared prefix and
``_wake_all`` sorts with it.
"""

from functools import cmp_to_key
from types import SimpleNamespace
from typing import Callable, List, Optional

from hypothesis import given, settings, strategies as st

from repro.arch.wakeup import (
    SCOPE_LOCAL,
    ParkRegistry,
    _chain_order,
    _list_chain,
    _local_chain,
    _ParkedPE,
    _Plan,
)

# ---------------------------------------------------------------------------
# Reference: the walking comparator and its chain builders.
# ---------------------------------------------------------------------------


def ref_local_chain(f: int, anchor: int, idle: int, s_at: int, p_s_at: int
                    ) -> Callable[[int], Optional[int]]:
    """Backward history of a uniform-cadence idle chain, lazily."""
    steps = (f - anchor) // idle

    def chain(k: int) -> Optional[int]:
        if k <= steps:
            return f - k * idle
        if k == steps + 1:
            return s_at
        if k == steps + 2:
            return p_s_at
        return None

    return chain


def ref_list_chain(times: List[int]) -> Callable[[int], Optional[int]]:
    """Backward history from an explicit (already reversed) time list."""

    def chain(k: int) -> Optional[int]:
        return times[k] if k < len(times) else None

    return chain


def ref_chain_order(a, b) -> int:
    """Positional comparison from position 0, park order on full tie."""
    ca, cb = a[0].chain, b[0].chain
    k = 0
    while True:
        ta, tb = ca(k), cb(k)
        if ta is None or tb is None:
            break
        if ta != tb:
            return -1 if ta < tb else 1
        k += 1
    return a[2] - b[2]


# ---------------------------------------------------------------------------
# Chains, built once as data and then as a product and a reference plan.
# ---------------------------------------------------------------------------

IDLE = 10


def uniform(head: int, steps: int, tail, idle: int = IDLE):
    return ("uniform", head, steps, tuple(tail), idle)


def history(times):
    return ("list", list(times))


def product_plan(chain):
    if chain[0] == "uniform":
        _, head, steps, (s_at, p_s_at), idle = chain
        return _Plan(head, 0, 0, None, 0,
                     _local_chain(head, steps, idle, s_at, p_s_at),
                     (head, idle, steps))
    return _Plan(0, 0, 0, None, 0, _list_chain(chain[1]))


def reference_plan(chain):
    if chain[0] == "uniform":
        _, head, steps, (s_at, p_s_at), idle = chain
        anchor = head - steps * idle
        return SimpleNamespace(
            chain=ref_local_chain(head, anchor, idle, s_at, p_s_at))
    return SimpleNamespace(chain=ref_list_chain(chain[1]))


def sign(x: int) -> int:
    return (x > 0) - (x < 0)


def assert_same_answers(chain_a, chain_b, order: int) -> None:
    """Both comparators order the pair alike, both ways round; ``order``
    is ``chain_a``'s park order (0 or 1)."""
    ea = (product_plan(chain_a), None, order)
    eb = (product_plan(chain_b), None, 1 - order)
    ra = (reference_plan(chain_a), None, order)
    rb = (reference_plan(chain_b), None, 1 - order)
    assert sign(_chain_order(ea, eb)) == sign(ref_chain_order(ra, rb))
    assert sign(_chain_order(eb, ea)) == sign(ref_chain_order(rb, ra))


# Heads and tails come from small pools so that ties are common.
HEADS = st.sampled_from([10_000_000, 10_000_000 + IDLE, 10_000_003])
TAILS = st.tuples(st.sampled_from([5, 6]), st.sampled_from([1, 2]))


@st.composite
def event_histories(draw, max_prefix: int = 8):
    """An explicit history, often opening like a uniform cadence."""
    head = draw(HEADS)
    prefix = [head - k * IDLE
              for k in range(draw(st.integers(0, max_prefix)))]
    tail = draw(st.lists(st.sampled_from(
        [head - 3 * IDLE, head - 2 * IDLE, 5, 6, 1, 2]), max_size=4))
    return history(prefix + tail or [head])


def uniform_chains(max_steps: int):
    return st.builds(uniform, HEADS, st.integers(0, max_steps), TAILS)


# ---------------------------------------------------------------------------
# Tests.
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(-3, 3), HEADS, HEADS, TAILS,
       TAILS, st.integers(0, 1))
def test_uniform_pairs_match_the_walk(steps, delta, head_a, head_b, tail_a,
                                      tail_b, order):
    """Uniform cadences up to 10**6 steps, equal or unequal heads, and
    equal or different tails, with step counts near each other so the
    tie runs to the shorter chain's anchor."""
    assert_same_answers(uniform(head_a, steps, tail_a),
                        uniform(head_b, max(0, steps + delta), tail_b),
                        order)


@settings(max_examples=150, deadline=None)
@given(st.one_of(uniform_chains(10**6), event_histories()),
       st.one_of(uniform_chains(40), event_histories()),
       st.integers(0, 1))
def test_mixed_pairs_match_the_walk(chain_a, chain_b, order):
    """Any pairing of uniform cadences and explicit event histories."""
    assert_same_answers(chain_a, chain_b, order)


def test_uniform_cadences_with_another_period_are_walked():
    """The closed form needs one period: with the same head and another
    idle period, the chains part at position 1."""
    a = uniform(10_000_000, 5, (5, 1), idle=IDLE)
    b = uniform(10_000_000, 5, (5, 1), idle=IDLE + 1)
    assert_same_answers(a, b, 0)
    assert _chain_order((product_plan(a), None, 0),
                        (product_plan(b), None, 1)) == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(uniform_chains(64), event_histories()),
                min_size=2, max_size=16))
def test_sorting_woken_plans_matches_the_walk(chains):
    """``_wake_all``'s sort, entry ``idx`` being park order."""
    product = [(product_plan(c), None, i) for i, c in enumerate(chains)]
    reference = [(reference_plan(c), None, i) for i, c in enumerate(chains)]
    product.sort(key=cmp_to_key(_chain_order))
    reference.sort(key=cmp_to_key(ref_chain_order))
    assert [e[2] for e in product] == [e[2] for e in reference]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 7, 10, 50]),
       st.integers(0, 10**6), st.integers(0, 4), st.integers(0, 4))
def test_local_plan_cadence_describes_its_chain(anchor, idle, gap, ks, kp):
    """``_plan_local``'s ``(head, idle, steps)`` is the chain it returns."""
    registry = ParkRegistry(SimpleNamespace(
        engine=None, config=SimpleNamespace(idle_poll_cycles=idle)))
    rec = _ParkedPE(None, anchor, anchor - 3, anchor - 8, SCOPE_LOCAL)
    plan = registry._plan_local(rec, (anchor + gap, ks, kp))
    head, period, steps = plan.cadence
    assert (head, period) == (plan.time, idle)
    ref = ref_local_chain(plan.time, anchor, idle, anchor - 3, anchor - 8)
    for k in {0, 1, steps - 1, steps, steps + 1, steps + 2, steps + 3}:
        if k >= 0:
            assert plan.chain(k) == ref(k)
