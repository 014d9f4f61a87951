"""The memoised, iterative atomicity search against the plain recursive one.

``dfs_search.linearize_var`` is the search ``check_level(.., Atomic)`` used
before failed states were remembered and before the end order was walked
first.  Skipping a known-failed state must change nothing, and neither may
returning the end order when no Read blocks it, or resuming the search from
the prefix before the first Read that does: on every history both searches
return the same witness linearization, the same blocking Read and so the
same Verdict, field for field.  Nor may remembering failed states up to
dominance, with a Write waiting for the Writes of its pre and value that
come before it and with unread values merged: the contention-like and
shared-pre histories and the near-symmetric hand-built ones below are
where that acts.  ``brute_force_atomic`` is no reference for the witness;
it is the independent oracle, and only confirms the verdict on the
shared-pre histories small enough for it.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsim import History, OpKind, SemanticsLevel, brute_force_atomic, check_level
from regsim import checkers
from regsim.checkers import BRUTE_FORCE_LIMIT
from regsim.engine import SCOPE_BASE

from dfs_search import linearize_var
from histgen import (contention_history, contention_like, engine_history, histories,
                     shared_pre_writes, tree_histories)
from test_checkers import hist, r, w
from test_shared_ops import WORKLOADS

PINNED = settings(derandomize=True, deadline=None, max_examples=300)


def assert_same_search(h: History) -> None:
    for var in h.vars:
        assert checkers._linearize_var(h, var) == linearize_var(h, var)
    new = check_level(h, SemanticsLevel.ATOMIC)
    with mock.patch.object(checkers, "_linearize_var", linearize_var):
        old = check_level(h, SemanticsLevel.ATOMIC)
    assert (new.ok, new.violating_op, new.reason, new.linearizations) == (
        old.ok, old.violating_op, old.reason, old.linearizations)


@PINNED
@given(histories())
def test_search_matches_dfs_on_generated_histories(h):
    assert_same_search(h)


@PINNED
@given(histories(max_domain=2))
def test_search_matches_dfs_with_repeated_write_values(h):
    assert_same_search(h)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(2, 7), st.integers(0, 2**32 - 1))
def test_search_matches_dfs_on_contention(k, seed):
    assert_same_search(contention_history(random.Random(seed), k))


@pytest.mark.parametrize("cut", [False, True], ids=["complete", "cut"])
@pytest.mark.parametrize("construction", ["multiwriter", "multireader"])
def test_search_matches_dfs_on_long_engine_histories(construction, cut):
    for seed in range(8):
        h = engine_history(construction, seed, cut)
        assert len(h.ops) >= (60 if cut else 120)
        assert cut == any(o.end is None for o in h.ops)
        assert_same_search(h)


@pytest.mark.parametrize("name", ["multiwriter", "mr_nowriteback", "regular_bit", "raw_safe"])
def test_search_matches_dfs_on_every_bench_leaf(name):
    hs = tree_histories(WORKLOADS[name][0])
    assert len(hs) == {"multiwriter": 709, "mr_nowriteback": 5431, "regular_bit": 16258,
                       "raw_safe": 8330}[name]
    for h in hs:
        assert_same_search(h)


def test_search_matches_dfs_on_base_histories():
    # One variable per base register: the path for more than one variable.
    hs = tree_histories(WORKLOADS["multiwriter"][0], SCOPE_BASE)
    assert len(hs) == 8008
    for h in hs:
        assert len(h.vars) == 2
        assert_same_search(h)


def end_order(h):
    return tuple(o.op_id for o in sorted((o for o in h.ops if o.end is not None),
                                         key=lambda o: o.end))


#: A Write of 1, a Read of it, a Write of 2 and a Read of that, in end order.
LINEAR = (w(0, 0, 2, 1), r(1, 1, 3, 1), w(2, 4, 6, 2), r(3, 5, 7, 2))


@pytest.mark.parametrize("pending", [
    (),
    (w(4, 8, None, 3),),
    (r(4, 8, None, None),),
    (w(4, 8, None, 3), r(5, 9, None, None), r(6, 10, None, None, proc=2)),
], ids=["complete", "pending_write", "pending_read", "pending_both"])
def test_end_order_is_the_witness_without_the_search(pending):
    h = hist(*LINEAR, *pending)
    assert_same_search(h)
    # The end-order walk returns before the search computes a single pre.
    with mock.patch.object(checkers, "bisect_left", side_effect=AssertionError):
        verdict = check_level(h, SemanticsLevel.ATOMIC)
    assert verdict == checkers.Verdict(True, None, None, {"x": end_order(h)})


#: name: (history, depth of its first blocked Read in end order, witness
#: or None, violating op or None).
BLOCKED = {
    # A Read of 1 ends first, while the Write of 1 it overlaps is running.
    "depth0_pass": (hist(r(0, 0, 2, 1), w(1, 1, 3, 1)), 0, (1, 0), None),
    "depth0_fail": (hist(r(0, 0, 2, 1), w(1, 1, 3, 2)), 0, None, 0),
    # The Read of 2 ends before the Write of 2 it overlaps.
    "depth1_pass": (hist(w(0, 0, 1, 1), r(1, 2, 4, 2), w(2, 3, 5, 2)), 1, (0, 2, 1), None),
    "depth1_fail": (hist(w(0, 0, 1, 1), r(1, 2, 4, 3), w(2, 3, 5, 2)), 1, None, 1),
    # Both Writes end before the Read of 1 that overlaps them: the search
    # pops the frame the end order pushed for the Write of 2.
    "depth2_backtrack_pass": (hist(w(0, 0, 3, 1), w(1, 1, 4, 2, proc=2), r(2, 2, 5, 1),
                                   writers=(0, 2), readers=(1,)), 2, (0, 2, 1), None),
    "depth2_backtrack_fail": (hist(w(0, 0, 3, 1), w(1, 1, 4, 2, proc=2), r(2, 2, 5, 3),
                                   writers=(0, 2), readers=(1,)), 2, None, 2),
    # A pending Write of 2 the blocked Read overlaps places it.
    "depth1_pending_write_pass": (hist(w(0, 0, 1, 1), r(1, 2, 4, 2), w(2, 3, None, 2)),
                                  1, (0, 2, 1), None),
}


@pytest.mark.parametrize("name", BLOCKED)
def test_a_blocked_read_resumes_the_search_from_its_prefix(name):
    h, depth, witness, violating = BLOCKED[name]
    completed = sorted((o for o in h.ops if o.end is not None), key=lambda o: o.end)
    value = 0
    for o in completed[:depth]:
        if o.kind is OpKind.WRITE:
            value = o.arg
        assert o.ret in (None, value)
    assert completed[depth].kind is OpKind.READ and completed[depth].ret != value
    assert_same_search(h)
    verdict = check_level(h, SemanticsLevel.ATOMIC)
    assert verdict.ok == (witness is not None)
    if witness is not None:
        assert verdict.linearizations == {"x": witness}
    else:
        assert verdict.violating_op == violating


@PINNED
@given(contention_like())
def test_search_matches_dfs_on_contention_like_histories(h):
    assert_same_search(h)


@PINNED
@given(shared_pre_writes())
def test_search_matches_dfs_and_the_oracle_on_shared_pre_writes(h):
    assert_same_search(h)
    if sum(o.end is not None for o in h.ops) <= BRUTE_FORCE_LIMIT:
        assert brute_force_atomic(h) == check_level(h, SemanticsLevel.ATOMIC).ok


#: Writes of one pre and value, where one waits for the other, or would
#: but for one difference.
NEAR_SYMMETRIC = {
    # Reads of 1 and then 0 by processes 1 and 2 end before two Writes of 1
    # by processes 0 and 3, so no op starts after either Write ends and no
    # op's pre falls between them.
    "both_completed": hist(w(0, 0, 7, 1, proc=3), w(1, 1, 6, 1), r(2, 2, 3, 1),
                           r(3, 4, 5, 0, proc=2), writers=(0, 3), readers=(1, 2)),
    # The same with one of the Writes pending.
    "completed_and_pending": hist(w(0, 0, None, 1, proc=3), w(1, 1, 6, 1), r(2, 2, 3, 1),
                                  r(3, 4, 5, 0, proc=2), writers=(0, 3), readers=(1, 2)),
    # The second Read starts after the first Write of 1 ends and before the
    # second does: it needs the one and not the other.
    "a_pre_between": hist(w(0, 0, 2, 1), w(1, 1, 5, 1, proc=3), r(2, 3, 4, 1, proc=2),
                          writers=(0, 3), readers=(2,)),
    # Writes of 1 by processes 3 and 0, the second after the Write of 2 ends:
    # their pres differ, though none falls between them in end order.
    "different_pres": hist(w(0, 0, 2, 2), w(1, 1, 6, 1, proc=3), w(2, 3, 5, 1), r(3, 7, 8, 1),
                           writers=(0, 3), readers=(1,)),
    # Unread values 2 and 3, and the read 1.
    "unread_values": hist(w(0, 0, 4, 2), w(1, 1, 5, 3, proc=3), w(2, 2, 6, 1, proc=4),
                          r(3, 7, 8, 1), writers=(0, 3, 4), readers=(1,)),
    # Two Writes of the unread 2 and one of 3, all concurrent; a Read of 3
    # starts between the two ends of 2.  The end order blocks the Read, and
    # the witness places the earlier-ending Write of 2 first and the other
    # after the Read, so the search backtracks past the Write that waits.
    "a_read_between_the_ends": hist(w(0, 0, 6, 2), w(1, 2, 3, 3, proc=2),
                                    w(2, 1, 4, 2, proc=3), r(3, 5, 7, 3, proc=4),
                                    writers=(0, 2, 3), readers=(4,)),
    # Two completed Writes of the unread 3 and a pending one, concurrent
    # with a Write of 2 that a later Read returns: the pending Write waits
    # for both completed ones while the search backtracks.
    "pending_after_completed": hist(w(0, 1, 4, 2), w(1, 0, None, 3, proc=2),
                                    w(2, 3, 5, 3, proc=3), w(3, 2, 6, 3, proc=4),
                                    r(4, 7, 8, 2, proc=5),
                                    writers=(0, 2, 3, 4), readers=(5,)),
    # A pending Write of 1 must precede the Read of 1 that starts after it;
    # a completed Write of 1 ends earlier but starts after that Read ends,
    # a later pre, so the pending Write must not wait for it.
    "same_value_later_pre": hist(w(0, 5, 6, 3), w(1, 0, None, 1, proc=2),
                                 w(2, 2, None, 3, proc=3), w(3, 4, 7, 1, proc=4),
                                 r(4, 1, 3, 1, proc=5),
                                 writers=(0, 2, 3, 4), readers=(5,)),
}


@pytest.mark.parametrize("name", NEAR_SYMMETRIC)
def test_search_matches_dfs_on_near_symmetric_writes(name):
    assert_same_search(NEAR_SYMMETRIC[name])
