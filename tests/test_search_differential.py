"""The memoised, iterative atomicity search against the plain recursive one.

``dfs_search.linearize_var`` is the search ``check_level(.., Atomic)`` used
before failed states were remembered and before the end order was walked
first.  Skipping a known-failed state must change nothing, and neither may
returning the end order when no Read blocks it, or resuming the search from
the prefix before the first Read that does: on every history both searches
return the same witness linearization, the same blocking Read and so the
same Verdict, field for field.  ``brute_force_atomic`` stays out of this:
it is the independent oracle, not a reference implementation.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsim import History, OpKind, SemanticsLevel, check_level
from regsim import checkers
from regsim.engine import SCOPE_BASE

from dfs_search import linearize_var
from histgen import contention_history, engine_history, histories, tree_histories
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


@pytest.mark.parametrize("name", ["multiwriter", "mr_nowriteback"])
def test_search_matches_dfs_on_every_bench_leaf(name):
    hs = tree_histories(WORKLOADS[name][0])
    assert len(hs) == {"multiwriter": 709, "mr_nowriteback": 5431}[name]
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
