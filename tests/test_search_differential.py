"""The memoised, iterative atomicity search against the plain recursive one.

``dfs_search.linearize_var`` is the search ``check_level(.., Atomic)`` used
before failed states were remembered.  Skipping a known-failed state must
change nothing: on every history both searches return the same witness
linearization, the same blocking Read and so the same Verdict, field for
field.  ``brute_force_atomic`` stays out of this: it is the independent
oracle, not a reference implementation.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsim import History, SemanticsLevel, check_level
from regsim import checkers

from dfs_search import linearize_var
from histgen import contention_history, engine_history, histories

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
