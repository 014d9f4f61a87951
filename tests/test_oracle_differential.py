"""The prefix-pruned oracle against the plain permutation oracle.

``oracle_perm.brute_force_atomic`` permutes every variable's ops outright.
``regsim.brute_force_atomic`` builds the orders one op at a time and drops a
failing prefix together with every order that extends it.  A prefix fails
on conditions that read the prefix alone, so both accept the same orders:
on every history they must return the same verdict, and on a history over
the oracle's size limit raise the same message.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings

from regsim import History, HistoryError, OpKind, OpRecord, VarSpec, brute_force_atomic
from regsim.checkers import BRUTE_FORCE_LIMIT

import oracle_perm
from histgen import contention_history, corpus_histories, histories, random_single_writer_history

PINNED = settings(derandomize=True, deadline=None, max_examples=300)


def assert_same_verdict(h: History) -> bool:
    verdict = brute_force_atomic(h)
    assert verdict is oracle_perm.brute_force_atomic(h)
    return verdict


@PINNED
@given(histories(max_ops=BRUTE_FORCE_LIMIT))
def test_oracles_agree_on_generated_histories(h):
    assert_same_verdict(h)


@PINNED
@given(histories(max_ops=BRUTE_FORCE_LIMIT, max_domain=2))
def test_oracles_agree_with_repeated_write_values(h):
    assert_same_verdict(h)


def test_oracles_agree_on_the_four_op_corpus():
    count = 0
    for h in corpus_histories(4):
        assert_same_verdict(h)
        count += 1
    assert count == 16_461


def test_oracles_agree_on_eight_op_histories():
    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    # Single-writer histories with all eight ops completed, until each
    # verdict has been seen 15 times.
    while min(verdicts.values()) < 15:
        h = random_single_writer_history(rng, max_ops=BRUTE_FORCE_LIMIT)
        if sum(o.completed for o in h.ops) == BRUTE_FORCE_LIMIT:
            verdicts[assert_same_verdict(h)] += 1
    # Six concurrent Writes and two Reads of different values fail; with the
    # second Read returning the first's value they pass.
    for _ in range(10):
        h = contention_history(rng, 6)
        assert len(h.ops) == BRUTE_FORCE_LIMIT
        assert assert_same_verdict(h) is False
        *ops, last = h.ops
        h = History(vars=h.vars, ops=(*ops, dataclasses.replace(last, ret=ops[-1].ret)))
        assert assert_same_verdict(h) is True


def op(op_id, proc, kind, start, end, value, var="x"):
    write = kind == "W"
    return OpRecord(op_id, proc, var, OpKind.WRITE if write else OpKind.READ, start, end,
                    value if write else None, None if write or end is None else value)


def history(*ops, writers=(0, 1, 2), readers=(0, 3), names=("x",)):
    spec = VarSpec(domain=4, init=0, writers=frozenset(writers), readers=frozenset(readers))
    return History(vars={name: spec for name in names}, ops=ops)


def eight_done_two_pending(pending_start):
    """Process 0 writes 1, 2, 1, 2, reading each back, then reads 3;
    process 2 leaves a Write of 1 pending from step 2, and process 1 a Write
    of 3 from step ``pending_start``."""
    done = [op(i, 0, "W" if i % 2 == 0 else "R", 3 * i, 3 * i + 1, 1 + i // 2 % 2)
            for i in range(7)]
    return history(*done, op(7, 0, "R", 21, 22, 3), op(8, 2, "W", 2, None, 1),
                   op(9, 1, "W", pending_start, None, 3))


@pytest.mark.parametrize("h, expected", [
    (history(), True),
    (History(vars={}), True),
    (history(op(0, 3, "R", 0, None, None)), True),
    (history(op(0, 1, "W", 0, None, 1), op(1, 2, "W", 1, None, 2)), True),
    # A variable whose only op is a pending Read has one order, the empty one.
    (history(op(0, 0, "W", 0, 1, 1), op(1, 3, "R", 2, 3, 1), op(2, 0, "R", 4, None, None, "y"),
             names=("x", "y")), True),
    (history(op(0, 0, "W", 0, 1, 1), op(1, 3, "R", 2, 3, 2), op(2, 0, "R", 4, None, None, "y"),
             names=("x", "y")), False),
    # The pending Write of 3 must be placed, just before the last Read ...
    (eight_done_two_pending(20), True),
    # ... and cannot be once that Read ends before it starts.
    (eight_done_two_pending(23), False),
], ids=["empty", "no-vars", "pending-read", "pending-writes", "pending-read-var",
        "pending-read-var-fails", "eight-done-two-pending", "eight-done-two-pending-fails"])
def test_oracles_agree_on_edge_cases(h, expected):
    assert sum(o.completed for o in h.ops if o.var == "x") <= BRUTE_FORCE_LIMIT
    assert assert_same_verdict(h) is expected


def test_oracles_raise_alike_over_the_limit():
    nine = [op(i, 0, "W", 2 * i, 2 * i + 1, 1) for i in range(BRUTE_FORCE_LIMIT + 1)]
    for h in (history(*nine),
              history(*nine, op(9, 3, "R", 100, 101, 0, "y"), names=("x", "y"))):
        messages = []
        for oracle in (brute_force_atomic, oracle_perm.brute_force_atomic):
            with pytest.raises(HistoryError, match="oracle limit") as exc:
                oracle(h)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == "var 'x': 9 completed ops exceed oracle limit 8"
