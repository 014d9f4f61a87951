"""Hand-built histories with known verdicts for the benchmark's reference.

    python3 -m pytest bench/test_reference.py      (or run it directly)

Ops are ``(op_id, proc, kind, start, end, value)``; init is 0.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402

# Write(1) by p0 over [0, 5]; p1 reads over [1, 2] (overlapped) and then
# over [6, 7] (after the Write).
OVERLAPPED = [(0, 0, "W", 0, 5, 1), (1, 1, "R", 1, 2, None), (2, 1, "R", 6, 7, None)]


def with_reads(first, second):
    ops = list(OVERLAPPED)
    ops[1] = ops[1][:5] + (first,)
    ops[2] = ops[2][:5] + (second,)
    return ops


def test_overlapped_read_levels():
    # new value, then new value: atomic
    assert ref.per_read_ok(with_reads(1, 1), "regular", 0, 4)
    assert ref.atomic_exists(with_reads(1, 1), 0)
    # old value while overlapped: still atomic (Write linearized later)
    assert ref.atomic_exists(with_reads(0, 1), 0)
    # a value nobody wrote while overlapped: safe but not regular
    assert ref.per_read_ok(with_reads(3, 1), "safe", 0, 4)
    assert not ref.per_read_ok(with_reads(3, 1), "regular", 0, 4)
    assert not ref.atomic_exists(with_reads(3, 1), 0)
    # a stale value after the Write completed: not even safe
    assert not ref.per_read_ok(with_reads(1, 0), "safe", 0, 4)


def test_new_old_inversion_is_regular_but_not_atomic():
    # Write(1) over [0, 9]; p1 reads 1 over [1, 2]; p2 reads 0 over [3, 4].
    ops = [(0, 0, "W", 0, 9, 1), (1, 1, "R", 1, 2, 1), (2, 2, "R", 3, 4, 0)]
    assert ref.per_read_ok(ops, "regular", 0, 2)
    assert not ref.atomic_exists(ops, 0)


def test_replay_linearization():
    ops = with_reads(0, 1)
    assert ref.replay_linearization(ops, [1, 0, 2], 0)
    assert not ref.replay_linearization(ops, [0, 1, 2], 0)  # Read 1 sees 1, returned 0
    assert not ref.replay_linearization(ops, [1, 2, 0], 0)  # Read 2 returns 1 before the Write
    assert not ref.replay_linearization(ops, [1, 0], 0)  # completed op missing
    assert not ref.replay_linearization(ops, [2, 1, 0], 0)  # breaks precedence


def test_pending_write_may_be_linearized_or_not():
    ops = [(0, 0, "W", 0, None, 1), (1, 1, "R", 1, 2, 1), (2, 1, "R", 3, 4, 1)]
    assert ref.atomic_exists(ops, 0)
    assert ref.replay_linearization(ops, [0, 1, 2], 0)
    assert ref.atomic_exists([(0, 0, "W", 0, None, 1), (1, 1, "R", 1, 2, 0)], 0)
    # a pending Read is never placed
    assert not ref.replay_linearization([(0, 1, "R", 0, None, None)], [0], 0)


def test_contention_has_no_linearization():
    # three concurrent Writes, then two sequential Reads of different values
    ops = [(0, 0, "W", 0, 3, 1), (1, 1, "W", 1, 4, 2), (2, 2, "W", 2, 5, 3),
           (3, 3, "R", 6, 7, 2), (4, 3, "R", 8, 9, 3)]
    assert not ref.atomic_exists(ops, 0)
    ops[4] = (4, 3, "R", 8, 9, 2)
    assert ref.atomic_exists(ops, 0)


def test_history_key_ignores_step_numbering_and_op_ids():
    a = [(0, 0, "W", 0, 5, 1), (1, 1, "R", 1, 2, 0)]
    b = [(7, 0, "W", 10, 50, 1), (3, 1, "R", 20, 30, 0)]
    assert ref.history_key(a) == ref.history_key(b)
    c = [(0, 0, "W", 0, 1, 1), (1, 1, "R", 2, 3, 0)]  # now the Write precedes
    assert ref.history_key(a) != ref.history_key(c)


def test_expected_execution_counts():
    assert ref.atomic_base_executions("multiwriter", 2, [["Write"], ["Write", "Read"]]) == 8008
    assert ref.atomic_base_executions("cts", 2, [["Labeling"], ["Labeling", "Scan"]]) == 8008
    assert ref.atomic_base_executions(
        "multireader_nowriteback", 2, [["Write"], ["Read"], ["Read"]]) == 34650
    # one safe Write against one Read: 6 interleavings; the Read overlaps
    # the Write in 4 of them and then branches over both bit values.
    assert ref.weak_base_executions([["W"], ["R"]], 2) == 2 + 4 * 2


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
    print("reference tests passed")
