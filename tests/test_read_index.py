"""Regular and safe checking over indexed Writes against the per-Read rescan.

``read_scan`` keeps ``feasible_values`` and the regular/safe branch of
``check_level`` as they were when every Read rescanned the whole history.
Indexing each variable's Writes once per check must change nothing: on
every history both give the same feasible value sets, the same errors and
the same Verdicts, field for field.
"""

import dataclasses
import time

import pytest
from hypothesis import given, settings

from regsim import (
    History,
    HistoryError,
    OpKind,
    SemanticsLevel,
    build_multireader,
    check_level,
    extract_history,
    feasible_values,
    random_execution,
)

import read_scan
from histgen import engine_history, histories

PINNED = settings(derandomize=True, deadline=None, max_examples=300)
LEVELS = (SemanticsLevel.SAFE, SemanticsLevel.REGULAR, SemanticsLevel.ATOMIC)


def outcome(f, *args):
    try:
        return f(*args)
    except HistoryError as e:
        return type(e), str(e)


def assert_same_checks(h):
    for level in LEVELS:
        for r in h.ops:
            assert outcome(feasible_values, h, r, level) == outcome(
                read_scan.feasible_values, h, r, level)
    for level in LEVELS[:2]:
        assert outcome(check_level, h, level) == outcome(read_scan.check_per_read, h, level)


@PINNED
@given(histories(single_writer=True))
def test_single_writer_histories_checked_alike(h):
    assert_same_checks(h)


@PINNED
@given(histories(max_domain=2, single_writer=True))
def test_single_writer_histories_with_repeated_values_checked_alike(h):
    assert_same_checks(h)


@PINNED
@given(histories())
def test_multiwriter_histories_rejected_alike(h):
    assert_same_checks(h)


@pytest.mark.parametrize("cut", [False, True], ids=["complete", "cut"])
def test_long_multireader_histories_checked_alike(cut):
    for seed in range(4):
        h = engine_history("multireader", seed, cut)
        assert_same_checks(h)
        # a Read returning a value no Write wrote fails there, alike
        r = next(o for o in h.ops if o.kind is OpKind.READ and o.end is not None)
        bad = History(vars=h.vars, ops=tuple(
            dataclasses.replace(o, ret=5) if o is r else o for o in h.ops))
        assert_same_checks(bad)
        assert check_level(bad, SemanticsLevel.REGULAR).violating_op == r.op_id


def test_stray_op_rejected_alike():
    h = engine_history("multireader", 0)
    stray = next(o for o in engine_history("multireader", 1).ops
                 if o.kind is OpKind.READ and o not in h.ops)
    for level in LEVELS:
        assert outcome(feasible_values, h, stray, level) == outcome(
            read_scan.feasible_values, h, stray, level)
        assert outcome(feasible_values, h, stray, level)[0] is HistoryError


def test_six_thousand_op_history_checks_in_seconds():
    # 1,500 Writes and 3 x 1,500 Reads.  Before Writes were indexed and the
    # search windowed, the three levels took about 28 s together (2 shared
    # cores, Python 3.11), the search 3 s of that.
    spec = build_multireader(3)
    workload = [[("Write", 1 + i % 7) for i in range(1500)]] + [[("Read", None)] * 1500] * 3
    h = extract_history(random_execution(spec, workload, seed=6000))
    assert len(h.ops) == 6000
    t = time.perf_counter()
    for level in (SemanticsLevel.ATOMIC, SemanticsLevel.REGULAR, SemanticsLevel.SAFE):
        assert check_level(h, level).ok
    assert time.perf_counter() - t < 5
