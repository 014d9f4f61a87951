import random

import pytest

from regsim import (
    CtsHistory,
    CtsOp,
    HistoryError,
    Label,
    LabeledObject,
    Tag,
    build_cts,
    check_cts,
    check_wait_free,
    enumerate_executions,
    extract_cts_history,
    random_execution,
    scan_order,
    tag_less,
)
from regsim.timestamp import (
    LABELING,
    SCAN,
    parse_cts_trace,
    serialize_cts_trace,
)


def obj(owner, seq, pid, payload=0):
    return LabeledObject(owner=owner, label=Label(Tag(seq, pid)), payload=payload)


# -- scan_order ---------------------------------------------------------------


def test_scan_order_sorts_by_tag():
    entries = [obj(0, 3, 0), obj(1, 1, 1), obj(2, 2, 2)]
    assert [e.owner for e in scan_order(entries)] == [1, 2, 0]


def test_scan_order_pid_tie_break():
    entries = [obj(1, 2, 1), obj(0, 2, 0)]
    assert [e.owner for e in scan_order(entries)] == [0, 1]


def test_scan_order_sorted_input_unchanged():
    entries = [obj(i, i, i) for i in range(4)]
    assert scan_order(entries) == tuple(entries)


def test_scan_order_reversed_input_fully_reversed():
    entries = [obj(i, 5 - i, i) for i in range(5)]
    assert scan_order(entries) == tuple(reversed(entries))


def test_scan_order_duplicate_owner_rejected():
    with pytest.raises(HistoryError, match="duplicate owner"):
        scan_order([obj(0, 1, 0), obj(0, 2, 0)])


# -- the construction ---------------------------------------------------------


def test_scan_after_init_reports_initial_labels():
    spec = build_cts(1)
    e = random_execution(spec, [[(SCAN, None)]], seed=0)
    h = extract_cts_history(e)
    scan = h.ops[0]
    assert scan.result == (obj(0, 0, 0, payload=0),)


def test_labeling_returns_fresh_tag_and_scan_sees_it():
    spec = build_cts(2)
    e = random_execution(spec, [[(LABELING, 4)], [(SCAN, None)]], seed=1)
    h = extract_cts_history(e)
    lab = next(o for o in h.ops if o.kind == LABELING)
    assert lab.label == Tag(1, 0) and lab.payload == 4


def test_cts_budgets_exact():
    spec = build_cts(3)
    wl = [[(LABELING, 1)], [(SCAN, None)], [(LABELING, 2), (SCAN, None)]]

    def visit(e):
        assert check_wait_free(e, {LABELING: 4, SCAN: 3}).ok
        for op in e.ops:
            assert op.base_accesses == (4 if op.kind == LABELING else 3)

    res = enumerate_executions(spec, wl, {"max_executions": 5000}, visit=visit)
    assert res.count > 0


def test_enumerated_cts_histories_pass_checker():
    spec = build_cts(2)
    wl = [[(LABELING, 1)], [(LABELING, 2), (SCAN, None)]]

    def visit(e):
        assert check_cts(extract_cts_history(e)).ok

    res = enumerate_executions(spec, wl, visit=visit)
    assert res.count > 0 and not res.truncated


def test_labels_monotone_per_process_across_executions():
    spec = build_cts(2)
    wl = [[(LABELING, 1), (LABELING, 2)], [(LABELING, 3)]]

    def visit(e):
        h = extract_cts_history(e)
        per_proc = {}
        for op in h.ops:  # start-ordered
            if op.kind == LABELING:
                prev = per_proc.get(op.proc)
                if prev is not None:
                    assert tag_less(prev, op.label)
                per_proc[op.proc] = op.label

    res = enumerate_executions(spec, wl, {"max_executions": 20000}, visit=visit)
    assert res.count > 0


# -- the checker on hand-built histories --------------------------------------


def seq_history(scan_entries):
    # L by p0 over [0,1], L by p1 over [2,3], scan over [4,5]
    return CtsHistory(
        n=2,
        ops=(
            CtsOp(op_id=0, proc=0, kind=LABELING, start=0, end=1, payload=1, label=Tag(1, 0)),
            CtsOp(op_id=1, proc=1, kind=LABELING, start=2, end=3, payload=2, label=Tag(2, 1)),
            CtsOp(op_id=2, proc=0, kind=SCAN, start=4, end=5, result=scan_entries),
        ),
    )


def test_check_cts_sequential_order_respected():
    good = seq_history((obj(0, 1, 0, 1), obj(1, 2, 1, 2)))
    assert check_cts(good).ok


def test_check_cts_rejects_inverted_scan():
    bad = seq_history((obj(1, 1, 1, 2), obj(0, 2, 0, 1)))
    v = check_cts(bad)
    assert not v.ok and v.violating_op == 2
    assert "orders proc" in v.reason


def test_check_cts_rejects_unsorted_result():
    bad = seq_history((obj(1, 2, 1, 2), obj(0, 1, 0, 1)))
    v = check_cts(bad)
    assert not v.ok and "ascending" in v.reason


def test_check_cts_rejects_incomplete_result():
    bad = seq_history((obj(0, 1, 0, 1),))
    v = check_cts(bad)
    assert not v.ok and "every process" in v.reason


def test_check_cts_rejects_nonmonotone_labels():
    h = CtsHistory(
        n=1,
        ops=(
            CtsOp(op_id=0, proc=0, kind=LABELING, start=0, end=1, payload=1, label=Tag(2, 0)),
            CtsOp(op_id=1, proc=0, kind=LABELING, start=2, end=3, payload=2, label=Tag(1, 0)),
        ),
    )
    v = check_cts(h)
    assert not v.ok and v.violating_op == 1


def test_check_cts_overlapping_labeling_relaxes_pair():
    # p1's second Labeling overlaps the scan, so the (p0, p1) pair is not
    # constrained even though their earlier Labelings are ordered.
    h = CtsHistory(
        n=2,
        ops=(
            CtsOp(op_id=0, proc=0, kind=LABELING, start=0, end=1, payload=1, label=Tag(1, 0)),
            CtsOp(op_id=1, proc=1, kind=LABELING, start=2, end=3, payload=2, label=Tag(2, 1)),
            CtsOp(op_id=2, proc=1, kind=LABELING, start=4, end=7, payload=3, label=Tag(3, 1)),
            CtsOp(op_id=3, proc=0, kind=SCAN, start=5, end=6,
                  result=(obj(1, 2, 1, 2), obj(0, 3, 0, 1))),
        ),
    )
    # Entries here are deliberately odd but sorted; the precedence condition
    # must not fire because of the overlapping Labeling.
    assert check_cts(h).ok


def test_cts_history_validation():
    with pytest.raises(HistoryError, match="overlap"):
        CtsHistory(
            n=1,
            ops=(
                CtsOp(op_id=0, proc=0, kind=LABELING, start=0, end=3, payload=1, label=Tag(1, 0)),
                CtsOp(op_id=1, proc=0, kind=SCAN, start=1, end=2, result=()),
            ),
        )
    with pytest.raises(HistoryError, match="without label"):
        CtsHistory(
            n=1,
            ops=(CtsOp(op_id=0, proc=0, kind=LABELING, start=0, end=1, payload=1),),
        )


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("field", ["op_id", "proc", "start", "end", "payload"])
def test_cts_non_integer_op_field_rejected(field, bad):
    fields = dict(op_id=1, proc=1, kind=LABELING, start=1, end=2, payload=1, label=Tag(1, 1))
    fields[field] = bad
    with pytest.raises(HistoryError, match=f"{field} {bad!r} is not an integer"):
        CtsHistory(n=2, ops=(CtsOp(**fields),))


@pytest.mark.parametrize("bad", [None, "1"])
def test_cts_non_integer_start_rejected_before_sorting(bad):
    # Sorting by start came first and raised TypeError from sorted().
    ops = (CtsOp(0, 0, LABELING, 0, 1, 1, Tag(1, 0)), CtsOp(1, 1, SCAN, bad),
           CtsOp(2, 0, SCAN, 2))
    with pytest.raises(HistoryError, match=f"op 1: start {bad!r} is not an integer"):
        CtsHistory(n=2, ops=ops)


def test_cts_overlap_and_end_take_the_register_wording():
    with pytest.raises(HistoryError, match="^proc 0: ops 0 and 1 overlap$"):
        CtsHistory(n=1, ops=(CtsOp(0, 0, SCAN, 0), CtsOp(1, 0, SCAN, 1)))
    with pytest.raises(HistoryError, match="^op 0: end 1 not after start 1$"):
        CtsHistory(n=1, ops=(CtsOp(0, 0, SCAN, 1, 1, result=()),))


@pytest.mark.parametrize("bad", [True, 2.0], ids=["bool", "float"])
def test_cts_non_integer_process_count_rejected(bad):
    # n 2.0 was accepted and serialized as {"cts":{"n":2.0}}, which no
    # reader accepts.
    with pytest.raises(HistoryError, match=f"n {bad!r} is not an integer"):
        CtsHistory(n=bad, ops=(CtsOp(0, 0, LABELING, 0, 1, 1, Tag(1, 0)),))


# -- trace codec --------------------------------------------------------------


def test_cts_trace_round_trip():
    spec = build_cts(2)
    e = random_execution(spec, [[(LABELING, 3)], [(LABELING, 5), (SCAN, None)]], seed=9)
    h = extract_cts_history(e)
    assert parse_cts_trace(serialize_cts_trace(h)) == h


def test_cts_trace_round_trip_with_pending():
    h = CtsHistory(
        n=2,
        ops=(
            CtsOp(op_id=0, proc=0, kind=LABELING, start=0, end=1, payload=1, label=Tag(1, 0)),
            CtsOp(op_id=1, proc=1, kind=LABELING, start=2, payload=2),
        ),
    )
    assert parse_cts_trace(serialize_cts_trace(h)) == h


def test_cts_trace_round_trip_on_random_executions():
    rng = random.Random(53)
    for seed in range(150):
        n = rng.randint(1, 3)
        workload = [
            [(LABELING, rng.randrange(8)) if rng.random() < 0.6 else (SCAN, None)
             for _ in range(rng.randint(0, 2))]
            for _ in range(n)
        ]
        h = extract_cts_history(random_execution(build_cts(n), workload, seed))
        assert parse_cts_trace(serialize_cts_trace(h)) == h


GOLDEN_CTS_TRACE = (
    '{"cts":{"n":2},"decisions":[[1,null]],"version":1}\n'
    '{"act":"invoke","arg":5,"kind":"L","op":0,"proc":0,"step":0}\n'
    '{"act":"invoke","kind":"S","op":1,"proc":1,"step":1}\n'
    '{"act":"respond","kind":"L","op":0,"proc":0,"ret":[1,0],"step":2}\n'
    '{"act":"invoke","arg":7,"kind":"L","op":2,"proc":0,"step":3}\n'
    '{"act":"respond","kind":"S","op":1,"proc":1,"ret":[[1,0,1,0],[0,1,0,5]],"step":4}\n'
)


def test_cts_trace_bytes_are_pinned():
    h = CtsHistory(n=2, ops=(
        CtsOp(op_id=0, proc=0, kind=LABELING, start=0, end=2, payload=5, label=Tag(1, 0)),
        CtsOp(op_id=1, proc=1, kind=SCAN, start=1, end=4, result=(obj(1, 0, 1), obj(0, 1, 0, 5))),
        CtsOp(op_id=2, proc=0, kind=LABELING, start=3, payload=7),
    ))
    assert serialize_cts_trace(h, {"decisions": [[1, None]]}) == GOLDEN_CTS_TRACE
    assert parse_cts_trace(GOLDEN_CTS_TRACE) == h
