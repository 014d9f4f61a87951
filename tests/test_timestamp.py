import dataclasses
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
    run_schedule,
    scan_order,
    tag_less,
)
from regsim.engine import ReturnAction, StepProgram
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


class BadReturnCts(StepProgram):
    """The cts program, with each op of ``kind`` returning ``bad`` in place
    of its own return."""

    def __init__(self, inner, kind, bad):
        self.inner, self.kind, self.bad = inner, kind, bad

    def _swap(self, kind, step):
        action, state = step
        if kind == self.kind and type(action) is ReturnAction:
            action = ReturnAction(self.bad, action.memory)
        return action, (kind, state)

    def begin(self, proc, mem, kind, arg):
        return self._swap(kind, self.inner.begin(proc, mem, kind, arg))

    def resume(self, proc, mem, state, result):
        kind, state = state
        return self._swap(kind, self.inner.resume(proc, mem, state, result))


def with_bad_return(spec, kind, bad):
    return dataclasses.replace(spec, program=BadReturnCts(spec.program, kind, bad))


NOT_AN_ENTRY = " is not 4 integers (owner, seq, pid, payload)"
NOT_A_LABEL = " is not 2 integers (seq, pid)"

#: A cts return that no trace could carry: (the op kind that returns it,
#: the return, the message CtsHistory gives its record as op 0).
BAD_CTS_RETURNS = {
    "payload_bool": (SCAN, ((0, 0, 0, True), (1, 0, 1, 0)),
                     "op 0: Scan entry (0, 0, 0, True)" + NOT_AN_ENTRY),
    "owner_float": (SCAN, ((0.0, 0, 0, 0), (1, 0, 1, 0)),
                    "op 0: Scan entry (0.0, 0, 0, 0)" + NOT_AN_ENTRY),
    "entry_of_three": (SCAN, ((0, 0, 0), (1, 0, 1, 0)), "op 0: Scan entry (0, 0, 0)" + NOT_AN_ENTRY),
    "entry_list": (SCAN, ((1, 0, 1, 0), [0, 0, 0, 0]),
                   "op 0: Scan entry [0, 0, 0, 0]" + NOT_AN_ENTRY),
    "result_list": (SCAN, [(0, 0, 0, 0), (1, 0, 1, 0)],
                    "op 0: Scan result [(0, 0, 0, 0), (1, 0, 1, 0)] is not a tuple"),
    "result_none": (SCAN, None, "op 0: completed Scan without result"),
    "seq_half": (LABELING, (0.5, 0), "op 0: label (0.5, 0)" + NOT_A_LABEL),
    "pid_bool": (LABELING, (1, False), "op 0: label (1, False)" + NOT_A_LABEL),
    "label_of_three": (LABELING, (1, 0, 0), "op 0: label (1, 0, 0)" + NOT_A_LABEL),
    "label_int": (LABELING, 1, "op 0: label 1" + NOT_A_LABEL),
}


def bad_cts_workload(kind):
    return [[(kind, 1 if kind == LABELING else None)], []]


@pytest.mark.parametrize("entry", ["run_schedule", "random_execution", "enumerate_executions"])
@pytest.mark.parametrize("case", BAD_CTS_RETURNS)
def test_bad_cts_return_refused_when_the_op_finishes(case, entry):
    # Such a return once got a record, and simulate wrote a trace that
    # parse_cts_trace refused (or, for an entry of three, a bare ValueError).
    kind, bad, message = BAD_CTS_RETURNS[case]
    spec, wl = with_bad_return(build_cts(2), kind, bad), bad_cts_workload(kind)
    # Two events per base access: a Labeling reads both registers and
    # writes its own, a Scan reads both.
    steps = 6 if kind == LABELING else 4
    run = {
        "run_schedule": lambda: run_schedule(spec, wl, [(0, None)] * steps),
        "random_execution": lambda: random_execution(spec, wl, 0),
        "enumerate_executions": lambda: enumerate_executions(spec, wl),
    }[entry]
    with pytest.raises(HistoryError) as raised:
        run()
    assert str(raised.value) == message


def test_well_formed_cts_returns_of_any_tuple_type_are_recorded():
    # A NamedTuple is a tuple: a Labeling may return its Tag as it is.
    spec = with_bad_return(build_cts(2), LABELING, Tag(3, 0))
    h = extract_cts_history(random_execution(spec, bad_cts_workload(LABELING), 0))
    assert h.ops[0].label == Tag(3, 0)
    assert parse_cts_trace(serialize_cts_trace(h)) == h


@pytest.mark.parametrize("op, message", [
    (CtsOp(0, 0, LABELING, 0, 1, 1, Tag(1, True)), "op 0: label Tag(seq=1, pid=True)" + NOT_A_LABEL),
    (CtsOp(0, 0, SCAN, 0, 1, result=(obj(0, 0.5, 0),)),
     "op 0: Scan entry LabeledObject(owner=0, label=Label(tag=Tag(seq=0.5, pid=0)), payload=0)"
     + NOT_AN_ENTRY),
    (CtsOp(0, 0, SCAN, 0, 1, result=(obj(0, 1, 0, True),)),
     "op 0: Scan entry LabeledObject(owner=0, label=Label(tag=Tag(seq=1, pid=0)), payload=True)"
     + NOT_AN_ENTRY),
    (CtsOp(0, 0, SCAN, 0, 1, result=[obj(0, 1, 0)]),
     "op 0: Scan result [LabeledObject(owner=0, label=Label(tag=Tag(seq=1, pid=0)), payload=0)]"
     " is not a tuple"),
    (CtsOp(0, 0, SCAN, 0, 1, result=(LabeledObject(0, Tag(1, 0), 0),)),
     "op 0: Scan entry LabeledObject(owner=0, label=Tag(seq=1, pid=0), payload=0)" + NOT_AN_ENTRY),
    (CtsOp(0, 0, SCAN, 0, 1, result=((0, 1, 0, 0), (1, 2, 1, 0))),
     "op 0: Scan entry (0, 1, 0, 0) is not a LabeledObject"),
    (CtsOp(0, 0, SCAN, 0, 1, result=(obj(0, 1, 0), (1, 2, 1, 0))),
     "op 0: Scan entry (1, 2, 1, 0) is not a LabeledObject"),
    (CtsOp(0, 0, LABELING, 0, 1, 1, (1, 0)), "op 0: label (1, 0) is not a Tag"),
], ids=["label", "entry_seq", "entry_payload", "result_list", "entry_label_not_a_label",
        "entry_tuple", "entry_tuple_after_an_object", "label_tuple"])
def test_cts_history_refuses_an_outcome_no_trace_can_carry(op, message):
    # serialize_cts_trace once wrote "ret":[1,true], which parse_cts_trace
    # refuses; check_cts judged a list result out of order, and ended in an
    # AttributeError on an entry whose label is not a Label.  A plain tuple
    # as a Scan entry or a label was held, and check_cts or
    # serialize_cts_trace then ended in an AttributeError ('tuple' object
    # has no attribute 'owner' / 'seq').  A tuple of the right ints is
    # refused for its type, and once was told it is not that many ints.
    with pytest.raises(HistoryError) as raised:
        CtsHistory(n=1, ops=(op,))
    assert str(raised.value) == message


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
