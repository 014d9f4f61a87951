"""High-level projection from records built and checked once per finished
op, against the per-leaf conversion loops it replaced.

``extract_loop.extract_high`` rebuilds every op's ``OpRecord`` from the
``HLOp`` on each call, as ``extract_history`` did before the engine built
the record when the op finished, and ``extract_loop.extract_cts`` every
``CtsOp``, as ``extract_cts_history`` did; both build their history through
the public, fully validating constructor, where the fast path only sorts
the shared records and checks what a whole history requires.  Each pair
must give equal histories, with their ops in the same order, on every
execution: of whole enumerations, of cut-short ones, of executions kept
past the end of the walk, and of seeded random runs.
"""

import dataclasses

import pytest

from regsim import (
    CtsHistory,
    CtsOp,
    History,
    HistoryError,
    OpKind,
    OpRecord,
    SemanticsLevel,
    Tag,
    build_cts,
    build_multiwriter,
    build_raw_register,
    enumerate_executions,
    extract_cts_history,
    extract_history,
    random_execution,
)
from regsim.engine import EngineError, ReadAction, ReturnAction, StepProgram, WriteAction, _Sim
from regsim.timestamp import CTS, LABELING, SCAN

from extract_loop import extract_cts, extract_high
from test_fast_paths import RANDOM, TREES


def assert_same_history(fast, ref):
    assert type(fast) is type(ref)
    assert [op.op_id for op in fast.ops] == [op.op_id for op in ref.ops]
    assert fast == ref


def assert_same_projection(e):
    if e.protocol.var_name is None:
        with pytest.raises(EngineError, match="no register variable"):
            extract_history(e)
        with pytest.raises(EngineError, match="no register variable"):
            extract_high(e)
        assert all(type(op.record) is CtsOp for op in e.ops)
        assert_same_history(extract_cts_history(e), extract_cts(e))
    else:
        assert all(type(op.record) is OpRecord for op in e.ops)
        fast = extract_history(e)
        assert_same_history(fast, extract_high(e))
        assert fast.vars is not e.protocol._high_vars
        with pytest.raises(EngineError, match="not a timestamp system"):
            extract_cts_history(e)
        with pytest.raises(EngineError, match="not a timestamp system"):
            extract_cts(e)


@pytest.mark.parametrize("name", TREES)
def test_every_enumerated_execution_projects_alike(name):
    build, workload, count, _ = TREES[name]
    res = enumerate_executions(build(), workload, visit=assert_same_projection)
    assert (res.count, res.truncated) == (count, False)


@pytest.mark.parametrize("name", RANDOM)
def test_random_executions_project_alike(name):
    build, workload, _ = RANDOM[name]
    spec = build()
    for seed in range(40):
        assert_same_projection(random_execution(spec, workload, seed))


class RereadProgram(StepProgram):
    """A raw register whose Read reads again after an odd value, so that
    executions differ in length and ``max_steps`` cuts only some."""

    def begin(self, proc, mem, kind, arg):
        if kind == "Write":
            return WriteAction(0, arg), None
        return ReadAction(0), "first"

    def resume(self, proc, mem, state, result):
        if state == "first" and result % 2:
            return ReadAction(0), "again"
        return ReturnAction(result, mem), None


@pytest.mark.parametrize("limits, cut_by", [
    ({"max_steps": 11}, ("max_steps",)),
    ({"max_executions": 500}, ("max_executions",)),
])
def test_truncated_enumeration_projects_alike(limits, cut_by):
    spec = dataclasses.replace(
        build_raw_register(2, domain=4, semantics=SemanticsLevel.REGULAR),
        program=RereadProgram(), budgets={"Write": 1, "Read": 2})
    workload = [[("Write", 1), ("Write", 2)], [("Read", None)], [("Read", None)]]
    res = enumerate_executions(spec, workload, limits, visit=assert_same_projection)
    assert res.count and res.truncated_by == cut_by


class RescanProgram(StepProgram):
    """The cts program, but a Scan whose collect saw a Labeling's tag reads
    register 0 once more before it returns, so that executions differ in
    length and ``max_steps`` cuts only some."""

    def __init__(self, inner):
        self.inner = inner

    def begin(self, proc, mem, kind, arg):
        return self.inner.begin(proc, mem, kind, arg)

    def resume(self, proc, mem, state, result):
        if state[0] == "again":
            return state[1], None
        action, nxt = self.inner.resume(proc, mem, state, result)
        if state[0] == "s" and type(action) is ReturnAction and any(e[1] for e in action.value):
            return ReadAction(0), ("again", action)
        return action, nxt


@pytest.mark.parametrize("limits, cut_by", [
    ({"max_steps": 15}, ("max_steps",)),
    ({"max_executions": 100}, ("max_executions",)),
])
def test_truncated_cts_enumeration_projects_alike(limits, cut_by):
    cts = build_cts(2)
    spec = dataclasses.replace(cts, program=RescanProgram(cts.program),
                               budgets={LABELING: 3, SCAN: 3})
    workload = [[("Labeling", 2)], [("Scan", None), ("Scan", None)]]
    lengths = set()

    def visit(e):
        lengths.add(len(e.events))
        assert_same_projection(e)

    res = enumerate_executions(spec, workload, limits, visit=visit)
    assert res.count and res.truncated_by == cut_by
    if "max_steps" in limits:
        assert lengths == {14}


@pytest.mark.parametrize("name", ["cts", "multiwriter"])
def test_runs_cut_short_project_alike(name):
    # Every prefix of a random schedule: the snapshot holds only the ops
    # finished so far.
    build, workload, _ = RANDOM[name]
    spec = build()
    for seed in range(3):
        decisions = random_execution(spec, workload, seed).decisions
        sim = _Sim(spec, workload)
        for proc, value in decisions:
            sim.apply(proc, value)
            assert_same_projection(sim.snapshot())


@pytest.mark.parametrize("name", ["multiwriter", "raw_safe", "cts"])
def test_collected_executions_project_alike_after_the_walk(name):
    # With no visitor the executions outlive the undo of every event that
    # built them; executions below one node share that node's ops, and
    # with them the records.
    build, workload, count, _ = TREES[name]
    res = enumerate_executions(build(), workload)
    assert len(res.executions) == count
    for e in res.executions:
        assert_same_projection(e)
    records = [op.record for e in res.executions for op in e.ops]
    assert len({id(r) for r in records}) < len(records)


def test_records_take_no_part_in_equality_or_repr():
    build, workload, _ = RANDOM["multiwriter"]
    e = random_execution(build(), workload, 0)
    op = e.ops[0]
    bare = dataclasses.replace(op, record=None)
    assert op.record is not None and bare == op and hash(bare) == hash(op)
    assert repr(bare) == repr(op) and "record" not in repr(op)


def test_cts_projection_needs_the_protocols_records():
    # The fast path checks no record on its own, so it takes only the
    # records of a protocol whose history kind is CTS itself: not those of
    # an equal copy of it, nor of a kind whose record builds nothing.
    build, workload, _ = RANDOM["cts"]
    for kind, record_type in ((CTS._replace(), CtsOp),
                              (CTS._replace(record=lambda *fields: None), type(None))):
        assert kind is not CTS
        spec = dataclasses.replace(build(), history=kind)
        e = random_execution(spec, workload, 0)
        assert all(type(op.record) is record_type for op in e.ops)
        with pytest.raises(EngineError, match="'cts' is not a timestamp system"):
            extract_cts_history(e)


def test_register_protocol_takes_only_reads_and_writes():
    spec = dataclasses.replace(build_multiwriter(2), budgets={"Write": 3, "Read": 2, "Scan": 2})
    with pytest.raises(EngineError, match="'Scan' is not a Read or Write of 'X'"):
        random_execution(spec, [[("Scan", None)], []], 0)


def test_fast_path_checks_what_no_record_guarantees_alone():
    # Two records that are each fine but share a step: only the history
    # can tell, and the fast path still does.
    vars = build_raw_register(1)._high_vars
    ops = [OpRecord(0, 0, "X", OpKind.WRITE, 0, 2, 1, None),
           OpRecord(1, 1, "X", OpKind.READ, 2, 3, None, 1)]
    with pytest.raises(HistoryError, match="^duplicate step index 2$"):
        History._from_records(vars, ops)
    cts = [CtsOp(0, 0, LABELING, 0, 3, 1, Tag(1, 0)), CtsOp(1, 0, SCAN, 1, 2)]
    with pytest.raises(HistoryError, match="^proc 0: ops 0 and 1 overlap$"):
        CtsHistory._from_records(2, cts)
