"""High-level projection from records built once per finished op, against
the per-leaf conversion loop it replaced.

``extract_loop.extract_high`` rebuilds every op's ``OpRecord`` from the
``HLOp`` on each call, as ``extract_history`` did before the engine built
the record when the op finished.  Both must give equal Histories on every
execution: of whole enumerations, of cut-short ones, of executions kept
past the end of the walk, and of seeded random runs.
"""

import dataclasses

import pytest

from regsim import (
    SemanticsLevel,
    build_multiwriter,
    build_raw_register,
    enumerate_executions,
    extract_history,
    random_execution,
)
from regsim.engine import EngineError, ReadAction, ReturnAction, StepProgram, WriteAction

from extract_loop import extract_high
from test_fast_paths import RANDOM, TREES


def assert_same_projection(e):
    if e.protocol.var_name is None:
        with pytest.raises(EngineError, match="no register variable"):
            extract_history(e)
        with pytest.raises(EngineError, match="no register variable"):
            extract_high(e)
        assert all(op.record is None for op in e.ops)
    else:
        assert extract_history(e) == extract_high(e)


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


@pytest.mark.parametrize("name", ["multiwriter", "raw_safe"])
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


def test_register_protocol_takes_only_reads_and_writes():
    spec = dataclasses.replace(build_multiwriter(2), budgets={"Write": 3, "Read": 2, "Scan": 2})
    with pytest.raises(EngineError, match="'Scan' is not a Read or Write of 'X'"):
        random_execution(spec, [[("Scan", None)], []], 0)
