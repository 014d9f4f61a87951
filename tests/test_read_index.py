"""Regular and safe checking over indexed Writes against the per-Read rescan.

``read_scan`` keeps ``feasible_values`` and the regular/safe branch of
``check_level`` as they were when every Read rescanned the whole history.
Indexing each variable's Writes once per check must change nothing: on
every history both give the same feasible value sets, the same errors and
the same Verdicts, field for field.  The checker tests a Read's return
against ``read_window``'s pair, ``v == latest or v in others``, which builds
no value set: its answer must be membership in ``read_values``, the sets
the engine's adversary offers.  Every Write log has one format, seeded with
the initial value: the engine's per register equals ``write_index`` of the
base-scope projection at every node of a walk.
"""
import random

import dataclasses
import time

import pytest
from hypothesis import given, settings

from regsim import (
    History,
    HistoryError,
    OpKind,
    OpRecord,
    SemanticsLevel,
    VarSpec,
    build_multireader,
    build_raw_register,
    build_regular_bit,
    check_level,
    extract_history,
    feasible_values,
    random_execution,
)
from regsim import engine, history, timestamp
from regsim.checkers import bad_read
from regsim.engine import SCOPE_BASE, _Sim, enumerate_executions
from regsim.history import PENDING_END, read_values, read_window, write_index
from regsim.scenario import build_protocol

import read_scan
from histgen import engine_history, histories, tree_histories
from test_shared_ops import WORKLOADS

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


def assert_membership_alike(h: History) -> int:
    """For every completed Read of ``h`` and every value of its domain, at
    safe and at regular, ``read_window``'s rule, ``value == latest or value
    in others``, answers ``value in read_values``.  Returns the number of
    Reads."""
    writes, reads = write_index(h.vars, h.ops), 0
    for r in h.ops:
        if r.kind is OpKind.READ and r.end is not None:
            reads += 1
            spec, log = h.vars[r.var], writes[r.var]
            for level in (SemanticsLevel.SAFE, SemanticsLevel.REGULAR):
                latest, others = read_window(spec, log, r.start, r.end, level)
                values = read_values(spec, log, r.start, r.end, level)
                for value in range(spec.domain):
                    assert (value == latest or value in others) == (value in values)
    return reads


@PINNED
@given(histories(single_writer=True))
def test_read_window_is_membership_in_read_values(h):
    assert_membership_alike(h)


@pytest.mark.parametrize("scope", ["high", SCOPE_BASE])
@pytest.mark.parametrize("name", ["regular_bit", "raw_safe"])
def test_read_window_is_membership_on_every_bench_leaf(name, scope):
    hs = tree_histories(WORKLOADS[name][0], scope)
    assert len(hs) == {"regular_bit": 16258, "raw_safe": 8330}[name]
    assert sum(assert_membership_alike(h) for h in hs) > 0


PER_READ = pytest.mark.parametrize("level", [SemanticsLevel.SAFE, SemanticsLevel.REGULAR],
                                   ids=["safe", "regular"])


@PER_READ
@PINNED
@given(histories(single_writer=True))
def test_bad_read_is_check_level(level, h):
    # the one per-Read loop answers check_level and the per-Read rescan on
    # every history, whatever the order of the ops it is given: a leaf
    # gives them in finish order, a History in start order
    ok = check_level(h, level).ok
    assert ok == read_scan.check_per_read(h, level).ok
    writes = write_index(h.vars, h.ops)
    finish_order = sorted(h.ops, key=lambda o: (o.end is None, o.end))
    for ops in (h.ops, h.ops[::-1], finish_order):
        assert (bad_read(h.vars, writes, ops, level) is None) == ok
    # one writer per variable: its Writes in finish order are in start
    # order, so a leaf's records, as the leaf gives them, index alike
    assert write_index(h.vars, finish_order) == writes


@PER_READ
@pytest.mark.parametrize("name", ["regular_bit", "raw_safe"])
def test_leaf_read_judge_is_check_level_on_every_bench_leaf(name, level):
    # enumerate's judge of a leaf from its own records, in finish order,
    # the two calls check_level makes, answers check_level and the per-Read
    # rescan of the leaf's projection, on every leaf of the tree
    sc = WORKLOADS[name][0]
    executions = enumerate_executions(build_protocol(sc), sc.workload).executions
    assert len(executions) == {"regular_bit": 16258, "raw_safe": 8330}[name]
    passed = 0
    for e in executions:
        h = extract_history(e)
        ok = check_level(h, level).ok
        assert ok == read_scan.check_per_read(h, level).ok
        vars, records = e.protocol._high_vars, [op.record for op in e.ops]
        assert (bad_read(vars, write_index(vars, records), records, level) is None) == ok
        passed += ok
    # raw_safe fails regular on most leaves: both answers are exercised
    expected = {"regular_bit": {"SAFE": 16258, "REGULAR": 16258},
                "raw_safe": {"SAFE": 8330, "REGULAR": 838}}
    assert passed == expected[name][level.name]


#: Walks whose base registers are atomic (multireader), safe bits read by
#: the regular-bit protocol, and a safe register of domain 8.
WALKS = {
    "multireader": (build_multireader(2), [[("Write", 1), ("Write", 2)],
                                           [("Read", None)] * 2, [("Read", None)]]),
    "regular_bit": (build_regular_bit(2), [[("Write", 1), ("Write", 0)],
                                           [("Read", None)] * 2, [("Read", None)]]),
    "raw_safe": (build_raw_register(1, 8), [[("Write", 1), ("Write", 2), ("Write", 3)],
                                            [("Read", None)] * 2]),
}


def assert_engine_logs_indexed(sim: _Sim) -> None:
    h = extract_history(sim.snapshot(), SCOPE_BASE)
    index = write_index(h.vars, h.ops)
    for reg, log in zip(sim.regs, sim.reg_writes):
        assert log == index[reg.name]
        assert [end is PENDING_END for end in log[0]] == [
            end == PENDING_END for end in index[reg.name][0]]


@pytest.mark.parametrize("name", WALKS)
def test_engine_write_logs_are_write_index_at_every_node(name):
    # Down a seeded walk and back up it by undo: at every node each base
    # register's log, pending Write included, is the projection's.
    spec, workload = WALKS[name]
    for seed in range(200):
        rng, sim = random.Random(seed), _Sim(spec, workload)
        tokens = []
        assert_engine_logs_indexed(sim)
        while choices := sim.choices():
            tokens.append(sim.apply(*choices[rng.randrange(len(choices))]))
            assert_engine_logs_indexed(sim)
        while tokens:
            sim.undo(tokens.pop())
            assert_engine_logs_indexed(sim)


def write_op(op_id, start, end, arg):
    return OpRecord(op_id, 0, "x", OpKind.WRITE, start, end, arg)


def read_op(op_id, start, end, ret):
    return OpRecord(op_id, 1, "x", OpKind.READ, start, end, None, ret)


SPEC = VarSpec(domain=4, init=3, writers=frozenset({0}), readers=frozenset({1}))


def test_a_variable_with_no_writes_has_the_seeded_log():
    h = History(vars={"x": SPEC, "y": dataclasses.replace(SPEC, init=1)},
                ops=(read_op(0, 0, 1, 3),))
    assert write_index(h.vars, h.ops) == {"x": ([-1], [-2], [3]), "y": ([-1], [-2], [1])}


def test_a_pending_writes_end_is_the_one_shared_object():
    h = History(vars={"x": SPEC}, ops=(write_op(0, 0, 1, 1), write_op(1, 2, None, 2)))
    assert write_index(h.vars, h.ops)["x"] == ([-1, 1, PENDING_END], [-2, 0, 2], [3, 1, 2])
    assert write_index(h.vars, h.ops)["x"][0][2] is PENDING_END
    assert engine.PENDING_END is history.PENDING_END is timestamp.PENDING_END
    spec, workload = WALKS["raw_safe"]
    sim = _Sim(spec, workload)
    sim.apply(0, None)  # the Write begins and invokes its base Write
    assert sim.reg_writes[0][0][-1] is PENDING_END


@pytest.mark.parametrize("level", [SemanticsLevel.SAFE, SemanticsLevel.REGULAR],
                         ids=["safe", "regular"])
def test_a_read_before_every_write_ends_reads_the_initial_value(level):
    # Write 0 spans steps 2-5; Read 1 ends before it starts and Read 2
    # starts before it ends: both have the initial value as their latest.
    h = History(vars={"x": SPEC}, ops=(
        write_op(0, 2, 5, 1), read_op(1, 0, 1, 3), read_op(2, 3, 6, 1)))
    log = write_index(h.vars, h.ops)["x"]
    assert read_window(SPEC, log, 0, 1, level) == (3, ())
    overlapping = range(4) if level is SemanticsLevel.SAFE else [1]
    assert read_window(SPEC, log, 3, 6, level) == (3, overlapping)
    assert check_level(h, level).ok
    assert read_values(SPEC, log, 3, 6, level) == (
        range(4) if level is SemanticsLevel.SAFE else (1, 3))
