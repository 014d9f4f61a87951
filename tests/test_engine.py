import dataclasses
import math
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from regsim import (
    BaseRegisterSpec,
    History,
    HistoryError,
    OpKind,
    OpRecord,
    ProtocolSpec,
    SemanticsLevel,
    build_cts,
    build_multireader,
    build_multiwriter,
    build_raw_register,
    check_level,
    enumerate_executions,
    extract_history,
    random_execution,
    run_schedule,
)
from regsim.engine import (
    EngineError,
    InvalidDecision,
    ReadAction,
    ReturnAction,
    StepProgram,
    WriteAction,
    _Sim,
    enumeration_limits,
    max_accesses,
)
from regsim.scenario import build_protocol, load_scenario, scenario_from_dict

from plain_walk import plain_leaves, recursive_enumeration
from test_leaf_verdicts import reread_protocol


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def atomic_bit(n_readers=1):
    return build_raw_register(n_readers, domain=2, semantics=SemanticsLevel.ATOMIC)


def safe_bit(n_readers=1):
    return build_raw_register(n_readers, domain=2, semantics=SemanticsLevel.SAFE)


def per_register_history(h: History, name: str) -> History:
    return History(vars={name: h.vars[name]}, ops=h.ops_on(name))


# -- run_schedule -----------------------------------------------------------


def test_single_write_only_schedule():
    spec = atomic_bit()
    e = run_schedule(spec, [[("Write", 1)], []], [(0, None), (0, None)])
    assert len(e.events) == 2
    base = extract_history(e, "base")
    write = base.ops[0]
    assert write.kind is OpKind.WRITE and write.arg == 1 and write.completed


def test_run_schedule_deterministic_replay():
    spec = build_multiwriter(2)
    wl = [[("Write", 1)], [("Write", 2), ("Read", None)]]
    decisions = random_execution(spec, wl, seed=3).decisions
    assert run_schedule(spec, wl, decisions) == run_schedule(spec, wl, decisions)


def test_adversary_can_fail_regular_on_safe_bit():
    # Write 0 over initial 0; an overlapped read may still return 1 on a
    # safe bit, and the resulting base history is safe but not regular.
    spec = safe_bit()
    decisions = [(0, None), (1, None), (1, 1), (0, None)]
    e = run_schedule(spec, [[("Write", 0)], [("Read", None)]], decisions)
    base = extract_history(e, "base")
    assert check_level(base, SemanticsLevel.SAFE).ok
    assert not check_level(base, SemanticsLevel.REGULAR).ok


def test_invalid_decisions_rejected():
    spec = atomic_bit()
    wl = [[("Write", 1)], []]
    with pytest.raises(InvalidDecision, match="no pending step"):
        run_schedule(spec, wl, [(1, None)])
    with pytest.raises(InvalidDecision, match="unexpected adversary value"):
        run_schedule(spec, wl, [(0, 1)])
    with pytest.raises(InvalidDecision, match="ends before"):
        run_schedule(spec, wl, [(0, None)])
    safe = safe_bit()
    wl2 = [[("Write", 0)], [("Read", None)]]
    with pytest.raises(InvalidDecision, match="not feasible"):
        run_schedule(safe, wl2, [(0, None), (1, None), (1, 7), (0, None)])
    with pytest.raises(InvalidDecision, match="value required"):
        run_schedule(safe, wl2, [(0, None), (1, None), (1, None), (0, None)])


@pytest.mark.parametrize("bad", [True, 1.0])
def test_decision_process_must_be_an_exact_int(bad):
    # True and 1.0 compare equal to process 1 but name no choice.
    wl = [[("Write", 1)], [("Read", None)]]
    with pytest.raises(InvalidDecision, match=f"process {bad!r} is not an integer"):
        run_schedule(atomic_bit(), wl, [(0, None), (0, None), (bad, None), (1, None)])


@pytest.mark.parametrize("bad", [True, 1.0])
def test_adversary_value_must_be_an_exact_int(bad):
    # On a safe overlap True and 1.0 pass ``in range(2)``; refused as a
    # decision, not later as the protocol's bad Read return.
    wl = [[("Write", 0)], [("Read", None)]]
    with pytest.raises(InvalidDecision, match=f"process 1: value {bad!r} is not an integer"):
        run_schedule(safe_bit(), wl, [(0, None), (1, None), (1, bad), (0, None)])


def test_run_schedule_rejects_value_outside_regular_set():
    # The Read overlaps no Write, so a regular base register must return
    # the initial value; any other, inside the domain, is refused.
    spec = build_raw_register(1, domain=3, semantics=SemanticsLevel.REGULAR)
    wl = [[("Write", 2)], [("Read", None)]]
    with pytest.raises(InvalidDecision, match="value 1 not feasible"):
        run_schedule(spec, wl, [(1, None), (1, 1), (0, None), (0, None)])
    e = run_schedule(spec, wl, [(1, None), (1, 0), (0, None), (0, None)])
    assert [op.ret for op in e.ops] == [0, None]


def test_workload_validation():
    spec = atomic_bit()
    with pytest.raises(EngineError, match="workload lists"):
        run_schedule(spec, [[("Write", 1)]], [])
    with pytest.raises(EngineError, match="unknown operation kind"):
        run_schedule(spec, [[("Scan", None)], []], [])


# -- enumeration ------------------------------------------------------------


def test_two_atomic_base_ops_enumerate_to_interleaving_count():
    # Two processes, one base access each: 4 scheduler events, and the
    # distinct interleavings are C(4,2) (commit placements are merged).
    spec = atomic_bit()
    res = enumerate_executions(spec, [[("Write", 1)], [("Read", None)]])
    assert res.count == math.comb(4, 2)
    assert not res.truncated and res.truncated_by == ()
    assert len(res.executions) == res.count
    assert len({e.decisions for e in res.executions}) == res.count


def test_single_op_single_execution():
    spec = atomic_bit()
    res = enumerate_executions(spec, [[("Write", 1)], []])
    assert res.count == 1


def test_enumeration_truncates_at_max_executions():
    spec = atomic_bit()
    res = enumerate_executions(
        spec, [[("Write", 1)], [("Read", None)]], {"max_executions": 1}
    )
    assert res.count == 1 and res.truncated
    assert res.truncated_by == ("max_executions",)


def test_enumeration_truncates_at_max_steps():
    spec = atomic_bit()
    res = enumerate_executions(
        spec, [[("Write", 1)], [("Read", None)]], {"max_steps": 2}
    )
    assert res.count == 0 and res.truncated
    assert res.truncated_by == ("max_steps",)


@pytest.mark.parametrize("key", ["max_executions", "max_steps"])
@pytest.mark.parametrize("bad", [0, -1, 2.5, True, "3"])
def test_enumeration_refuses_a_limit_below_one_or_not_an_int(key, bad):
    # each once ran: 0 and -1 as an empty truncated tree, 2.5 as 2, True as 1
    with pytest.raises(EngineError, match=rf"^limit {key} {re.escape(repr(bad))} "
                                          r"is not an integer >= 1$"):
        enumerate_executions(atomic_bit(), [[("Write", 1)], [("Read", None)]], {key: bad})


def test_visitor_early_stop():
    spec = atomic_bit()
    seen = []

    def visit(e):
        seen.append(e)
        return False

    res = enumerate_executions(spec, [[("Write", 1)], [("Read", None)]], visit=visit)
    assert res.stopped and res.count == 1 and len(seen) == 1
    assert res.executions == ()


def test_unknown_limit_key_rejected():
    with pytest.raises(EngineError, match="unknown limit"):
        enumerate_executions(atomic_bit(), [[], []], {"max_depth": 3})


def test_safe_read_adversary_branches_cover_feasible_set():
    # Overlapped read on a safe bit: both values must appear somewhere in
    # the enumeration, and only when the read overlaps the write.
    spec = safe_bit()
    rets = set()
    overlapped_rets = set()

    def visit(e):
        h = extract_history(e, "high")
        write = next(o for o in h.ops if o.kind is OpKind.WRITE)
        read = next(o for o in h.ops if o.kind is OpKind.READ)
        rets.add(read.ret)
        if not (write.end < read.start or read.end < write.start):
            overlapped_rets.add(read.ret)

    enumerate_executions(spec, [[("Write", 0)], [("Read", None)]], visit=visit)
    assert rets == {0, 1}
    assert overlapped_rets == {0, 1}


def test_regular_read_adversary_limited_to_regular_set():
    spec = build_raw_register(1, domain=4, semantics=SemanticsLevel.REGULAR)
    rets = set()

    def visit(e):
        h = extract_history(e, "high")
        read = next(o for o in h.ops if o.kind is OpKind.READ)
        rets.add(read.ret)

    enumerate_executions(spec, [[("Write", 3)], [("Read", None)]], visit=visit)
    # Previous value 0 or the overlapping/preceding write's 3; never 1 or 2.
    assert rets == {0, 3}


# -- random runs ------------------------------------------------------------


def test_random_execution_seed_determinism():
    spec = build_multiwriter(2)
    wl = [[("Write", 1)], [("Write", 2), ("Read", None)]]
    assert random_execution(spec, wl, 0) == random_execution(spec, wl, 0)
    runs = {random_execution(spec, wl, s).decisions for s in range(20)}
    assert len(runs) > 1


def test_thousand_seeds_of_multiwriter_all_atomic():
    spec = build_multiwriter(2)
    wl = [[("Write", 1)], [("Write", 2), ("Read", None)]]
    for seed in range(1000):
        h = extract_history(random_execution(spec, wl, seed), "high")
        assert check_level(h, SemanticsLevel.ATOMIC).ok


def test_random_seed_stream_hits_both_safe_adversary_branches():
    spec = safe_bit()
    wl = [[("Write", 0)], [("Read", None)]]
    rets = set()
    for seed in range(100):
        e = random_execution(spec, wl, seed)
        h = extract_history(e, "high")
        rets.add(next(o for o in h.ops if o.kind is OpKind.READ).ret)
        if rets == {0, 1}:
            break
    assert rets == {0, 1}


# -- extraction -------------------------------------------------------------


def test_extract_high_single_write():
    spec = atomic_bit()
    e = random_execution(spec, [[("Write", 1)], []], seed=0)
    h = extract_history(e, "high")
    assert len(h.ops) == 1
    assert h.ops[0].kind is OpKind.WRITE and h.ops[0].arg == 1


def test_extract_base_multiwriter_write_has_n_plus_one_records():
    spec = build_multiwriter(3)
    e = random_execution(spec, [[("Write", 1)], [], []], seed=0)
    base = extract_history(e, "base")
    assert len(base.ops) == 4  # n collect-reads plus one write
    assert sum(1 for o in base.ops if o.kind is OpKind.WRITE) == 1


def test_extracted_histories_satisfy_invariants_and_base_semantics():
    # History construction validates invariants; also every base register's
    # own history must pass the register's declared level.
    specs = [
        (safe_bit(), [[("Write", 0), ("Write", 1)], [("Read", None)]]),
        (build_raw_register(1, domain=3, semantics=SemanticsLevel.REGULAR),
         [[("Write", 2)], [("Read", None), ("Read", None)]]),
        (build_multiwriter(2), [[("Write", 1)], [("Write", 2), ("Read", None)]]),
    ]
    for spec, wl in specs:
        def visit(e, spec=spec):
            high = extract_history(e, "high") if spec.var_name else None
            base = extract_history(e, "base")
            for reg in spec.registers:
                sub = per_register_history(base, reg.name)
                assert check_level(sub, reg.semantics).ok
            assert high is None or isinstance(high, History)

        res = enumerate_executions(spec, wl, {"max_executions": 3000}, visit=visit)
        assert res.count > 0


def test_zero_access_op_gets_bookkeeping_interval():
    from regsim import build_regular_bit

    spec = build_regular_bit(1)
    e = random_execution(spec, [[("Write", 0)], []], seed=1)
    op = e.ops[0]
    assert op.base_accesses == 0
    assert op.start < op.end
    h = extract_history(e, "high")
    assert len(h.ops) == 1


def test_budget_guard_catches_lying_protocols():
    import dataclasses

    spec = build_multiwriter(2)
    lying = dataclasses.replace(spec, budgets={"Write": 1, "Read": 2})
    with pytest.raises(EngineError, match="exceeded declared budget"):
        random_execution(lying, [[("Write", 1)], []], seed=0)


def test_max_accesses_aggregation():
    spec = build_multiwriter(2)
    res = enumerate_executions(
        spec, [[("Write", 1)], [("Read", None)]], {"max_executions": 50}
    )
    assert max_accesses(res.executions) == {"Write": 3, "Read": 2}


def test_max_accesses_folds_into_a_running_tally():
    spec = build_multiwriter(2)
    res = enumerate_executions(spec, [[("Write", 1)], [("Read", None)]], {"max_executions": 50})
    tally: dict[str, int] = {}
    for e in res.executions:
        assert max_accesses((e,), tally) is tally
    assert tally == max_accesses(res.executions) == {"Write": 3, "Read": 2}


def test_decision_log_replays_to_same_execution():
    spec = build_multireader(2)
    wl = [[("Write", 1)], [("Read", None)], [("Read", None)]]
    for seed in range(5):
        e = random_execution(spec, wl, seed)
        assert run_schedule(spec, wl, e.decisions) == e


def test_sim_choice_order_deterministic():
    spec = safe_bit()
    sim = _Sim(spec, [[("Write", 0)], [("Read", None)]])
    assert sim.choices() == [(0, None), (1, None)]


def test_safe_branch_kept_lazy_in_flattened_order():
    # Two readers of a safe register overlap its pending Write: the node's
    # decisions are the writer's step, then each reader's whole domain.
    spec = build_raw_register(2, domain=3, semantics=SemanticsLevel.SAFE)
    sim = _Sim(spec, [[("Write", 2)], [("Read", None)], [("Read", None)]])
    for proc in (0, 1, 2):  # invoke the Write, then both Reads
        sim.apply(proc, None)
    choices = sim.choices()
    flat = [(0, None)] + [(1, v) for v in range(3)] + [(2, v) for v in range(3)]
    assert len(choices) == 7 and list(choices) == flat
    assert [choices[i] for i in range(7)] == flat
    # Over tag-encoded registers the domain has 2^24 values, none listed.
    spec = build_multiwriter(2)
    spec = dataclasses.replace(spec, registers=tuple(
        dataclasses.replace(r, semantics=SemanticsLevel.SAFE) for r in spec.registers))
    sim = _Sim(spec, [[("Write", 1)], [("Read", None)]])
    for proc, value in [(0, None), (0, spec.registers[0].init), (0, None),
                        (0, spec.registers[1].init), (0, None), (1, None)]:
        sim.apply(proc, value)  # proc 0's Write of r0 is pending; proc 1 reads r0
    choices = sim.choices()
    domain = spec.registers[0].domain
    assert domain == 2**24 and len(choices) == 1 + domain
    assert (choices[0], choices[1], choices[domain]) == ((0, None), (1, 0), (1, domain - 1))
    with pytest.raises(IndexError):
        choices[1 + domain]


def test_safe_domain_beyond_sys_maxsize_walked_lazily():
    # len() cannot count a range of more than sys.maxsize values: a safe
    # Read overlapping a Write on such a register once ended in
    # OverflowError under each entry point.
    domain = 10**20
    assert domain > sys.maxsize
    spec = build_raw_register(1, domain=domain, semantics=SemanticsLevel.SAFE)
    wl = [[("Write", 1)], [("Read", None)]]
    e = run_schedule(spec, wl, [(0, None), (1, None), (1, domain - 1), (0, None)])
    assert [op.ret for op in e.ops if op.kind == "Read"] == [domain - 1]
    with pytest.raises(InvalidDecision, match="not feasible"):
        run_schedule(spec, wl, [(0, None), (1, None), (1, domain), (0, None)])
    e = random_execution(spec, wl, 4)
    assert e.decisions[2] == (1, 68644335892757550790)
    assert run_schedule(spec, wl, e.decisions) == e
    result = enumerate_executions(spec, wl, {"max_executions": 5})
    assert result.count == 5 and result.truncated_by == ("max_executions",)
    assert [x.decisions[-1] for x in result.executions[1:]] == [(1, v) for v in range(4)]


@pytest.mark.parametrize("max_exec, max_steps, stop_after", [
    (10**6, 10**4, None),  # the whole tree
    (37, 10**4, None),  # cut by max_executions
    (10**6, 7, None),  # every branch cut by max_steps
    (10**6, 10**4, 25),  # the visitor stops
])
def test_enumeration_order_matches_recursive_walk(max_exec, max_steps, stop_after):
    spec = build_raw_register(2, domain=3, semantics=SemanticsLevel.REGULAR)
    wl = [[("Write", 1), ("Write", 2)], [("Read", None)], [("Read", None)]]
    seen = []

    def visit(e):
        seen.append(e)
        return len(seen) != stop_after

    res = enumerate_executions(spec, wl, {"max_executions": max_exec, "max_steps": max_steps},
                               visit=visit)
    expected, truncated, stopped = recursive_enumeration(spec, wl, max_exec, max_steps, stop_after)
    assert seen == expected and res.count == len(expected)
    assert (res.truncated, res.stopped) == (truncated, stopped)


# -- stored tails: the walk against the plain recursive walk -------------------


def finish_keys(e):
    """What each op of ``e`` is built from, in ``e.ops`` order: its index
    among its process's ops and its fields, the return by type and repr."""
    opidx, keys = {}, {}
    for op in sorted(e.ops, key=lambda op: op.op_id):
        opidx[op.proc] = opidx.get(op.proc, -1) + 1
        keys[op.op_id] = (opidx[op.proc], op.op_id, op.proc, op.kind, op.arg, type(op.ret),
                          repr(op.ret), op.start, op.end, op.base_accesses)
    return [keys[op.op_id] for op in e.ops]


def assert_walk_is_plain(spec, workload, limits=None, stop_after=None, replay_every=97):
    """Walk the tree by ``enumerate_executions`` and by plain recursion side
    by side: the same leaves in the same order, equal field for field and
    record for record, each return of the same type; within the walk, equal
    finishes are one HLOp object; every ``replay_every``-th leaf is the
    replay of its decisions; and the same count and flags.  An EngineError
    must end both walks at the same leaf, with the same message.  Returns
    the number of leaves visited."""
    max_exec, max_steps = enumeration_limits(limits)
    plain = plain_leaves(spec, workload, max_exec, max_steps, stop_after)
    shared: dict[tuple, object] = {}
    seen = [0]

    def visit(e):
        expected = next(plain, None)
        assert expected is not None, "the walk visits a leaf the plain walk does not"
        assert e == expected and e.protocol is spec
        keys = finish_keys(e)
        assert keys == finish_keys(expected)
        assert [op.record for op in e.ops] == [op.record for op in expected.ops]
        for key, op in zip(keys, e.ops):
            assert shared.setdefault(key, op) is op
        if seen[0] % replay_every == 0:
            assert run_schedule(spec, workload, e.decisions) == e
        seen[0] += 1
        return seen[0] != stop_after

    try:
        res = enumerate_executions(spec, workload, limits, visit=visit)
    except EngineError as exc:
        with pytest.raises(EngineError) as plain_exc:
            next(plain)
        assert str(plain_exc.value) == str(exc)
        raise
    with pytest.raises(StopIteration) as end:
        next(plain)
    assert (res.truncated, res.stopped) == end.value.value
    assert res.count == seen[0]
    return seen[0]


def joined_leaves(spec, workload, limits=None):
    """The 1-based indices of the leaves ``enumerate_executions`` joins from
    a stored tail instead of building by ``_Sim.snapshot``, up to the end of
    the walk or an EngineError."""
    snapshots, joined, seen = [0], [], [0, 0]
    snapshot = _Sim.snapshot

    def counted(sim):
        snapshots[0] += 1
        return snapshot(sim)

    def visit(e):
        seen[0] += 1
        if snapshots[0] == seen[1]:
            joined.append(seen[0])
        seen[1] = snapshots[0]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Sim, "snapshot", counted)
        try:
            enumerate_executions(spec, workload, limits, visit=visit)
        except EngineError:
            pass
    return joined


def bench_walk(construction, n, workload, **extra):
    """A tree of the benchmark's ``enumerate`` workload, walked whole."""
    sc = scenario_from_dict({
        "construction": construction, "n": n,
        "workload": [[{"kind": k, **({} if a is None else {"arg": a})} for k, a in ops]
                     for ops in workload],
        **extra,
    })
    return build_protocol(sc), sc.workload, None


#: name: (protocol, workload, limits): the benchmark's five trees walked
#: whole, then every shipped scenario, cut after 5,000 leaves.
WALKS = {
    "multiwriter": bench_walk("multiwriter", 2, [[("W", 1)], [("W", 2), ("R", None)]]),
    "mr_nowriteback": bench_walk("multireader_nowriteback", 2,
                                 [[("W", 1)], [("R", None)], [("R", None)]]),
    "cts": bench_walk("cts", 2, [[("L", 1)], [("L", 2), ("S", None)]]),
    "regular_bit": bench_walk("regular_bit", 2,
                              [[("W", 1), ("W", 0)], [("R", None), ("R", None)], [("R", None)]]),
    "raw_safe": bench_walk("raw_register", 1,
                           [[("W", 1), ("W", 2), ("W", 3)], [("R", None), ("R", None)]],
                           domain=8, base_semantics="safe"),
}
BENCH_LEAVES = {"multiwriter": 8008, "mr_nowriteback": 34650, "cts": 8008, "regular_bit": 16258,
                "raw_safe": 8330}
for _path in sorted(SCENARIOS.glob("*.json")):
    _sc = load_scenario(str(_path))
    WALKS[_path.stem] = (build_protocol(_sc), _sc.workload,
                         {**_sc.limits, "max_executions": 5000})


@pytest.mark.parametrize("name", WALKS)
def test_the_walk_is_the_plain_walk(name):
    spec, workload, limits = WALKS[name]
    count = assert_walk_is_plain(spec, workload, limits)
    if name in BENCH_LEAVES:
        assert count == BENCH_LEAVES[name]
        # Most leaves end in a stored tail.
        assert len(joined_leaves(spec, workload)) > count // 2


@pytest.mark.parametrize("name", ["multiwriter", "mr_nowriteback", "raw_safe"])
def test_a_cut_or_a_stop_at_a_joined_leaf_is_the_plain_walks(name):
    spec, workload, _ = WALKS[name]
    joined = joined_leaves(spec, workload)
    at = joined[len(joined) // 2]
    # The visitor stops at a leaf joined from a stored tail ...
    assert assert_walk_is_plain(spec, workload, stop_after=at) == at
    # ... and max_executions cuts the walk there.
    assert assert_walk_is_plain(spec, workload, {"max_executions": at - 1}) == at - 1


@pytest.mark.parametrize("max_steps", [8, 9, 10, 11, 12])
def test_tails_max_steps_cuts_are_the_plain_walks(max_steps):
    # Leaves take 8, 10 or 12 steps: a cut at 9 or 11 falls inside tails
    # that a cut at 12 stores whole.
    spec = reread_protocol(SimpleNamespace(domain=3, base_semantics=SemanticsLevel.SAFE))
    workload = [[("Write", 1), ("Write", 2)], [("Read", None), ("Read", None)]]
    limits = {"max_steps": max_steps}
    count = assert_walk_is_plain(spec, workload, limits)
    assert count == {8: 179, 9: 179, 10: 1303, 11: 1303, 12: 2485}[max_steps]
    assert joined_leaves(spec, workload, limits)


class MemoryTypeProgram(StepProgram):
    """A register over a safe base whose reader remembers the value its Read
    returned as ``1``, ``True`` or ``1.0`` (for 0, 1 or 2): equal values that
    hash alike.  Its next Read returns 0, 1 or 2 by the type it remembers."""

    def initial_memory(self, proc):
        return 0

    def begin(self, proc, mem, kind, arg):
        return (WriteAction(0, arg) if kind == "Write" else ReadAction(0)), kind

    def resume(self, proc, mem, state, result):
        if state == "Write":
            return ReturnAction(None, mem), None
        return ReturnAction((int, bool, float).index(type(mem)), (1, True, 1.0)[result]), None


class ListMemoryProgram(MemoryTypeProgram):
    """The same register with each process's memory a list, which cannot be
    hashed."""

    def initial_memory(self, proc):
        return [0]

    def resume(self, proc, mem, state, result):
        return ReturnAction(None if state == "Write" else 0, [result]), None


def safe_register_of(program) -> ProtocolSpec:
    """``program`` as a register of domain 3 over one safe base register,
    written by process 0 and read by process 1."""
    reg = BaseRegisterSpec("R", 0, frozenset({1}), 3, 0, SemanticsLevel.SAFE)
    return ProtocolSpec("typed", 2, (reg,), program, {"Read": 1, "Write": 1}, "X", 3, 0,
                        frozenset({0}), frozenset({1}))


TYPED_WORKLOAD = [[("Write", 2)], [("Read", None), ("Read", None)]]


def test_tails_from_memories_of_other_types_are_not_merged():
    # Sibling leaves differ only in the reader's Read result, so the tails
    # after it differ only in the type of the memory it keeps.
    spec = safe_register_of(MemoryTypeProgram())
    assert assert_walk_is_plain(spec, TYPED_WORKLOAD, replay_every=1) == 63
    rets = {[op.ret for op in e.ops if op.proc == 1][-1]
            for e in enumerate_executions(spec, TYPED_WORKLOAD).executions}
    assert rets == {0, 1, 2}
    assert joined_leaves(spec, TYPED_WORKLOAD)


def test_tails_from_a_memory_that_cannot_be_hashed_are_walked_step_by_step(monkeypatch):
    spec = safe_register_of(ListMemoryProgram())
    assert assert_walk_is_plain(spec, TYPED_WORKLOAD, replay_every=1) == 63
    assert not joined_leaves(spec, TYPED_WORKLOAD)
    applied = [0]
    apply = _Sim.apply

    def counted(sim, proc, value):
        applied[0] += 1
        return apply(sim, proc, value)

    monkeypatch.setattr(_Sim, "apply", counted)
    enumerate_executions(spec, TYPED_WORKLOAD, visit=lambda e: None)
    walked, applied[0] = applied[0], 0
    recursive_enumeration(spec, TYPED_WORKLOAD, 10**6, 10**4)
    # Every leaf is reached by applying its every step, as the plain walk does.
    assert walked == applied[0]


class LateRefusalProgram(StepProgram):
    """A register over an atomic base whose reader, process 0, counts its
    Reads in its memory and writes the register it does not own when its
    first Read returns 2.  Reading 2 means the writer's last Write ended, so
    the refusal comes only in a tail, and, since the walk runs process 0
    first, late: after 125 leaves."""

    def initial_memory(self, proc):
        return 0

    def begin(self, proc, mem, kind, arg):
        return (WriteAction(0, arg) if kind == "Write" else ReadAction(0)), kind

    def resume(self, proc, mem, state, result):
        if state == "Write":
            return ReturnAction(None, mem), None
        if result == 2 and mem == 0:
            return WriteAction(0, 0), None
        return ReturnAction(result, mem + 1), None


def test_an_error_in_a_late_tail_comes_after_the_plain_walks_leaves():
    reg = BaseRegisterSpec("R", 1, frozenset({0}), 3, 0, SemanticsLevel.ATOMIC)
    spec = ProtocolSpec("late", 2, (reg,), LateRefusalProgram(), {"Read": 1, "Write": 1}, "X",
                        3, 0, frozenset({1}), frozenset({0}))
    workload = [[("Read", None)] * 3, [("Write", 1), ("Write", 2)]]
    with pytest.raises(EngineError, match="proc 0 does not own register R"):
        assert_walk_is_plain(spec, workload, replay_every=1)
    # Most of the leaves before it were joined from stored tails.
    assert len(joined_leaves(spec, workload)) > 125 // 2


def test_enumeration_depth_not_bound_by_recursion_limit():
    spec = build_multiwriter(2)
    wl = [[("Write", 1 + i % 7) for i in range(100)] for _ in range(2)]
    res = enumerate_executions(spec, wl, {"max_executions": 1})
    assert res.count == 1 and res.truncated
    assert len(res.executions[0].events) > sys.getrecursionlimit()


# -- workload args and program actions ----------------------------------------


ENTRY_POINTS = {
    "run_schedule": lambda spec, wl: run_schedule(spec, wl, []),
    "random_execution": lambda spec, wl: random_execution(spec, wl, 0),
    "enumerate_executions": lambda spec, wl: enumerate_executions(spec, wl),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("build, kind, bad", [
    # cts n=2: a Labeling of 8 once returned label (1, 0) while a Scan
    # listed owner 0 with label (1, 1) and payload 0, and check_cts passed
    (lambda: build_cts(2), "Labeling", 8),
    # multiwriter n=2: a Write of 9 was encoded as tag (1, 1), payload 1
    (lambda: build_multiwriter(2), "Write", 9),
    (lambda: build_multiwriter(2), "Write", -1),
    (lambda: build_multiwriter(2), "Write", True),
    (lambda: build_multiwriter(2), "Write", 1.0),
    (lambda: atomic_bit(), "Write", "1"),
])
def test_workload_arg_outside_protocol_domain_rejected(entry, build, kind, bad):
    spec = build()
    wl = [[(kind, bad)]] + [[] for _ in range(spec.n_processes - 1)]
    with pytest.raises(EngineError, match=(
            rf"proc 0: {kind} arg {re.escape(repr(bad))} is not an integer "
            rf"in \[0, {spec.domain}\)")):
        ENTRY_POINTS[entry](spec, wl)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("build, kind, arg, refusal", [
    # each Write or Labeling of None once raised a TypeError in the program
    (lambda: build_multiwriter(2), "Write", None, "Write needs an arg"),
    (lambda: atomic_bit(), "Write", None, "Write needs an arg"),
    (lambda: build_cts(2), "Labeling", None, "Labeling needs an arg"),
    # and a Read's or Scan's arg was ignored
    (lambda: build_multiwriter(2), "Read", 1, "Read takes no arg, got 1"),
    (lambda: atomic_bit(), "Read", 0, "Read takes no arg, got 0"),
    (lambda: build_cts(2), "Scan", 1, "Scan takes no arg, got 1"),
])
def test_workload_arg_presence_follows_the_op_kind(entry, build, kind, arg, refusal):
    spec = build()
    wl = [[] for _ in range(spec.n_processes)]
    wl[1 if kind == "Read" else 0] = [(kind, arg)]
    with pytest.raises(EngineError, match=rf"proc \d: {refusal}$"):
        ENTRY_POINTS[entry](spec, wl)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("build, proc, kind, role", [
    # a Read by multireader's writer once raised KeyError: 0 in the program
    pytest.param(lambda: build_multireader(2), 0, "Read", "reader", id="multireader-read"),
    pytest.param(lambda: build_multireader(2, writeback=False), 0, "Read", "reader",
                 id="nowriteback-read"),
    pytest.param(lambda: build_multireader(2), 1, "Write", "writer", id="multireader-write"),
    pytest.param(lambda: atomic_bit(), 1, "Write", "writer", id="raw-register-write"),
    pytest.param(lambda: atomic_bit(), 0, "Read", "reader", id="raw-register-read"),
])
def test_workload_op_outside_its_process_role_rejected(entry, build, proc, kind, role):
    spec = build()
    wl = [[] for _ in range(spec.n_processes)]
    wl[proc] = [(kind, 1 if kind == "Write" else None)]
    with pytest.raises(EngineError, match=(
            rf"^proc {proc}: {kind} by a process that is not a {role} of 'X'$")):
        ENTRY_POINTS[entry](spec, wl)


class BadActionProgram(StepProgram):
    """Process 0 reads register 0 on begin and returns after it; its
    ``bad`` action comes from ``begin`` or, after that Read, from
    ``resume``."""

    def __init__(self, bad, at):
        self.bad, self.at = bad, at

    def begin(self, proc, mem, kind, arg):
        return (self.bad, None) if self.at == "begin" else (ReadAction(0), "read")

    def resume(self, proc, mem, state, result):
        if state == "read":
            return self.bad, None
        return ReturnAction(None, mem), None


BAD_ACTIONS = {
    "may not read": ReadAction(1),
    "does not own": WriteAction(1, 0),
    "outside domain of": WriteAction(0, 2),
    "invalid action": ("R", 0),
}


@pytest.mark.parametrize("entry", ["random_execution", "enumerate_executions"])
@pytest.mark.parametrize("at", ["begin", "resume"])
@pytest.mark.parametrize("refusal", BAD_ACTIONS)
def test_program_action_refused(refusal, at, entry):
    # Registers r0 (owner and only reader process 0) and r1 (process 1's).
    regs = tuple(BaseRegisterSpec(f"r{p}", p, frozenset({p}), 2, 0, SemanticsLevel.ATOMIC)
                 for p in range(2))
    spec = ProtocolSpec("bad", 2, regs, BadActionProgram(BAD_ACTIONS[refusal], at),
                        {"Read": 3, "Write": 3}, "X", 2, 0, frozenset({0}), frozenset({0, 1}))
    with pytest.raises(EngineError, match=refusal):
        ENTRY_POINTS[entry](spec, [[("Read", None)], []])


class BadReturnProgram(StepProgram):
    """A raw register whose Read reads the register and then returns
    ``bad`` instead of what it read."""

    def __init__(self, bad):
        self.bad = bad

    def begin(self, proc, mem, kind, arg):
        return (WriteAction(0, arg) if kind == "Write" else ReadAction(0)), kind

    def resume(self, proc, mem, state, result):
        return ReturnAction(self.bad if state == "Read" else None, mem), None


#: A Read return the implemented variable X (domain 2) refuses, and
#: History's message for it as op 0.
BAD_RETURNS = {
    "above": (2, "op 0: ret 2 outside domain of 'X'"),
    "negative": (-1, "op 0: ret -1 outside domain of 'X'"),
    "bool": (True, "op 0: ret True is not an integer"),
    "float": (1.0, "op 0: ret 1.0 is not an integer"),
    "none": (None, "op 0: Read must carry ret iff completed"),
    "list": ([1], "op 0: ret [1] is not an integer"),
}


@pytest.mark.parametrize("entry", ["run_schedule", "random_execution", "enumerate_executions"])
@pytest.mark.parametrize("case", BAD_RETURNS)
def test_bad_read_return_refused_when_the_op_finishes(case, entry):
    # The engine checks a Read's return once, when it builds the op's
    # record, and refuses it with the message a History gives that record.
    bad, message = BAD_RETURNS[case]
    spec = dataclasses.replace(atomic_bit(), program=BadReturnProgram(bad))
    record = OpRecord(0, 1, "X", OpKind.READ, 0, 1, None, bad)
    with pytest.raises(HistoryError) as direct:
        History(spec._high_vars, (record,))
    assert str(direct.value) == message
    wl = [[], [("Read", None)]]
    run = {
        "run_schedule": lambda: run_schedule(spec, wl, [(1, None), (1, None)]),
        "random_execution": lambda: random_execution(spec, wl, 0),
        "enumerate_executions": lambda: enumerate_executions(spec, wl),
    }[entry]
    with pytest.raises(HistoryError) as raised:
        run()
    assert str(raised.value) == message
