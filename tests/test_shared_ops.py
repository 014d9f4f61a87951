"""Each distinct finished op is built once per walk and then shared.

``enumerate_executions`` keeps one ``_Sim`` for the whole walk, which
builds an op's ``HLOp`` and record on the first finish of its kind and
hands out that object on every later one.  ``run_schedule`` replays on a
fresh ``_Sim`` with no table and so always builds: it is the slow path
these tests compare against, leaf by leaf.
"""

from pathlib import Path

import pytest

from regsim import (HistoryError, ProtocolSpec, SemanticsLevel, engine, enumerate_executions,
                    random_execution, run_schedule)
from regsim.cli import main
from regsim.engine import (BaseRegisterSpec, ReadAction, ReturnAction, StepProgram, WriteAction,
                           enumeration_limits)
from regsim.scenario import build_protocol, load_scenario, scenario_from_dict
from regsim.timestamp import CTS, LABELING, SCAN

from test_cli import write_config

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def bench_tree(construction, n, workload, **extra):
    """A scenario of the benchmark's ``enumerate`` workload, with fixed
    Write args (the benchmark draws them per seed; the tree's shape and
    its number of distinct finishes do not depend on them)."""
    return scenario_from_dict({
        "construction": construction, "n": n, "mode": "enumerate", "seed": 0,
        "workload": [[{"kind": k, **({} if a is None else {"arg": a})} for k, a in ops]
                     for ops in workload],
        **extra,
    })


def tree_key(sc):
    """What fixes a scenario's decision tree: two scenarios with one key
    walk the same tree (the seed and the limits of a tree walked whole do
    not matter)."""
    return (sc.construction, sc.n, sc.workload, sc.domain, sc.base_semantics)


#: name: (scenario, distinct finishes of its whole tree, or None): the
#: benchmark's trees, which pin their counts, then every shipped scenario.
#: A shipped scenario that walks a benchmark tree is held to that tree's
#: count; any other is only checked against its executions.
WORKLOADS = {
    "multiwriter": (bench_tree("multiwriter", 2, [[("W", 1)], [("W", 2), ("R", None)]]), 129),
    "mr_nowriteback": (bench_tree("multireader_nowriteback", 2,
                                  [[("W", 1)], [("R", None)], [("R", None)]]), 288),
    "cts": (bench_tree("cts", 2, [[("L", 1)], [("L", 2), ("S", None)]]), 168),
    "regular_bit": (bench_tree("regular_bit", 2, [[("W", 1), ("W", 0)],
                                                  [("R", None), ("R", None)], [("R", None)]]), 330),
    "raw_safe": (bench_tree("raw_register", 1, [[("W", 1), ("W", 2), ("W", 3)],
                                                [("R", None), ("R", None)]],
                            domain=8, base_semantics="safe"), 437),
}
BENCH_COUNTS = {tree_key(sc): distinct for sc, distinct in WORKLOADS.values()}

for _path in sorted(SCENARIOS.glob("*.json")):
    _sc = load_scenario(str(_path))
    WORKLOADS[_path.stem] = (_sc, BENCH_COUNTS.get(tree_key(_sc)))


@pytest.fixture(scope="session")
def walked() -> dict[tuple, int]:
    """Distinct finishes of each tree walked so far in the session, by its
    tree_key and effective limits: a shipped scenario on a benchmark tree
    shares that tree's walk."""
    return {}


def walk_and_replay(sc, walked: dict[tuple, int]) -> int:
    """Walk ``sc``'s tree, replay every execution on a fresh ``_Sim``, and
    check that the walk built what the replay builds and one object per
    distinct finish; return the number of distinct finishes.  A tree
    already in ``walked`` under the same limits is not walked again."""
    key = (tree_key(sc), enumeration_limits(sc.limits))
    if key in walked:
        return walked[key]
    spec = build_protocol(sc)
    res = enumerate_executions(spec, sc.workload, sc.limits)
    assert res.count == len(res.executions) > 0
    finishes, objects = set(), set()
    for e in res.executions:
        replay = run_schedule(spec, sc.workload, e.decisions)
        assert replay == e
        # HLOp equality leaves the record out; repr tells apart what
        # equality does not.
        assert [(repr(op), repr(op.record)) for op in replay.ops] == \
            [(repr(op), repr(op.record)) for op in e.ops]
        opidx = dict.fromkeys(range(spec.n_processes), -1)
        for op in sorted(e.ops, key=lambda op: op.op_id):
            opidx[op.proc] += 1
            # The return by repr, which tells 1 from True from 1.0 at any depth.
            finishes.add((op.op_id, op.proc, opidx[op.proc], op.start, op.end,
                          op.base_accesses, repr(op.ret)))
            objects.add(id(op))
    assert len(objects) == len(finishes)
    walked[key] = len(finishes)
    return walked[key]


@pytest.mark.parametrize("name", WORKLOADS)
def test_walk_builds_what_a_replay_builds_and_shares_each_finish(name, walked):
    sc, distinct = WORKLOADS[name]
    finishes = walk_and_replay(sc, walked)
    if distinct is not None:
        assert finishes == distinct


@pytest.mark.parametrize("name", ["multiwriter", "mr_nowriteback", "cts"])
def test_a_single_run_keys_no_finish(name, monkeypatch):
    # No two finishes of one run share a uid, so a table could never hit:
    # random_execution and run_schedule build each op directly.
    def keyed(ret):
        raise AssertionError("a single run keyed a finish")

    monkeypatch.setattr(engine, "_exact_key", keyed)
    sc, _ = WORKLOADS[name]
    spec = build_protocol(sc)
    e = random_execution(spec, sc.workload, 0)
    assert run_schedule(spec, sc.workload, e.decisions) == e


class OneOrTrueProgram(StepProgram):
    """A raw register over a safe base whose Read returns 1 when it read 0
    and True when it read 1: two sibling finishes at the same uid, steps and
    access count whose returns compare equal and hash alike."""

    def begin(self, proc, mem, kind, arg):
        return (WriteAction(0, arg) if kind == "Write" else ReadAction(0)), kind

    def resume(self, proc, mem, state, result):
        return ReturnAction((1 if result == 0 else True) if state == "Read" else None, mem), None


#: Process 0 reads and process 1 writes, so the first Read to overlap the
#: Write, and so the first to return True, is op 0.
ONE_OR_TRUE = ProtocolSpec(
    "one_or_true", 2,
    (BaseRegisterSpec("R", 1, frozenset({0}), 2, 0, SemanticsLevel.SAFE),),
    OneOrTrueProgram(), {"Read": 1, "Write": 1}, "X", 2, 0, frozenset({1}), frozenset({0}),
)
ONE_OR_TRUE_WORKLOAD = [[("Read", None)], [("Write", 1)]]


def test_true_after_an_equal_one_is_still_refused():
    with pytest.raises(HistoryError) as raised:
        enumerate_executions(ONE_OR_TRUE, ONE_OR_TRUE_WORKLOAD)
    assert str(raised.value) == "op 0: ret True is not an integer"


def test_true_after_an_equal_one_exit_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("regsim.cli.build_protocol", lambda sc: ONE_OR_TRUE)
    cfg = write_config(tmp_path, workload=[[{"kind": "R"}], [{"kind": "W", "arg": 1}]])
    assert main(["enumerate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr() == ("", "error: op 0: ret True is not an integer\n")


class NestedReturnsProgram(StepProgram):
    """A timestamp-shaped protocol over a safe base: a Labeling writes and
    a Scan reads it, returning one entry whose payload is 1 when it read 0
    and True when it read 1, so that two sibling finishes differ only in
    the type of a return nested two deep."""

    def begin(self, proc, mem, kind, arg):
        return (WriteAction(0, arg) if kind == LABELING else ReadAction(0)), kind

    def resume(self, proc, mem, state, result):
        if state == LABELING:
            return ReturnAction((1, proc), mem), None
        return ReturnAction(((1, 1, 1, 1 if result == 0 else True),), mem), None


def test_nested_returns_of_different_types_do_not_share_an_op():
    # The Scan that read 0 is recorded with payload 1; its sibling, which
    # read 1, returns True, which compares equal and hashes alike at the
    # same depth.  It is refused when it finishes, not handed the first's op.
    spec = ProtocolSpec(
        "nested_returns", 2,
        (BaseRegisterSpec("R", 1, frozenset({0}), 2, 0, SemanticsLevel.SAFE),),
        NestedReturnsProgram(), {LABELING: 1, SCAN: 1}, None, 2, 0,
        frozenset({1}), frozenset({0}), CTS,
    )
    wl = [[(SCAN, None)], [(LABELING, 1)]]
    with pytest.raises(HistoryError) as raised:
        enumerate_executions(spec, wl)
    assert str(raised.value) == ("op 0: Scan entry (1, 1, 1, True) is not 4 integers "
                                 "(owner, seq, pid, payload)")
