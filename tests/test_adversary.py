"""The engine's adversary against an independent reference.

At a safe or regular base Read's respond, ``_Sim.feasible`` offers the
adversary's choices, which are exactly the values ``history.read_values``
allows: the rule the checker judges every Read by.  So the checker cannot
catch an adversary that is too weak or too strong, and this test judges it
by ``read_scan.feasible_values`` instead, the per-Read rescan kept outside
``regsim``, at every node of whole decision trees where the adversary has a
say.  At every node of the same trees, ``_Sim.check`` must refuse exactly
the decisions ``_Sim.choices`` does not list.  Both walk the trees by
``plain_walk``'s recursion, which reaches every node by stepping, and count
the nodes they judged.
"""

import dataclasses

import pytest

from read_scan import feasible_values
from regsim import OpKind, OpRecord, SemanticsLevel, enumerate_executions, extract_history
from regsim.constructions import (build_multireader, build_multiwriter, build_raw_register,
                                  build_regular_bit)
from regsim.engine import (DEFAULT_MAX_EXECUTIONS, DEFAULT_MAX_STEPS, SCOPE_BASE, InvalidDecision,
                           _Sim, enumeration_limits)

from plain_walk import recursive_enumeration

SAFE, REGULAR = SemanticsLevel.SAFE, SemanticsLevel.REGULAR


def with_bases(spec, level):
    regs = tuple(dataclasses.replace(r, semantics=level) for r in spec.registers)
    return dataclasses.replace(spec, registers=regs)


#: name: (protocol, workload), each tree walked whole.
TREES = {
    "raw_register_safe": (build_raw_register(2, domain=3, semantics=SAFE),
                          [[("Write", 1), ("Write", 2)], [("Read", None)], [("Read", None)]]),
    "raw_register_regular": (build_raw_register(2, domain=3, semantics=REGULAR),
                             [[("Write", 1), ("Write", 2)], [("Read", None)], [("Read", None)]]),
    "regular_bit": (build_regular_bit(2),
                    [[("Write", 1), ("Write", 0)], [("Read", None)], [("Read", None)]]),
    "multiwriter_regular": (with_bases(build_multiwriter(2), REGULAR),
                            [[("Write", 1)], [("Write", 2), ("Read", None)]]),
}


def node_count(spec, workload, max_exec=DEFAULT_MAX_EXECUTIONS):
    """The nodes a walk of the tree visits until it has ``max_exec`` leaves
    and has found the next, if any: the prefixes of those leaves' decision
    sequences, each leaf's whole sequence and the empty one included."""
    leaves = enumerate_executions(spec, workload, {"max_executions": max_exec + 1}).executions
    return len({e.decisions[:i] for e in leaves for i in range(len(e.decisions) + 1)})


def awaiting_count(spec, workload):
    """Over the nodes of the whole tree, the number of processes each lets
    the adversary answer: those with a child decision that carries a
    value."""
    awaiting = set()
    for e in enumerate_executions(spec, workload).executions:
        for i, (proc, value) in enumerate(e.decisions):
            if value is not None:
                awaiting.add((e.decisions[:i], proc))
    return len(awaiting)


@pytest.mark.parametrize("name", TREES)
def test_adversary_offers_exactly_the_reference_values(name, monkeypatch):
    spec, workload = TREES[name]
    offer = _Sim.feasible
    checked = []

    def feasible(sim, proc):
        offered = offer(sim, proc)
        reg = sim.regs[sim.procs[proc].action.reg]
        # The node's base history, with proc's pending Read completed now
        # (its return is the one value every domain holds; the reference
        # does not read it).
        h = extract_history(sim.snapshot(), SCOPE_BASE)
        read = next(op for op in h.ops
                    if op.proc == proc and op.end is None and op.kind is OpKind.READ)
        done = OpRecord(read.op_id, proc, reg.name, OpKind.READ, read.start, sim.step, None, 0)
        h = dataclasses.replace(h, ops=tuple(done if op is read else op for op in h.ops))
        # Each value once, in value order.
        assert list(offered) == sorted(feasible_values(h, done, reg.semantics))
        checked.append(len(offered))
        return offered

    # The plain recursive walk reaches every node by stepping, where the
    # engine's walk joins stored tails: every awaiting Read is checked.
    monkeypatch.setattr(_Sim, "feasible", feasible)
    _, truncated, _ = recursive_enumeration(spec, workload, DEFAULT_MAX_EXECUTIONS,
                                            DEFAULT_MAX_STEPS)
    monkeypatch.undo()
    assert not truncated
    assert len(checked) == awaiting_count(spec, workload)
    # The trees hold Reads that overlap no Write and Reads that do.
    assert min(checked) == 1 and max(checked) > 1


#: name: (protocol, workload, limits): the trees above, walked whole, and a
#: prefix of a tree whose base Reads are atomic.
SURFACES = {
    **{name: (spec, workload, None) for name, (spec, workload) in TREES.items()},
    "multireader_nowriteback_prefix": (
        build_multireader(2, writeback=False),
        [[("Write", 1), ("Write", 2)], [("Read", None)], [("Read", None), ("Read", None)]],
        {"max_executions": 300},
    ),
}


def probes(n_processes, listed):
    """The node's listed decisions, and near misses of them: each value one
    above and one below, None for a value and 0 for None, ``True`` and
    ``1.0`` for a process or value of 1 (and ``False`` and ``0.0`` for 0),
    and every process from -1 to ``n_processes``."""
    out = list(listed)
    for proc in range(-1, n_processes + 1):
        out += [(proc, None), (proc, 0)]
    for proc, value in listed:
        out.append((float(proc), value))
        if proc in (0, 1):
            out.append((bool(proc), value))
        if value is not None:
            out += [(proc, value + 1), (proc, value - 1), (proc, float(value))]
            if value in (0, 1):
                out.append((proc, bool(value)))
    return out


@pytest.mark.parametrize("name", SURFACES)
def test_check_refuses_exactly_what_choices_does_not_list(name, monkeypatch):
    spec, workload, limits = SURFACES[name]
    max_exec, max_steps = enumeration_limits(limits)
    choices = _Sim.choices
    seen = {True: 0, False: 0}
    nodes = [0]

    def checked_choices(sim):
        nodes[0] += 1
        listed = list(choices(sim))
        exact = set(listed)  # exact ints and None only, so no two merge
        for proc, value in probes(spec.n_processes, listed):
            valid = (type(proc) is int and (value is None or type(value) is int)
                     and (proc, value) in exact)
            try:
                sim.check(proc, value)
            except InvalidDecision:
                assert not valid, (sim.decisions, proc, value)
            else:
                assert valid, (sim.decisions, proc, value)
            seen[valid] += 1
        return listed

    # The plain recursive walk calls choices once at every node, where the
    # engine's walk joins stored tails: every node of the tree is checked.
    monkeypatch.setattr(_Sim, "choices", checked_choices)
    _, truncated, _ = recursive_enumeration(spec, workload, max_exec, max_steps)
    monkeypatch.undo()
    assert truncated is (limits is not None)
    assert nodes[0] == node_count(spec, workload, max_exec)
    assert seen[True] and seen[False]
