"""The engine's adversary against an independent reference.

At a safe or regular base Read's respond, ``_Sim.feasible`` offers the
adversary's choices, which are exactly the values ``history.read_values``
allows: the rule the checker judges every Read by.  So the checker cannot
catch an adversary that is too weak or too strong, and this test judges it
by ``read_scan.feasible_values`` instead, the per-Read rescan kept outside
``regsim``, at every node of whole decision trees where the adversary has a
say.
"""

import dataclasses

import pytest

from read_scan import feasible_values
from regsim import OpKind, OpRecord, SemanticsLevel, enumerate_executions, extract_history
from regsim.constructions import build_multiwriter, build_raw_register, build_regular_bit
from regsim.engine import SCOPE_BASE, _Sim

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
        assert set(offered) == feasible_values(h, done, reg.semantics)
        checked.append(len(offered))
        return offered

    monkeypatch.setattr(_Sim, "feasible", feasible)
    res = enumerate_executions(spec, workload)
    assert not res.truncated and res.count == len(res.executions)
    # The trees hold Reads that overlap no Write and Reads that do.
    assert min(checked) == 1 and max(checked) > 1
