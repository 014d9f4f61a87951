"""High-level projection as it was before the engine built each op's record,
kept as a reference.

``extract_high`` is the high-level branch of ``engine.extract_history``
from before ``_Sim._finish_op`` built an ``OpRecord`` per finished op, and
``extract_cts`` is ``timestamp.extract_cts_history`` from before it built a
``CtsOp`` per finished op, both kept verbatim so that the differential
tests can require the shared records to project every execution onto the
same history.  They rebuild every op's record on each call.
"""

from __future__ import annotations

from regsim import CtsHistory, CtsOp, History, Label, LabeledObject, OpKind, OpRecord, Tag
from regsim.engine import EngineError, Execution
from regsim.timestamp import LABELING, SCAN

_KIND_TO_OPKIND = {"Write": OpKind.WRITE, "Read": OpKind.READ}


def extract_high(execution: Execution) -> History:
    spec = execution.protocol
    if spec.var_name is None:
        raise EngineError(
            f"protocol {spec.name!r} implements no register variable; "
            "use its own history extraction"
        )
    ops = []
    for op in execution.ops:
        kind = _KIND_TO_OPKIND[op.kind]
        write = kind is OpKind.WRITE
        # op_id, proc, var, kind, start, end, arg, ret
        ops.append(OpRecord(op.op_id, op.proc, spec.var_name, kind, op.start, op.end,
                            op.arg if write else None, None if write else op.ret))
    return History(vars=spec._high_vars, ops=tuple(ops))


def extract_cts(execution: Execution) -> CtsHistory:
    """Project a cts execution onto a CtsHistory."""
    spec = execution.protocol
    if LABELING not in spec.budgets:
        raise EngineError(f"protocol {spec.name!r} is not a timestamp system")
    ops = []
    for op in execution.ops:
        if op.kind == LABELING:
            ops.append(
                CtsOp(op_id=op.op_id, proc=op.proc, kind=LABELING,
                      start=op.start, end=op.end, payload=op.arg,
                      label=Tag(*op.ret))
            )
        else:
            result = tuple(
                LabeledObject(owner=o, label=Label(Tag(seq, pid)), payload=val)
                for o, seq, pid, val in op.ret
            )
            ops.append(
                CtsOp(op_id=op.op_id, proc=op.proc, kind=SCAN,
                      start=op.start, end=op.end, result=result)
            )
    return CtsHistory(n=spec.n_processes, ops=tuple(ops))
