"""High-level projection as it was before the engine built each op's record,
kept as a reference.

``extract_high`` is the high-level branch of ``engine.extract_history``
from before ``_Sim._finish_op`` built an ``OpRecord`` per finished op,
kept verbatim so that the differential tests can require the shared
records to project every execution onto the same History.  It rebuilds
every op's record on each call.
"""

from __future__ import annotations

from regsim import History, OpKind, OpRecord
from regsim.engine import EngineError, Execution

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
