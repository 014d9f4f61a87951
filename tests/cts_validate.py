"""CtsHistory validation as it was before it shared its interval checks
with History's, kept as a reference.

``validate`` is the body of ``CtsHistory._validate`` from before the checks
that ``History`` and ``CtsHistory`` share moved into one function, kept
verbatim so that the differential tests can require the shared validation
to accept and reject the same timestamp histories.  ``self`` is anything
with the process count ``n`` and the start-sorted ``ops`` tuple of a
CtsHistory.
"""

from __future__ import annotations

from regsim import CtsOp, HistoryError
from regsim.history import not_int
from regsim.timestamp import LABELING, SCAN


def validate(self) -> None:
    if type(self.n) is not int:
        raise HistoryError(f"n {self.n!r} is not an integer")
    steps: set[int] = set()
    last_per_proc: dict[int, CtsOp] = {}
    ids: set[int] = set()
    for op in self.ops:
        if (type(op.op_id) is not int or type(op.proc) is not int
                or type(op.start) is not int
                or op.end is not None and type(op.end) is not int
                or op.payload is not None and type(op.payload) is not int):
            raise HistoryError(not_int(op, ("op_id", "proc", "start"), ("end", "payload")))
        if op.op_id in ids:
            raise HistoryError(f"duplicate op id {op.op_id}")
        ids.add(op.op_id)
        if op.kind not in (LABELING, SCAN):
            raise HistoryError(f"op {op.op_id}: unknown kind {op.kind!r}")
        if not 0 <= op.proc < self.n:
            raise HistoryError(f"op {op.op_id}: proc {op.proc} out of range")
        if op.end is not None and op.end <= op.start:
            raise HistoryError(f"op {op.op_id}: end not after start")
        if op.completed:
            if op.kind == LABELING and op.label is None:
                raise HistoryError(f"op {op.op_id}: completed Labeling without label")
            if op.kind == SCAN and op.result is None:
                raise HistoryError(f"op {op.op_id}: completed Scan without result")
        for s in (op.start, op.end):
            if s is not None:
                if s in steps:
                    raise HistoryError(f"duplicate step index {s}")
                steps.add(s)
        prev = last_per_proc.get(op.proc)
        if prev is not None and (prev.end is None or prev.end > op.start):
            raise HistoryError(f"proc {op.proc}: ops {prev.op_id}, {op.op_id} overlap")
        last_per_proc[op.proc] = op
