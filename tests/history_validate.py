"""History validation as it was before it became one pass, kept as a reference.

``validate`` is the body of ``History._validate`` from before the
per-process overlap check moved into the loop over ops and the 1-writer
"Writes ... not totally ordered" loop was dropped, kept verbatim so that
the differential tests can require the one-pass validation to accept and
reject the same histories, with the same message wherever a history has a
single fault.  ``self`` is anything with the ``vars`` mapping and the
start-sorted ``ops`` tuple of a History.  ``validate_op`` is the body of
the ``OpRecord._validate`` it called, kept verbatim since that check was
folded into the one-pass loop.
"""

from __future__ import annotations

from regsim import HistoryError, OpKind, OpRecord


def validate_op(self: OpRecord) -> None:
    if self.op_id < 0 or self.proc < 0 or self.start < 0:
        raise HistoryError(f"op {self.op_id}: negative id, proc or step")
    if self.end is not None and self.end <= self.start:
        raise HistoryError(f"op {self.op_id}: end {self.end} not after start {self.start}")
    if self.kind is OpKind.WRITE:
        if self.arg is None:
            raise HistoryError(f"op {self.op_id}: Write without arg")
        if self.ret is not None:
            raise HistoryError(f"op {self.op_id}: Write carries ret")
    else:
        if self.arg is not None:
            raise HistoryError(f"op {self.op_id}: Read carries arg")
        if (self.ret is not None) != self.completed:
            raise HistoryError(f"op {self.op_id}: Read must carry ret iff completed")


def validate(self) -> None:
    for name, spec in self.vars.items():
        spec._validate(name)
    steps: set[int] = set()
    per_proc: dict[int, list[OpRecord]] = {}
    ids: set[int] = set()
    for op in self.ops:
        validate_op(op)
        if op.op_id in ids:
            raise HistoryError(f"duplicate op id {op.op_id}")
        ids.add(op.op_id)
        spec = self.vars.get(op.var)
        if spec is None:
            raise HistoryError(f"op {op.op_id}: undeclared variable {op.var!r}")
        if op.kind is OpKind.WRITE:
            if op.proc not in spec.writers:
                raise HistoryError(f"op {op.op_id}: proc {op.proc} is not a writer of {op.var!r}")
            if not 0 <= op.arg < spec.domain:
                raise HistoryError(f"op {op.op_id}: arg {op.arg} outside domain of {op.var!r}")
        else:
            if op.proc not in spec.readers:
                raise HistoryError(f"op {op.op_id}: proc {op.proc} is not a reader of {op.var!r}")
            if op.ret is not None and not 0 <= op.ret < spec.domain:
                raise HistoryError(f"op {op.op_id}: ret {op.ret} outside domain of {op.var!r}")
        for s in (op.start, op.end):
            if s is not None:
                if s in steps:
                    raise HistoryError(f"duplicate step index {s}")
                steps.add(s)
        per_proc.setdefault(op.proc, []).append(op)
    # Processes are sequential: a process's operations never overlap,
    # and a pending operation is its process's last.
    for proc, ops in per_proc.items():
        prev: OpRecord | None = None
        for op in ops:  # already sorted by start
            if prev is not None:
                if prev.end is None or prev.end > op.start:
                    raise HistoryError(
                        f"proc {proc}: ops {prev.op_id} and {op.op_id} overlap"
                    )
            prev = op
    # For 1-writer variables all Writes are issued by one sequential
    # process, so total write order follows from the per-process check;
    # re-verified here so hand-built histories fail loudly.
    for name, spec in self.vars.items():
        if len(spec.writers) == 1:
            writes = sorted(
                (o for o in self.ops if o.var == name and o.kind is OpKind.WRITE),
                key=lambda o: o.start,
            )
            for a, b in zip(writes, writes[1:]):
                if a.end is None or a.end > b.start:
                    raise HistoryError(f"var {name!r}: Writes {a.op_id}, {b.op_id} not totally ordered")
