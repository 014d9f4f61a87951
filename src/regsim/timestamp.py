"""Unbounded concurrent timestamp system: wait-free Labeling and Scan.

Every process owns one labeled object.  Labeling gives the caller's object
a fresh label that is larger than every label it can see; Scan reports all
objects in ascending label order.  Labels are (sequence, process-id) tags
under the same lexicographic order the register constructions use, so the
system is wait-free but unbounded.

``check_cts`` verifies the testable temporal-order contract on a recorded
timestamp history: per-process label monotonicity, precedence-consistent
ordering of scanned objects, and well-formed scan results.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping

from .checkers import PASS, Verdict
from .constructions import Tag, TagCodec, tag_less
from .engine import (
    BaseRegisterSpec,
    EngineError,
    Execution,
    ProtocolSpec,
    ReadAction,
    ReturnAction,
    StepProgram,
    WriteAction,
)
from .history import (
    HistoryError,
    SemanticsLevel,
    encode_json,
    not_int,
    read_trace,
    slot_init,
    trace_int,
    write_trace,
)

LABELING = "Labeling"
SCAN = "Scan"

_INF = float("inf")


@slot_init
@dataclass(frozen=True, slots=True)
class Label:
    """A timestamp: the tag a Labeling assigned to its owner's object."""

    tag: Tag


@slot_init
@dataclass(frozen=True, slots=True)
class LabeledObject:
    owner: int
    label: Label
    payload: int


#: Scan output: one entry per process, strictly ascending by label tag.
ScanResult = tuple[LabeledObject, ...]


def scan_order(entries: Iterable[LabeledObject]) -> ScanResult:
    """Sort labeled objects into temporal order (ascending tag).

    Pure; the checker's reference for a Scan's order.  Exactly one entry per
    owner is required.
    """
    items = list(entries)
    owners = [e.owner for e in items]
    if len(set(owners)) != len(owners):
        raise HistoryError("duplicate owner in scan entries")
    return tuple(sorted(items, key=lambda e: e.label.tag))


# ---------------------------------------------------------------------------
# The construction
# ---------------------------------------------------------------------------


class _CtsProgram(StepProgram):
    """One atomic register per process holding (label, payload).

    Labeling(payload) by p: collect all n registers, pick the successor of
    the largest sequence seen, publish ((s, p), payload), and return the
    assigned tag.  Scan: collect all n registers and return the decoded
    objects in ascending tag order.  Scans write nothing.
    """

    def __init__(self, n: int, codec: TagCodec):
        self.n = n
        self.codec = codec

    def begin(self, proc, mem, kind, arg):
        if kind == LABELING:
            return ReadAction(0), ("l", 1, 0, arg)
        return ReadAction(0), ("s", 1, ())

    def resume(self, proc, mem, state, result):
        phase = state[0]
        if phase == "l":
            _, k, max_seq, payload = state
            seq = self.codec.seq(result)
            if seq > max_seq:
                max_seq = seq
            if k < self.n:
                return ReadAction(k), ("l", k + 1, max_seq, payload)
            enc = self.codec.encode(max_seq + 1, proc, payload)
            return WriteAction(proc, enc), ("commit", max_seq + 1)
        if phase == "s":
            _, k, seen = state
            seen = seen + (result,)
            if k < self.n:
                return ReadAction(k), ("s", k + 1, seen)
            tagged = [self.codec.decode(raw) for raw in seen]
            wire = tuple((i, *tagged[i].tag, tagged[i].val)
                         for i in sorted(range(self.n), key=lambda i: tagged[i].tag))
            return ReturnAction(wire, mem), None
        # commit
        _, seq = state
        return ReturnAction((seq, proc), mem), None


def build_cts(n: int, domain: int = 8) -> ProtocolSpec:
    """Concurrent timestamp system for n processes.

    Initial labels are (0, pid) with payload 0, legitimate Scan content
    before any Labeling.  Budgets: Labeling n+1, Scan n.
    """
    if n < 1:
        raise EngineError("need at least one process")
    codec = TagCodec(n_pids=n, payload_domain=domain)
    everyone = frozenset(range(n))
    regs = tuple(
        BaseRegisterSpec(
            name=f"obj{p}", owner=p, readers=everyone,
            domain=codec.domain, init=codec.encode(0, p, 0),
            semantics=SemanticsLevel.ATOMIC,
        )
        for p in range(n)
    )
    return ProtocolSpec(
        name="cts",
        n_processes=n,
        registers=regs,
        program=_CtsProgram(n, codec),
        budgets={LABELING: n + 1, SCAN: n},
        var_name=None,
        domain=domain,
        init=0,
        writers=everyone,
        readers=everyone,
        record_op=_cts_record,
    )


# ---------------------------------------------------------------------------
# Recorded timestamp histories and their checker
# ---------------------------------------------------------------------------


@slot_init
@dataclass(frozen=True, slots=True)
class CtsOp:
    """One Labeling or Scan execution.

    Completed Labelings carry the assigned ``label``; completed Scans carry
    ``result``.  Pending operations have ``end is None`` and no outcome.
    """

    op_id: int
    proc: int
    kind: str
    start: int
    end: int | None = None
    payload: int | None = None
    label: Tag | None = None
    result: ScanResult | None = None

    @property
    def completed(self) -> bool:
        return self.end is not None


@slot_init
@dataclass(frozen=True, slots=True)
class CtsHistory:
    n: int
    ops: tuple[CtsOp, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(sorted(self.ops, key=lambda o: o.start)))
        self._validate()

    def _validate(self) -> None:
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


def check_cts(h: CtsHistory) -> Verdict:
    """Temporal-order correctness of a recorded timestamp history.

    Passes iff (a) each process's Labelings carry strictly increasing
    labels in execution order, (b) whenever the latest Labelings by p and q
    preceding a Scan are themselves ordered by precedence and no other
    Labeling by p or q overlaps the Scan, the Scan lists p's object before
    q's, and (c) every Scan result is complete (one entry per process) and
    strictly ascending by tag.

    Each process's Labelings are indexed once.  A process is sequential, so
    their ends are sorted (a pending one's is infinite and last): per Scan,
    one bisection finds the latest that precedes it, and the one after that
    overlaps it iff it starts before the Scan ends.
    """
    # Per process, in order of its first Labeling: its Labelings and their
    # ends, both in start order.
    index: dict[int, tuple[list[CtsOp], list]] = {}
    for op in h.ops:
        if op.kind == LABELING:
            ops, ends = index.setdefault(op.proc, ([], []))
            ops.append(op)
            ends.append(_INF if op.end is None else op.end)
    # (a) per-process label monotonicity
    for proc, (ops, _) in index.items():
        for a, b in zip(ops, ops[1:]):
            if b.end is None:  # pending, so its process's last
                break
            if not tag_less(a.label, b.label):
                return Verdict(
                    ok=False, violating_op=b.op_id,
                    reason=(
                        f"proc {proc}: Labeling {b.op_id} label {tuple(b.label)} "
                        f"not above previous {tuple(a.label)}"
                    ),
                )
    for scan in h.ops:
        if scan.kind != SCAN or not scan.completed:
            continue
        # (c) completeness and internal order
        owners = [e.owner for e in scan.result]
        if len(owners) != h.n or sorted(owners) != list(range(h.n)):
            return Verdict(
                ok=False, violating_op=scan.op_id,
                reason=f"Scan {scan.op_id} result does not cover every process exactly once",
            )
        if scan.result != scan_order(scan.result):
            return Verdict(
                ok=False, violating_op=scan.op_id,
                reason=f"Scan {scan.op_id} result is not in ascending label order",
            )
        # (b) precedence consistency, over the processes whose latest
        # Labeling before the Scan no other of theirs follows into it
        rank = {e.owner: i for i, e in enumerate(scan.result)}
        latest: list[tuple[int, CtsOp]] = []
        for p, (ops, ends) in index.items():
            k = bisect_left(ends, scan.start)
            if k and (k == len(ops) or ops[k].start >= scan.end):
                latest.append((p, ops[k - 1]))
        for p, lp in latest:
            for q, lq in latest:
                if q != p and lp.end < lq.start and rank[p] > rank[q]:
                    return Verdict(
                        ok=False, violating_op=scan.op_id,
                        reason=(
                            f"Scan {scan.op_id} orders proc {q} before proc {p} although "
                            f"Labeling {lp.op_id} preceded Labeling {lq.op_id}"
                        ),
                    )
    return PASS


def _cts_record(op_id: int, proc: int, kind: str, arg: int | None, ret: tuple,
                start: int, end: int) -> CtsOp:
    """A finished Labeling's or Scan's record, from its return value: the
    assigned (seq, pid), or the scanned (owner, seq, pid, payload) entries
    in temporal order.  The engine builds it once per op (``record_op``)."""
    # op_id, proc, kind, start, end, payload, label, result
    if kind == LABELING:
        return CtsOp(op_id, proc, LABELING, start, end, arg, Tag(*ret))
    return CtsOp(op_id, proc, SCAN, start, end, None, None, tuple(
        [LabeledObject(o, Label(Tag(seq, pid)), val) for o, seq, pid, val in ret]))


def extract_cts_history(execution: Execution) -> CtsHistory:
    """Project a cts execution onto a CtsHistory.

    The engine built each op's CtsOp when the op finished (``HLOp.record``,
    from the protocol's ``record_op``), so executions that share an op
    share its record, and this only gathers and validates them.
    """
    spec = execution.protocol
    if LABELING not in spec.budgets or spec.record_op is None:
        raise EngineError(f"protocol {spec.name!r} is not a timestamp system")
    return CtsHistory(spec.n_processes, tuple([op.record for op in execution.ops]))


# ---------------------------------------------------------------------------
# Trace codec: the register trace format with a {"cts":{"n":n}} header and
# kinds "L"/"S".  A Labeling invoke carries its payload as "arg" and its
# respond the assigned tag as "ret":[seq,pid]; a Scan respond carries the
# scanned objects as [owner,seq,pid,payload] lists in temporal order.
# ---------------------------------------------------------------------------

_KINDS = {"L": LABELING, "S": SCAN}


def _cts_lines(op: CtsOp) -> tuple[str, str | None]:
    ids = f'"op":{op.op_id!r},"proc":{op.proc!r}'
    if op.kind == LABELING:
        invoke = f'{{"act":"invoke","arg":{op.payload!r},"kind":"L",{ids},"step":{op.start!r}}}\n'
        if op.end is None:
            return invoke, None
        code, ret = "L", f"[{op.label.seq!r},{op.label.pid!r}]"
    else:
        invoke = f'{{"act":"invoke","kind":"S",{ids},"step":{op.start!r}}}\n'
        if op.end is None:
            return invoke, None
        code, ret = "S", encode_json(
            [[e.owner, e.label.tag.seq, e.label.tag.pid, e.payload] for e in op.result])
    return invoke, f'{{"act":"respond","kind":"{code}",{ids},"ret":{ret},"step":{op.end!r}}}\n'


def _cts_op(op_id, proc, start, end, inv, resp) -> CtsOp:
    kind = _KINDS[inv["kind"]]
    if kind == LABELING:
        label = None
        if resp is not None:
            seq, pid = resp["ret"]
            label = Tag(trace_int(seq, "seq"), trace_int(pid, "pid"))
        return CtsOp(op_id, proc, kind, start, end, trace_int(inv["arg"], "arg"), label)
    result = None if resp is None else tuple([
        LabeledObject(trace_int(o, "owner"), Label(Tag(trace_int(s, "seq"), trace_int(p, "pid"))),
                      trace_int(v, "payload"))
        for o, s, p, v in resp["ret"]
    ])
    return CtsOp(op_id, proc, kind, start, end, None, None, result)


def serialize_cts_trace(h: CtsHistory, extensions: Mapping[str, object] | None = None) -> str:
    return write_trace({"cts": {"n": h.n}, **(extensions or {})}, h.ops, _cts_lines)


def parse_cts_trace(text: str) -> CtsHistory:
    return read_trace(text, "cts", _cts_op,
                      lambda spec, ops: CtsHistory(n=trace_int(spec["n"], "n"), ops=tuple(ops)))
