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
from .constructions import Tag, _MultiWriterProgram, _tag_registers, tag_less
from .engine import (
    EngineError,
    Execution,
    HistoryKind,
    ProtocolSpec,
    ReadAction,
    ReturnAction,
)
from .history import (
    PENDING_END,
    HistoryError,
    encode_json,
    not_int,
    read_trace,
    sequential_ops,
    slot_init,
    trace_int,
    write_trace,
)

LABELING = "Labeling"
SCAN = "Scan"


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


class _CtsProgram(_MultiWriterProgram):
    """One atomic register per process holding (label, payload).

    Labeling(payload) by p is the multiwriter Write of ``payload``: collect
    all n registers, pick the successor of the largest sequence seen, and
    publish ((s, p), payload); it returns the assigned tag.  Scan: collect
    all n registers and return the decoded objects in ascending tag order.
    Scans write nothing.
    """

    def begin(self, proc, mem, kind, arg):
        if kind == LABELING:
            return super().begin(proc, mem, "Write", arg)
        return ReadAction(0), ("s", 1, ())

    def resume(self, proc, mem, state, result):
        phase = state[0]
        if phase == "commit":
            return ReturnAction((state[1], proc), mem), None
        if phase != "s":
            return super().resume(proc, mem, state, result)
        _, k, seen = state
        seen = seen + (result,)
        if k < self.n:
            return ReadAction(k), ("s", k + 1, seen)
        tagged = [self.codec.decode(raw) for raw in seen]
        wire = tuple((i, *tagged[i].tag, tagged[i].val)
                     for i in sorted(range(self.n), key=lambda i: tagged[i].tag))
        return ReturnAction(wire, mem), None


def build_cts(n: int, domain: int = 8) -> ProtocolSpec:
    """Concurrent timestamp system for n processes.

    Initial labels are (0, pid) with payload 0, legitimate Scan content
    before any Labeling.  Budgets: Labeling n+1, Scan n.
    """
    codec, regs = _tag_registers("obj", n, domain)
    everyone = frozenset(range(n))
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
        history=CTS,
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
        self._validate()

    def _validate(self) -> None:
        if type(self.n) is not int:
            raise HistoryError(f"n {self.n!r} is not an integer")
        object.__setattr__(self, "ops", sequential_ops(self.ops))
        for op in self.ops:
            if op.payload is not None and type(op.payload) is not int:
                raise HistoryError(not_int(op, (), ("payload",)))
            if op.kind not in (LABELING, SCAN):
                raise HistoryError(f"op {op.op_id}: unknown kind {op.kind!r}")
            if not 0 <= op.proc < self.n:
                raise HistoryError(f"op {op.op_id}: proc {op.proc} out of range")
            if not op.completed:
                continue
            # A completed op's outcome, of exact ints as a trace writes
            # them: a Tag (seq, pid), or a tuple of LabeledObject entries
            # (owner, seq, pid, payload).
            if op.kind == LABELING:
                if op.label is None:
                    raise HistoryError(f"op {op.op_id}: completed Labeling without label")
                label = op.label
                if not (type(label) is Tag and type(label.seq) is int and type(label.pid) is int):
                    why = _not_a(label, "Tag", 2, "(seq, pid)")
                    raise HistoryError(f"op {op.op_id}: label {label!r} {why}")
            elif op.result is None:
                raise HistoryError(f"op {op.op_id}: completed Scan without result")
            elif not isinstance(op.result, tuple):
                raise HistoryError(f"op {op.op_id}: Scan result {op.result!r} is not a tuple")
            else:
                for entry in op.result:
                    if type(entry) is LabeledObject and type(entry.label) is Label:
                        tag = entry.label.tag
                        if (type(tag) is Tag and type(entry.owner) is int and type(tag.seq) is int
                                and type(tag.pid) is int and type(entry.payload) is int):
                            continue
                    why = _not_a(entry, "LabeledObject", 4, "(owner, seq, pid, payload)")
                    raise HistoryError(f"op {op.op_id}: Scan entry {entry!r} {why}")

    @classmethod
    def _from_records(cls, n: int, ops: Iterable[CtsOp]) -> "CtsHistory":
        """A CtsHistory of records built by :func:`_cts_record` for a run
        of ``n`` processes, none of which :meth:`_validate` can refuse on
        its own: only :func:`sequential_ops` is checked here."""
        h = object.__new__(cls)
        _set_n(h, n)
        _set_ops(h, sequential_ops(ops))
        return h


_set_n, _set_ops = CtsHistory.n.__set__, CtsHistory.ops.__set__


def _not_a(value: object, name: str, n: int, fields: str) -> str:
    """Why :meth:`CtsHistory._validate` refuses a label or Scan entry: a
    tuple of ``n`` exact ints is of the wrong type, anything else holds the
    wrong values."""
    if isinstance(value, tuple) and len(value) == n and all(type(x) is int for x in value):
        return f"is not a {name}"
    return f"is not {n} integers {fields}"


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
            ends.append(PENDING_END if op.end is None else op.end)
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


def _cts_record(spec: ProtocolSpec, op_id: int, proc: int, kind: str, arg: int | None,
                ret: tuple, start: int, end: int) -> CtsOp:
    """A finished Labeling's or Scan's record, from its return value: the
    assigned (seq, pid), or a tuple of the scanned (owner, seq, pid,
    payload) entries in temporal order, each a tuple of exact ints.  The
    engine builds it once per op, as ``CTS.record``, and checks it once,
    here: ``_Sim`` checked the payload, the kind and the process, which
    leaves the return.  A return of any other shape, which no trace could
    carry, is refused by a CtsHistory of a record that holds it as
    returned, but for the Scan entries before the first bad one, converted,
    so that CtsHistory's message names that entry; so every record this
    builds passes :meth:`CtsHistory._validate`."""
    # op_id, proc, kind, start, end, payload, label, result
    if kind == LABELING:
        if isinstance(ret, tuple) and len(ret) == 2 and type(ret[0]) is int and type(ret[1]) is int:
            return CtsOp(op_id, proc, LABELING, start, end, arg, Tag(*ret))
        record = CtsOp(op_id, proc, LABELING, start, end, arg, ret)
    else:
        if isinstance(ret, tuple):
            result = []
            for entry in ret:
                if not isinstance(entry, tuple) or len(entry) != 4:
                    break
                owner, seq, pid, payload = entry
                if (type(owner) is not int or type(seq) is not int or type(pid) is not int
                        or type(payload) is not int):
                    break
                result.append(LabeledObject(owner, Label(Tag(seq, pid)), payload))
            else:
                return CtsOp(op_id, proc, SCAN, start, end, None, None, tuple(result))
            ret = (*result, *ret[len(result):])
        record = CtsOp(op_id, proc, SCAN, start, end, None, None, ret)
    CtsHistory(spec.n_processes, (record,))  # raises
    return record


def extract_cts_history(execution: Execution) -> CtsHistory:
    """Project a cts execution onto a CtsHistory.

    The engine built each op's CtsOp when the op finished (``HLOp.record``,
    by ``CTS.record``: the protocol's ``history`` must be :data:`CTS`),
    so executions that share an op share its record, and this only sorts
    them and checks what a whole history requires
    (:func:`~regsim.history.sequential_ops`).
    """
    spec = execution.protocol
    if LABELING not in spec.budgets or spec.history is not CTS:
        raise EngineError(f"protocol {spec.name!r} is not a timestamp system")
    return CtsHistory._from_records(spec.n_processes, [op.record for op in execution.ops])


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


#: Timestamp histories, judged by :func:`check_cts` at their one level.
CTS = HistoryKind(
    levels={"cts": None},
    arg_kinds=frozenset({LABELING}),
    record=_cts_record,
    extract=lambda execution: extract_cts_history(execution),
    check=lambda h, level: check_cts(h),
    serialize=lambda h, extensions: serialize_cts_trace(h, extensions),
    parse=lambda text: parse_cts_trace(text),
)
