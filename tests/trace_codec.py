"""The JSON-lines trace codec as it was before its per-line fast paths,
kept as a reference.

``write_trace`` builds a dict per event and renders each line with
``json.dumps(..., sort_keys=True)``; ``read_trace`` decodes each line with
``json.loads`` and looks op kinds up through the ``OpKind`` enum.  Both are
kept verbatim, with both formats' hooks, so that the differential tests can
require ``regsim.history`` and ``regsim.timestamp`` to write the same bytes
and to read the same histories, or raise the same ``TraceError`` text, on
every trace.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Mapping

from regsim.constructions import Tag
from regsim.history import (
    TRACE_VERSION,
    History,
    HistoryError,
    OpKind,
    OpRecord,
    TraceError,
    VarSpec,
    trace_int,
)
from regsim.timestamp import LABELING, SCAN, CtsHistory, CtsOp, Label, LabeledObject


def write_trace(header: Mapping[str, object], ops: Iterable, keys: Callable) -> str:
    """Render ops (anything with ``op_id``, ``proc``, ``start``, ``end``) as
    a trace under ``header``.  ``keys(op, respond)`` returns the
    kind-specific keys of the op's invoke (``respond`` false) or respond
    event; pending ops get no respond event."""
    events = []
    for op in ops:
        events.append({"step": op.start, "op": op.op_id, "proc": op.proc, "act": "invoke",
                       **keys(op, False)})
        if op.end is not None:
            events.append({"step": op.end, "op": op.op_id, "proc": op.proc, "act": "respond",
                           **keys(op, True)})
    events.sort(key=lambda e: e["step"])
    return "".join(json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n"
                   for e in [{"version": TRACE_VERSION, **header}, *events])


def read_trace(text: str, key: str, build_op: Callable, build: Callable):
    """Parse a trace whose header carries ``key`` and return
    ``build(header[key], ops)``.

    Each op is ``build_op(op_id, proc, start, end, invoke, respond)`` on its
    raw event objects (``end`` and ``respond`` are None for a pending op).
    Any fault, including a KeyError, TypeError or ValueError raised by a
    hook, comes out as a :class:`TraceError`.
    """
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise TraceError("empty trace")
    lineno = header_line = lines[0][0]
    try:
        header = json.loads(lines[0][1])
        if not isinstance(header, dict) or header.get("version") != TRACE_VERSION:
            raise TraceError("header missing or wrong version")
        if key not in header:
            raise TraceError(f"header has no {key!r}")
        open_ops: dict[int, tuple[int, int, int, dict]] = {}
        invoked: set[int] = set()
        ops = []
        last_step = -1
        for lineno, line in lines[1:]:
            ev = json.loads(line)
            step, op_id = trace_int(ev["step"], "step"), trace_int(ev["op"], "op")
            proc, act = trace_int(ev["proc"], "proc"), ev["act"]
            if step <= last_step:
                raise TraceError(f"line {lineno}: step {step} not increasing (duplicate or out of order)")
            last_step = step
            if act == "invoke":
                if op_id in invoked:
                    raise TraceError(f"line {lineno}: duplicate invoke for op {op_id}")
                invoked.add(op_id)
                open_ops[op_id] = (lineno, step, proc, ev)
            elif act == "respond":
                if op_id not in open_ops:
                    raise TraceError(f"line {lineno}: respond without invoke for op {op_id}")
                _, start, inv_proc, inv = open_ops.pop(op_id)
                if inv_proc != proc or inv["kind"] != ev["kind"] or inv.get("var") != ev.get("var"):
                    raise TraceError(f"line {lineno}: respond fields disagree with invoke for op {op_id}")
                ops.append(build_op(op_id, proc, start, step, inv, ev))
            else:
                raise TraceError(f"line {lineno}: unknown act {act!r}")
        for op_id, (lineno, start, proc, inv) in open_ops.items():
            ops.append(build_op(op_id, proc, start, None, inv, None))
        lineno = header_line
        return build(header[key], ops)
    except TraceError:
        raise
    except HistoryError as exc:
        raise TraceError(str(exc)) from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise TraceError(f"line {lineno}: invalid JSON: {exc}") from None
    except KeyError as exc:
        raise TraceError(f"line {lineno}: missing {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceError(f"line {lineno}: malformed: {exc}") from None


def _register_keys(op: OpRecord, respond: bool) -> dict:
    keys = {"var": op.var, "kind": op.kind.value}
    if op.kind is OpKind.WRITE and not respond:
        keys["arg"] = op.arg
    elif op.kind is OpKind.READ and respond:
        keys["ret"] = op.ret
    return keys


def _register_op(op_id, proc, start, end, inv, resp) -> OpRecord:
    kind = OpKind(inv["kind"])
    if not isinstance(inv["var"], str):
        raise TypeError(f"var {inv['var']!r} is not a string")
    return OpRecord(
        op_id=op_id, proc=proc, var=inv["var"], kind=kind, start=start, end=end,
        arg=trace_int(inv["arg"], "arg") if kind is OpKind.WRITE else None,
        ret=trace_int(resp["ret"], "ret") if resp is not None and kind is OpKind.READ else None,
    )


def _register_history(raw_vars, ops) -> History:
    if not isinstance(raw_vars, dict):
        raise TraceError("header vars is not an object")
    vars = {
        name: VarSpec(
            domain=trace_int(v["domain"], "domain"),
            init=trace_int(v["init"], "init"),
            writers=frozenset(trace_int(p, "writer") for p in v["writers"]),
            readers=frozenset(trace_int(p, "reader") for p in v["readers"]),
        )
        for name, v in raw_vars.items()
    }
    return History(vars=vars, ops=ops)


def serialize_trace(h: History, extensions: Mapping[str, object] | None = None) -> str:
    """Render a History in canonical trace form: header, then one event per
    line in step order.  ``extensions`` adds extra header keys (ignored by
    :func:`parse_trace`)."""
    vars = {
        name: {
            "domain": spec.domain,
            "init": spec.init,
            "writers": sorted(spec.writers),
            "readers": sorted(spec.readers),
        }
        for name, spec in sorted(h.vars.items())
    }
    return write_trace({"vars": vars, **(extensions or {})}, h.ops, _register_keys)


def parse_trace(text: str) -> History:
    """Parse a trace document and return a fully validated History."""
    return read_trace(text, "vars", _register_op, _register_history)


_CODES = {LABELING: "L", SCAN: "S"}
_KINDS = {"L": LABELING, "S": SCAN}


def _cts_keys(op: CtsOp, respond: bool) -> dict:
    keys: dict[str, object] = {"kind": _CODES[op.kind]}
    if op.kind == LABELING and not respond:
        keys["arg"] = op.payload
    elif op.kind == LABELING:
        keys["ret"] = [op.label.seq, op.label.pid]
    elif respond:
        keys["ret"] = [[e.owner, e.label.tag.seq, e.label.tag.pid, e.payload] for e in op.result]
    return keys


def _cts_op(op_id, proc, start, end, inv, resp) -> CtsOp:
    kind = _KINDS[inv["kind"]]
    if kind == LABELING:
        label = None
        if resp is not None:
            seq, pid = resp["ret"]
            label = Tag(trace_int(seq, "seq"), trace_int(pid, "pid"))
        return CtsOp(op_id=op_id, proc=proc, kind=kind, start=start, end=end,
                     payload=trace_int(inv["arg"], "arg"), label=label)
    result = None if resp is None else tuple(
        LabeledObject(owner=trace_int(o, "owner"),
                      label=Label(Tag(trace_int(s, "seq"), trace_int(p, "pid"))),
                      payload=trace_int(v, "payload"))
        for o, s, p, v in resp["ret"]
    )
    return CtsOp(op_id=op_id, proc=proc, kind=kind, start=start, end=end, result=result)


def serialize_cts_trace(h: CtsHistory, extensions: Mapping[str, object] | None = None) -> str:
    return write_trace({"cts": {"n": h.n}, **(extensions or {})}, h.ops, _cts_keys)


def parse_cts_trace(text: str) -> CtsHistory:
    return read_trace(text, "cts", _cts_op,
                      lambda spec, ops: CtsHistory(n=trace_int(spec["n"], "n"), ops=tuple(ops)))
