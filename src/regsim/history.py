"""Operation histories over shared registers.

A History records Read and Write operation executions on named shared
variables as closed or half-open step intervals on a single logical
timeline.  This module owns the precedence relation between operation
executions, the per-Read feasible value sets under the safe / regular /
atomic semantics hierarchy, and the JSON-lines trace codec.

Step indices are distinct naturals; simultaneity does not exist.  Real
concurrency is expressed by interval overlap.  A pending operation
(invoked, never responded) has ``end is None`` and is treated as
extending to infinity for overlap purposes.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import MISSING, dataclass, fields
from enum import Enum, IntEnum
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Mapping, Sequence


class HistoryError(ValueError):
    """A History or operation record violates a model invariant."""


class TraceError(HistoryError):
    """A trace document is malformed or inconsistent."""


class OpKind(Enum):
    READ = "R"
    WRITE = "W"


class SemanticsLevel(IntEnum):
    """The three-level hierarchy of register semantics, totally ordered."""

    SAFE = 1
    REGULAR = 2
    ATOMIC = 3

    @classmethod
    def parse(cls, name: str) -> "SemanticsLevel":
        try:
            return cls[name.upper()]
        except KeyError:
            raise HistoryError(f"unknown semantics level: {name!r}") from None


def slot_init(cls):
    """Give a frozen slotted dataclass an ``__init__`` that stores each
    field through its slot's member descriptor, where the generated one
    calls ``object.__setattr__`` by name per field: about a third cheaper
    for the records built once per operation or per history.  Signature,
    defaults and the ``__post_init__`` call are the generated one's;
    assignment still raises ``FrozenInstanceError``.  Apply it above
    ``@dataclass(frozen=True, slots=True)``."""
    names: dict[str, object] = {}
    params, body = [], []
    for i, f in enumerate(fields(cls)):
        if not f.init or f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: slot_init takes plain fields only")
        names[f"_set{i}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            names[f"_default{i}"] = f.default
            params.append(f"{f.name}=_default{i}")
        body.append(f"_set{i}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), names)
    init = names["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = cls.__init__.__annotations__
    cls.__init__ = init
    return cls


@slot_init
@dataclass(frozen=True, slots=True)
class OpRecord:
    """One Read or Write operation execution.

    ``start`` and ``end`` are global step indices; ``end is None`` marks a
    pending operation.  Writes carry ``arg`` and never ``ret``; Reads carry
    ``ret`` exactly when completed.
    """

    op_id: int
    proc: int
    var: str
    kind: OpKind
    start: int
    end: int | None = None
    arg: int | None = None
    ret: int | None = None

    @property
    def completed(self) -> bool:
        return self.end is not None


@dataclass(frozen=True, slots=True)
class VarSpec:
    """Declaration of one shared variable: domain size, initial value, roles.

    The role members are checked once, here; the rest per history, where
    the variable has a name to report."""

    domain: int
    init: int
    writers: frozenset[int]
    readers: frozenset[int]

    def __post_init__(self) -> None:
        for role, procs in (("writer", self.writers), ("reader", self.readers)):
            for proc in procs:
                if type(proc) is not int:
                    raise HistoryError(f"{role} {proc!r} is not an integer")

    def _validate(self, name: str) -> None:
        if type(name) is not str:
            raise HistoryError(f"var {name!r}: name is not a string")
        if type(self.domain) is not int:
            raise HistoryError(f"var {name}: domain {self.domain!r} is not an integer")
        if type(self.init) is not int:
            raise HistoryError(f"var {name}: init {self.init!r} is not an integer")
        if self.domain < 2:
            raise HistoryError(f"var {name}: domain {self.domain} < 2")
        if not 0 <= self.init < self.domain:
            raise HistoryError(f"var {name}: init {self.init} outside domain")


_start = attrgetter("start")


def not_int(op, required: tuple[str, ...], optional: tuple[str, ...]) -> str:
    """The message for the first of an op's fields that is not an exact
    ``int`` (a bool or a float is refused), the ``optional`` ones also
    allowed to be None."""
    for name in required + optional:
        value = getattr(op, name)
        if type(value) is not int and (value is not None or name in required):
            return f"op {op.op_id!r}: {name} {value!r} is not an integer"
    raise AssertionError("every field is an integer")


def sequential_ops(ops: Iterable) -> tuple:
    """``ops`` sorted by start, checked for what every history requires of
    its intervals: exact int ``op_id``, ``proc``, ``start`` and ``end``
    (None while pending), unique ids and steps, each op ending after it
    starts, and sequential processes (a process's ops never overlap, and a
    pending op is its last; for 1-writer variables that also puts all
    Writes in one total order).  Raises :class:`HistoryError`."""
    try:
        ops = tuple(sorted(ops, key=_start))
    except TypeError:  # some start is not an int: the loop names the first
        ops = [op for op in ops if type(op.start) is not int]
    steps: set[int] = set()
    ids: set[int] = set()
    last: dict[int, object] = {}
    type_, int_ = type, int  # local names for the type tests on every op
    for op in ops:
        op_id, proc, start, end = op.op_id, op.proc, op.start, op.end
        if (type_(op_id) is not int_ or type_(proc) is not int_ or type_(start) is not int_
                or end is not None and type_(end) is not int_):
            raise HistoryError(not_int(op, ("op_id", "proc", "start"), ("end",)))
        if end is not None and end <= start:
            raise HistoryError(f"op {op_id}: end {end} not after start {start}")
        if op_id in ids:
            raise HistoryError(f"duplicate op id {op_id}")
        ids.add(op_id)
        if start in steps:
            raise HistoryError(f"duplicate step index {start}")
        steps.add(start)
        if end is not None:
            if end in steps:
                raise HistoryError(f"duplicate step index {end}")
            steps.add(end)
        prev = last.get(proc)
        if prev is not None and (prev.end is None or prev.end > start):
            raise HistoryError(f"proc {proc}: ops {prev.op_id} and {op_id} overlap")
        last[proc] = op
    return ops


def precedes(a: OpRecord, b: OpRecord) -> bool:
    """True iff ``a`` finishes before ``b`` starts.  Both must be completed."""
    if a.end is None or b.end is None:
        raise HistoryError("incomplete operation has no end")
    return a.end < b.start


def overlaps(a: OpRecord, b: OpRecord) -> bool:
    """True iff neither completed operation precedes the other."""
    return not precedes(a, b) and not precedes(b, a)


@slot_init
@dataclass(frozen=True, slots=True)
class History:
    """A set of operation executions over declared variables.

    Ops are stored sorted by start step; construction validates all model
    invariants and raises :class:`HistoryError` on violation.
    """

    vars: Mapping[str, VarSpec]
    ops: tuple[OpRecord, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vars", dict(self.vars))
        self._validate()

    def _validate(self) -> None:
        object.__setattr__(self, "ops", sequential_ops(self.ops))
        vars = self.vars
        for name, spec in vars.items():
            spec._validate(name)
        type_, int_ = type, int  # local names for the type tests on every op
        W, R = OpKind.WRITE, OpKind.READ
        for op in self.ops:
            op_id, proc, start, end, arg, ret = op.op_id, op.proc, op.start, op.end, op.arg, op.ret
            # The op on its own: integer values, Writes carry arg and never
            # ret; Reads carry ret exactly when completed.
            if (arg is not None and type_(arg) is not int_
                    or ret is not None and type_(ret) is not int_):
                raise HistoryError(not_int(op, (), ("arg", "ret")))
            if op_id < 0 or proc < 0 or start < 0:
                raise HistoryError(f"op {op_id}: negative id, proc or step")
            kind = op.kind
            if kind is W:
                if arg is None:
                    raise HistoryError(f"op {op_id}: Write without arg")
                if ret is not None:
                    raise HistoryError(f"op {op_id}: Write carries ret")
            elif kind is R:
                if arg is not None:
                    raise HistoryError(f"op {op_id}: Read carries arg")
                if (ret is not None) != (end is not None):
                    raise HistoryError(f"op {op_id}: Read must carry ret iff completed")
            else:
                raise HistoryError(f"op {op_id}: kind {kind!r} is not an OpKind")
            # The op on its variable.
            spec = vars.get(op.var)
            if spec is None:
                raise HistoryError(f"op {op_id}: undeclared variable {op.var!r}")
            if kind is W:
                if proc not in spec.writers:
                    raise HistoryError(f"op {op_id}: proc {proc} is not a writer of {op.var!r}")
                if not 0 <= arg < spec.domain:
                    raise HistoryError(f"op {op_id}: arg {arg} outside domain of {op.var!r}")
            else:
                if proc not in spec.readers:
                    raise HistoryError(f"op {op_id}: proc {proc} is not a reader of {op.var!r}")
                if ret is not None and not 0 <= ret < spec.domain:
                    raise HistoryError(f"op {op_id}: ret {ret} outside domain of {op.var!r}")

    @classmethod
    def _from_records(cls, vars: Mapping[str, VarSpec], ops: Iterable[OpRecord]) -> "History":
        """A History of records that were each checked on their own and on
        ``vars`` when they were built, over declarations checked when they
        were made: the engine's.  Only what no record can guarantee alone
        is checked here, by :func:`sequential_ops`."""
        h = object.__new__(cls)
        _set_vars(h, dict(vars))
        _set_ops(h, sequential_ops(ops))
        return h

    def ops_on(self, var: str) -> tuple[OpRecord, ...]:
        return tuple(o for o in self.ops if o.var == var)


_set_vars, _set_ops = History.vars.__set__, History.ops.__set__


def feasible_values(h: History, r: OpRecord, level: SemanticsLevel) -> set[int]:
    """Values a completed Read may legally return at the given level.

    For a Read overlapping no Write this is a singleton at every level: the
    argument of the latest preceding Write, or the variable's initial value.
    With overlap, Safe admits the whole domain while Regular (and, as a
    per-Read necessary condition, Atomic) admits the latest preceding value
    plus the argument of every overlapping Write.  Pending Writes count as
    overlapping everything invoked after them.

    Defined for single-writer variables only; multiwriter histories have no
    unique "latest preceding Write" and are judged globally by the atomicity
    checker instead.
    """
    if r not in h.ops:
        raise HistoryError(f"op {r.op_id} is not part of this history")
    if r.kind is not OpKind.READ:
        raise HistoryError(f"op {r.op_id} is not a Read")
    if not r.completed:
        raise HistoryError("incomplete operation has no end")
    spec = h.vars[r.var]
    if len(spec.writers) > 1:
        raise HistoryError(f"var {r.var!r}: classification undefined, use Atomic")
    return set(read_values(spec, write_index(h.vars, h.ops)[r.var], r.start, r.end, level))


#: A pending Write's end in every Write log: always this one object, so
#: that a test for a pending Write is an identity test.
PENDING_END = float("inf")

#: A variable's Writes as ``(ends, starts, args)`` lists in start order.
WriteLog = tuple[list, list[int], list[int]]


def write_log(init: int) -> WriteLog:
    """A variable's Write log before its first Write: its initial value as a
    Write that started at step -2 and ended at step -1, before every op."""
    return [-1], [-2], [init]


def write_index(vars: Mapping[str, VarSpec], ops: Iterable[OpRecord]) -> dict[str, WriteLog]:
    """Per variable of ``vars``, its Write log: ``(ends, starts, args)``
    lists, the first entry its :func:`write_log` seed, then each of its
    Writes in the order of ``ops`` (a pending Write's end
    :data:`PENDING_END`), in one pass.

    This is the one builder of a Write log from records, in the one
    Write-log format: the engine keeps each base register's Writes in it as
    they happen, and :func:`read_window` reads it for both.  ``ops`` must
    give each variable's Writes in start order.  A History's ops do, and on
    single-writer variables so do ops in finish order, as an execution
    gives them: one writer's Writes are totally ordered, so their finish
    order is their start order, and their ends come out sorted as well.
    """
    index = {name: write_log(spec.init) for name, spec in vars.items()}
    W = OpKind.WRITE  # a local name for the test on every op
    for w in ops:
        if w.kind is W:
            ends, starts, args = index[w.var]
            ends.append(PENDING_END if w.end is None else w.end)
            starts.append(w.start)
            args.append(w.arg)
    return index


def read_window(spec: VarSpec, log: WriteLog, start: int, end: int,
                level: SemanticsLevel) -> tuple[int, Sequence[int]]:
    """The safe/regular rule for one completed Read from ``start`` to
    ``end``, on a single-writer variable given its :func:`write_index` log
    and its ``spec`` (anything with a ``domain``): ``(latest, others)``,
    where the Read may return ``v`` iff ``v == latest or v in others``.
    ``latest`` is the value of the latest Write that ends before the Read
    starts (the log's seed, the initial value, if no other does).
    ``others`` is ``()`` where no Write overlaps the Read, ``range(domain)``
    at Safe where one does, and otherwise the overlapping Writes' args.
    Two bisections, O(log n).  It is the one definition of both levels,
    and the one place a level is applied: the checker (``check_level``)
    calls it once per Read, and :func:`read_values` lists what it allows.

    The Writes that end before the Read starts are a prefix, never empty
    since the seed ends at step -1; the latest of them is its last.  The
    Writes that start before the Read ends are a prefix at least as long;
    the ones between the two prefixes overlap it.
    """
    ends, starts, args = log
    k = bisect_left(ends, start)
    j = bisect_left(starts, end, k)
    if k == j:
        return args[k - 1], ()
    if level is SemanticsLevel.SAFE:
        return args[k - 1], range(spec.domain)
    return args[k - 1], args[k:j]


def read_values(spec: VarSpec, log: WriteLog, start: int, end: int,
                level: SemanticsLevel) -> tuple[int, ...] | range:
    """The values :func:`read_window` allows a completed Read at ``level``,
    in value order, each once, in one of three forms:

    - ``(value,)`` where no Write overlaps the Read;
    - ``range(spec.domain)`` where Safe admits the whole domain, which
      tests membership without holding a value per member;
    - otherwise (Regular) a tuple of the latest preceding value and every
      overlapping Write's arg.

    The engine's adversary offers exactly these values, in this order, to
    a safe or regular base Read, and a failing check lists them.
    """
    latest, others = read_window(spec, log, start, end, level)
    if not others:
        return (latest,)
    if type(others) is range:
        return others
    return tuple(sorted({latest, *others}))


# ---------------------------------------------------------------------------
# Trace codec (JSON lines).  Line 1 is a header holding "version" and the
# format's key: {"version":1,"vars":{name:{"domain":m,"init":v,"writers":[..],
# "readers":[..]}}} for registers, {"version":1,"cts":{"n":n}} for timestamp
# histories.  Each following line is one event, steps strictly increasing:
#   {"step":k,"op":id,"proc":p,"act":"invoke"|"respond",...kind-specific keys}
# Register events add "var" and "kind" ("R"|"W"); Write invokes carry "arg",
# completed Read responds "ret".  Unknown header keys (e.g. a "decisions"
# extension) are ignored on parse.
#
# Lines are written in canonical form: keys sorted, no spaces, ASCII only.
# Each format renders its event lines directly in that form, integers by
# repr (so a record's integer fields must be ints: a bool would come out as
# True) and strings and nested values through the one shared encoder, so a
# line builds no dict and no encoder.  Each line is read by one raw_decode;
# a line that is not exactly one JSON value goes to json.loads, so results
# and errors are json.loads's.
# ---------------------------------------------------------------------------

TRACE_VERSION = 1

#: The canonical encoder, as ``json.dumps(value, sort_keys=True,
#: separators=(",", ":"))`` without building an encoder per call.
encode_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_raw_decode = json.JSONDecoder().raw_decode
_step = itemgetter(0)


def write_trace(header: Mapping[str, object], ops: Iterable, lines: Callable) -> str:
    """Render ops (anything with ``start`` and ``end``) as a trace under
    ``header``.  ``lines(op)`` returns the op's invoke line and its respond
    line, None for a pending op, each in canonical form and ending in a
    newline; the writer puts them in step order."""
    events = []
    for op in ops:
        invoke, respond = lines(op)
        events.append((op.start, invoke))
        if respond is not None:
            events.append((op.end, respond))
    events.sort(key=_step)
    return encode_json({"version": TRACE_VERSION, **header}) + "\n" + "".join(
        [line for _, line in events])


def _decode(line: str):
    """``json.loads(line)``: one ``raw_decode`` where that reads the whole
    line as one value, else ``json.loads`` itself, for its result or error."""
    try:
        value, end = _raw_decode(line)
        if end == len(line):
            return value
    except (ValueError, RecursionError):
        pass
    return json.loads(line)


def read_trace(text: str, key: str, build_op: Callable, build: Callable):
    """Parse a trace whose header carries ``key`` and return
    ``build(header[key], ops)``.

    Each op is ``build_op(op_id, proc, start, end, invoke, respond)`` on its
    raw event objects (``end`` and ``respond`` are None for a pending op).
    Any fault, including a KeyError, TypeError or ValueError raised by a
    hook, comes out as a :class:`TraceError`.
    """
    lineno = header_line = 0
    try:
        open_ops: dict[int, tuple[int, int, int, dict]] = {}
        invoked: set[int] = set()
        ops = []
        last_step = -1
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line or line.isspace():
                continue
            if not header_line:
                header_line = lineno
                header = _decode(line)
                if not isinstance(header, dict) or header.get("version") != TRACE_VERSION:
                    raise TraceError("header missing or wrong version")
                if key not in header:
                    raise TraceError(f"header has no {key!r}")
                continue
            ev = _decode(line)
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
        if not header_line:
            raise TraceError("empty trace")
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


def trace_int(value: object, name: str) -> int:
    """``value`` if it is a JSON integer (not a bool, float or string)."""
    if type(value) is not int:
        raise TypeError(f"{name} {value!r} is not an integer")
    return value


def _register_lines(op: OpRecord) -> tuple[str, str | None]:
    ids, var = f'"op":{op.op_id!r},"proc":{op.proc!r}', encode_json(op.var)
    if op.kind is OpKind.WRITE:
        invoke = f'{{"act":"invoke","arg":{op.arg!r},"kind":"W",{ids},"step":{op.start!r},"var":{var}}}\n'
        if op.end is None:
            return invoke, None
        return invoke, f'{{"act":"respond","kind":"W",{ids},"step":{op.end!r},"var":{var}}}\n'
    invoke = f'{{"act":"invoke","kind":"R",{ids},"step":{op.start!r},"var":{var}}}\n'
    if op.end is None:
        return invoke, None
    return invoke, f'{{"act":"respond","kind":"R",{ids},"ret":{op.ret!r},"step":{op.end!r},"var":{var}}}\n'


_OP_KINDS = {kind.value: kind for kind in OpKind}


def _register_op(op_id, proc, start, end, inv, resp) -> OpRecord:
    code = inv["kind"]
    try:
        kind = _OP_KINDS[code]
    except (KeyError, TypeError):
        kind = OpKind(code)  # raises, with the enum's message
    var = inv["var"]
    if not isinstance(var, str):
        raise TypeError(f"var {var!r} is not a string")
    if kind is OpKind.WRITE:
        return OpRecord(op_id, proc, var, kind, start, end, trace_int(inv["arg"], "arg"))
    return OpRecord(op_id, proc, var, kind, start, end, None,
                    None if resp is None else trace_int(resp["ret"], "ret"))


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
    return write_trace({"vars": vars, **(extensions or {})}, h.ops, _register_lines)


def parse_trace(text: str) -> History:
    """Parse a trace document and return a fully validated History."""
    return read_trace(text, "vars", _register_op, _register_history)
