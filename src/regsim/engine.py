"""Deterministic simulation of register protocols over weak base registers.

A protocol is a set of per-process resumable step programs operating on
single-writer base registers.  The engine runs one fully resolved
interleaving at a time: every scheduler choice (which process performs its
next event) and every adversary choice (which feasible value a safe or
regular base Read returns) is a decision, and a complete decision sequence
determines the execution exactly.  On top of single runs the module offers
seeded-random runs and exhaustive depth-first enumeration of the whole
decision tree at small scale.

Event model: every base-register access occupies an interval of two
scheduler events, invoke and respond.  Atomic base registers take effect at
the respond (equivalent commit placements are merged: distinct commit
orders are exactly distinct respond orders, all of which the enumerator
produces).  Safe and regular base Reads receive their value at respond
time, chosen by the adversary from the feasible set of the register's base
history so far.  A high-level operation's interval runs from its first to
its last event; operations that perform no base access occupy two dedicated
bookkeeping events so that every operation has a well-formed interval.
Step indices are assigned globally in scheduling order, one per event.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

from .checkers import Verdict, check_level
from .history import (PENDING_END, History, HistoryError, OpKind, OpRecord, SemanticsLevel,
                      VarSpec, parse_trace, read_values, serialize_trace, slot_init, write_log)


class EngineError(RuntimeError):
    """Protocol or simulation misbehaviour (not an adversary outcome)."""


class InvalidDecision(EngineError):
    """A decision sequence named an impossible choice."""


@dataclass(frozen=True, slots=True)
class BaseRegisterSpec:
    """One simulated base register: single writer, declared semantics."""

    name: str
    owner: int
    readers: frozenset[int]
    domain: int
    init: int
    semantics: SemanticsLevel

    def __post_init__(self) -> None:
        if self.domain < 2:
            raise EngineError(f"register {self.name}: domain must be >= 2")
        if not 0 <= self.init < self.domain:
            raise EngineError(f"register {self.name}: init outside domain")


class ReadAction(NamedTuple):
    """Program action: read base register ``reg`` (index into the layout)."""

    reg: int


class WriteAction(NamedTuple):
    """Program action: write ``value`` to base register ``reg``."""

    reg: int
    value: int


class ReturnAction(NamedTuple):
    """Program action: finish the operation, returning ``value`` and
    replacing the process's persistent memory with ``memory``."""

    value: object
    memory: object


Action = ReadAction | WriteAction | ReturnAction


class StepProgram:
    """Resumable step programs for one protocol.

    ``begin`` starts an operation and ``resume`` continues it after a base
    access; both return ``(action, state)`` where state is an opaque
    immutable continuation.  The engine threads ``state`` back into
    ``resume`` together with the base Read result (None after a Write).
    Persistent per-process memory is replaced only by ``ReturnAction``.

    ``begin`` and ``resume`` must be deterministic in their arguments up
    to exact equality: two calls whose arguments are equal and of the same
    type at every depth return equal actions and states.
    :func:`enumerate_executions` relies on it to walk a tail that one
    process runs alone only once.  ``mem`` and ``state`` should be
    hashable; where one is not, such a tail is walked step by step.
    """

    def initial_memory(self, proc: int) -> object:
        return None

    def begin(self, proc: int, mem: object, kind: str, arg: int | None) -> tuple[Action, object]:
        raise NotImplementedError

    def resume(self, proc: int, mem: object, state: object, result: int | None) -> tuple[Action, object]:
        raise NotImplementedError


class HistoryKind(NamedTuple):
    """One family of histories, judged at each of ``levels``: a map from a
    level's name, the default first, to what ``check`` takes for it.
    ``arg_kinds`` names the op kinds that take an arg (a value in ``[0,
    domain)``).  ``record(spec, op_id, proc, kind, arg, ret, start, end)``
    builds a finished op's record.  ``extract``, ``check``, ``serialize``
    and ``parse`` call their layer function by module attribute at each
    call, so that a wrapper patched over the attribute sees the call."""

    levels: Mapping[str, object]
    arg_kinds: frozenset[str]
    record: Callable[..., object]
    extract: Callable[[Execution], object]
    check: Callable[[object, object], Verdict]
    serialize: Callable[[object, Mapping[str, object] | None], str]
    parse: Callable[[str], object]


def _register_record(spec: ProtocolSpec, op_id: int, proc: int, kind: str, arg: int | None,
                     ret: object, start: int, end: int) -> OpRecord:
    """A finished register operation's record on the implemented variable,
    checked once, here: ``_Sim`` checked the process's role and a Write's
    arg, which leaves a Read's return to be an exact int in the domain.  A
    Read that returned anything else is refused by a History of its
    record, with that History's message."""
    var = spec.var_name
    # op_id, proc, var, kind, start, end, arg, ret
    if kind == "Write":
        return OpRecord(op_id, proc, var, OpKind.WRITE, start, end, arg, None)
    record = OpRecord(op_id, proc, var, OpKind.READ, start, end, None, ret)
    if type(ret) is not int or not 0 <= ret < spec.domain:
        History(spec._high_vars, (record,))  # raises
    return record


#: Register histories, judged at atomic (the default), regular or safe.
REGISTER = HistoryKind(
    levels={level.name.lower(): level for level in reversed(SemanticsLevel)},
    arg_kinds=frozenset({"Write"}),
    record=_register_record,
    extract=lambda execution: extract_history(execution, SCOPE_HIGH),
    check=lambda h, level: check_level(h, level),
    serialize=lambda h, extensions: serialize_trace(h, extensions),
    parse=lambda text: parse_trace(text),
)


@dataclass(frozen=True)
class ProtocolSpec:
    """A register or timestamp construction ready to simulate.

    ``var_name`` names the implemented high-level variable for register
    protocols (None for timestamp systems, which have no single variable),
    checked once, here, by the rule every History applies to its variables.
    ``budgets`` declares the wait-freedom contract: exact worst-case base
    accesses per operation kind.  ``history`` is the protocol's
    :class:`HistoryKind`: :data:`REGISTER` or ``timestamp.CTS``.
    """

    name: str
    n_processes: int
    registers: tuple[BaseRegisterSpec, ...]
    program: StepProgram
    budgets: Mapping[str, int]
    var_name: str | None
    domain: int
    init: int
    writers: frozenset[int]
    readers: frozenset[int]
    history: HistoryKind = REGISTER

    def __post_init__(self) -> None:
        if self.n_processes < 1:
            raise EngineError("protocol needs at least one process")
        names = [r.name for r in self.registers]
        if len(set(names)) != len(names):
            raise EngineError("duplicate base register names")
        if self.var_name is not None:
            try:
                self._high_vars[self.var_name]._validate(self.var_name)
            except HistoryError as exc:
                raise EngineError(str(exc)) from None

    @cached_property
    def _high_vars(self) -> dict[str, VarSpec]:
        """The implemented variable's declaration, built once per protocol."""
        return {self.var_name: VarSpec(self.domain, self.init, self.writers, self.readers)}


@slot_init
@dataclass(frozen=True, slots=True)
class HLOp:
    """One completed high-level operation in an execution.

    ``record`` is the op's history record, built by the protocol's
    ``history.record`` when the op finishes.  It takes no part in equality
    or repr.  An enumeration builds each distinct finish once, record
    included, and every execution of the walk that has the op shares the
    one object (:meth:`_Sim._finish_op`), which the walk holds until it
    returns: within one walk, two ops with the same ``id`` are the same op.
    """

    op_id: int
    proc: int
    kind: str
    arg: int | None
    ret: object
    start: int
    end: int
    base_accesses: int
    record: object = field(default=None, compare=False, repr=False)


# Event tuples: (step, proc, etype, reg_index, rw, value, op_id)
# etype: "bi" base invoke / "br" base respond / "ob" op begin / "oe" op end
# (the latter two only for operations that perform no base access).
Event = tuple[int, int, str, int | None, str | None, int | None, int]

#: One decision: (process, adversary_value_or_None).
Decision = tuple[int, int | None]

Workload = Sequence[Sequence[tuple[str, int | None]]]


@slot_init
@dataclass(frozen=True, slots=True)
class Execution:
    """One fully resolved run: event log, completed operations, decisions."""

    protocol: ProtocolSpec
    events: tuple[Event, ...]
    ops: tuple[HLOp, ...]
    decisions: tuple[Decision, ...]


@dataclass
class EnumerationResult:
    """Outcome of :func:`enumerate_executions`.

    ``truncated`` is set when a limit cut the decision tree, and
    ``truncated_by`` names the limits that did (``"max_executions"``,
    ``"max_steps"`` or both, in that order); ``stopped`` when the visitor
    asked to stop early.  ``executions`` is populated only when no visitor
    was supplied.
    """

    count: int = 0
    truncated: bool = False
    truncated_by: tuple[str, ...] = ()
    stopped: bool = False
    executions: tuple[Execution, ...] = ()


class _Choices(Sequence):
    """A node's (proc, value) decisions, flattened lazily from (proc, values)
    branches, values ``(None,)`` for a scheduler step.  A safe Read's values
    stay a ``range(domain)``: 2^24 of them on a tag-encoded multiwriter n=2,
    and more than ``len()`` can count on a larger domain, so each branch's
    size is kept as a plain int, read as ``size`` rather than ``len()``."""

    def __init__(self, branches: list[tuple[int, Sequence[int | None]]]):
        self.branches = [
            (proc, values, values.stop if type(values) is range else len(values))
            for proc, values in branches
        ]
        self.size = sum(size for _, _, size in self.branches)

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return True  # built only while some process has a choice

    def __getitem__(self, i: int) -> Decision:
        for proc, values, size in self.branches:
            if 0 <= i < size:
                return proc, values[i]
            i -= size
        raise IndexError(i)

    def __iter__(self) -> Iterator[Decision]:
        return ((proc, v) for proc, values, _ in self.branches for v in values)


# A process's phase, the one record of what it may do at a node:
#   _IDLE            between ops, the next not begun: it may step (begin);
#   _DONE            its last op finished: it never steps again;
#   _PENDING_INVOKE  its next base access chosen: it may step (invoke);
#   _MID             a base Write or atomic base Read invoked: it may step
#                    (respond);
#   _AWAIT           a safe or regular base Read invoked: it responds with
#                    the value the adversary chooses;
#   _ENDING          an op with no base access begun: it may step (end).
# The two between ops come first: ``phase <= _DONE`` tests for either.
_IDLE, _DONE, _PENDING_INVOKE, _MID, _AWAIT, _ENDING = range(6)


def _exact_key(value: object) -> object:
    """A hashable key of an op's return, or of a process's memory, state or
    action, equal for two values only when they are the same type at every
    depth and equal: an exact int, str or None as itself, a plain tuple or
    one of the engine's actions by its type and its items' keys, anything
    else by identity (the walk's tables keep the object alive, so no other
    object takes its id).  ``1``, ``True`` and ``1.0`` compare equal and
    hash alike, ``ReadAction(0)`` equals ``(0,)``, and ``[1]`` cannot be
    hashed, so none of them is keyed as itself."""
    t = type(value)
    if t is int or t is str or value is None:
        return value
    if t is tuple or t is ReadAction or t is WriteAction or t is ReturnAction:
        return (t, *map(_exact_key, value))
    return (id, id(value))


class _Proc:
    """One process's runtime state.  ``phase``, one of the phases above, is
    the one record of whether it is done, may step, or awaits the
    adversary: only ``_Sim._invoke`` and ``_Sim._finish_op``, which set it,
    ask the base semantics or the workload.  Its current op is
    ``workload[proc][opidx]``, begun at step ``first`` as op ``uid``, with
    ``acc`` base accesses so far; ``binv`` is the invoke step of its
    current base Read."""

    __slots__ = ("mem", "state", "phase", "action", "opidx", "first", "acc", "uid", "binv")

    def __init__(self, mem: object, phase: int):
        self.mem = mem
        self.state = self.action = self.first = self.acc = self.uid = self.binv = None
        self.phase = phase
        self.opidx = 0


class _Sim:
    """Mutable single-execution simulator with O(1) event undo."""

    def __init__(self, spec: ProtocolSpec, workload: Workload):
        if len(workload) != spec.n_processes:
            raise EngineError(
                f"workload lists {len(workload)} processes, protocol has {spec.n_processes}"
            )
        var_name, arg_kinds = spec.var_name, spec.history.arg_kinds
        # A register protocol's op kinds, each with the processes that may run it.
        roles = {"Write": ("writer", spec.writers), "Read": ("reader", spec.readers)}
        for proc, ops in enumerate(workload):
            for kind, arg in ops:
                if kind not in spec.budgets:
                    raise EngineError(f"proc {proc}: unknown operation kind {kind!r}")
                if var_name is not None:
                    if kind not in roles:
                        raise EngineError(
                            f"proc {proc}: {kind!r} is not a Read or Write of {var_name!r}"
                        )
                    role, procs = roles[kind]
                    if proc not in procs:
                        raise EngineError(f"proc {proc}: {kind} by a process that is not a "
                                          f"{role} of {var_name!r}")
                if kind not in arg_kinds:
                    if arg is not None:
                        raise EngineError(f"proc {proc}: {kind} takes no arg, got {arg!r}")
                elif arg is None:
                    raise EngineError(f"proc {proc}: {kind} needs an arg")
                elif type(arg) is not int or not 0 <= arg < spec.domain:
                    raise EngineError(
                        f"proc {proc}: {kind} arg {arg!r} is not an integer in [0, {spec.domain})"
                    )
        self.spec = spec
        self.record = partial(spec.history.record, spec)
        self.workload = [list(ops) for ops in workload]
        self.program = spec.program
        self.regs = spec.registers
        self.step = 0
        self.next_uid = 0
        # Per register, its Write log as history.write_index gives a
        # variable's: (ends, starts, args) in start order, seeded with its
        # initial value, a pending Write's end history.PENDING_END.  Its one
        # writer is sequential, so only the last may be pending.
        self.reg_writes = [write_log(r.init) for r in self.regs]
        self.events: list[Event] = []
        self.hlops: list[HLOp] = []
        # Each distinct finish's HLOp, by its key (_finish_op): a table
        # only a walk of many executions sets, as enumerate_executions does.
        self.finished: dict[tuple, HLOp] | None = None
        self.decisions: list[Decision] = []
        self.procs = [_Proc(self.program.initial_memory(proc), _IDLE if ops else _DONE)
                      for proc, ops in enumerate(self.workload)]
        # Registers whose base Reads the adversary answers.
        self.weak = [r.semantics is not SemanticsLevel.ATOMIC for r in self.regs]
        self.step_choice = [(proc, None) for proc in range(spec.n_processes)]
        # Per process, the registers it may read, and its last tail_key's
        # memory, state, action and their keys.
        self.readable = [[i for i, r in enumerate(self.regs) if proc in r.readers]
                         for proc in range(spec.n_processes)]
        self.last_keyed: list[tuple | None] = [None] * spec.n_processes

    # -- decision surface ---------------------------------------------------

    def feasible(self, proc: int) -> Sequence[int]:
        """Adversary choices for the safe/regular base Read ``proc`` is about
        to complete at this step, in value order: exactly the values
        :func:`~regsim.history.read_values` lists over the register's Write
        log, the ones :func:`~regsim.history.read_window`, the one rule by
        which the checker judges a Read, allows at the register's level."""
        p = self.procs[proc]
        reg_idx = p.action.reg
        reg = self.regs[reg_idx]
        return read_values(reg, self.reg_writes[reg_idx], p.binv, self.step, reg.semantics)

    def choices(self) -> Sequence[Decision]:
        """This node's decisions in process order, read from each process's
        phase: none for a ``_DONE`` process, (proc, v) for each value
        :meth:`feasible` offers an ``_AWAIT`` one, (proc, None) for a
        scheduler step of any other.  Where the adversary chooses, the list
        is a lazy :class:`_Choices` that keeps each value set as computed."""
        out: list = []  # (proc, None) steps and (proc, values) adversary branches
        adversary = False
        for proc, p in enumerate(self.procs):
            phase = p.phase
            if phase == _AWAIT:
                out.append((proc, self.feasible(proc)))
                adversary = True
            elif phase != _DONE:
                out.append(self.step_choice[proc])
        if not adversary:
            return out
        return _Choices([(proc, (None,) if vals is None else vals) for proc, vals in out])

    # -- event application --------------------------------------------------

    def check(self, proc: int, value: int | None) -> None:
        """Raise :class:`InvalidDecision` unless ``(proc, value)`` is one of
        this node's :meth:`choices`, whose processes and values are exact
        ints: ``True`` or ``1.0`` compares equal to 1 but names no choice.
        It reads the phase as :meth:`choices` does: a ``_DONE`` process has
        no choice, an ``_AWAIT`` one needs a feasible value, any other
        none."""
        if type(proc) is not int:
            raise InvalidDecision(f"process {proc!r} is not an integer")
        p = self.procs[proc] if 0 <= proc < self.spec.n_processes else None
        if p is None or p.phase == _DONE:
            raise InvalidDecision(f"process {proc} has no pending step")
        if p.phase == _AWAIT:
            if value is None:
                raise InvalidDecision(f"process {proc}: adversary value required")
            if type(value) is not int:
                raise InvalidDecision(f"process {proc}: value {value!r} is not an integer")
            if value not in self.feasible(proc):
                raise InvalidDecision(f"process {proc}: value {value} not feasible")
        elif value is not None:
            raise InvalidDecision(f"process {proc}: unexpected adversary value")

    def apply(self, proc: int, value: int | None):
        """Perform one scheduler event for ``proc``; returns an undo token:
        (proc, its saved state, the Write log of the Write the event invoked
        or ended, or None).  The decision must be one of :meth:`choices`:
        callers that did not take it from there :meth:`check` it first."""
        p = self.procs[proc]
        phase, action = p.phase, p.action
        snap = (p.mem, p.state, phase, action, p.opidx, p.first, p.acc, p.uid, p.binv)
        step = self.step
        self.step += 1
        log = None

        if phase == _IDLE:
            p.uid = self.next_uid
            self.next_uid += 1
            p.first = step
            p.acc = 0
            kind, arg = self.workload[proc][p.opidx]
            action, state = self.program.begin(proc, p.mem, kind, arg)
            if type(action) is ReturnAction:
                p.phase = _ENDING
                p.action = action
                self.events.append((step, proc, "ob", None, None, None, p.uid))
            else:
                log = self._invoke(p, proc, action, state, step)
        elif phase == _PENDING_INVOKE:
            log = self._invoke(p, proc, action, p.state, step)
        elif phase == _ENDING:
            self.events.append((step, proc, "oe", None, None, None, p.uid))
            self._finish_op(p, proc, action, step)
        else:  # _MID or _AWAIT: the base access responds
            reg_idx = action.reg
            writes = self.reg_writes[reg_idx]
            if type(action) is WriteAction:
                writes[0][-1] = step  # the writer's pending Write ends
                log = writes
                result = None
                self.events.append((step, proc, "br", reg_idx, "W", action.value, p.uid))
            else:
                if phase == _AWAIT:
                    result = value
                else:
                    # An atomic Write takes effect at its respond, so an
                    # atomic Read returns the latest ended Write's value: the
                    # log's last, or the one before it while the last is
                    # pending.
                    result = writes[2][-1] if writes[0][-1] is not PENDING_END else writes[2][-2]
                self.events.append((step, proc, "br", reg_idx, "R", result, p.uid))
            nxt, state = self.program.resume(proc, p.mem, p.state, result)
            if type(nxt) is ReturnAction:
                self._finish_op(p, proc, nxt, step)
            else:
                p.action = nxt
                p.state = state
                p.phase = _PENDING_INVOKE

        self.decisions.append((proc, value))
        return (proc, snap, log)

    def _invoke(self, p: _Proc, proc: int, action, state, step: int) -> tuple | None:
        """Invoke the base access ``action`` of ``p`` at ``step``, once the
        program may take it.  The phase it sets is ``_AWAIT`` for a Read of
        a register whose Reads the adversary answers, else ``_MID``."""
        if type(action) is ReadAction:
            reg = self.regs[action.reg]
            if proc not in reg.readers:
                raise EngineError(f"proc {proc} may not read register {reg.name}")
        elif type(action) is WriteAction:
            reg = self.regs[action.reg]
            if proc != reg.owner:
                raise EngineError(f"proc {proc} does not own register {reg.name}")
            if not 0 <= action.value < reg.domain:
                raise EngineError(f"value {action.value} outside domain of {reg.name}")
        else:
            raise EngineError(f"program produced invalid action {action!r}")
        p.acc += 1
        kind = self.workload[proc][p.opidx][0]
        if p.acc > self.spec.budgets[kind]:
            raise EngineError(
                f"{kind} by proc {proc} exceeded declared budget {self.spec.budgets[kind]}"
            )
        reg_idx = action.reg
        log = None
        if type(action) is WriteAction:
            self.events.append((step, proc, "bi", reg_idx, "W", action.value, p.uid))
            log = self.reg_writes[reg_idx]
            log[0].append(PENDING_END)
            log[1].append(step)
            log[2].append(action.value)
            p.phase = _MID
        else:
            self.events.append((step, proc, "bi", reg_idx, "R", None, p.uid))
            p.binv = step
            p.phase = _AWAIT if self.weak[reg_idx] else _MID
        p.action = action
        p.state = state
        return log

    def _finish_op(self, p: _Proc, proc: int, action: ReturnAction, step: int) -> None:
        """Append the op ``p`` finishes at ``step``, and set its phase:
        ``_DONE`` after its last op, else ``_IDLE``.  Where ``finished`` is
        a table, each distinct finish is built once per walk and then
        shared: it maps a finish's key to its HLOp, record included.  The
        key holds everything the two depend on (``proc`` and ``opidx`` fix
        the kind and arg), the return by :func:`_exact_key`, so a hit is the
        object a miss would build.  A single run has no table: no two of its
        finishes share a uid, so it builds each op directly."""
        uid, ret, start, opidx, acc = p.uid, action.value, p.first, p.opidx, p.acc
        finished, op = self.finished, None
        if finished is not None:
            key = (uid, proc, opidx, start, step, acc, _exact_key(ret))
            op = finished.get(key)
        if op is None:
            kind, arg = self.workload[proc][opidx]
            record = self.record(uid, proc, kind, arg, ret, start, step)
            # op_id, proc, kind, arg, ret, start, end, base_accesses, record
            op = HLOp(uid, proc, kind, arg, ret, start, step, acc, record)
            if finished is not None:
                finished[key] = op
        self.hlops.append(op)
        p.mem = action.memory
        p.opidx += 1
        p.phase = _IDLE if p.opidx < len(self.workload[proc]) else _DONE
        p.action = None
        p.state = None

    def undo(self, token) -> None:
        proc, snap, log = token
        p = self.procs[proc]
        self.step -= 1
        self.decisions.pop()
        self.events.pop()
        if p.phase <= _DONE:  # the event finished an op: _IDLE or _DONE
            self.hlops.pop()
        if log is not None:
            if log[0][-1] is PENDING_END:  # the event invoked this Write
                for writes in log:
                    writes.pop()
            else:  # it ended it
                log[0][-1] = PENDING_END
        p.mem, p.state, p.phase, p.action, p.opidx, p.first, p.acc, p.uid, p.binv = snap
        if p.phase == _IDLE:  # the event began an op
            self.next_uid -= 1

    def snapshot(self) -> Execution:
        return Execution(
            protocol=self.spec,
            events=tuple(self.events),
            ops=tuple(self.hlops),
            decisions=tuple(self.decisions),
        )

    def tail_key(self, proc: int) -> tuple[tuple, tuple] | None:
        """``(key, held)`` of the tail from this node, where ``proc`` is the
        one process not ``_DONE`` and does not await the adversary: the
        branch is forced, and every base Read it makes overlaps no Write, so
        it reads its register's last value.  ``key`` holds everything the
        tail's events, finishes and decisions depend on: ``proc``, its
        fields but ``binv`` (its memory, state and action by
        :func:`_exact_key`), the step, and the last value of each register
        ``proc`` may read.  The next uid follows from ``proc``'s phase and
        op index, since every other process has begun all its ops.
        ``held`` holds the objects keyed, which a table must keep alive.
        None where the memory, state or action cannot be hashed: such a
        tail is walked step by step.

        Tails that the walk reaches one after another often start from the
        same memory, state and action objects of ``proc``, so their keys are
        kept from its last call (``last_keyed``) and reused while the
        objects are the same."""
        p = self.procs[proc]
        mem, state, action = p.mem, p.state, p.action
        last = self.last_keyed[proc]
        if last is not None and last[0] is mem and last[1] is state and last[2] is action:
            keys = last[3]
        else:
            try:
                hash((mem, state, action))
            except TypeError:
                return None
            keys = (_exact_key(mem), _exact_key(state), _exact_key(action))
            self.last_keyed[proc] = (mem, state, action, keys)
        logs = self.reg_writes
        values = [logs[i][2][-1] for i in self.readable[proc]]
        return ((proc, p.phase, p.opidx, p.first, p.acc, p.uid, self.step, keys,
                 *map(_exact_key, values)), (mem, state, action, *values))


def run_schedule(spec: ProtocolSpec, workload: Workload, decisions: Iterable[Decision]) -> Execution:
    """Replay a decision sequence exactly.  Pure: identical inputs produce
    identical executions.  Raises :class:`InvalidDecision` if a decision is
    impossible at its decision point or the sequence leaves work pending."""
    sim = _Sim(spec, workload)
    for proc, value in decisions:
        sim.check(proc, value)
        sim.apply(proc, value)
    if sim.choices():
        raise InvalidDecision("decision sequence ends before the workload completes")
    return sim.snapshot()


#: Default enumeration limits; both must stay finite.
DEFAULT_MAX_EXECUTIONS = 1_000_000
DEFAULT_MAX_STEPS = 10_000


def enumeration_limits(limits: Mapping[str, int] | None) -> tuple[int, int]:
    """``(max_executions, max_steps)`` of an :func:`enumerate_executions`
    ``limits`` mapping, defaults filled in.  Raises :class:`EngineError`
    for an unknown key or a limit that is not an int of at least 1."""
    limits = dict(limits or {})
    max_exec = limits.pop("max_executions", DEFAULT_MAX_EXECUTIONS)
    max_steps = limits.pop("max_steps", DEFAULT_MAX_STEPS)
    if limits:
        raise EngineError(f"unknown limit keys: {sorted(limits)}")
    for name, value in (("max_executions", max_exec), ("max_steps", max_steps)):
        if type(value) is not int or value < 1:
            raise EngineError(f"limit {name} {value!r} is not an integer >= 1")
    return max_exec, max_steps


def enumerate_executions(
    spec: ProtocolSpec,
    workload: Workload,
    limits: Mapping[str, int] | None = None,
    visit: Callable[[Execution], bool | None] | None = None,
) -> EnumerationResult:
    """Depth-first enumeration of the full decision tree.

    Explores every interleaving and every adversary value choice.  With no
    ``visit`` callback all executions are collected into the result; with
    one, each execution is passed to it instead (return False to stop
    early).  ``limits`` may bound ``max_executions`` (tree is flagged
    truncated when more leaves exist) and ``max_steps`` (branches longer
    than this are cut and flagged); each limit is an int of at least 1.

    Where one process is left and does not await the adversary, the rest of
    the branch is forced: a tail with one leaf.  The walk steps through
    each distinct tail once (:meth:`_Sim.tail_key`) and joins the stored
    events, ops and decisions to the branch wherever the tail comes again.
    So the program must keep :class:`StepProgram`'s contract: ``begin`` and
    ``resume`` deterministic up to exact equality.  Every leaf is still
    visited once, in depth-first order, equal to the one a step-by-step
    walk builds and holding the walk's own ops; a tail a limit cuts or an
    error ends is stored nowhere.
    """
    max_exec, max_steps = enumeration_limits(limits)
    result = EnumerationResult()
    cut_executions = cut_steps = False
    collected: list[Execution] = []
    sim = _Sim(spec, workload)
    sim.finished = {}  # executions of one walk share their ops
    apply, undo, choices_of = sim.apply, sim.undo, sim.choices
    # Each walked tail's (events, ops, decisions, held objects) by its key.
    tails: dict[tuple, tuple] = {}
    # The tail being walked: (key, held, start step, ops before it); False
    # where it cannot be keyed, None outside a tail.
    tail = None

    # One [iterator over the node's remaining choices, undo token of the
    # applied one] frame per node on the current branch, so the depth is
    # bounded by max_steps rather than by Python's recursion limit.
    stack: list[list] = []
    choices = choices_of()
    while True:
        execution = None
        if not choices:
            execution = sim.snapshot()
            if tail:
                key, held, start, n_ops = tail
                tails[key] = (execution.events[start:], execution.ops[n_ops:],
                              execution.decisions[start:], held)
        elif sim.step >= max_steps:
            cut_steps = True  # cut this branch, keep exploring siblings
        else:
            stored = None
            if tail is None and type(choices) is list and len(choices) == 1:
                keyed = sim.tail_key(choices[0][0])
                tail = False
                if keyed is not None:
                    stored = tails.get(keyed[0])
                    if stored is None:
                        tail = (*keyed, sim.step, len(sim.hlops))
            if stored is None:
                # Descend into the node's first child.
                rest = iter(choices)
                stack.append([rest, apply(*next(rest))])
                choices = choices_of()
                continue
            # The tail is stored, so it ended within max_steps from this
            # step, which its key holds: join it to the branch.
            events, ops, decisions, _ = stored
            execution = Execution(spec, tuple(sim.events) + events, tuple(sim.hlops) + ops,
                                  tuple(sim.decisions) + decisions)
        if execution is not None:
            if result.count >= max_exec:
                cut_executions = True
                break
            result.count += 1
            if visit is None:
                collected.append(execution)
            elif visit(execution) is False:
                result.stopped = True
                break
        # Step to the next unexplored sibling, backtracking past exhausted
        # nodes: a tail's nodes have none, so this leaves any tail.
        tail = None
        while stack:
            frame = stack[-1]
            undo(frame[1])
            decision = next(frame[0], None)
            if decision is not None:
                frame[1] = apply(*decision)
                break
            stack.pop()
        else:
            break
        choices = choices_of()

    result.truncated_by = tuple(
        name for name, cut in (("max_executions", cut_executions), ("max_steps", cut_steps)) if cut
    )
    result.truncated = bool(result.truncated_by)
    result.executions = tuple(collected)
    return result


def random_execution(spec: ProtocolSpec, workload: Workload, seed: int) -> Execution:
    """One execution with all decisions drawn from ``random.Random(seed)``
    (CPython's Mersenne Twister): at every decision point one entry of the
    flattened, deterministically ordered (process, value) choice list of
    :meth:`_Sim.choices` is picked uniformly, so it needs no
    :meth:`_Sim.check`.  The index is drawn as ``randrange(n)`` draws it on
    CPython 3.10-3.13 (``getrandbits(n.bit_length())`` until it is below
    ``n``), so identical seeds give identical executions on each of them.

    The walk reads the phase of the process that stepped, the only one
    whose phase an event changes: ``live`` keeps the processes not
    ``_DONE``, in process order, and ``awaiting`` counts those in
    ``_AWAIT``.  While none awaits, the choice list is exactly
    ``(p, None)`` for each ``p`` in ``live``, so :meth:`_Sim.choices` is
    built only while the adversary has a say."""
    getrandbits = random.Random(seed).getrandbits
    sim = _Sim(spec, workload)
    apply, procs = sim.apply, sim.procs
    live = [proc for proc, p in enumerate(procs) if p.phase != _DONE]
    awaiting = 0
    while live:
        choices = sim.choices() if awaiting else live
        n = choices.size if awaiting else len(live)
        k = n.bit_length()
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        if awaiting:
            proc, value = choices[i]
            if value is not None:  # the adversary answered proc's Read
                awaiting -= 1
        else:
            proc, value = live[i], None
        apply(proc, value)
        phase = procs[proc].phase
        if phase == _AWAIT:
            awaiting += 1
        elif phase == _DONE:
            live.remove(proc)
    return sim.snapshot()


# ---------------------------------------------------------------------------
# History extraction
# ---------------------------------------------------------------------------

SCOPE_HIGH = "high"
SCOPE_BASE = "base"


def extract_history(execution: Execution, scope: str = SCOPE_HIGH) -> History:
    """Project an execution onto a History.

    High-level scope yields one OpRecord per protocol operation on the
    protocol's implemented variable: the engine built and checked each when
    its op finished (``HLOp.record``), so executions that share an op share
    its record, and here they are only sorted and checked for what a whole
    history requires (:func:`~regsim.history.sequential_ops`).  Base-level
    scope yields one OpRecord per base-register access, one variable per
    register, built and fully validated here.
    """
    spec = execution.protocol
    if scope == SCOPE_HIGH:
        if spec.var_name is None:
            raise EngineError(
                f"protocol {spec.name!r} implements no register variable; "
                "use its own history extraction"
            )
        return History._from_records(spec._high_vars, [op.record for op in execution.ops])
    if scope != SCOPE_BASE:
        raise EngineError(f"unknown extraction scope {scope!r}")
    vars = {
        r.name: VarSpec(
            domain=r.domain, init=r.init,
            writers=frozenset({r.owner}), readers=r.readers,
        )
        for r in spec.registers
    }
    ops = []
    open_access: dict[int, tuple] = {}
    op_id = 0
    for step, proc, etype, reg_idx, rw, value, _uid in execution.events:
        if etype == "bi":
            open_access[proc] = (op_id, step, reg_idx, rw, value)
            op_id += 1
        elif etype == "br":
            oid, start, ridx, rw0, arg = open_access.pop(proc)
            reg = spec.registers[ridx]
            if rw0 == "W":
                ops.append(OpRecord(op_id=oid, proc=proc, var=reg.name, kind=OpKind.WRITE,
                                    start=start, end=step, arg=arg))
            else:
                ops.append(OpRecord(op_id=oid, proc=proc, var=reg.name, kind=OpKind.READ,
                                    start=start, end=step, ret=value))
    for proc, (oid, start, ridx, rw0, arg) in sorted(open_access.items()):
        reg = spec.registers[ridx]
        kind = OpKind.WRITE if rw0 == "W" else OpKind.READ
        ops.append(OpRecord(op_id=oid, proc=proc, var=reg.name, kind=kind,
                            start=start, end=None, arg=arg if rw0 == "W" else None))
    return History(vars=vars, ops=tuple(ops))


def max_accesses(executions: Iterable[Execution], out: dict[str, int] | None = None) -> dict[str, int]:
    """Maximum observed base accesses per operation kind, across executions,
    folded into ``out`` (a running tally) when given."""
    if out is None:
        out = {}
    for e in executions:
        for op in e.ops:
            if op.base_accesses > out.get(op.kind, -1):
                out[op.kind] = op.base_accesses
    return out
