"""Seeded and exhaustive history generators shared by the test modules.

The exhaustive corpus enumerates single-variable histories up to the
symmetries the checkers provably ignore.  Both ``check_level(.., Atomic)``
and ``brute_force_atomic`` read a history only through (a) the pairwise
precedence comparisons ``end < start`` among its operations, (b) operation
kinds, (c) write arguments and read returns, and (d) the initial value.
Process identities and the concrete step numbers behind a fixed precedence
relation are invisible to them, and relabeling the values {1, 2} (keeping
the initial 0 fixed) maps valid linearizations to valid linearizations.
So one representative interval layout per distinct precedence matrix,
crossed with every kind assignment and every value tuple whose first
nonzero value is 1, covers every history in the class.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from typing import Iterator

from hypothesis import strategies as st

from regsim import (
    CtsHistory,
    CtsOp,
    History,
    Label,
    LabeledObject,
    OpKind,
    OpRecord,
    Tag,
    VarSpec,
    build_cts,
    build_multireader,
    build_multiwriter,
    enumerate_executions,
    extract_cts_history,
    extract_history,
    random_execution,
)
from regsim.engine import SCOPE_HIGH, _Sim
from regsim.scenario import build_protocol
from regsim.timestamp import LABELING, SCAN


def random_single_writer_history(rng: random.Random, max_ops: int = 6) -> History:
    """A valid random history on one variable: process 0 writes, processes
    1..n read, roughly a tenth of the ops pending, read returns biased
    toward plausible values so all verdicts stay reachable."""
    m = rng.randint(2, 4)
    n_readers = rng.randint(1, 3)
    k = rng.randint(0, max_ops)
    streams: dict[int, list[tuple[str, int | None]]] = {p: [] for p in range(n_readers + 1)}
    for _ in range(k):
        if rng.random() < 0.45:
            streams[0].append(("W", rng.randrange(m)))
        else:
            streams[rng.randint(1, n_readers)].append(("R", None))
    plausible = [a for kd, a in streams[0] if kd == "W"] + [0]

    recs: dict[int, dict] = {}
    queues: dict[int, list[tuple[int, str]]] = {}
    op_id = 0
    for p, ops in streams.items():
        q = []
        for i, (kd, a) in enumerate(ops):
            pending = i == len(ops) - 1 and rng.random() < 0.10
            ret = None
            if kd == "R" and not pending:
                ret = rng.choice(plausible) if rng.random() < 0.75 else rng.randrange(m)
            recs[op_id] = {"proc": p, "kind": kd, "arg": a, "ret": ret, "start": None, "end": None}
            q.append((op_id, "i"))
            if not pending:
                q.append((op_id, "r"))
            op_id += 1
        if q:
            queues[p] = q
    step = 0
    while queues:
        p = rng.choice(sorted(queues))
        oid, act = queues[p].pop(0)
        recs[oid]["start" if act == "i" else "end"] = step
        step += 1
        if not queues[p]:
            del queues[p]
    ops = tuple(
        OpRecord(
            op_id=oid, proc=r["proc"], var="x",
            kind=OpKind.WRITE if r["kind"] == "W" else OpKind.READ,
            start=r["start"], end=r["end"],
            arg=r["arg"] if r["kind"] == "W" else None,
            ret=r["ret"],
        )
        for oid, r in recs.items()
    )
    vars = {
        "x": VarSpec(
            domain=m, init=0,
            writers=frozenset({0}),
            readers=frozenset(range(1, n_readers + 1)),
        )
    }
    return History(vars=vars, ops=ops)


# ---------------------------------------------------------------------------
# Exhaustive corpus
# ---------------------------------------------------------------------------


def interval_matchings(k: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All ways to lay k operation intervals over steps 0..2k-1, operations
    ordered by start."""

    def rec(avail: list[int], acc: list[tuple[int, int]]):
        if not avail:
            yield tuple(acc)
            return
        s = avail[0]
        for e in avail[1:]:
            rest = [x for x in avail if x != s and x != e]
            acc.append((s, e))
            yield from rec(rest, acc)
            acc.pop()

    yield from rec(list(range(2 * k)), [])


def precedence_structures(k: int) -> list[tuple[tuple[int, int], ...]]:
    """One representative interval layout per distinct precedence matrix."""
    seen: dict[tuple, tuple] = {}
    for m in interval_matchings(k):
        mat = tuple(tuple(m[i][1] < m[j][0] for j in range(k)) for i in range(k))
        if mat not in seen:
            seen[mat] = m
    return list(seen.values())


def canonical_value_tuples(k: int, domain: int = 3) -> list[tuple[int, ...]]:
    """Value tuples over the domain whose first nonzero entry is 1: one
    representative per orbit of the value relabelings that fix 0."""
    out = []
    for vals in itertools.product(range(domain), repeat=k):
        first_nonzero = next((v for v in vals if v), None)
        if first_nonzero in (None, 1):
            out.append(vals)
    return out


def corpus_histories(max_ops: int = 5, domain: int = 3) -> Iterator[History]:
    """Every single-variable history with up to ``max_ops`` completed ops
    over the domain, one per equivalence class (see module docstring)."""
    for k in range(max_ops + 1):
        everyone = frozenset(range(max(k, 1)))
        vars = {"x": VarSpec(domain=domain, init=0, writers=everyone, readers=everyone)}
        cvals = canonical_value_tuples(k, domain)
        for ivs in precedence_structures(k):
            for kinds in itertools.product((OpKind.WRITE, OpKind.READ), repeat=k):
                # Op i's record for each value, built once and shared by
                # every history with this layout and these kinds.
                records = [
                    [OpRecord(
                        op_id=i, proc=i, var="x", kind=kinds[i],
                        start=ivs[i][0], end=ivs[i][1],
                        arg=v if kinds[i] is OpKind.WRITE else None,
                        ret=v if kinds[i] is OpKind.READ else None,
                    ) for v in range(domain)]
                    for i in range(k)
                ]
                for vals in cvals:
                    yield History(vars=vars, ops=tuple(map(list.__getitem__, records, vals)))


def corpus_size(max_ops: int = 5, domain: int = 3) -> int:
    total = 0
    for k in range(max_ops + 1):
        total += len(precedence_structures(k)) * (2 ** k) * len(canonical_value_tuples(k, domain))
    return total


def contention_history(rng: random.Random, k: int) -> History:
    """k pairwise concurrent Writes of distinct values by k processes, then
    two sequential Reads by process k returning the values of two different
    Writes.  Both Reads follow every Write, so no linearization exists; a
    search that does not remember failed states tries all k! Write orders
    before it gives up."""
    values = rng.sample(range(1, k + 1), k)
    starts = rng.sample(range(k), k)  # every invoke ...
    ends = [k + s for s in rng.sample(range(k), k)]  # ... before every respond
    ops = [
        OpRecord(op_id=p, proc=p, var="x", kind=OpKind.WRITE,
                 start=starts[p], end=ends[p], arg=values[p])
        for p in range(k)
    ]
    first, second = rng.sample(values, 2)
    ops.append(OpRecord(op_id=k, proc=k, var="x", kind=OpKind.READ,
                        start=2 * k, end=2 * k + 1, ret=first))
    ops.append(OpRecord(op_id=k + 1, proc=k, var="x", kind=OpKind.READ,
                        start=2 * k + 2, end=2 * k + 3, ret=second))
    spec = VarSpec(domain=k + 1, init=0, writers=frozenset(range(k)), readers=frozenset({k}))
    return History(vars={"x": spec}, ops=tuple(ops))


@st.composite
def histories(draw, max_ops=24, max_domain=4, single_writer=False):
    """Valid histories on one or two variables: 1-4 sequential processes,
    each variable single-writer (process 0 writes, the others read) or, unless
    ``single_writer``, written and read by everyone, each process's last op
    pending with probability about one half, values from a small domain so
    Write values repeat."""
    n_procs = draw(st.integers(1, 4))
    names = ("x", "y")[: draw(st.integers(1, 2))]
    multi = {v: draw(st.booleans()) and not single_writer for v in names}
    domain = draw(st.integers(2, max_domain))
    drawn = draw(st.lists(
        st.tuples(st.integers(0, n_procs - 1), st.sampled_from(names),
                  st.booleans(), st.integers(0, domain - 1)),
        max_size=max_ops,
    ))
    streams: dict[int, list[list]] = {}
    for proc, var, is_write, value in drawn:
        if not multi[var]:
            is_write = proc == 0
        streams.setdefault(proc, []).append([proc, var, is_write, value, None, None])
    # Per process its ops' invoke (slot 4) and respond (slot 5) edges in
    # order; a pending last op has no respond.
    queues = {}
    for proc, ops in streams.items():
        last = ops[-1] if draw(st.booleans()) else None
        queues[proc] = [(op, edge) for op in ops for edge in (4, 5)
                        if edge == 4 or op is not last]
    step = 0
    while queues:
        active = sorted(queues)
        proc = active[draw(st.integers(0, len(active) - 1))]
        op, edge = queues[proc].pop(0)
        op[edge] = step
        step += 1
        if not queues[proc]:
            del queues[proc]
    everyone = frozenset(range(n_procs))
    specs = {
        v: VarSpec(domain=domain, init=0,
                   writers=everyone if multi[v] else frozenset({0}),
                   readers=everyone if multi[v] else everyone - {0})
        for v in names
    }
    ops = []
    for proc, var, is_write, value, start, end in (op for s in streams.values() for op in s):
        ops.append(OpRecord(
            op_id=len(ops), proc=proc, var=var,
            kind=OpKind.WRITE if is_write else OpKind.READ, start=start, end=end,
            arg=value if is_write else None,
            ret=value if not is_write and end is not None else None,
        ))
    return History(vars=specs, ops=tuple(ops))


@st.composite
def contention_like(draw, max_writes=7):
    """Histories shaped like ``contention_history`` but with the symmetries
    broken and kept at random: 2 to ``max_writes`` processes each make one
    Write, from values 1-3 so that values repeat across processes, each
    Write pending with probability about a quarter; one or two reader
    processes make one to three Reads each.  A Read returns a written
    value, the initial 0 or a value no Write writes, so Write values are
    read or unread.  Either every Write is invoked before any other event,
    all of them concurrent as in ``contention_history``, or every event
    interleaves at random, so Writes also follow and overlap Reads."""
    k = draw(st.integers(2, max_writes))
    values = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    unread = 4  # in the domain, written by nobody
    readers = draw(st.integers(1, 2))
    ops = [[p, True, values[p], None, None] for p in range(k)]
    streams = {p: [(ops[p], 3)] + ([] if draw(st.integers(0, 3)) == 0 else [(ops[p], 4)])
               for p in range(k)}
    for p in range(k, k + readers):
        reads = [[p, False, draw(st.sampled_from(values + [0, unread])), None, None]
                 for _ in range(draw(st.integers(1, 3)))]
        ops += reads
        streams[p] = [(op, edge) for op in reads for edge in (3, 4)]
    step = 0
    if draw(st.booleans()):
        for p in draw(st.permutations(range(k))):
            op, edge = streams[p].pop(0)
            op[edge] = step
            step += 1
    queues = {p: q for p, q in streams.items() if q}
    while queues:
        active = sorted(queues)
        p = active[draw(st.integers(0, len(active) - 1))]
        op, edge = queues[p].pop(0)
        op[edge] = step
        step += 1
        if not queues[p]:
            del queues[p]
    records = tuple(
        OpRecord(op_id=i, proc=p, var="x", kind=OpKind.WRITE if is_write else OpKind.READ,
                 start=start, end=end, arg=value if is_write else None,
                 ret=None if is_write else value)
        for i, (p, is_write, value, start, end) in enumerate(ops))
    spec = VarSpec(domain=unread + 1, init=0, writers=frozenset(range(k)),
                   readers=frozenset(range(k, k + readers)))
    return History(vars={"x": spec}, ops=records)


def engine_history(construction: str, seed: int, cut: bool = False) -> History:
    """A long high-level history of a random schedule of the n=3 engine
    construction: ``"multiwriter"`` runs 40 ops per process, Writes and
    Reads alternating; ``"multireader"`` 30 Writes and 30 Reads per reader.
    Write values cycle through 1..3, so they repeat.  With ``cut`` the
    schedule stops at a random decision in its second half, and the ops
    it leaves open are pending."""
    values = itertools.cycle((1, 2, 3))
    if construction == "multiwriter":
        spec = build_multiwriter(3)
        workload = [[("Write", next(values)) if i % 2 == 0 else ("Read", None)
                     for i in range(40)] for _ in range(3)]
    else:
        spec = build_multireader(3)
        workload = [[("Write", next(values)) for _ in range(30)]]
        workload += [[("Read", None)] * 30 for _ in range(3)]
    execution = random_execution(spec, workload, seed)
    if not cut:
        return extract_history(execution)
    # Replay a prefix of the schedule, at least half of it but not all, and
    # add the ops it leaves open: their events carry the op id, and each is
    # its process's next op in the workload.
    decisions = execution.decisions
    stop = random.Random(seed).randrange(len(decisions) // 2, len(decisions))
    sim = _Sim(spec, workload)
    for proc, value in decisions[:stop]:
        sim.apply(proc, value)
    execution = sim.snapshot()
    h = extract_history(execution)
    done = {o.op_id for o in execution.ops}
    started: dict[int, tuple[int, int]] = {}
    for step, proc, *_, op_id in execution.events:
        if op_id not in done:
            started.setdefault(op_id, (proc, step))
    pending = []
    for op_id, (proc, step) in started.items():
        kind, arg = workload[proc][sum(o.proc == proc for o in execution.ops)]
        pending.append(OpRecord(op_id, proc, spec.var_name,
                                OpKind.WRITE if kind == "Write" else OpKind.READ, step,
                                arg=arg))
    return History(vars=h.vars, ops=h.ops + tuple(pending))


def tree_histories(scenario, scope: str = SCOPE_HIGH) -> list[History]:
    """The distinct histories at the leaves of a scenario's decision tree,
    projected at ``scope``, in the order the walk first reaches them."""
    spec = build_protocol(scenario)
    leaves: dict[tuple, History] = {}
    for e in enumerate_executions(spec, scenario.workload, scenario.limits).executions:
        h = extract_history(e, scope)
        leaves.setdefault(h.ops, h)
    return list(leaves.values())


@st.composite
def cts_histories(draw):
    """A valid CtsHistory of 1-4 sequential processes whose invoke and
    respond events interleave at random, each process's last op pending
    with probability one half.  Labels mostly rise per process but may
    stall or fall; a Scan lists the processes in an order consistent with
    its preceding Labelings or in any order, and now and then drops an
    entry or breaks the ascending tags."""
    n = draw(st.integers(1, 4))
    streams = []
    for proc in range(n):
        ops = [{"proc": proc, "kind": LABELING if labeling else SCAN}
               for labeling in draw(st.lists(st.booleans(), max_size=6))]
        pending = ops[-1] if ops and draw(st.booleans()) else None
        streams.append([(op, edge) for op in ops for edge in ("start", "end")
                        if edge == "start" or op is not pending])
    ops = [op for s in streams for op, edge in s if edge == "start"]
    step = 0
    while any(streams):
        active = [s for s in streams if s]
        op, edge = active[draw(st.integers(0, len(active) - 1))].pop(0)
        op[edge] = step
        step += 1
    seq = [0] * n
    out = []
    for op_id, op in enumerate(ops):
        proc, start, end = op["proc"], op["start"], op.get("end")
        if op["kind"] == LABELING:
            seq[proc] = max(0, seq[proc] + draw(st.sampled_from([1, 1, 1, 1, 1, 2, 0, -1])))
            out.append(CtsOp(op_id, proc, LABELING, start, end, payload=op_id % 8,
                             label=None if end is None else Tag(seq[proc], proc)))
            continue
        result = None
        if end is not None:
            if draw(st.booleans()):
                # by the end of each process's latest Labeling before the Scan
                def latest_end(p):
                    return max((o["end"] for o in ops if o["kind"] == LABELING and o["proc"] == p
                                and o.get("end") is not None and o["end"] < start), default=-1)
                order = sorted(range(n), key=lambda p: (latest_end(p), p))
            else:
                order = list(draw(st.permutations(range(n))))
            tags = [Tag(i + 1, p) for i, p in enumerate(order)]
            fault = draw(st.sampled_from(["none"] * 18 + ["drop", "unsorted"]))
            if fault == "drop":
                order, tags = order[1:], tags[1:]
            elif fault == "unsorted" and n > 1:
                tags = tags[::-1]
            result = tuple(LabeledObject(p, Label(t), p) for p, t in zip(order, tags))
        out.append(CtsOp(op_id, proc, SCAN, start, end, result=result))
    return CtsHistory(n=n, ops=tuple(out))


def engine_cts_history(n: int, seed: int, length: int, cut: bool) -> CtsHistory:
    """A seeded random cts execution's history, or that of a prefix of its
    schedule (at least half of it) with the ops it leaves open pending."""
    spec = build_cts(n)
    workload = [[("Labeling", 1 + p), ("Scan", None)] * length for p in range(n)]
    execution = random_execution(spec, workload, seed)
    h = extract_cts_history(execution)
    if not cut:
        return h
    rng = random.Random(seed)
    stop = rng.randrange(execution.events[len(execution.events) // 2][0], len(execution.events))
    ops = []
    for op in h.ops:
        if op.start >= stop:
            continue
        if op.end >= stop:
            op = dataclasses.replace(op, end=None, label=None, result=None)
        ops.append(op)
    return CtsHistory(n=n, ops=tuple(ops))
