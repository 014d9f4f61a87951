"""Independent reference for the benchmark's correctness checks.

Written apart from ``regsim``: nothing here imports it, and every function
works on plain tuples.  An operation is ``(op_id, proc, kind, start, end,
value)`` with ``kind`` ``"W"`` or ``"R"``, ``end`` None while pending, and
``value`` the Write's argument or the Read's return (None for a pending
Read).  All histories here are on one variable.
"""

from __future__ import annotations

import json
import math

OP_ID, PROC, KIND, START, END, VALUE = range(6)


def precedes(a, b) -> bool:
    return a[END] is not None and a[END] < b[START]


# ---------------------------------------------------------------------------
# Per-Read safe / regular feasibility (single-writer variables)
# ---------------------------------------------------------------------------


def read_allowed(ops, r, level: str, init: int, domain: int) -> set[int]:
    """Values the completed Read ``r`` may return under ``level``
    ("safe" or "regular"): the latest preceding Write's value when no Write
    overlaps it; otherwise the whole domain (safe) or that value plus every
    overlapping Write's argument (regular).  A pending Write overlaps every
    Read that responds after it was invoked."""
    latest_end, latest = -1, init
    overlapping = []
    for w in ops:
        if w[KIND] != "W":
            continue
        if precedes(w, r):
            if w[END] > latest_end:
                latest_end, latest = w[END], w[VALUE]
        elif w[START] < r[END]:
            overlapping.append(w[VALUE])
    if not overlapping:
        return {latest}
    if level == "safe":
        return set(range(domain))
    return {latest, *overlapping}


def per_read_ok(ops, level: str, init: int, domain: int) -> bool:
    """Does every completed Read return a value ``level`` allows?"""
    return all(
        r[VALUE] in read_allowed(ops, r, level, init, domain)
        for r in ops
        if r[KIND] == "R" and r[END] is not None
    )


# ---------------------------------------------------------------------------
# Atomicity: replaying a witness, and deciding small histories outright
# ---------------------------------------------------------------------------


def replay_linearization(ops, order, init: int) -> bool:
    """Is ``order`` (a sequence of op ids) a linearization of ``ops``?

    It must hold every completed op once, may hold pending Writes, never
    holds pending Reads, must extend precedence, and every Read in it must
    return the value of the latest Write before it (or ``init``)."""
    by_id = {o[OP_ID]: o for o in ops}
    if len(set(order)) != len(order) or any(i not in by_id for i in order):
        return False
    placed = [by_id[i] for i in order]
    if any(o[KIND] == "R" and o[END] is None for o in placed):
        return False
    if {o[OP_ID] for o in ops if o[END] is not None} - set(order):
        return False
    max_start = -1
    value = init
    for o in placed:
        # an op placed later must not end before an earlier op started
        if o[END] is not None and o[END] < max_start:
            return False
        max_start = max(max_start, o[START])
        if o[KIND] == "W":
            value = o[VALUE]
        elif o[VALUE] != value:
            return False
    return True


def atomic_exists(ops, init: int) -> bool:
    """Does any linearization exist?  Depth-first over which op comes next,
    memoised on (ops placed, current value).  Meant for the small
    histories the benchmark decides outright (a few dozen ops at most)."""
    cand = [o for o in ops if o[END] is not None or o[KIND] == "W"]
    completed = frozenset(i for i, o in enumerate(cand) if o[END] is not None)
    # before[i]: ops that must be placed before cand[i] can be
    before = [
        frozenset(j for j, p in enumerate(cand) if precedes(p, o)) for o in cand
    ]
    dead: set[tuple[frozenset, int]] = set()

    def search(placed: frozenset, value: int) -> bool:
        if completed <= placed:
            return True
        if (placed, value) in dead:
            return False
        for i, o in enumerate(cand):
            if i in placed or not before[i] <= placed:
                continue
            if o[KIND] == "W":
                if search(placed | {i}, o[VALUE]):
                    return True
            elif o[VALUE] == value and search(placed | {i}, value):
                return True
        dead.add((placed, value))
        return False

    return search(frozenset(), init)


# ---------------------------------------------------------------------------
# Schedule-independent history key
# ---------------------------------------------------------------------------


def history_key(ops) -> tuple:
    """A key equal for two histories exactly when they differ only in step
    numbering and op ids: each op is named by (proc, index within proc),
    and the key holds every op's kind and value plus the order of all
    invoke and respond boundaries."""
    index = {}
    per_proc: dict[int, int] = {}
    for o in sorted(ops, key=lambda o: o[START]):
        k = per_proc.get(o[PROC], 0)
        per_proc[o[PROC]] = k + 1
        index[o[OP_ID]] = (o[PROC], k)
    bounds = []
    for o in ops:
        bounds.append((o[START], index[o[OP_ID]], 0))
        if o[END] is not None:
            bounds.append((o[END], index[o[OP_ID]], 1))
    bounds.sort()
    return (
        tuple(sorted((index[o[OP_ID]], o[KIND], o[VALUE]) for o in ops)),
        tuple(b[1:] for b in bounds),
    )


# ---------------------------------------------------------------------------
# Reading register traces (the JSON-lines format, parsed independently)
# ---------------------------------------------------------------------------


def read_trace(text: str):
    """Returns (header, ops) of a one-variable register trace."""
    lines = [json.loads(ln) for ln in text.splitlines() if ln.strip()]
    header, events = lines[0], lines[1:]
    recs: dict[int, list] = {}
    for ev in events:
        if ev["act"] == "invoke":
            recs[ev["op"]] = [ev["op"], ev["proc"], ev["kind"], ev["step"], None, ev.get("arg")]
        else:
            rec = recs[ev["op"]]
            rec[END] = ev["step"]
            if ev["kind"] == "R":
                rec[VALUE] = ev["ret"]
    return header, [tuple(r) for r in recs.values()]


# ---------------------------------------------------------------------------
# Expected sizes of exhaustive enumerations
# ---------------------------------------------------------------------------


def access_counts(construction: str, n: int) -> dict[str, int]:
    """Base accesses per operation kind, as the constructions' papers give
    them: multiwriter Write n+1 / Read n; multireader Write n / Read 2n-1
    (n without the writeback); cts Labeling n+1 / Scan n; one access per
    op for the single-register protocols."""
    return {
        "multiwriter": {"Write": n + 1, "Read": n},
        "multireader": {"Write": n, "Read": 2 * n - 1},
        "multireader_nowriteback": {"Write": n, "Read": n},
        "cts": {"Labeling": n + 1, "Scan": n},
        "regular_bit": {"Write": 1, "Read": 1},
        "raw_register": {"Write": 1, "Read": 1},
    }[construction]


def multinomial(parts) -> int:
    out, total = 1, 0
    for k in parts:
        total += k
        out *= math.comb(total, k)
    return out


def atomic_base_executions(construction: str, n: int, workload) -> int:
    """Executions of the full decision tree over atomic base registers:
    every base access is two scheduler events and no adversary choice
    exists, so the count is the multinomial of per-process event counts."""
    acc = access_counts(construction, n)
    return multinomial([sum(2 * acc[kind] for kind in ops) for ops in workload])


def weak_base_executions(procs, domain: int) -> int:
    """Executions of the full decision tree of a one-register protocol over
    a safe base register.

    ``procs`` lists, per process, its base accesses in order, each "W" or
    "R" (an op that performs no access is two bookkeeping events, "-").
    A Read's respond branches over every value in the domain when any
    Write overlaps it (a Write overlaps the Read unless it responded before
    the Read was invoked), and over one value otherwise."""
    events = [[(a, half) for a in accs for half in (0, 1)] for accs in procs]
    pos = [0] * len(procs)
    writes: list[list] = []  # [start, end or None]
    read_inv = [0] * len(procs)

    def walk(step: int) -> int:
        total, moved = 0, False
        for p, evs in enumerate(events):
            if pos[p] == len(evs):
                continue
            moved = True
            access, half = evs[pos[p]]
            pos[p] += 1
            branch = 1
            if access == "W":
                if half == 0:
                    writes.append([step, None, p])
                else:
                    rec = next(w for w in reversed(writes) if w[2] == p)
                    rec[1] = step
            elif access == "R":
                if half == 0:
                    saved = read_inv[p]
                    read_inv[p] = step
                elif any(w[1] is None or w[1] > read_inv[p] for w in writes):
                    branch = domain
            total += branch * walk(step + 1)
            # undo
            if access == "W":
                if half == 0:
                    writes.pop()
                else:
                    rec[1] = None
            elif access == "R" and half == 0:
                read_inv[p] = saved
            pos[p] -= 1
        return total if moved else 1

    return walk(0)
