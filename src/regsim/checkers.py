"""Judging histories against the safe / regular / atomic hierarchy.

``check_level`` is the production checker.  ``brute_force_atomic`` is an
independent oracle, a backtracking enumeration of orders that drops each
failing prefix, and shares no code with the search-based checker; the two
must agree on every history small enough for the oracle, and the test suite
holds them to that.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Mapping

from .history import (
    History,
    HistoryError,
    OpKind,
    OpRecord,
    SemanticsLevel,
    VarSpec,
    WriteLog,
    read_values,
    read_window,
    slot_init,
    write_index,
)

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Execution

#: Maximum completed ops per variable fed to the factorial oracle.
BRUTE_FORCE_LIMIT = 8

_end = attrgetter("end")

#: Per-operation-kind cap on base-register accesses.
StepBudget = Mapping[str, int]


@slot_init
@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of a check: pass/fail plus a machine-usable witness.

    A failing verdict names the violating operation and explains why; a
    passing atomicity verdict carries one witness linearization (a sequence
    of op ids) per variable.
    """

    ok: bool
    violating_op: int | None = None
    reason: str | None = None
    linearizations: Mapping[str, tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        if not self.ok and (self.violating_op is None or self.reason is None):
            raise ValueError("failing verdict requires a witness")


#: The verdict of every passing check that carries no witness.
PASS = Verdict(ok=True)


def _require_single_writer(h: History, level: SemanticsLevel) -> None:
    vars = h.vars
    for spec in vars.values():
        if len(spec.writers) > 1:
            break
    else:  # no declared variable has a second writer
        return
    touched = {op.var for op in h.ops}
    for var in touched:
        if len(vars[var].writers) > 1:
            raise HistoryError(
                f"var {var!r}: {level.name.lower()} classification undefined, use Atomic"
            )


def check_level(h: History, level: SemanticsLevel) -> Verdict:
    """Does the history conform to the given semantics level?

    Safe and Regular are per-Read conditions on single-writer variables:
    each variable's Writes are indexed once, and each Read makes one
    :func:`~regsim.history.read_window` call, two bisections that give its
    latest preceding value and the others its level allows, and tests its
    return against that pair without listing, sorting or holding a value
    set, O(n log n) in all; that loop is :func:`bad_read`, which ``regsim
    enumerate`` runs on a leaf's own records too.  Only a failing Read's
    message lists the values (:func:`~regsim.history.read_values`).
    Atomic searches,
    per variable, for a total order of the operations that extends
    precedence and in which every Read returns the argument of the latest
    preceding Write (or the initial value).  It first walks the completed
    ops in end order, the search's own first descent, and returns that
    order if every Read in it returns the current value, with no search
    state built.  Otherwise the search resumes from the prefix before the
    first Read that blocks: it extends partial sequences only while the
    read-value constraints remain satisfiable, remembers failed (placed
    set, current value) states and runs on an explicit stack, at worst
    about 2^n * n states for n ops on a variable rather than n! orders,
    and no depth limit.  Each node scans
    only as far as the last op that starts before the lowest unplaced op
    ends, so where few ops overlap a search that never backtracks costs
    O(n log n).  Where Writes start after the same ops end, each waits
    for those of its value among them that come before it in candidate
    order, values no Read returns counting as one value; so k concurrent
    Writes of distinct values, two of them read, take 4k - 3 placed sets
    rather than 2^k, with the same verdict.
    """
    if level is SemanticsLevel.ATOMIC:
        return _check_atomic(h)
    _require_single_writer(h, level)
    vars = h.vars
    writes = write_index(vars, h.ops)
    r = bad_read(vars, writes, h.ops, level)
    if r is None:
        return PASS
    allowed = read_values(vars[r.var], writes[r.var], r.start, r.end, level)
    return Verdict(
        ok=False,
        violating_op=r.op_id,
        reason=(
            f"Read {r.op_id} on {r.var!r} returned {r.ret}, "
            f"{level.name.lower()} semantics allows {list(allowed)}"
        ),
    )


def bad_read(vars: Mapping[str, VarSpec], logs: Mapping[str, WriteLog],
             ops: Iterable[OpRecord], level: SemanticsLevel) -> OpRecord | None:
    """The first completed Read of ``ops`` whose return
    :func:`~regsim.history.read_window` does not allow at ``level``, Safe
    or Regular, on its single-writer variable given that variable's spec
    and Write log; None if every Read's return is allowed.  This is the one
    per-Read loop: :func:`check_level` runs it over a history, and
    ``regsim enumerate`` over a leaf's own records, with no History built."""
    window, R = read_window, OpKind.READ  # local names for the loop over every op
    for r in ops:
        if r.kind is not R or r.end is None:
            continue
        latest, others = window(vars[r.var], logs[r.var], r.start, r.end, level)
        if r.ret != latest and r.ret not in others:
            return r
    return None


def _check_atomic(h: History) -> Verdict:
    vars = h.vars
    lins: dict[str, tuple[int, ...]] = {}
    # one variable with ops: every op is on it, so no touched set is built
    for var in vars if len(vars) == 1 and h.ops else sorted({op.var for op in h.ops}):
        found, witness = _linearize_var(h, var)
        if found is None:
            return _unplaceable(var, witness)
        lins[var] = found
    return Verdict(True, None, None, lins)


def _unplaceable(var: str, witness: OpRecord | None) -> Verdict:
    assert witness is not None
    return Verdict(
        ok=False,
        violating_op=witness.op_id,
        reason=(
            f"no linearization of {var!r}: Read {witness.op_id} "
            f"(ret {witness.ret}) cannot be placed consistently"
        ),
    )


def _linearize_var(h: History, var: str) -> tuple[tuple[int, ...] | None, OpRecord | None]:
    """Search for a linearization of one variable.

    Completed operations must all be placed; pending Writes may be placed
    anywhere consistent with precedence or omitted entirely; pending Reads
    are ignored.  Candidates are tried in (end, start, op_id) order, which
    makes the returned witness deterministic.  Returns (sequence, None) on
    success, (None, blocking_read) on failure.

    The search's first descent places the completed ops in end order: at
    each node the lowest unplaced op ``low`` is a candidate, since every op
    that ends before it starts ends before it ends and so is placed, and
    it is tried first; nothing has failed yet, so the descent takes it
    unless it is a Read that does not return the current value.  That
    descent is walked first, with only the current value: if no Read
    blocks it, its order is the witness the search would return.  If a
    Read at index k blocks, the search starts from that prefix, with one
    frame per op below k as the descent would have pushed them, and goes
    on exactly as it would have from there.

    The search is depth-first over an explicit stack and remembers every
    failed (placed set, current value) state, so it visits at most about
    2^n * n states for n ops rather than n! orders, and has no depth limit.
    A failed state fails again wherever it recurs, at the same depth, so
    skipping it changes neither the witness nor the blocking Read.  A node
    whose lowest unplaced op is ``low`` scans only ``ops[low:reach[low]]``:
    an op beyond that starts after op ``low`` ends, so it cannot come next,
    and skipping it changes nothing either.

    Where two Writes have the same pre, which two Writes of one process
    never have, states are taken up to dominance (:func:`_symmetry`):

    * A Write waits for every Write below it with the same pre and the
      same value as keyed: it is a candidate only once they are placed.
      Take two such Writes a and b, a first in the candidate order: it
      ends earlier, or b is pending.  Both follow the same ops, and b
      precedes only ops that a precedes too.  So in any valid order or
      prefix that places b before a, or places b and not a, swapping the
      two keeps precedence and what must be placed, and every Read sees
      the same value.  The swapped prefix is as deep, and
      every Read blocked in the first is blocked in it too, since its
      lowest unplaced op is no lower.  So trying a first loses no
      linearization: the plain search, which tries a first anyway, finds
      nothing under b that it did not find under a.
    * A value no completed Read returns is only ever told apart from the
      values Reads return, so all such values are one value, -1 (values
      are never negative).

    So neither the witness nor the blocking Read changes.  k concurrent
    Writes of distinct values of which r are read take (k - r + 1) * 2^r
    placed sets rather than 2^k.
    """
    spec = h.vars[var]
    read = OpKind.READ
    # One pass over the start-sorted ops: completed ops, and pending Writes
    # (already in start order, which is their candidate order).  With one
    # variable every op is on it.
    ops: list[OpRecord] = []
    pending: list[OpRecord] = []
    for o in h.ops if len(h.vars) == 1 else [o for o in h.ops if o.var == var]:
        if o.end is not None:
            ops.append(o)
        elif o.kind is not read:
            pending.append(o)
    need = len(ops)
    if need == 0:
        return (), None
    # Ends are distinct steps, so sorting by end alone is the (end, start,
    # op_id) order; completed ops come first: they are exactly ops[:need].
    ops.sort(key=_end)

    # The first descent: the end order, while every Read returns the
    # current value.
    value = spec.init
    for k, o in enumerate(ops):
        if o.kind is read:
            if o.ret != value:
                break
        else:
            value = o.arg
    else:
        return tuple([o.op_id for o in ops]), None

    ends = [o.end for o in ops]
    ops += pending
    # Per op: pre, is-Read, value, and the bits of the Writes it waits
    # for, none until _symmetry sets them.  ops[:pre] are the ops
    # that end before this one starts, so it may come next once every op
    # below pre is placed.  reach[l] is one past the last op whose pre <= l:
    # with ops below l placed, no op from reach[l] on may come next.
    cands = []
    reach = [0] * (need + 1)
    for j, o in enumerate(ops, 1):
        pre = bisect_left(ends, o.start)
        reach[pre] = j
        if o.kind is read:
            cands.append((pre, True, o.ret, 0))
        else:
            cands.append((pre, False, o.arg, 0))
    top = 0
    for j, r in enumerate(reach):  # running maximum, in place
        if r > top:
            top = r
        else:
            reach[j] = top
    # A Write waits only for Writes of its pre, which one process's Writes
    # never share.
    init = _symmetry(cands, spec.init) if len(spec.writers) > 1 else spec.init

    # One (placed mask, value, next candidate) frame per placed op: the
    # descent's, up to the blocking Read at index k.  The descent places
    # ops in index order, so no Write before the Writes it waits for.
    stack: list[tuple[int, int, int]] = []
    value = init
    for j in range(k):
        stack.append(((1 << j) - 1, value, j + 1))
        if not cands[j][1]:
            value = cands[j][2]
    mask, i = (1 << k) - 1, 0

    failed: set[tuple[int, int]] = set()
    # Deepest prefix the search reached, and the reads rejected there:
    # the earliest of those is the reported inconsistency witness.
    best_depth = -1
    blocked: list[OpRecord] = []
    while True:
        low = (~mask & (mask + 1)).bit_length() - 1  # lowest unplaced op
        if low >= need:
            return tuple(ops[f[2] - 1].op_id for f in stack), None
        # i is 0 on a new node, one past the last tried candidate on a
        # resumed one; ops below low are all placed, ops from reach[low] on
        # must wait for op low, and a Write waits for the Writes below it
        # with its pre and value.
        for i in range(i if i > low else low, reach[low]):
            pre, is_read, v, below = cands[i]
            if pre > low or mask >> i & 1:
                continue
            if is_read:
                if v != value:
                    depth = len(stack)
                    if depth > best_depth:
                        best_depth = depth
                        blocked = [ops[i]]
                    elif depth == best_depth:
                        blocked.append(ops[i])
                    continue
                v = value
            elif below and below & ~mask:
                continue
            child = (mask | 1 << i, v)
            if child not in failed:
                stack.append((mask, value, i + 1))
                mask, value = child
                i = 0
                break
        else:
            failed.add((mask, value))
            if not stack:
                break
            mask, value, i = stack.pop()

    if blocked:
        witness = min(blocked, key=lambda o: (o.start, o.op_id))
    else:  # unreachable for interval orders, kept for safety
        witness = next(o for o in ops if o.kind is OpKind.READ)
    return None, witness


def _symmetry(cands: list[tuple[int, bool, int, int]], init: int) -> int:
    """Key a candidate table up to symmetry, in place, and return the
    initial value as keyed.  Each Write whose pre another Write shares has
    its value become -1 if no Read returns it (values are never negative),
    and gets the bits of every lower Write with the same pre and the same
    value as keyed: it waits for them."""
    write_pres = 0  # bit p set when some Write's pre is p
    shared = 0  # ... two Writes'
    seen = set()
    for pre, is_read, v, _ in cands:
        bit = 1 << pre
        if is_read:
            seen.add(v)
        elif write_pres & bit:
            shared |= bit
        else:
            write_pres |= bit
    if not shared:
        return init
    classes: dict[tuple[int, int], int] = {}
    for j, (pre, is_read, v, _) in enumerate(cands):
        if not is_read and shared >> pre & 1:
            if v not in seen:
                v = -1
            below = classes.get((pre, v), 0)
            cands[j] = (pre, False, v, below)
            classes[pre, v] = below | 1 << j
    return init if init in seen else -1


def brute_force_atomic(h: History) -> bool:
    """Independent atomicity oracle: enumerate orders, dropping failing
    prefixes.

    Per variable, every subset of pending Writes combined with all completed
    operations is put in every order; an order is accepted iff it extends
    precedence (no op may end before an earlier-placed op starts) and
    replays every Read's return value.  Orders are built one op at a time,
    depth first on an explicit stack, and a prefix is rejected at the first
    op that (a) ends before the largest start among the ops placed before
    it, or (b) is a Read returning other than the last placed Write's
    argument (the initial value if no Write is placed yet).  Both
    conditions read the prefix alone, so every order that extends a
    rejected prefix is rejected as well: dropping them together accepts
    exactly the orders that permuting outright would.  The empty order, of
    a variable with only pending Reads, is accepted.  Nothing is remembered
    between branches, every unplaced op is a candidate at every depth (no
    window, no order by end), and no code is shared with
    :func:`check_level`.  Guarded against factorial blow-up at
    ``BRUTE_FORCE_LIMIT`` completed ops per variable, checked on every
    variable before any is searched.
    """
    inf = float("inf")
    write_kind = OpKind.WRITE
    # Per variable, in order of first op: its completed ops and its pending
    # Writes as (start, end, is_write, value), the only fields read below.
    per_var: dict[str, tuple[list, list]] = {}
    for o in h.ops:
        lists = per_var.get(o.var)
        if lists is None:
            lists = per_var[o.var] = ([], [])
        write = o.kind is write_kind
        if o.end is not None:
            lists[0].append((o.start, o.end, write, o.arg if write else o.ret))
        elif write:
            lists[1].append((o.start, inf, True, o.arg))
    for var, (comp, _) in per_var.items():
        if len(comp) > BRUTE_FORCE_LIMIT:
            raise HistoryError(
                f"var {var!r}: {len(comp)} completed ops exceed oracle limit {BRUTE_FORCE_LIMIT}"
            )
    for var, (comp, pend) in per_var.items():
        init = h.vars[var].init
        if not any(
            _some_order(comp + list(extra), init)
            for k in range(len(pend) + 1)
            for extra in itertools.combinations(pend, k)
        ):
            return False
    return True


def _some_order(ops: list[tuple], init: int) -> bool:
    """Does some order of all of ``ops`` pass :func:`brute_force_atomic`'s
    two prefix conditions?  Reorders ``ops`` in place.

    At depth d, ``ops[:d]`` is the prefix placed so far and ``ops[d:]`` the
    ops still to place.  Op j is tried next by swapping it into position d
    and, on backtracking, swapped back, so each depth tries every remaining
    op once and the depths together try every order.
    """
    n = len(ops)
    # One (op tried at that depth, max start before it, value before it)
    # frame per depth below d; j is the next candidate to try at depth d.
    stack: list[tuple[int, int, int]] = []
    d, j, max_start, value = 0, 0, -1, init
    while d < n:
        for j in range(j, n):
            s, e, is_write, v = ops[j]
            if e < max_start or not is_write and v != value:
                continue
            ops[d], ops[j] = ops[j], ops[d]
            stack.append((j, max_start, value))
            if s > max_start:
                max_start = s
            if is_write:
                value = v
            d += 1
            j = d
            break
        else:
            if not d:
                return False
            d -= 1
            j, max_start, value = stack.pop()
            ops[d], ops[j] = ops[j], ops[d]
            j += 1
    return True


def classify(h: History) -> SemanticsLevel | None:
    """Highest level the history passes, or None if even Safe fails."""
    if check_level(h, SemanticsLevel.ATOMIC).ok:
        return SemanticsLevel.ATOMIC
    for level in (SemanticsLevel.REGULAR, SemanticsLevel.SAFE):
        if check_level(h, level).ok:
            return level
    return None


def check_wait_free(execution: "Execution", budget: StepBudget) -> Verdict:
    """Did every completed operation stay within its base-access budget?

    The budget maps operation kinds (e.g. ``"Write"``) to the maximum
    number of base-register accesses allowed, irrespective of scheduling.
    """
    for op in sorted(execution.ops, key=lambda o: o.start):
        if op.kind not in budget:
            raise KeyError(f"no budget for operation kind {op.kind!r}")
        if op.base_accesses > budget[op.kind]:
            return Verdict(
                ok=False,
                violating_op=op.op_id,
                reason=(
                    f"{op.kind} {op.op_id} by proc {op.proc} used "
                    f"{op.base_accesses} base accesses, budget {budget[op.kind]}"
                ),
            )
    return PASS
