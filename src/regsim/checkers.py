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
from typing import TYPE_CHECKING, Mapping

from .history import (
    History,
    HistoryError,
    OpKind,
    OpRecord,
    SemanticsLevel,
    read_values,
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
    touched = {op.var for op in h.ops}
    for var in touched:
        if len(h.vars[var].writers) > 1:
            raise HistoryError(
                f"var {var!r}: {level.name.lower()} classification undefined, use Atomic"
            )


def check_level(h: History, level: SemanticsLevel) -> Verdict:
    """Does the history conform to the given semantics level?

    Safe and Regular are per-Read conditions on single-writer variables:
    each variable's Writes are indexed once, and each Read bisects them for
    its latest preceding and its overlapping Writes, O(n log n) in all.
    Atomic searches, per variable, for a total order of the operations that
    extends precedence and in which every Read returns the argument of the
    latest preceding Write (or the initial value); the search extends
    partial sequences only while the read-value constraints remain
    satisfiable.  It remembers failed (placed set, current value) states
    and runs on an explicit stack: at worst about 2^n * n states for n ops
    on a variable rather than n! orders, and no depth limit.  Each node
    scans only as far as the last op that starts before the lowest unplaced
    op ends, so where few ops overlap a search that never backtracks costs
    O(n log n).
    """
    if level is SemanticsLevel.ATOMIC:
        return _check_atomic(h)
    _require_single_writer(h, level)
    vars = h.vars
    writes = write_index(h)
    for r in h.ops:  # already sorted by start
        if r.kind is not OpKind.READ or r.end is None:
            continue
        allowed = read_values(vars[r.var], writes.get(r.var), r, level)
        if r.ret not in allowed:
            return Verdict(
                ok=False,
                violating_op=r.op_id,
                reason=(
                    f"Read {r.op_id} on {r.var!r} returned {r.ret}, "
                    f"{level.name.lower()} semantics allows {sorted(allowed)}"
                ),
            )
    return PASS


def _check_atomic(h: History) -> Verdict:
    lins: dict[str, tuple[int, ...]] = {}
    for var in sorted({op.var for op in h.ops}):
        found, witness = _linearize_var(h, var)
        if found is None:
            assert witness is not None
            return Verdict(
                ok=False,
                violating_op=witness.op_id,
                reason=(
                    f"no linearization of {var!r}: Read {witness.op_id} "
                    f"(ret {witness.ret}) cannot be placed consistently"
                ),
            )
        lins[var] = found
    return Verdict(ok=True, linearizations=lins)


def _linearize_var(h: History, var: str) -> tuple[tuple[int, ...] | None, OpRecord | None]:
    """Search for a linearization of one variable.

    Completed operations must all be placed; pending Writes may be placed
    anywhere consistent with precedence or omitted entirely; pending Reads
    are ignored.  Candidates are tried in (end, start, op_id) order, which
    makes the returned witness deterministic.  Returns (sequence, None) on
    success, (None, blocking_read) on failure.

    The search is depth-first over an explicit stack and remembers every
    failed (placed set, current value) state, so it visits at most about
    2^n * n states for n ops rather than n! orders, and has no depth limit.
    A failed state fails again wherever it recurs, at the same depth, so
    skipping it changes neither the witness nor the blocking Read.  A node
    whose lowest unplaced op is ``low`` scans only ``ops[low:reach[low]]``:
    an op beyond that starts after op ``low`` ends, so it cannot come next,
    and skipping it changes nothing either.
    """
    spec = h.vars[var]
    read = OpKind.READ
    # One pass over the start-sorted ops: completed ops, and pending Writes
    # (already in start order, which is their candidate order).
    ops: list[OpRecord] = []
    pending: list[OpRecord] = []
    for o in h.ops:
        if o.var == var:
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
    ends = [o.end for o in ops]
    ops += pending
    # Per op: pre, is-Read, value.  ops[:pre] are the ops that end before
    # this one starts, so it may come next once every op below pre is placed.
    # reach[l] is one past the last op whose pre <= l: with ops below l
    # placed, no op from reach[l] on may come next.
    cands = []
    reach = [0] * (need + 1)
    for i, o in enumerate(ops, 1):
        pre = bisect_left(ends, o.start)
        reach[pre] = i
        cands.append((pre, True, o.ret) if o.kind is read else (pre, False, o.arg))
    top = 0
    for k, r in enumerate(reach):  # running maximum, in place
        if r > top:
            top = r
        else:
            reach[k] = top

    failed: set[tuple[int, int]] = set()
    # One (placed mask, value, next candidate) frame per placed op.
    stack: list[tuple[int, int, int]] = []
    mask, value, i = 0, spec.init, 0
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
        # must wait for op low.
        for i in range(i if i > low else low, reach[low]):
            pre, is_read, v = cands[i]
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
