"""The atomicity search as it was before memoisation, kept as a reference.

``linearize_var`` is the original unmemoised, recursive depth-first search
behind ``check_level(.., Atomic)``, kept verbatim so that the differential
tests can require the memoised, iterative search in ``regsim.checkers`` to
return the same witness, violating op and reason on every history.  It is
factorial in the number of concurrent Writes and recurses once per placed
op, so it only suits small histories.
"""

from __future__ import annotations

from regsim import History, OpKind, OpRecord


def linearize_var(h: History, var: str) -> tuple[tuple[int, ...] | None, OpRecord | None]:
    """Search for a linearization of one variable.

    Completed operations must all be placed; pending Writes may be placed
    anywhere consistent with precedence or omitted entirely; pending Reads
    are ignored.  Candidates are tried in (end, start, op_id) order, which
    makes the returned witness deterministic.  Returns (sequence, None) on
    success, (None, blocking_read) on failure.
    """
    spec = h.vars[var]
    ops = [
        o for o in h.ops
        if o.var == var and (o.completed or o.kind is OpKind.WRITE)
    ]
    inf = float("inf")
    ops.sort(key=lambda o: (o.end if o.end is not None else inf, o.start, o.op_id))
    need = sum(1 for o in ops if o.completed)
    if need == 0:
        return (), None

    seq: list[int] = []
    remaining = set(range(len(ops)))
    # Deepest prefix the search reached, and the reads rejected there:
    # the earliest of those is the reported inconsistency witness.
    best_depth = -1
    blocked: list[OpRecord] = []

    def dfs(value: int, placed_completed: int) -> bool:
        nonlocal best_depth, blocked
        if placed_completed == need:
            return True
        for i in range(len(ops)):
            if i not in remaining:
                continue
            cand = ops[i]
            # cand is appendable only if no unplaced op must come first
            free = True
            for j in remaining:
                if j != i:
                    oj = ops[j]
                    if oj.end is not None and oj.end < cand.start:
                        free = False
                        break
            if not free:
                continue
            if cand.kind is OpKind.READ:
                if cand.ret != value:
                    depth = len(seq)
                    if depth > best_depth:
                        best_depth = depth
                        blocked = [cand]
                    elif depth == best_depth:
                        blocked.append(cand)
                    continue
                next_value = value
            else:
                next_value = cand.arg
            seq.append(i)
            remaining.discard(i)
            if dfs(next_value, placed_completed + (1 if cand.completed else 0)):
                return True
            remaining.add(i)
            seq.pop()
        return False

    if dfs(spec.init, 0):
        return tuple(ops[i].op_id for i in seq), None
    if blocked:
        witness = min(blocked, key=lambda o: (o.start, o.op_id))
    else:  # unreachable for interval orders, kept for safety
        witness = next(o for o in ops if o.kind is OpKind.READ)
    return None, witness
