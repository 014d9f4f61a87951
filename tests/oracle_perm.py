"""The atomicity oracle as it was before prefix pruning, kept as a reference.

``brute_force_atomic`` is the original ``regsim.checkers.brute_force_atomic``,
kept verbatim so that the differential tests can require the backtracking
oracle to return the same verdict on every history.  It permutes every
variable's ops outright, n! orders for n ops, so it only suits histories of
at most ``BRUTE_FORCE_LIMIT`` completed ops per variable.
"""

from __future__ import annotations

import itertools

from regsim import History, HistoryError, OpKind
from regsim.checkers import BRUTE_FORCE_LIMIT


def brute_force_atomic(h: History) -> bool:
    """Independent atomicity oracle: enumerate every permutation.

    Per variable, every subset of pending Writes combined with all completed
    operations is permuted outright; a permutation is accepted iff it
    extends precedence (no op may end before an earlier-placed op starts)
    and replays every Read's return value.  No pruning, no code shared with
    :func:`check_level`.  Guarded against factorial blow-up at
    ``BRUTE_FORCE_LIMIT`` completed ops per variable.
    """
    inf = float("inf")
    for var in {op.var for op in h.ops}:
        completed = [o for o in h.ops if o.var == var and o.completed]
        pending_writes = [
            o for o in h.ops if o.var == var and not o.completed and o.kind is OpKind.WRITE
        ]
        if len(completed) > BRUTE_FORCE_LIMIT:
            raise HistoryError(
                f"var {var!r}: {len(completed)} completed ops exceed oracle limit {BRUTE_FORCE_LIMIT}"
            )
        init = h.vars[var].init
        # (start, end, is_write, value) per op; the loop below touches
        # nothing else, keeping the permutation scan cheap.
        comp = [
            (o.start, o.end, o.kind is OpKind.WRITE,
             o.arg if o.kind is OpKind.WRITE else o.ret)
            for o in completed
        ]
        pend = [(o.start, inf, True, o.arg) for o in pending_writes]
        found = False
        for k in range(len(pend) + 1):
            for extra in itertools.combinations(pend, k):
                for perm in itertools.permutations(comp + list(extra)):
                    max_start = -1
                    value = init
                    for s, e, is_write, v in perm:
                        if e < max_start:
                            break
                        if s > max_start:
                            max_start = s
                        if is_write:
                            value = v
                        elif v != value:
                            break
                    else:
                        found = True
                        break
                if found:
                    break
            if found:
                break
        if not found:
            return False
    return True
