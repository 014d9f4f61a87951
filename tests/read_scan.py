"""Regular and safe checking as it was before Writes were indexed, kept as a
reference.

``feasible_values`` and ``check_per_read`` are the body of
``history.feasible_values`` and the regular/safe branch of
``checkers.check_level`` from before each variable's Writes were indexed
once per check, kept verbatim so that the differential tests can require the
indexed path to return the same feasible value sets and the same Verdicts.
``feasible_values`` is also the reference for the engine's adversary, which
offers a safe or regular base Read exactly the values
``history.read_values`` allows: the checker's own rule, so only this copy
judges the adversary independently.  Nothing here calls into the checker:
``_require_single_writer`` is a verbatim copy of ``checkers``'s.  They
rescan the whole history once per Read, so they only suit small histories.
"""

from __future__ import annotations

from regsim import History, HistoryError, OpKind, OpRecord, SemanticsLevel, Verdict


def _require_single_writer(h: History, level: SemanticsLevel) -> None:
    touched = {op.var for op in h.ops}
    for var in touched:
        if len(h.vars[var].writers) > 1:
            raise HistoryError(
                f"var {var!r}: {level.name.lower()} classification undefined, use Atomic"
            )


def _overlaps_open(a: OpRecord, b: OpRecord) -> bool:
    # Pending intervals extend to infinity, so a pending op overlaps
    # everything invoked at any later step.
    a_end = a.end if a.end is not None else float("inf")
    b_end = b.end if b.end is not None else float("inf")
    return a.start < b_end and b.start < a_end


def feasible_values(h: History, r: OpRecord, level: SemanticsLevel) -> set[int]:
    if r not in h.ops:
        raise HistoryError(f"op {r.op_id} is not part of this history")
    if r.kind is not OpKind.READ:
        raise HistoryError(f"op {r.op_id} is not a Read")
    if not r.completed:
        raise HistoryError("incomplete operation has no end")
    spec = h.vars[r.var]
    if len(spec.writers) > 1:
        raise HistoryError(f"var {r.var!r}: classification undefined, use Atomic")
    latest_val = spec.init
    latest_end = -1
    overlapping: list[OpRecord] = []
    for w in h.ops:
        if w.var != r.var or w.kind is not OpKind.WRITE:
            continue
        if w.end is not None and w.end < r.start:
            if w.end > latest_end:
                latest_end = w.end
                latest_val = w.arg
        elif _overlaps_open(w, r):
            overlapping.append(w)
    if not overlapping:
        return {latest_val}
    if level is SemanticsLevel.SAFE:
        return set(range(spec.domain))
    return {latest_val} | {w.arg for w in overlapping}


def check_per_read(h: History, level: SemanticsLevel) -> Verdict:
    """``check_level(h, level)`` for Regular and Safe."""
    _require_single_writer(h, level)
    for r in h.ops:  # already sorted by start
        if r.kind is not OpKind.READ or not r.completed:
            continue
        allowed = feasible_values(h, r, level)
        if r.ret not in allowed:
            return Verdict(
                ok=False,
                violating_op=r.op_id,
                reason=(
                    f"Read {r.op_id} on {r.var!r} returned {r.ret}, "
                    f"{level.name.lower()} semantics allows {sorted(allowed)}"
                ),
            )
    return Verdict(ok=True)
