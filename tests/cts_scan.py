"""Timestamp-history checking as it was before each process's Labelings were
indexed, kept as a reference.

``check_cts`` is the body of ``timestamp.check_cts`` from before it bisected
per-process Labeling ends, kept verbatim so that the differential tests can
require the indexed checker to return the same Verdicts, field for field.
It rescans every Labeling for each Scan, so it is quadratic in history
length and only suits short histories.
"""

from __future__ import annotations

from regsim import CtsHistory, CtsOp, Verdict, scan_order, tag_less
from regsim.timestamp import LABELING, SCAN


def check_cts(h: CtsHistory) -> Verdict:
    """Temporal-order correctness of a recorded timestamp history.

    Passes iff (a) each process's Labelings carry strictly increasing
    labels in execution order, (b) whenever the latest Labelings by p and q
    preceding a Scan are themselves ordered by precedence and no other
    Labeling by p or q overlaps the Scan, the Scan lists p's object before
    q's, and (c) every Scan result is complete (one entry per process) and
    strictly ascending by tag.
    """
    labelings = [o for o in h.ops if o.kind == LABELING]
    # (a) per-process label monotonicity
    per_proc: dict[int, list[CtsOp]] = {}
    for op in labelings:
        if op.completed:
            per_proc.setdefault(op.proc, []).append(op)
    for proc, ops in per_proc.items():
        for a, b in zip(ops, ops[1:]):  # start-ordered
            if not tag_less(a.label, b.label):
                return Verdict(
                    ok=False, violating_op=b.op_id,
                    reason=(
                        f"proc {proc}: Labeling {b.op_id} label {tuple(b.label)} "
                        f"not above previous {tuple(a.label)}"
                    ),
                )
    for scan in h.ops:
        if scan.kind != SCAN or not scan.completed:
            continue
        # (c) completeness and internal order
        owners = [e.owner for e in scan.result]
        if len(owners) != h.n or sorted(owners) != list(range(h.n)):
            return Verdict(
                ok=False, violating_op=scan.op_id,
                reason=f"Scan {scan.op_id} result does not cover every process exactly once",
            )
        if scan.result != scan_order(scan.result):
            return Verdict(
                ok=False, violating_op=scan.op_id,
                reason=f"Scan {scan.op_id} result is not in ascending label order",
            )
        # (b) precedence consistency
        rank = {e.owner: i for i, e in enumerate(scan.result)}
        latest: dict[int, CtsOp] = {}
        disturbed: set[int] = set()
        for op in labelings:
            if op.end is not None and op.end < scan.start:
                cur = latest.get(op.proc)
                if cur is None or cur.end < op.end:
                    latest[op.proc] = op
            elif op.start < scan.end:  # overlaps the scan
                disturbed.add(op.proc)
        for p, lp in latest.items():
            if p in disturbed:
                continue
            for q, lq in latest.items():
                if q == p or q in disturbed:
                    continue
                if lp.end < lq.start and rank[p] > rank[q]:
                    return Verdict(
                        ok=False, violating_op=scan.op_id,
                        reason=(
                            f"Scan {scan.op_id} orders proc {q} before proc {p} although "
                            f"Labeling {lp.op_id} preceded Labeling {lq.op_id}"
                        ),
                    )
    return Verdict(ok=True)
