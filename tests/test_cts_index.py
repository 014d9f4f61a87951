"""Timestamp-history checking over indexed Labelings against the rescan.

``cts_scan`` keeps ``check_cts`` as it was when every Scan rescanned every
Labeling.  Indexing each process's Labelings once and bisecting their ends
must change nothing: on every history both give the same Verdict, field for
field.
"""

import dataclasses
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsim import (
    CtsHistory,
    CtsOp,
    Label,
    LabeledObject,
    Tag,
    Verdict,
    build_cts,
    check_cts,
    extract_cts_history,
    random_execution,
)
from regsim.timestamp import LABELING, SCAN

import cts_scan

PINNED = settings(derandomize=True, deadline=None, max_examples=1000)


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


@PINNED
@given(cts_histories())
def test_generated_histories_checked_alike(h):
    assert check_cts(h) == cts_scan.check_cts(h)


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


def with_scan_swapped(h: CtsHistory, rng: random.Random) -> CtsHistory:
    """``h`` with two entries of one completed Scan swapped, its tags
    re-dealt in ascending order, so that only precedence can reject it."""
    scans = [o for o in h.ops if o.kind == SCAN and o.result is not None]
    scan = rng.choice(scans)
    entries = list(scan.result)
    i, j = rng.sample(range(len(entries)), 2)
    entries[i], entries[j] = entries[j], entries[i]
    result = tuple(dataclasses.replace(e, label=old.label) for e, old in zip(entries, scan.result))
    return CtsHistory(n=h.n, ops=tuple(dataclasses.replace(o, result=result) if o is scan else o
                                       for o in h.ops))


@pytest.mark.parametrize("cut", [False, True], ids=["complete", "cut"])
@pytest.mark.parametrize("n", [2, 3])
def test_engine_histories_checked_alike(n, cut):
    rng = random.Random(n)
    failures = 0
    for seed in range(30):
        h = engine_cts_history(n, seed, 6, cut)
        assert check_cts(h) == cts_scan.check_cts(h) == Verdict(ok=True)
        for _ in range(8):
            bad = with_scan_swapped(h, rng)
            verdict = check_cts(bad)
            assert verdict == cts_scan.check_cts(bad)
            failures += not verdict.ok
    assert failures  # the swaps do reach the precedence condition


def test_long_cts_history_checks_in_a_fraction_of_the_rescan():
    # 750 alternating Labelings and Scans per process.  The rescan took
    # 0.12-0.16 s per check on 2 shared cores (Python 3.11); the index
    # about 0.01 s.
    h = engine_cts_history(3, 7, 375, cut=False)
    assert len(h.ops) == 2250

    def best(check):
        times = []
        for _ in range(3):
            t = time.perf_counter()
            verdict = check(h)
            times.append(time.perf_counter() - t)
        assert verdict.ok
        return min(times)

    assert best(check_cts) < best(cts_scan.check_cts) / 5
