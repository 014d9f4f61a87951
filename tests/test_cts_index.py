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

from regsim import CtsHistory, Verdict, check_cts
from regsim.timestamp import SCAN

import cts_scan
from histgen import cts_histories, engine_cts_history

PINNED = settings(derandomize=True, deadline=None, max_examples=1000)


@PINNED
@given(cts_histories())
def test_generated_histories_checked_alike(h):
    assert check_cts(h) == cts_scan.check_cts(h)


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
