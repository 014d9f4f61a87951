import gc
import itertools
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

import regsim
from regsim import (
    History,
    HistoryError,
    OpKind,
    OpRecord,
    SemanticsLevel,
    VarSpec,
    brute_force_atomic,
    build_multiwriter,
    build_raw_register,
    check_level,
    check_wait_free,
    classify,
    extract_history,
    random_execution,
)

from histgen import contention_history, random_single_writer_history


def var(domain=10, init=0, writers=(0,), readers=(1, 2)):
    return VarSpec(domain=domain, init=init,
                   writers=frozenset(writers), readers=frozenset(readers))


def w(op_id, start, end, arg, proc=0):
    return OpRecord(op_id=op_id, proc=proc, var="x", kind=OpKind.WRITE,
                    start=start, end=end, arg=arg)


def r(op_id, start, end, ret, proc=1):
    return OpRecord(op_id=op_id, proc=proc, var="x", kind=OpKind.READ,
                    start=start, end=end, ret=ret)


def hist(*ops, **kw):
    return History(vars={"x": var(**kw)}, ops=tuple(ops))


def sequenced_ok(ops, order, init=0):
    """Independent validity check for one candidate total order: must extend
    precedence and replay every read.  Used to derive expected verdicts from
    first principles before asserting what the checker says."""
    latest_start = -1  # no op may end before an earlier-placed op starts
    value = init
    for op in order:
        if op.completed and op.end < latest_start:
            return False
        latest_start = max(latest_start, op.start)
        if op.kind is OpKind.WRITE:
            value = op.arg
        elif op.ret != value:
            return False
    return True


def new_old_inversion():
    # W(1)@[0,5] overlapping two sequential reads: the earlier read sees the
    # new value, the later one the old.
    return hist(
        w(0, 0, 5, 1),
        r(1, 1, 2, 1, proc=1),
        r(2, 3, 4, 0, proc=2),
    )


# -- check_level ------------------------------------------------------------


def test_sequential_history_passes_all_levels():
    h = hist(w(0, 0, 1, 5), r(1, 2, 3, 5))
    for level in SemanticsLevel:
        v = check_level(h, level)
        assert v.ok and v.violating_op is None


def test_overlapped_wild_read_safe_only():
    h = hist(w(0, 0, 3, 1), r(1, 1, 2, 7))
    assert check_level(h, SemanticsLevel.SAFE).ok
    v = check_level(h, SemanticsLevel.REGULAR).ok
    assert not v


def test_safe_check_holds_no_value_per_domain_member():
    # A safe Read overlapping a Write admits the whole domain, whose set the
    # check once built: a domain of 10**20 ran out of memory, and this one
    # allocated tens of MB.
    h = hist(w(0, 0, 3, 1), r(1, 1, 2, 7), domain=10**6)
    tracemalloc.start()
    try:
        assert check_level(h, SemanticsLevel.SAFE).ok
        assert classify(h) is SemanticsLevel.SAFE
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_new_old_inversion_regular_not_atomic():
    h = new_old_inversion()
    # Derive the expected atomic verdict by exhausting every total order.
    assert not any(
        sequenced_ok(h.ops, order) for order in itertools.permutations(h.ops)
    )
    assert check_level(h, SemanticsLevel.REGULAR).ok
    v = check_level(h, SemanticsLevel.ATOMIC)
    assert not v.ok
    assert v.violating_op in {1, 2} and "Read" in v.reason


def test_failing_verdict_names_earliest_inconsistent_read():
    h = new_old_inversion()
    v = check_level(h, SemanticsLevel.ATOMIC)
    # The search stalls on the later read (ret 0 can never follow ret 1).
    assert v.violating_op == 2


def test_atomic_pass_returns_verifiable_linearization():
    rng = random.Random(5)
    checked = 0
    for _ in range(400):
        h = random_single_writer_history(rng)
        v = check_level(h, SemanticsLevel.ATOMIC)
        if not v.ok:
            continue
        checked += 1
        by_id = {o.op_id: o for o in h.ops}
        for name, seq in v.linearizations.items():
            order = [by_id[i] for i in seq]
            assert sequenced_ok(h.ops, order, init=h.vars[name].init)
            completed = {o.op_id for o in h.ops if o.var == name and o.completed}
            assert completed <= set(seq)
    assert checked > 100
    # a witness per variable some op touches, and none for the others
    untouched = History(vars={"x": var()}, ops=())
    assert check_level(untouched, SemanticsLevel.ATOMIC).linearizations == {}
    only_y = History(vars={"x": var(), "y": var()},
                     ops=(OpRecord(0, 0, "y", OpKind.WRITE, 0, 1, arg=2),
                          OpRecord(1, 1, "y", OpKind.READ, 2, 3, ret=2)))
    assert check_level(only_y, SemanticsLevel.ATOMIC).linearizations == {"y": (0, 1)}


def test_multiwriter_safe_regular_classification_errors():
    h = History(
        vars={"x": VarSpec(domain=4, init=0, writers=frozenset({0, 1}),
                           readers=frozenset({0, 1}))},
        ops=(w(0, 0, 1, 2, proc=0), w(1, 2, 3, 3, proc=1)),
    )
    with pytest.raises(HistoryError, match="use Atomic"):
        check_level(h, SemanticsLevel.SAFE)
    assert check_level(h, SemanticsLevel.ATOMIC).ok


def test_an_untouched_multiwriter_variable_leaves_safe_and_regular_alone():
    h = History(vars={"x": var(), "y": var(writers=(0, 1))},
                ops=(w(0, 0, 1, 2), r(1, 2, 3, 2)))
    for level in (SemanticsLevel.SAFE, SemanticsLevel.REGULAR):
        assert check_level(h, level).ok


@pytest.mark.parametrize("level", [SemanticsLevel.SAFE, SemanticsLevel.REGULAR])
def test_a_touched_multiwriter_variable_is_refused_before_any_read_is_judged(level):
    # The Read on x fails at every level, and comes first.
    h = History(vars={"x": var(), "y": var(writers=(0, 1))},
                ops=(w(0, 0, 1, 2), r(1, 2, 3, 5),
                     OpRecord(2, 0, "y", OpKind.WRITE, 4, 5, arg=1)))
    message = f"var 'y': {level.name.lower()} classification undefined, use Atomic"
    with pytest.raises(HistoryError, match=f"^{message}$"):
        check_level(h, level)


def test_atomic_handles_multiwriter_overlapping_writes():
    h = History(
        vars={"x": VarSpec(domain=4, init=0, writers=frozenset({0, 1}),
                           readers=frozenset({0, 1, 2}))},
        ops=(
            w(0, 0, 3, 1, proc=0),
            w(1, 1, 2, 2, proc=1),
            r(2, 4, 5, 1, proc=2),
        ),
    )
    # Order W2 then W1 leaves 1 as the final value; derived by enumeration.
    assert any(sequenced_ok(h.ops, o) for o in itertools.permutations(h.ops))
    assert check_level(h, SemanticsLevel.ATOMIC).ok


def test_pending_write_may_be_linearized_or_omitted():
    read_new = hist(w(0, 0, None, 1), r(1, 1, 2, 1))
    read_old = hist(w(0, 0, None, 1), r(1, 1, 2, 0))
    assert check_level(read_new, SemanticsLevel.ATOMIC).ok
    assert check_level(read_old, SemanticsLevel.ATOMIC).ok
    both = hist(w(0, 0, None, 1), r(1, 1, 2, 1), r(2, 3, 4, 0, proc=2))
    assert not check_level(both, SemanticsLevel.ATOMIC).ok


def test_pending_read_is_ignored():
    h = hist(w(0, 0, 1, 5), r(1, 2, None, None))
    assert check_level(h, SemanticsLevel.ATOMIC).ok


def test_atomic_checks_leave_no_garbage_cycles():
    passing = hist(w(0, 0, 3, 1), r(1, 1, 2, 1), r(2, 4, 5, 1, proc=2))
    failing = new_old_inversion()
    gc.collect()
    gc.disable()
    try:
        for _ in range(500):
            assert check_level(passing, SemanticsLevel.ATOMIC).ok
            assert not check_level(failing, SemanticsLevel.ATOMIC).ok
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_long_multiwriter_history_checks_past_the_recursion_limit():
    spec = build_multiwriter(2)
    workload = [
        [("Write", 1 + (i + p) % 7) if i % 2 == 0 else ("Read", None) for i in range(800)]
        for p in range(2)
    ]
    h = extract_history(random_execution(spec, workload, seed=1), "high")
    assert len(h.ops) >= 1600 > sys.getrecursionlimit()
    v = check_level(h, SemanticsLevel.ATOMIC)
    assert v.ok
    (name, seq), = v.linearizations.items()
    by_id = {o.op_id: o for o in h.ops}
    assert sorted(seq) == sorted(by_id)
    assert sequenced_ok(h.ops, [by_id[i] for i in seq], init=h.vars[name].init)


def test_ten_way_write_contention_fails_on_a_read():
    # 10! Write orders: out of reach of a search that forgets failed states.
    # Any Write may come last, so the first Read can always be placed; the
    # second, with no Write left to place, cannot.
    h = contention_history(random.Random(10), 10)
    v = check_level(h, SemanticsLevel.ATOMIC)
    assert not v.ok
    first, second = sorted((o for o in h.ops if o.kind is OpKind.READ), key=lambda o: o.start)
    assert v.violating_op == second.op_id == 11


def test_twelve_way_write_contention_checks_in_little_memory():
    # Remembering every failed (placed set, value) state holds about
    # 2^12 * 12 of them, over 4 MB; up to symmetry the ten unread Writes are
    # one class and their values one value, a few hundred states.
    h = contention_history(random.Random(12), 12)
    tracemalloc.start()
    try:
        v = check_level(h, SemanticsLevel.ATOMIC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.violating_op == 13
    assert peak < 2**20


# -- brute force oracle -----------------------------------------------------


def test_brute_force_matches_inline_enumeration_on_inversion():
    h = new_old_inversion()
    assert brute_force_atomic(h) is False
    assert check_level(h, SemanticsLevel.ATOMIC).ok is False


def test_brute_force_trivial_histories():
    assert brute_force_atomic(hist(w(0, 0, 1, 5)))
    assert brute_force_atomic(hist())
    alternating = hist(
        w(0, 0, 1, 3), r(1, 2, 3, 3), w(2, 4, 5, 7), r(3, 6, 7, 7),
    )
    assert brute_force_atomic(alternating)


def test_brute_force_size_guard():
    ops = tuple(w(i, 2 * i, 2 * i + 1, 1) for i in range(9))
    with pytest.raises(HistoryError, match="oracle limit"):
        brute_force_atomic(hist(*ops))


#: Var "a" holds a non-atomic pair, var "b" nine completed Writes.  An
#: oracle that checks each variable's size only when it reaches it, in set
#: order, returns False or raises depending on the string hash seed.
_MIXED_LIMITS = """
from regsim import History, HistoryError, OpKind, OpRecord, VarSpec, brute_force_atomic
spec = VarSpec(domain=3, init=0, writers=frozenset({0}), readers=frozenset({1}))
ops = [OpRecord(0, 0, "a", OpKind.WRITE, 0, 1, 1), OpRecord(1, 1, "a", OpKind.READ, 2, 3, None, 2)]
ops += [OpRecord(2 + i, 0, "b", OpKind.WRITE, 4 + 2 * i, 5 + 2 * i, 1) for i in range(9)]
try:
    print(brute_force_atomic(History(vars={"a": spec, "b": spec}, ops=tuple(ops))))
except HistoryError as exc:
    print(exc)
"""


@pytest.mark.parametrize("hash_seed", ["0", "2"])
def test_brute_force_size_guard_ignores_hash_order(hash_seed):
    # The child imports the regsim under test, from wherever it was found.
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.path.dirname(os.path.dirname(regsim.__file__)))
    out = subprocess.run([sys.executable, "-c", _MIXED_LIMITS], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "var 'b': 9 completed ops exceed oracle limit 8\n"


def test_oracle_agrees_with_checker_on_random_histories():
    rng = random.Random(99)
    for _ in range(500):
        h = random_single_writer_history(rng)
        assert check_level(h, SemanticsLevel.ATOMIC).ok == brute_force_atomic(h)


# -- classify ---------------------------------------------------------------


def test_classify_examples():
    assert classify(new_old_inversion()) is SemanticsLevel.REGULAR
    assert classify(hist(w(0, 0, 3, 1), r(1, 1, 2, 7))) is SemanticsLevel.SAFE
    # Non-overlapping read returning a never-written value: not even safe.
    assert classify(hist(w(0, 0, 1, 5), r(1, 2, 3, 9))) is None
    assert classify(hist(w(0, 0, 1, 5), r(1, 2, 3, 5))) is SemanticsLevel.ATOMIC


def test_hierarchy_monotone_on_random_histories():
    rng = random.Random(123)
    for _ in range(500):
        h = random_single_writer_history(rng)
        safe = check_level(h, SemanticsLevel.SAFE).ok
        reg = check_level(h, SemanticsLevel.REGULAR).ok
        atom = check_level(h, SemanticsLevel.ATOMIC).ok
        assert (not atom or reg) and (not reg or safe)


# -- wait freedom -----------------------------------------------------------


def workload_mw3():
    return [[("Write", 1)], [("Write", 2), ("Read", None)], [("Read", None)]]


def test_wait_free_within_budget():
    spec = build_multiwriter(3)
    e = random_execution(spec, workload_mw3(), seed=4)
    assert check_wait_free(e, {"Write": 4, "Read": 3}).ok


def test_wait_free_over_budget_names_first_write():
    spec = build_multiwriter(3)
    e = random_execution(spec, workload_mw3(), seed=4)
    v = check_wait_free(e, {"Write": 3, "Read": 3})
    assert not v.ok
    assert "Write" in v.reason
    first_write = min(
        (op for op in e.ops if op.kind == "Write"), key=lambda o: o.start
    )
    assert v.violating_op == first_write.op_id


def test_wait_free_missing_budget_kind():
    spec = build_multiwriter(2)
    e = random_execution(spec, [[("Write", 1)], [("Read", None)]], seed=0)
    with pytest.raises(KeyError, match="no budget"):
        check_wait_free(e, {"Write": 3})


def test_wait_free_empty_execution_passes():
    spec = build_raw_register(1)
    e = random_execution(spec, [[], []], seed=0)
    assert check_wait_free(e, {}).ok
