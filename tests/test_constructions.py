import itertools
import random

import pytest

from regsim import (
    SemanticsLevel,
    Tag,
    brute_force_atomic,
    build_multireader,
    build_multiwriter,
    build_regular_bit,
    check_level,
    enumerate_executions,
    extract_history,
    random_execution,
    run_schedule,
    tag_less,
)
from regsim.constructions import (
    MAX_SEQ,
    TagCodec,
    _MultiWriterProgram,
    build_raw_register,
)
from regsim.engine import EngineError, WriteAction


# -- tags and encoding ------------------------------------------------------


def test_tag_less_examples():
    assert tag_less(Tag(2, 9), Tag(3, 1))
    assert tag_less(Tag(3, 2), Tag(3, 5))
    assert not tag_less(Tag(4, 0), Tag(4, 0))
    assert not tag_less(Tag(4, 0), Tag(4, 0)) and not tag_less(Tag(4, 0), Tag(4, 0))


def test_tag_order_trichotomy():
    rng = random.Random(7)
    for _ in range(300):
        a = Tag(rng.randrange(5), rng.randrange(4))
        b = Tag(rng.randrange(5), rng.randrange(4))
        assert (tag_less(a, b), tag_less(b, a), a == b).count(True) == 1


def test_codec_round_trip_and_injectivity():
    codec = TagCodec(n_pids=3, payload_domain=5)
    seen = set()
    for seq, pid, val in itertools.product(range(6), range(3), range(5)):
        enc = codec.encode(seq, pid, val)
        assert 0 <= enc < codec.domain
        assert enc not in seen
        seen.add(enc)
        tv = codec.decode(enc)
        assert (tv.tag.seq, tv.tag.pid, tv.val) == (seq, pid, val)


def test_codec_overflow_guard():
    codec = TagCodec(n_pids=2, payload_domain=2)
    with pytest.raises(EngineError, match="overflow"):
        codec.encode(MAX_SEQ, 0, 0)


# -- structural counts ------------------------------------------------------


def test_multireader_uses_n_squared_registers():
    for n in (1, 2, 3, 4):
        spec = build_multireader(n)
        assert len(spec.registers) == n * n
        assert all(len(r.readers) == 1 for r in spec.registers)


def test_multiwriter_uses_n_multireader_registers():
    for n in (1, 2, 3, 4):
        spec = build_multiwriter(n)
        assert len(spec.registers) == n
        assert all(r.readers == frozenset(range(n)) for r in spec.registers)


# -- regular bit ------------------------------------------------------------


def test_regular_bit_write_skips_duplicate():
    spec = build_regular_bit(1)
    e = random_execution(spec, [[("Write", 0), ("Write", 1), ("Write", 1)], []], seed=0)
    accesses = [op.base_accesses for op in sorted(e.ops, key=lambda o: o.start)]
    assert accesses == [0, 1, 0]


def test_regular_bit_always_regular():
    spec = build_regular_bit(1)
    wl = [[("Write", 1), ("Write", 0)], [("Read", None), ("Read", None)]]

    def visit(e):
        h = extract_history(e, "high")
        assert check_level(h, SemanticsLevel.REGULAR).ok

    res = enumerate_executions(spec, wl, visit=visit)
    assert res.count > 0 and not res.truncated


def test_regular_bit_two_readers_regular():
    spec = build_regular_bit(2)
    wl = [[("Write", 1)], [("Read", None)], [("Read", None)]]

    def visit(e):
        assert check_level(extract_history(e, "high"), SemanticsLevel.REGULAR).ok

    res = enumerate_executions(spec, wl, visit=visit)
    assert res.count > 0 and not res.truncated


def test_regular_bit_rejects_multivalued_write():
    spec = build_regular_bit(1)
    with pytest.raises(EngineError, match=r"Write arg 2 is not an integer in \[0, 2\)"):
        random_execution(spec, [[("Write", 2)], []], seed=0)


@pytest.mark.parametrize("build", [
    build_multiwriter,
    build_multireader,
    lambda n, domain: build_multireader(n, domain=domain, writeback=False),
], ids=["multiwriter", "multireader", "multireader_nowriteback"])
def test_tag_constructions_refuse_a_one_value_domain(build):
    # The tag codec's base domain is large enough for any payload domain, so
    # only the implemented variable's declaration can refuse this one.
    with pytest.raises(EngineError, match="var X: domain 1 < 2"):
        build(2, domain=1)


# -- multireader ------------------------------------------------------------


def test_multireader_degenerate_single_reader():
    spec = build_multireader(1)
    assert len(spec.registers) == 1
    e = random_execution(spec, [[("Write", 3)], [("Read", None)]], seed=2)
    counts = {op.kind: op.base_accesses for op in e.ops}
    assert counts == {"Write": 1, "Read": 1}


def test_multireader_atomic_on_enumerated_sample():
    spec = build_multireader(2)
    wl = [[("Write", 1)], [("Read", None)], [("Read", None)]]

    def visit(e):
        assert check_level(extract_history(e, "high"), SemanticsLevel.ATOMIC).ok

    res = enumerate_executions(spec, wl, {"max_executions": 20000}, visit=visit)
    assert res.count == 20000


def test_multireader_nowriteback_exhibits_new_old_inversion():
    spec = build_multireader(2, writeback=False)
    wl = [[("Write", 1), ("Write", 2)], [("Read", None)], [("Read", None)]]
    found = []

    def visit(e):
        h = extract_history(e, "high")
        if not check_level(h, SemanticsLevel.ATOMIC).ok:
            found.append(h)
            return False

    enumerate_executions(spec, wl, visit=visit)
    assert found, "expected an atomicity violation without reader writeback"
    h = found[0]
    assert check_level(h, SemanticsLevel.REGULAR).ok
    assert not brute_force_atomic(h)


def test_multireader_reader_memory_keeps_reads_monotone():
    # A reader that saw the new value keeps answering it even if the writer
    # register it reads later still holds an older tag.
    spec = build_multireader(2)
    wl = [[("Write", 1)], [("Read", None), ("Read", None)], []]

    def visit(e):
        rets = [op.ret for op in sorted(e.ops, key=lambda o: o.start)
                if op.kind == "Read"]
        if rets == [1, 0]:
            raise AssertionError("second read regressed to the old value")

    res = enumerate_executions(spec, wl, {"max_executions": 30000}, visit=visit)
    assert res.count > 0


# -- multiwriter ------------------------------------------------------------


def test_multiwriter_tag_is_max_seen_plus_one():
    # Collected sequence numbers 0,2,5,4 lead to a write tagged (6, writer).
    codec = TagCodec(n_pids=4, payload_domain=8)
    prog = _MultiWriterProgram(4, codec)
    action, state = prog.begin(0, None, "Write", 7)
    results = [codec.encode(0, 0, 0), codec.encode(2, 1, 3),
               codec.encode(5, 3, 4), codec.encode(4, 2, 1)]
    for res in results[:-1]:
        action, state = prog.resume(0, None, state, res)
    action, state = prog.resume(0, None, state, results[-1])
    assert isinstance(action, WriteAction)
    tv = codec.decode(action.value)
    assert (tv.tag, tv.val) == (Tag(6, 0), 7)


def test_multiwriter_tag_wraps_after_a_garbage_tag():
    # Over safe bases, process 0's collect Read of r1 overlaps process 1's
    # pending base Write and returns 16777215, the largest value of the
    # register, whose tag holds MAX_SEQ - 1.  The next Write's sequence
    # number wraps to 0 (it once raised EngineError, an input error, on this
    # valid scenario); the decisions after the garbage Read take each
    # node's first choice.
    import dataclasses

    spec = build_multiwriter(2)
    spec = dataclasses.replace(spec, registers=tuple(
        dataclasses.replace(r, semantics=SemanticsLevel.SAFE) for r in spec.registers))
    garbage = spec.registers[1].domain - 1
    assert TagCodec(2, 8).seq(garbage) == MAX_SEQ - 1
    decisions = [(1, None), (1, 0), (1, None), (1, 8), (1, None), (0, None), (0, 0),
                 (0, None), (0, garbage), (0, None), (0, None), (0, None), (0, 1),
                 (0, None), (0, 0), (0, None), (0, None), (1, None)]
    e = run_schedule(spec, [[("Write", 1), ("Write", 2)], [("Write", 3)]], decisions)
    assert [(op.op_id, op.start, op.end) for op in e.ops] == [(1, 5, 10), (2, 11, 16), (0, 0, 17)]
    stored = [ev[5] for ev in e.events if ev[2] == "bi" and ev[4] == "W"]
    assert [TagCodec(2, 8).decode(v) for v in stored] == [
        ((1, 1), 3), ((0, 0), 1), ((1, 0), 2)]


def test_multiwriter_enumerated_executions_atomic():
    spec = build_multiwriter(2)
    wl = [[("Write", 1)], [("Write", 2), ("Read", None)]]

    def visit(e):
        h = extract_history(e, "high")
        assert check_level(h, SemanticsLevel.ATOMIC).ok

    res = enumerate_executions(spec, wl, {"max_executions": 2000}, visit=visit)
    assert res.count == 2000


def test_multiwriter_concurrent_writes_tie_break_deterministic():
    # Both writers collect before either publishes: both pick seq 1, and the
    # reader resolves (1, p0) < (1, p1) in favour of p1's value.
    spec = build_multiwriter(2)
    wl = [[("Write", 4)], [("Write", 5), ("Read", None)]]
    collect = [(0, None)] * 4 + [(1, None)] * 4  # both writers read r0, r1
    publish = [(0, None), (0, None), (1, None), (1, None)]
    read = [(1, None)] * 4
    e = run_schedule(spec, wl, collect + publish + read)
    ret = next(op.ret for op in e.ops if op.kind == "Read")
    assert ret == 5
    # The symmetric schedule (p1 publishes first) resolves identically.
    publish2 = [(1, None), (1, None), (0, None), (0, None)]
    e2 = run_schedule(spec, wl, collect + publish2 + read)
    assert next(op.ret for op in e2.ops if op.kind == "Read") == 5


def committed_tags_per_register(execution):
    codec = TagCodec(n_pids=execution.protocol.n_processes,
                     payload_domain=execution.protocol.domain)
    tags = {}
    for step, proc, etype, reg, rw, value, uid in execution.events:
        if etype == "br" and rw == "W":
            tags.setdefault(reg, []).append(codec.decode(value).tag)
    return tags


def test_multiwriter_register_tags_nondecreasing():
    spec = build_multiwriter(2)
    wl = [[("Write", 1), ("Write", 3)], [("Write", 2)]]

    def visit(e):
        for tags in committed_tags_per_register(e).values():
            for a, b in zip(tags, tags[1:]):
                assert tag_less(a, b)

    res = enumerate_executions(spec, wl, {"max_executions": 20000}, visit=visit)
    assert res.count > 0


def test_multiwriter_write_precedence_implies_tag_order():
    spec = build_multiwriter(2)
    wl = [[("Write", 1), ("Write", 3)], [("Write", 2)]]
    codec = TagCodec(n_pids=2, payload_domain=8)

    def visit(e):
        tag_by_uid = {}
        for step, proc, etype, reg, rw, value, uid in e.events:
            if etype == "br" and rw == "W":
                tag_by_uid[uid] = codec.decode(value).tag
        writes = [op for op in e.ops if op.kind == "Write"]
        for a in writes:
            for b in writes:
                if a.end < b.start:
                    assert tag_less(tag_by_uid[a.op_id], tag_by_uid[b.op_id])

    res = enumerate_executions(spec, wl, {"max_executions": 20000}, visit=visit)
    assert res.count > 0


def test_multiwriter_requires_atomic_base_registers():
    # Weakening the base registers to regular admits a stale second collect
    # of a register whose write is still in flight: a process that only
    # reads sees the new value and then the old one.  Over the declared
    # atomic bases the same workload never fails.
    import dataclasses

    spec = build_multiwriter(3)
    weak = dataclasses.replace(
        spec,
        registers=tuple(
            dataclasses.replace(r, semantics=SemanticsLevel.REGULAR)
            for r in spec.registers
        ),
    )
    wl = [[("Write", 1)], [], [("Read", None), ("Read", None)]]
    found = []

    def visit(e):
        h = extract_history(e, "high")
        if not check_level(h, SemanticsLevel.ATOMIC).ok:
            found.append(h)
            return False

    enumerate_executions(weak, wl, {"max_executions": 100_000}, visit=visit)
    assert found, "regular base registers should admit an inversion"
    rets = [op.ret for op in found[0].ops if op.ret is not None]
    assert rets == [1, 0]  # new value first, old value second

    def visit_atomic(e):
        assert check_level(extract_history(e, "high"), SemanticsLevel.ATOMIC).ok

    res = enumerate_executions(spec, wl, {"max_executions": 20_000}, visit=visit_atomic)
    assert res.count == 20_000


def test_three_process_constructions_random_sweep():
    # Larger configurations than the exhaustive tests can afford, sampled.
    mw = build_multiwriter(3)
    mw_wl = [[("Write", 1), ("Read", None)],
             [("Write", 2)],
             [("Read", None), ("Write", 3)]]
    mr = build_multireader(3)
    mr_wl = [[("Write", 1), ("Write", 2)],
             [("Read", None), ("Read", None)],
             [("Read", None)],
             [("Read", None)]]
    for seed in range(300):
        h = extract_history(random_execution(mw, mw_wl, seed), "high")
        assert check_level(h, SemanticsLevel.ATOMIC).ok
        assert brute_force_atomic(h)
        h = extract_history(random_execution(mr, mr_wl, seed), "high")
        assert check_level(h, SemanticsLevel.ATOMIC).ok
        assert brute_force_atomic(h)


# -- raw register -----------------------------------------------------------


def test_raw_register_passes_through():
    spec = build_raw_register(1, domain=5, semantics=SemanticsLevel.ATOMIC)
    e = random_execution(spec, [[("Write", 4)], [("Read", None)]], seed=0)
    assert {op.base_accesses for op in e.ops} == {1}
