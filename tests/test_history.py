import random

import pytest

from regsim import (
    History,
    HistoryError,
    OpKind,
    OpRecord,
    SemanticsLevel,
    TraceError,
    VarSpec,
    feasible_values,
    overlaps,
    parse_trace,
    precedes,
    serialize_trace,
)

from histgen import random_single_writer_history


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


# -- precedence -------------------------------------------------------------


def test_precedes_disjoint_intervals():
    a, b = w(0, 0, 1, 5), r(1, 2, 3, 5)
    assert precedes(a, b)
    assert not precedes(b, a)
    assert not overlaps(a, b)


def test_precedes_overlap_neither_direction():
    a, b = w(0, 0, 3, 5), r(1, 1, 2, 5)
    assert not precedes(a, b)
    assert not precedes(b, a)
    assert overlaps(a, b)


def test_precedes_pending_rejected():
    a = w(0, 0, None, 5)
    with pytest.raises(HistoryError, match="incomplete operation has no end"):
        precedes(a, r(1, 2, 3, 5))


def test_shared_step_rejected_by_history_adjacent_ok():
    # Steps are distinct naturals, so a=[0,1], b=[1,2] cannot coexist.
    with pytest.raises(HistoryError, match="duplicate step"):
        hist(w(0, 0, 1, 5), r(1, 1, 2, 5))
    h = hist(w(0, 0, 1, 5), r(1, 2, 3, 5))
    assert precedes(h.ops[0], h.ops[1])


def test_precedence_is_strict_partial_order():
    rng = random.Random(11)
    for _ in range(200):
        h = random_single_writer_history(rng)
        done = [o for o in h.ops if o.completed]
        for a in done:
            assert not precedes(a, a)
            for b in done:
                if precedes(a, b):
                    assert not precedes(b, a)
                for c in done:
                    if precedes(a, b) and precedes(b, c):
                        assert precedes(a, c)


# -- history invariants -----------------------------------------------------


def test_same_process_overlap_rejected():
    with pytest.raises(HistoryError, match="overlap"):
        hist(r(0, 0, 3, 0, proc=1), r(1, 1, 2, 0, proc=1))


def test_pending_must_be_last_for_its_process():
    with pytest.raises(HistoryError, match="overlap"):
        hist(w(0, 0, None, 1), w(1, 2, 3, 1))


def test_undeclared_writer_rejected():
    with pytest.raises(HistoryError, match="not a writer"):
        hist(w(0, 0, 1, 5, proc=2))


def test_undeclared_reader_rejected():
    with pytest.raises(HistoryError, match="not a reader"):
        hist(r(0, 0, 1, 5, proc=0))


def test_value_outside_domain_rejected():
    with pytest.raises(HistoryError, match="outside domain"):
        hist(w(0, 0, 1, 10))


def test_write_needs_arg_read_needs_ret_iff_completed():
    with pytest.raises(HistoryError, match="Write without arg"):
        hist(OpRecord(op_id=0, proc=0, var="x", kind=OpKind.WRITE, start=0, end=1))
    with pytest.raises(HistoryError, match="ret iff completed"):
        hist(OpRecord(op_id=0, proc=0, var="x", kind=OpKind.READ, start=0, end=1))
    with pytest.raises(HistoryError, match="ret iff completed"):
        hist(OpRecord(op_id=0, proc=0, var="x", kind=OpKind.READ, start=0, ret=3))


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("field", ["op_id", "proc", "start", "end", "arg", "ret"])
def test_non_integer_op_field_rejected(field, bad):
    # A Write for arg, a completed Read for ret; each field otherwise valid
    # as the int 1, so only its type is wrong.  A Write of True once
    # validated and was serialized as "arg":True, which no reader accepts.
    write = field != "ret"
    fields = dict(op_id=1, proc=1, var="x", kind=OpKind.WRITE if write else OpKind.READ,
                  start=1, end=2, arg=1 if write else None, ret=None if write else 1)
    fields[field] = bad
    with pytest.raises(HistoryError, match=f"{field} {bad!r} is not an integer"):
        hist(OpRecord(**fields), writers=(1,), readers=(1,))


@pytest.mark.parametrize("bad", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("field", ["domain", "init"])
def test_non_integer_var_spec_rejected(field, bad):
    spec = dict(domain=2, init=1)
    spec[field] = bad
    with pytest.raises(HistoryError, match=f"{field} {bad!r} is not an integer"):
        hist(**spec)


def test_domain_below_two_rejected():
    with pytest.raises(HistoryError, match="domain"):
        History(vars={"x": VarSpec(domain=1, init=0, writers=frozenset({0}),
                                   readers=frozenset({1}))})


def test_duplicate_op_id_rejected():
    with pytest.raises(HistoryError, match="duplicate op id"):
        hist(w(0, 0, 1, 5), r(0, 2, 3, 5))


def test_ops_stored_sorted_by_start():
    h = hist(r(1, 2, 3, 5), w(0, 0, 1, 5))
    assert [o.op_id for o in h.ops] == [0, 1]


def test_semantics_levels_totally_ordered():
    assert SemanticsLevel.SAFE < SemanticsLevel.REGULAR < SemanticsLevel.ATOMIC
    assert SemanticsLevel.parse("regular") is SemanticsLevel.REGULAR
    with pytest.raises(HistoryError):
        SemanticsLevel.parse("bogus")


# -- feasible values --------------------------------------------------------


def test_feasible_no_overlap_singleton_every_level():
    h = hist(w(0, 0, 1, 5), r(1, 2, 3, 5))
    rd = h.ops[1]
    for level in SemanticsLevel:
        assert feasible_values(h, rd, level) == {5}


def test_feasible_no_write_at_all_returns_initial():
    h = hist(r(0, 0, 1, 0))
    assert feasible_values(h, h.ops[0], SemanticsLevel.SAFE) == {0}


def test_feasible_overlap_safe_full_domain():
    h = hist(w(0, 0, 3, 1), r(1, 1, 2, 7))
    rd = next(o for o in h.ops if o.kind is OpKind.READ)
    assert feasible_values(h, rd, SemanticsLevel.SAFE) == set(range(10))


def test_feasible_overlap_regular_previous_or_overlapping():
    h = hist(w(0, 0, 3, 1), r(1, 1, 2, 0))
    rd = next(o for o in h.ops if o.kind is OpKind.READ)
    assert feasible_values(h, rd, SemanticsLevel.REGULAR) == {0, 1}
    assert feasible_values(h, rd, SemanticsLevel.ATOMIC) == {0, 1}


def test_feasible_pending_write_counts_as_overlapping():
    h = hist(w(0, 0, None, 4), r(1, 1, 2, 0))
    rd = next(o for o in h.ops if o.kind is OpKind.READ)
    assert feasible_values(h, rd, SemanticsLevel.REGULAR) == {0, 4}


def test_feasible_errors():
    h = hist(w(0, 0, 1, 5), r(1, 2, 3, 5))
    stray = r(9, 40, 41, 5)
    with pytest.raises(HistoryError, match="not part of this history"):
        feasible_values(h, stray, SemanticsLevel.SAFE)
    hp = hist(w(0, 0, 1, 5), r(1, 2, None, None))
    pend = next(o for o in hp.ops if o.kind is OpKind.READ)
    with pytest.raises(HistoryError, match="no end"):
        feasible_values(hp, pend, SemanticsLevel.SAFE)
    hm = History(
        vars={"x": VarSpec(domain=4, init=0, writers=frozenset({0, 1}),
                           readers=frozenset({0, 1}))},
        ops=(w(0, 0, 1, 2, proc=0), r(1, 2, 3, 2, proc=1)),
    )
    with pytest.raises(HistoryError, match="use Atomic"):
        feasible_values(hm, hm.ops[1], SemanticsLevel.REGULAR)


def _read_overlaps_some_write(h, rd):
    for o in h.ops:
        if o.var == rd.var and o.kind is OpKind.WRITE:
            o_end = o.end if o.end is not None else float("inf")
            if o.start < rd.end and rd.start < o_end:
                return True
    return False


def test_feasible_hierarchy_on_random_histories():
    rng = random.Random(23)
    for _ in range(300):
        h = random_single_writer_history(rng)
        for op in h.ops:
            if op.kind is OpKind.READ and op.completed:
                safe = feasible_values(h, op, SemanticsLevel.SAFE)
                reg = feasible_values(h, op, SemanticsLevel.REGULAR)
                atom = feasible_values(h, op, SemanticsLevel.ATOMIC)
                assert reg <= safe
                assert atom == reg
                if not _read_overlaps_some_write(h, op):
                    assert len(safe) == 1


# -- trace codec ------------------------------------------------------------


def test_serialize_empty_history_header_only():
    h = History(vars={"x": var()})
    text = serialize_trace(h)
    assert len(text.strip().splitlines()) == 1


def test_serialize_one_op_two_lines_in_step_order():
    h = hist(w(0, 0, 1, 5))
    lines = serialize_trace(h).strip().splitlines()
    assert len(lines) == 3
    assert '"act":"invoke"' in lines[1] and '"act":"respond"' in lines[2]


def test_parse_two_line_trace():
    h = hist(w(0, 0, 1, 5))
    h2 = parse_trace(serialize_trace(h))
    assert h2 == h
    assert len(h2.ops) == 1 and h2.ops[0].completed


def test_round_trip_identity_on_random_histories():
    rng = random.Random(37)
    for _ in range(300):
        h = random_single_writer_history(rng)
        assert parse_trace(serialize_trace(h)) == h


def test_serialize_parse_serialize_reparses_equal():
    rng = random.Random(41)
    for _ in range(50):
        h = random_single_writer_history(rng)
        t = serialize_trace(h)
        assert parse_trace(serialize_trace(parse_trace(t))) == parse_trace(t)


def test_parse_respond_before_invoke_rejected():
    h = hist(w(0, 0, 1, 5))
    lines = serialize_trace(h).strip().splitlines()
    bad = "\n".join([lines[0], lines[2], lines[1]]) + "\n"
    with pytest.raises(TraceError):
        parse_trace(bad)


def test_parse_respond_without_invoke_rejected():
    h = hist(w(0, 0, 1, 5))
    lines = serialize_trace(h).strip().splitlines()
    bad = "\n".join([lines[0], lines[2]]) + "\n"
    with pytest.raises(TraceError, match="respond without invoke"):
        parse_trace(bad)


def test_parse_duplicate_step_rejected():
    h = hist(w(0, 0, 1, 5))
    lines = serialize_trace(h).strip().splitlines()
    dup = lines[2].replace('"step":1', '"step":0')
    with pytest.raises(TraceError, match="not increasing"):
        parse_trace("\n".join([lines[0], lines[1], dup]) + "\n")


def test_parse_undeclared_writer_rejected():
    text = (
        '{"version":1,"vars":{"x":{"domain":4,"init":0,"writers":[0],"readers":[1]}}}\n'
        '{"step":0,"op":0,"proc":1,"var":"x","act":"invoke","kind":"W","arg":1}\n'
        '{"step":1,"op":0,"proc":1,"var":"x","act":"respond","kind":"W"}\n'
    )
    with pytest.raises(TraceError, match="not a writer"):
        parse_trace(text)


def test_parse_corrupt_line_rejected():
    h = hist(w(0, 0, 1, 5))
    text = serialize_trace(h) + "{not json\n"
    with pytest.raises(TraceError, match="invalid JSON"):
        parse_trace(text)


def test_parse_error_names_physical_line():
    # Blank lines count: the out-of-order step sits on line 5 of the file.
    h = hist(w(0, 0, 1, 5))
    lines = serialize_trace(h).strip().splitlines()
    bad = lines[2].replace('"step":1', '"step":0')
    with pytest.raises(TraceError, match="^line 5: step 0 not increasing"):
        parse_trace("\n\n".join([lines[0], lines[1], bad]) + "\n")
    with pytest.raises(TraceError, match="^line 5: malformed: step 1.0 is not an integer"):
        parse_trace("\n" + "\n".join([lines[0], lines[1], "", lines[2].replace('"step":1', '"step":1.0')]))


def test_parse_wrong_version_rejected():
    with pytest.raises(TraceError, match="version"):
        parse_trace('{"version":9,"vars":{}}\n')


def test_parse_ignores_unknown_header_extensions():
    h = hist(w(0, 0, 1, 5))
    text = serialize_trace(h, extensions={"decisions": [[0, None]]})
    assert parse_trace(text) == h


def test_pending_op_survives_round_trip():
    h = hist(w(0, 0, None, 5))
    h2 = parse_trace(serialize_trace(h))
    assert h2 == h and not h2.ops[0].completed


GOLDEN_REGISTER_TRACE = (
    '{"decisions":[[0,null],[1,2]],"vars":{"X":{"domain":4,"init":0,"readers":[1],"writers":[0]},'
    '"Y":{"domain":2,"init":1,"readers":[0,1],"writers":[1]}},"version":1}\n'
    '{"act":"invoke","arg":2,"kind":"W","op":0,"proc":0,"step":0,"var":"X"}\n'
    '{"act":"invoke","kind":"R","op":1,"proc":1,"step":1,"var":"X"}\n'
    '{"act":"respond","kind":"R","op":1,"proc":1,"ret":0,"step":2,"var":"X"}\n'
    '{"act":"respond","kind":"W","op":0,"proc":0,"step":3,"var":"X"}\n'
    '{"act":"invoke","kind":"R","op":2,"proc":1,"step":4,"var":"Y"}\n'
    '{"act":"invoke","arg":3,"kind":"W","op":3,"proc":0,"step":5,"var":"X"}\n'
    '{"act":"respond","kind":"R","op":2,"proc":1,"ret":1,"step":6,"var":"Y"}\n'
)


def test_trace_bytes_are_pinned():
    h = History(
        vars={"X": VarSpec(domain=4, init=0, writers=frozenset({0}), readers=frozenset({1})),
              "Y": VarSpec(domain=2, init=1, writers=frozenset({1}), readers=frozenset({0, 1}))},
        ops=(
            OpRecord(op_id=0, proc=0, var="X", kind=OpKind.WRITE, start=0, end=3, arg=2),
            OpRecord(op_id=1, proc=1, var="X", kind=OpKind.READ, start=1, end=2, ret=0),
            OpRecord(op_id=2, proc=1, var="Y", kind=OpKind.READ, start=4, end=6, ret=1),
            OpRecord(op_id=3, proc=0, var="X", kind=OpKind.WRITE, start=5, arg=3),
        ),
    )
    assert serialize_trace(h, {"decisions": [[0, None], [1, 2]]}) == GOLDEN_REGISTER_TRACE
    assert parse_trace(GOLDEN_REGISTER_TRACE) == h
