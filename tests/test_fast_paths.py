"""The per-execution fast paths against the code they replaced.

* ``History`` validation runs in one pass.  ``history_validate.validate``
  is the two-pass body it replaced, kept verbatim: both must accept and
  reject the same op sets, and name the same fault in a valid history
  given exactly one fault.
* ``CtsHistory`` validation shares its interval checks with ``History``.
  ``cts_validate.validate`` is the body it had before, kept verbatim: both
  must accept and reject the same timestamp histories, and name the same
  fault, in History's wording, given exactly one.
* Tags compare as encoded integers: ``_max_tagged``, ``TagCodec.seq`` and
  ``TagCodec.payload`` against ``tag_less`` and ``decode``.
* The engine's decision surface: SHA-256 digests, computed with the engine
  before these fast paths, of whole enumerations (every execution's
  events, ops and decisions, in visit order) and of seeded random
  executions.
"""

import dataclasses
import hashlib
import re
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsim import (
    CtsHistory,
    History,
    HistoryError,
    OpKind,
    OpRecord,
    SemanticsLevel,
    VarSpec,
    build_cts,
    build_multireader,
    build_multiwriter,
    build_raw_register,
    build_regular_bit,
    enumerate_executions,
    random_execution,
)
from regsim.constructions import MAX_SEQ, TagCodec, _max_tagged, tag_less
from regsim.timestamp import LABELING, SCAN

import cts_validate
from histgen import cts_histories
from history_validate import validate

PINNED = settings(derandomize=True, deadline=None, max_examples=400)
DOMAIN = 4
W, R = OpKind.WRITE, OpKind.READ

# -- History validation -------------------------------------------------------


def declared(n_procs: int) -> dict[str, VarSpec]:
    """``x`` is written by process 0 and read by the others; ``y`` is
    written and read by everyone."""
    everyone = frozenset(range(n_procs))
    return {"x": VarSpec(DOMAIN, 0, frozenset({0}), everyone - {0}),
            "y": VarSpec(DOMAIN, 0, everyone, everyone)}


def fault(check, vars, ops) -> str | None:
    """The message ``check`` rejects the op set with, or None."""
    try:
        check(vars, ops)
    except HistoryError as exc:
        return str(exc)
    return None


def one_pass(vars, ops) -> None:
    History(vars=vars, ops=ops)


def two_pass(vars, ops) -> None:
    validate(types.SimpleNamespace(vars=dict(vars),
                                   ops=tuple(sorted(ops, key=lambda o: o.start))))


@st.composite
def valid_histories(draw):
    """(n_procs, ops) of a valid history on ``declared(n_procs)``: 2-3
    sequential processes whose invoke and respond events interleave at
    random, each process's last op pending with probability one half."""
    n_procs = draw(st.integers(2, 3))
    streams = []
    for proc in range(n_procs):
        ops = []
        for on_x, write, value in draw(st.lists(
                st.tuples(st.booleans(), st.booleans(), st.integers(0, DOMAIN - 1)),
                min_size=1, max_size=4)):
            ops.append({"proc": proc, "var": "x" if on_x else "y",
                        "write": proc == 0 if on_x else write, "value": value})
        pending = ops[-1] if draw(st.booleans()) else None
        streams.append([(op, edge) for op in ops for edge in ("start", "end")
                        if edge == "start" or op is not pending])
    ops = [op for s in streams for op, edge in s if edge == "start"]
    step = 0
    while any(streams):
        active = [s for s in streams if s]
        op, edge = active[draw(st.integers(0, len(active) - 1))].pop(0)
        op[edge] = step
        step += 1
    return n_procs, [
        OpRecord(i, op["proc"], op["var"], W if op["write"] else R, op["start"], op.get("end"),
                 op["value"] if op["write"] else None,
                 op["value"] if not op["write"] and "end" in op else None)
        for i, op in enumerate(ops)
    ]


rep = dataclasses.replace

#: Faults placed on one op: (the ops it can be placed on, how it changes
#: one of them given a free integer and the number of processes).
ONE_OP_FAULTS = {
    "negative_id": (lambda o: True, lambda o, i, n: rep(o, op_id=-1)),
    "undeclared": (lambda o: True, lambda o, i, n: rep(o, var="z")),
    "not_writer": (lambda o: o.var == "x" and o.kind is R,
                   lambda o, i, n: rep(o, kind=W, arg=o.ret or 0, ret=None)),
    "not_reader": (lambda o: o.var == "x" and o.kind is W,
                   lambda o, i, n: rep(o, kind=R, arg=None, ret=o.arg if o.completed else None)),
    "arg_outside": (lambda o: o.kind is W, lambda o, i, n: rep(o, arg=DOMAIN if i % 2 else -1)),
    "ret_outside": (lambda o: o.kind is R and o.completed,
                    lambda o, i, n: rep(o, ret=DOMAIN if i % 2 else -1)),
    "end_not_after_start": (lambda o: o.completed, lambda o, i, n: rep(o, end=o.start - i % 2)),
    "write_without_arg": (lambda o: o.kind is W, lambda o, i, n: rep(o, arg=None)),
    "write_with_ret": (lambda o: o.kind is W, lambda o, i, n: rep(o, ret=0)),
    "read_with_arg": (lambda o: o.kind is R, lambda o, i, n: rep(o, arg=0)),
    "read_ret_iff_completed": (lambda o: o.kind is R,
                               lambda o, i, n: rep(o, ret=None if o.completed else 0)),
    # an op of y joins another process, which it may overlap
    "moved_to_other_proc": (lambda o: o.var == "y",
                            lambda o, i, n: rep(o, proc=(o.proc + 1 + i % (n - 1)) % n)),
    # a Read of x becomes a Write by x's single writer, which may overlap
    # that writer's other Writes
    "same_writer_gains_write": (lambda o: o.var == "x" and o.kind is R,
                                lambda o, i, n: rep(o, proc=0, kind=W, arg=o.ret or 0, ret=None)),
}
FAULTS = ("dup_id", "dup_step", *ONE_OP_FAULTS)


def inject(ops, n_procs, kind, k, i, one_op_faults=ONE_OP_FAULTS):
    """``ops`` with fault ``kind`` placed by the free integers ``k`` and
    ``i``, or None where it has no place."""
    ops = list(ops)
    if len(ops) < (2 if kind == "dup_id" else 1):
        return None
    if kind == "dup_id":
        k %= len(ops)
        ops[k] = rep(ops[k], op_id=ops[(k + 1 + i % (len(ops) - 1)) % len(ops)].op_id)
    elif kind == "dup_step":
        # steps t and t+1 become one: every later step moves down by one
        last = max(s for o in ops for s in (o.start, o.end) if s is not None)
        if last <= 0:
            return None
        t = i % last

        def at(s):
            return s if s is None or s <= t else s - 1
        ops = [rep(o, start=at(o.start), end=at(o.end)) for o in ops]
    else:
        applies, change = one_op_faults[kind]
        places = [j for j, o in enumerate(ops) if applies(o)]
        if not places:
            return None
        j = places[k % len(places)]
        ops[j] = change(ops[j], i, n_procs)
    return ops


@PINNED
@given(valid_histories())
def test_valid_histories_accepted_by_both(history):
    n_procs, ops = history
    assert fault(one_pass, declared(n_procs), ops) is None
    assert fault(two_pass, declared(n_procs), ops) is None


@settings(PINNED, max_examples=1000)
@given(valid_histories(), st.sampled_from(FAULTS), st.integers(0, 99), st.integers(0, 99))
def test_single_fault_named_alike(history, kind, k, other):
    n_procs, ops = history
    ops = inject(ops, n_procs, kind, k, other)
    if ops is not None:
        vars = declared(n_procs)
        assert fault(one_pass, vars, ops) == fault(two_pass, vars, ops)


@PINNED
@given(valid_histories(), st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, 99),
                                             st.integers(0, 99)), min_size=2, max_size=4))
def test_several_faults_rejected_alike(history, faults):
    n_procs, ops = history
    for kind, k, other in faults:
        ops = inject(ops, n_procs, kind, k, other) or ops
    vars = declared(n_procs)
    assert (fault(one_pass, vars, ops) is None) == (fault(two_pass, vars, ops) is None)


@PINNED
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from("xyz"),
                          st.booleans(), st.integers(0, 9), st.none() | st.integers(-1, 6),
                          st.integers(-1, DOMAIN)), max_size=6))
def test_arbitrary_op_sets_rejected_alike(raw):
    # Random fields: repeated ids and steps, undeclared variables and
    # processes, ends not after starts, values outside the domain, and a
    # single writer's overlapping Writes.
    ops = [OpRecord(op_id, proc, var, W if write else R, start,
                    None if length is None else start + length,
                    value if write else None,
                    value if not write and length is not None else None)
           for op_id, proc, var, write, start, length, value in raw]
    vars = declared(3)
    assert (fault(one_pass, vars, ops) is None) == (fault(two_pass, vars, ops) is None)


#: Faults placed on one op of a timestamp history, as ``ONE_OP_FAULTS``.
CTS_ONE_OP_FAULTS = {
    "id_not_int": (lambda o: True, lambda o, i, n: rep(o, op_id=float(o.op_id))),
    "end_not_int": (lambda o: o.completed, lambda o, i, n: rep(o, end=True if i % 2 else 1.5)),
    "payload_not_int": (lambda o: o.kind == LABELING,
                        lambda o, i, n: rep(o, payload=True if i % 2 else 1.0)),
    "unknown_kind": (lambda o: True, lambda o, i, n: rep(o, kind="Write")),
    "proc_out_of_range": (lambda o: True, lambda o, i, n: rep(o, proc=n if i % 2 else -1)),
    "end_not_after_start": (lambda o: o.completed, lambda o, i, n: rep(o, end=o.start - i % 2)),
    "labeling_without_label": (lambda o: o.kind == LABELING and o.completed,
                               lambda o, i, n: rep(o, label=None)),
    "scan_without_result": (lambda o: o.kind == SCAN and o.completed,
                            lambda o, i, n: rep(o, result=None)),
    # an op joins another process, which it may overlap
    "moved_to_other_proc": (lambda o: True, lambda o, i, n: rep(o, proc=(o.proc + 1 + i) % n)),
    # pending, and so its process's last only if it was already
    "made_pending": (lambda o: o.completed,
                     lambda o, i, n: rep(o, end=None, label=None, result=None)),
}
CTS_FAULTS = ("dup_id", "dup_step", *CTS_ONE_OP_FAULTS)


def shared_cts(n, ops) -> None:
    CtsHistory(n=n, ops=ops)


def verbatim_cts(n, ops) -> None:
    """``cts_validate.validate``, with the two messages that CtsHistory now
    words as History does in History's wording."""
    try:
        cts_validate.validate(types.SimpleNamespace(n=n, ops=tuple(sorted(ops, key=lambda o: o.start))))
    except HistoryError as exc:
        message = re.sub(r"ops (\S+), (\S+) overlap", r"ops \1 and \2 overlap", str(exc))
        ended = re.match(r"op (\S+): end not after start$", message)
        if ended:
            op = next(o for o in ops if repr(o.op_id) == ended[1])
            message = f"op {ended[1]}: end {op.end} not after start {op.start}"
        raise HistoryError(message) from None


@PINNED
@given(cts_histories())
def test_valid_cts_histories_accepted_by_both(h):
    assert fault(shared_cts, h.n, h.ops) is fault(verbatim_cts, h.n, h.ops) is None


@settings(PINNED, max_examples=1000)
@given(cts_histories(), st.sampled_from(CTS_FAULTS), st.integers(0, 99), st.integers(0, 99))
def test_single_cts_fault_named_alike(h, kind, k, other):
    ops = inject(h.ops, h.n, kind, k, other, CTS_ONE_OP_FAULTS)
    if ops is not None:
        assert fault(shared_cts, h.n, ops) == fault(verbatim_cts, h.n, ops)


@PINNED
@given(cts_histories(), st.lists(st.tuples(st.sampled_from(CTS_FAULTS), st.integers(0, 99),
                                           st.integers(0, 99)), min_size=2, max_size=4))
def test_several_cts_faults_rejected_alike(h, faults):
    ops = h.ops
    for kind, k, other in faults:
        ops = inject(ops, h.n, kind, k, other, CTS_ONE_OP_FAULTS) or ops
    assert (fault(shared_cts, h.n, ops) is None) == (fault(verbatim_cts, h.n, ops) is None)


def test_same_writer_overlapping_writes_rejected_as_overlap():
    # Once the 1-writer "Writes not totally ordered" loop's only case; the
    # per-process check names it first in both.
    ops = [OpRecord(0, 0, "x", W, 0, 3, 1), OpRecord(1, 0, "x", W, 1, 2, 2)]
    assert fault(one_pass, declared(2), ops) == fault(two_pass, declared(2), ops) == (
        "proc 0: ops 0 and 1 overlap")


# -- Integer tag order ----------------------------------------------------------


@st.composite
def codecs_and_values(draw):
    codec = TagCodec(n_pids=draw(st.integers(1, 4)), payload_domain=draw(st.integers(2, 9)))
    # Encoded tags, and raw values anywhere in the register domain, as a
    # safe base Read may return.
    value = st.one_of(
        st.builds(codec.encode, st.integers(0, MAX_SEQ - 1), st.integers(0, codec.n_pids - 1),
                  st.integers(0, codec.payload_domain - 1)),
        st.integers(0, codec.domain - 1),
    )
    return codec, draw(value), draw(value)


@PINNED
@given(codecs_and_values())
def test_integer_tag_order_matches_tag_less(drawn):
    codec, a, b = drawn
    old = b if tag_less(codec.decode(a).tag, codec.decode(b).tag) else a
    assert _max_tagged(codec, a, b) == old
    assert codec.seq(a) == codec.decode(a).tag.seq


@PINNED
@given(codecs_and_values())
def test_payload_matches_decode(drawn):
    codec, a, b = drawn
    assert codec.payload(a) == codec.decode(a).val
    assert codec.payload(b) == codec.decode(b).val


# -- Engine digests -------------------------------------------------------------


def execution_record(e) -> bytes:
    ops = tuple((o.op_id, o.proc, o.kind, o.arg, o.ret, o.start, o.end, o.base_accesses)
                for o in e.ops)
    return repr((e.events, ops, e.decisions)).encode()


TREES = {
    "multiwriter": (lambda: build_multiwriter(2),
                    [[("Write", 3)], [("Write", 5), ("Read", None)]],
                    8008, "74cd2a0a0f5e38c38871d1b081c242045336f4ab0ef1e7413e2a925335c939b5"),
    "multireader_nowriteback": (lambda: build_multireader(2, writeback=False),
                                [[("Write", 4)], [("Read", None)], [("Read", None)]],
                                34650, "8bd64b4ca57c05d8d61df612a015b8f5e2b82a7692fefb2aff860f4bb8b16853"),
    "cts": (lambda: build_cts(2), [[("Labeling", 2)], [("Labeling", 6), ("Scan", None)]],
            8008, "6e176c811c6c77b6165ed3d024322c2416ba4eca7c7e5e3001018447da755759"),
    "regular_bit": (lambda: build_regular_bit(2),
                    [[("Write", 1), ("Write", 0)], [("Read", None), ("Read", None)], [("Read", None)]],
                    16258, "1d669577ec1f91a7abf8e9fb24208156b355c2981f5e3a8a0d2ef06e9fead870"),
    "raw_safe": (lambda: build_raw_register(1, domain=8, semantics=SemanticsLevel.SAFE),
                 [[("Write", 1), ("Write", 2), ("Write", 3)], [("Read", None), ("Read", None)]],
                 8330, "9709531903f1a34e815f2044a3f407463e56f923ef9f404dc8519821e14e6b66"),
}


@pytest.mark.parametrize("name", TREES)
def test_enumeration_digest_pinned(name):
    build, workload, count, expected = TREES[name]
    digest = hashlib.sha256()
    res = enumerate_executions(build(), workload, visit=lambda e: digest.update(execution_record(e)))
    assert (res.count, res.truncated, digest.hexdigest()) == (count, False, expected)


RANDOM = {
    # two readers of a safe register: nodes where a whole-domain branch
    # sits between scheduler steps, so the flattened index matters
    "raw_safe": (lambda: build_raw_register(2, domain=8, semantics=SemanticsLevel.SAFE),
                 [[("Write", 1), ("Write", 2), ("Write", 3)], [("Read", None)] * 2,
                  [("Read", None)] * 2],
                 "795d43e265f1513bf33733fda4e37dcb3f004a38ed89fdb52839e1ff4564853f"),
    "raw_regular": (lambda: build_raw_register(2, domain=5, semantics=SemanticsLevel.REGULAR),
                    [[("Write", 4), ("Write", 2)] * 2, [("Read", None)] * 3, [("Read", None)] * 3],
                    "73de23260a849100f932e5e2954692e51050683f2ec97947352a5feb5492c539"),
    "multireader": (lambda: build_multireader(3),
                    [[("Write", 1 + i % 7) for i in range(4)]] + [[("Read", None)] * 3] * 3,
                    "d8c07a814200392a8d90655297cf39c029c44adcf88964b6d80971f673d91f9a"),
    "multiwriter": (lambda: build_multiwriter(3),
                    [[("Write", 1 + p), ("Read", None)] * 3 for p in range(3)],
                    "59a1a11f84e5d30d5532d3d3ac0c79de29964791cd60daba949e0d74cde1fd6f"),
    "cts": (lambda: build_cts(3), [[("Labeling", 1 + p), ("Scan", None)] * 3 for p in range(3)],
            "1e530628971e1e2713640cf7e11b39bb424e41a07dc333223fca50f1f44a52e9"),
}


@pytest.mark.parametrize("name", RANDOM)
def test_random_execution_digest_pinned(name):
    build, workload, expected = RANDOM[name]
    spec = build()
    digest = hashlib.sha256()
    for seed in range(40):
        digest.update(execution_record(random_execution(spec, workload, seed)))
    assert digest.hexdigest() == expected
