"""``history.slot_init`` against what the dataclass-generated ``__init__``
builds.

Every record class the decorator is applied to is built both ways: by its
``__init__``, and by a reference that does what the generated one did,
``object.__new__`` then ``object.__setattr__`` per field in field order,
then ``__post_init__``.  The two must agree on type, fields, ``==``,
``hash`` and ``repr``, for positional and keyword calls, omitted defaults
and ``dataclasses.replace``; instances stay frozen and validation still
runs.
"""

import dataclasses
import inspect

import pytest

from regsim import (
    CtsHistory,
    CtsOp,
    Execution,
    History,
    HistoryError,
    Label,
    LabeledObject,
    OpKind,
    OpRecord,
    Tag,
    VarSpec,
    Verdict,
    build_multiwriter,
    random_execution,
)
from regsim.engine import HLOp
from regsim.history import slot_init

W, R = OpKind.WRITE, OpKind.READ
X = {"x": VarSpec(4, 0, frozenset({0}), frozenset({1}))}
WRITE = OpRecord(0, 0, "x", W, 0, 3, 1, None)
READ = OpRecord(1, 1, "x", R, 1, 2, None, 1)
LABEL = Label(Tag(1, 0))
ENTRY = LabeledObject(0, LABEL, 5)
LABELING = CtsOp(0, 0, "Labeling", 0, 3, 5, Tag(1, 0))
SCAN = CtsOp(1, 1, "Scan", 4, 7, result=(ENTRY, LabeledObject(1, Label(Tag(0, 1)), 0)))
MW = random_execution(build_multiwriter(2), [[("Write", 3)], [("Write", 5), ("Read", None)]], 0)

#: Per decorated class, calls as (positional args, keyword args): every
#: field given, defaults omitted, keywords, and positional and keyword
#: mixed.
CALLS = {
    OpRecord: [
        ((0, 0, "x", W, 0, 3, 1, None), {}),
        ((1, 1, "x", R, 1), {}),
        ((), dict(op_id=1, proc=1, var="x", kind=R, start=1, end=2, ret=1)),
        ((0, 0, "x"), dict(kind=W, start=0, arg=2)),
    ],
    History: [
        ((X, (READ, WRITE)), {}),
        ((X,), {}),
        ((), dict(ops=[WRITE, READ], vars=X)),
    ],
    HLOp: [
        ((0, 0, "Write", 1, None, 0, 3, 2), {}),
        ((1, 1, "Read", None, 1, 1, 2, 1, READ), {}),
        ((), dict(op_id=1, proc=1, kind="Read", arg=None, ret=1, start=1, end=2,
                  base_accesses=1, record=READ)),
    ],
    Execution: [
        ((MW.protocol, MW.events, MW.ops, MW.decisions), {}),
        ((MW.protocol,), dict(decisions=(), ops=(), events=())),
    ],
    Verdict: [
        ((True,), {}),
        ((False, 3, "why"), {}),
        ((), dict(ok=True, linearizations={"x": (0, 1)})),
        ((False,), dict(reason="why", violating_op=0)),
    ],
    CtsOp: [
        ((0, 0, "Labeling", 0, 3, 5, Tag(1, 0), None), {}),
        ((1, 1, "Scan", 4), {}),
        ((), dict(op_id=1, proc=1, kind="Scan", start=4, end=7, result=(ENTRY,))),
    ],
    Label: [((Tag(2, 1),), {}), ((), dict(tag=Tag(0, 0)))],
    LabeledObject: [((0, LABEL, 5), {}), ((1,), dict(payload=0, label=LABEL))],
    CtsHistory: [
        ((2, (SCAN, LABELING)), {}),
        ((2,), {}),
        ((), dict(ops=(LABELING,), n=1)),
    ],
}

#: A change of one field per class, for ``dataclasses.replace``.
CHANGES = {
    OpRecord: dict(end=None), History: dict(ops=(WRITE,)), HLOp: dict(record=None),
    Execution: dict(decisions=((0, None),)), Verdict: dict(reason="other"),
    CtsOp: dict(payload=6), Label: dict(tag=Tag(3, 0)), LabeledObject: dict(owner=1),
    CtsHistory: dict(n=3),
}


def reference(cls, args, kwargs):
    """The object the dataclass-generated ``__init__`` builds from a call."""
    fields = dataclasses.fields(cls)
    values = dict(zip([f.name for f in fields], args))
    values.update(kwargs)
    obj = object.__new__(cls)
    for f in fields:
        object.__setattr__(obj, f.name, values[f.name] if f.name in values else f.default)
    if hasattr(cls, "__post_init__"):
        obj.__post_init__()
    return obj


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:  # a field holds a dict
        return str(exc)


def assert_same(a, b):
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        assert getattr(a, f.name) == getattr(b, f.name)
    assert a == b and b == a
    assert hash_or_error(a) == hash_or_error(b)
    assert repr(a) == repr(b)


def test_every_class_is_covered():
    assert all("_set0" in cls.__init__.__globals__ for cls in CALLS)
    assert set(CHANGES) == set(CALLS)


@pytest.mark.parametrize("cls, args, kwargs", [
    pytest.param(cls, args, kwargs, id=f"{cls.__name__}-{i}")
    for cls, calls in CALLS.items() for i, (args, kwargs) in enumerate(calls)
])
def test_built_alike(cls, args, kwargs):
    obj = cls(*args, **kwargs)
    ref = reference(cls, args, kwargs)
    assert_same(obj, ref)
    changed = dataclasses.replace(obj, **CHANGES[cls])
    expected = reference(cls, (), {**{f.name: getattr(ref, f.name)
                                      for f in dataclasses.fields(cls)}, **CHANGES[cls]})
    assert_same(changed, expected)


@pytest.mark.parametrize("cls", CALLS, ids=lambda cls: cls.__name__)
def test_frozen_and_same_signature(cls):
    args, kwargs = CALLS[cls][0]
    obj = cls(*args, **kwargs)
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, f.name)
    assert not hasattr(obj, "__dict__")
    params = inspect.signature(cls).parameters
    assert [(p.name, p.default) for p in params.values()] == [
        (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls)]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params.values())


@pytest.mark.parametrize("cls", CALLS, ids=lambda cls: cls.__name__)
def test_bad_calls_rejected(cls):
    n = len(dataclasses.fields(cls))
    with pytest.raises(TypeError):
        cls(*range(n + 1))
    with pytest.raises(TypeError):
        cls(no_such_field=1)
    with pytest.raises(TypeError):
        cls()


@pytest.mark.parametrize("ops, message", [
    ((WRITE, WRITE), "duplicate op id 0"),
    ((OpRecord(0, 1, "x", W, 0, 3, 1),), "op 0: proc 1 is not a writer of 'x'"),
    ((OpRecord(0, 0, "y", W, 0, 3, 1),), "op 0: undeclared variable 'y'"),
    ((READ, OpRecord(2, 1, "x", R, 0, 4, None, 0)), "proc 1: ops 2 and 1 overlap"),
])
def test_invalid_history_rejected_alike(ops, message):
    with pytest.raises(HistoryError) as built:
        History(X, ops)
    with pytest.raises(HistoryError) as ref:
        reference(History, (X, ops), {})
    assert str(built.value) == str(ref.value) == message


def test_invalid_cts_history_rejected_alike():
    with pytest.raises(HistoryError, match="proc 1 out of range"):
        CtsHistory(1, (SCAN,))
    with pytest.raises(HistoryError, match="proc 1 out of range"):
        reference(CtsHistory, (1, (SCAN,)), {})


@pytest.mark.parametrize("kwargs", [{}, dict(violating_op=1), dict(reason="why")])
def test_failing_verdict_needs_a_witness(kwargs):
    with pytest.raises(ValueError, match="failing verdict requires a witness"):
        Verdict(ok=False, **kwargs)
    with pytest.raises(ValueError, match="failing verdict requires a witness"):
        Verdict(False, *kwargs.values())


def test_only_plain_fields_taken():
    @dataclasses.dataclass(frozen=True, slots=True)
    class Factory:
        items: list = dataclasses.field(default_factory=list)

    @dataclasses.dataclass(frozen=True, slots=True)
    class Derived:
        a: int
        b: int = dataclasses.field(init=False, default=0)

    for cls in (Factory, Derived):
        with pytest.raises(TypeError, match="slot_init takes plain fields only"):
            slot_init(cls)
