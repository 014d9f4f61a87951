"""The trace codec against the dict-per-event codec it replaced.

``trace_codec`` keeps the writer that built a dict per event and rendered it
with ``json.dumps(..., sort_keys=True)``, and the reader that decoded each
line with ``json.loads``.  Rendering lines directly and decoding them by one
``raw_decode`` must change nothing: on every history both writers give the
same bytes, and on every trace both readers give the same history or raise
the same ``TraceError`` text.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsim import History, TraceError, parse_trace, serialize_trace
from regsim.timestamp import parse_cts_trace, serialize_cts_trace

import trace_codec
from histgen import cts_histories, engine_cts_history, engine_history, histories
from test_cli import MALFORMED_TRACES

PINNED = settings(derandomize=True, deadline=None, max_examples=300)

#: Header extensions: none, a "decisions" list as the CLI writes it, or any
#: JSON object, whose keys and strings may need escaping.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
extensions = st.one_of(
    st.none(),
    st.builds(lambda d: {"decisions": d},
              st.lists(st.tuples(st.integers(0, 3), st.none() | st.integers(0, 7)).map(list))),
    st.dictionaries(st.text(max_size=5), json_values, max_size=3),
)


@st.composite
def register_histories(draw):
    """``histgen.histories`` with its variables renamed to any distinct
    strings (quotes, backslashes, control and non-ASCII characters among
    them) and its steps shifted by up to 2**70."""
    h = draw(histories())
    names = draw(st.lists(st.text(min_size=1, max_size=6), min_size=len(h.vars),
                          max_size=len(h.vars), unique=True))
    rename = dict(zip(sorted(h.vars), names))
    shift = draw(st.sampled_from([0, 0, 1, 10**6, 2**70]))
    ops = tuple(dataclasses.replace(op, var=rename[op.var], start=op.start + shift,
                                    end=None if op.end is None else op.end + shift)
                for op in h.ops)
    return History(vars={rename[v]: spec for v, spec in h.vars.items()}, ops=ops)


def outcome(parse, text):
    try:
        return parse(text)
    except TraceError as exc:
        return f"TraceError: {exc}"


def assert_same_register_codec(h, ext):
    text = serialize_trace(h, ext)
    assert text == trace_codec.serialize_trace(h, ext)
    assert parse_trace(text) == trace_codec.parse_trace(text) == h


def assert_same_cts_codec(h, ext):
    text = serialize_cts_trace(h, ext)
    assert text == trace_codec.serialize_cts_trace(h, ext)
    assert parse_cts_trace(text) == trace_codec.parse_cts_trace(text) == h


@PINNED
@given(register_histories(), extensions)
def test_register_traces_written_and_read_alike(h, ext):
    assert_same_register_codec(h, ext)


@PINNED
@given(cts_histories(), extensions)
def test_cts_traces_written_and_read_alike(h, ext):
    assert_same_cts_codec(h, ext)


@pytest.mark.parametrize("cut", [False, True], ids=["complete", "cut"])
@pytest.mark.parametrize("construction", ["multiwriter", "multireader"])
def test_long_engine_register_traces_alike(construction, cut):
    for seed in range(5):
        assert_same_register_codec(engine_history(construction, seed, cut),
                                   {"decisions": [[0, None], [1, seed]]})


@pytest.mark.parametrize("cut", [False, True], ids=["complete", "cut"])
def test_long_engine_cts_traces_alike(cut):
    for seed in range(5):
        assert_same_cts_codec(engine_cts_history(3, seed, 20, cut), None)


HEADER = '{"version":1,"vars":{"x":{"domain":10,"init":0,"writers":[0],"readers":[1,2]}}}'
INVOKE = '{"step":0,"op":0,"proc":0,"var":"x","act":"invoke","kind":"W","arg":5}'
RESPOND = '{"step":1,"op":0,"proc":0,"var":"x","act":"respond","kind":"W"}'
READ = ('{"act":"invoke","kind":"R","op":1,"proc":1,"step":2,"var":"x"}\n'
        '{"act":"respond","kind":"R","op":1,"proc":1,"ret":5,"step":3,"var":"x"}')


def lines(*items):
    return "\n".join(items) + "\n"


#: Traces read by ``parse_trace``: those the tests in test_history.py
#: refuse, and lines a single ``raw_decode`` does not read whole.
REGISTER_TRACES = [
    pytest.param(lines(HEADER, RESPOND, INVOKE), id="respond-before-invoke"),
    pytest.param(lines(HEADER, RESPOND), id="respond-without-invoke"),
    pytest.param(lines(HEADER, INVOKE, RESPOND.replace('"step":1', '"step":0')), id="duplicate-step"),
    pytest.param(lines(HEADER.replace('"writers":[0]', '"writers":[2]'), INVOKE, RESPOND),
                 id="undeclared-writer"),
    pytest.param(lines(HEADER, INVOKE, RESPOND, "{not json"), id="corrupt-line"),
    pytest.param("\n\n".join([HEADER, INVOKE, RESPOND.replace('"step":1', '"step":0')]) + "\n",
                 id="blank-lines-counted"),
    pytest.param("\n" + "\n".join([HEADER, INVOKE, "", RESPOND.replace('"step":1', '"step":1.0')]),
                 id="step-float-after-blank-lines"),
    pytest.param('{"version":9,"vars":{}}\n', id="wrong-version"),
    pytest.param("", id="empty"),
    pytest.param(" \n\t\n", id="blank"),
    pytest.param(lines("[]"), id="header-not-an-object"),
    pytest.param(lines('{"version":1}'), id="header-without-vars"),
    pytest.param(lines(HEADER, INVOKE, RESPOND, READ), id="valid"),
    pytest.param(lines(" " + HEADER, "\t" + INVOKE, RESPOND + "  ", READ + "\r"),
                 id="leading-and-trailing-whitespace"),
    pytest.param(lines(HEADER, INVOKE + " " + RESPOND), id="two-values-on-one-line"),
    pytest.param(lines(HEADER, INVOKE + RESPOND), id="two-values-no-space"),
    pytest.param(lines(HEADER, INVOKE[:30], INVOKE[30:], RESPOND), id="line-split-in-two"),
    pytest.param(lines(HEADER + " x", INVOKE, RESPOND), id="header-with-trailing-text"),
    pytest.param(lines(HEADER, "\ufeff" + INVOKE, RESPOND), id="byte-order-mark"),
    pytest.param(lines(HEADER, "\xa0" + INVOKE, RESPOND), id="non-json-whitespace"),
    pytest.param(lines(HEADER, INVOKE.replace('"kind":"W"', '"kind":["W"]')), id="kind-a-list"),
    pytest.param(lines(HEADER, INVOKE.replace('"kind":"W"', '"kind":"X"')), id="kind-unknown"),
    pytest.param(lines(HEADER, INVOKE.replace('"kind":"W",', ""), RESPOND), id="kind-missing"),
    pytest.param(lines(HEADER, INVOKE.replace('"act":"invoke"', '"act":"start"')), id="act-unknown"),
    pytest.param(lines(HEADER, INVOKE, RESPOND.replace('"kind":"W"', '"kind":"R"')),
                 id="respond-disagrees"),
    pytest.param(lines(HEADER, INVOKE, INVOKE.replace('"step":0', '"step":1')), id="duplicate-invoke"),
    pytest.param(lines(HEADER, '{"step":1.0}'), id="step-float-other-keys-missing"),
    pytest.param(lines(HEADER, "[" * 100_000 + "]" * 100_000), id="nested-too-deep"),
]


@pytest.mark.parametrize("text", REGISTER_TRACES)
def test_register_traces_read_alike(text):
    assert outcome(parse_trace, text) == outcome(trace_codec.parse_trace, text)


@pytest.mark.parametrize("level, text", MALFORMED_TRACES)
def test_malformed_cli_traces_refused_alike(level, text):
    parse, reference = ((parse_cts_trace, trace_codec.parse_cts_trace) if level == "cts"
                        else (parse_trace, trace_codec.parse_trace))
    error = outcome(parse, text)
    assert error.startswith("TraceError: ") and error == outcome(reference, text)
