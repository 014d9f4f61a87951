"""The seeded random walk against the one it replaced.

``regsim.engine.random_execution`` reads the phase of each process that
steps, and draws its index with ``getrandbits``;
``random_walk.random_execution`` is the walk before that, kept verbatim,
which rebuilds the choice list and calls ``randrange`` at every step.  Both
must give equal executions (events, ops and decisions) for every protocol,
base semantics, workload and seed, or fail with the same error.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regsim import (
    SemanticsLevel,
    build_cts,
    build_multireader,
    build_multiwriter,
    build_raw_register,
    build_regular_bit,
    random_execution,
)
from regsim.engine import EngineError, _Sim

import random_walk

PINNED = settings(derandomize=True, deadline=None, max_examples=300)

BUILDERS = {
    "raw_register": lambda n: build_raw_register(n, domain=4, semantics=SemanticsLevel.ATOMIC),
    "regular_bit": build_regular_bit,
    "multireader": build_multireader,
    "multireader_nowriteback": lambda n: build_multireader(n, writeback=False),
    "multiwriter": build_multiwriter,
    "cts": build_cts,
}


def with_bases(spec, semantics):
    """``spec`` with every base register of the given semantics."""
    regs = tuple(dataclasses.replace(r, semantics=semantics) for r in spec.registers)
    return dataclasses.replace(spec, registers=regs)


def outcome(walk, spec, workload, seed):
    try:
        return walk(spec, workload, seed)
    except EngineError as exc:
        return type(exc), str(exc)


def assert_same_walk(spec, workload, seed):
    new = outcome(random_execution, spec, workload, seed)
    assert new == outcome(random_walk.random_execution, spec, workload, seed)
    return new


@st.composite
def walks(draw):
    """A protocol over atomic, regular or safe bases and a workload in its
    roles: each process's ops are drawn from the kinds it may perform, and
    any op list may be empty."""
    name = draw(st.sampled_from(sorted(BUILDERS)))
    semantics = draw(st.sampled_from(list(SemanticsLevel)))
    spec = with_bases(BUILDERS[name](draw(st.integers(1, 3))), semantics)
    workload = []
    for proc in range(spec.n_processes):
        kinds = [k for k in sorted(spec.budgets)
                 if proc in (spec.writers if k in spec.history.arg_kinds else spec.readers)]
        op = st.sampled_from(kinds).flatmap(
            lambda k: st.tuples(st.just(k), st.integers(0, spec.domain - 1)
                                if k in spec.history.arg_kinds else st.none()))
        workload.append(draw(st.lists(op, max_size=3)) if kinds else [])
    return spec, workload, draw(st.integers(0, 2**32))


@PINNED
@given(walks())
@example((build_cts(3), [[], [], []], 0))
@example((with_bases(build_multiwriter(3), SemanticsLevel.SAFE),
          [[], [("Write", 1), ("Read", None)] * 2, []], 5))
def test_walk_matches_reference(walk):
    assert_same_walk(*walk)


def pending_weak_reads(execution) -> list[int]:
    """Per event, the number of adversary-answered base Reads pending just
    before it."""
    weak = [r.semantics is not SemanticsLevel.ATOMIC for r in execution.protocol.registers]
    pending, open_reads = [], 0
    for _step, _proc, etype, reg, rw, _value, _uid in execution.events:
        pending.append(open_reads)
        if rw == "R" and weak[reg]:
            open_reads += 1 if etype == "bi" else -1
    return pending


@pytest.mark.parametrize("semantics", [SemanticsLevel.SAFE, SemanticsLevel.REGULAR])
def test_walk_matches_reference_with_two_adversary_reads_pending(semantics):
    spec = build_raw_register(3, domain=5, semantics=semantics)
    workload = [[("Write", 4), ("Write", 1)] * 2] + [[("Read", None)] * 3] * 3
    most = [max(pending_weak_reads(assert_same_walk(spec, workload, seed))) for seed in range(60)]
    assert max(most) >= 2


@pytest.mark.parametrize("semantics", list(SemanticsLevel))
def test_choice_list_built_only_while_the_adversary_chooses(semantics, monkeypatch):
    calls = []
    choices = _Sim.choices
    monkeypatch.setattr(_Sim, "choices", lambda sim: calls.append(sim.step) or choices(sim))
    spec = with_bases(build_multiwriter(2), semantics)
    for seed in range(10):
        calls.clear()
        e = random_execution(spec, [[("Write", 1), ("Read", None)] * 2] * 2, seed)
        assert calls == [step for step, n in enumerate(pending_weak_reads(e)) if n]
