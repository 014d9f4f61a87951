"""The memoised, iterative atomicity search against the plain recursive one.

``dfs_search.linearize_var`` is the search ``check_level(.., Atomic)`` used
before failed states were remembered.  Skipping a known-failed state must
change nothing: on every history both searches return the same witness
linearization, the same blocking Read and so the same Verdict, field for
field.  ``brute_force_atomic`` stays out of this: it is the independent
oracle, not a reference implementation.
"""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from regsim import History, OpKind, OpRecord, SemanticsLevel, VarSpec, check_level
from regsim import checkers

from dfs_search import linearize_var
from histgen import contention_history

PINNED = settings(derandomize=True, deadline=None, max_examples=300)


@st.composite
def histories(draw, max_ops=24, max_domain=4):
    """Valid histories on one or two variables: 1-4 sequential processes,
    each variable single-writer (process 0 writes, the others read) or
    written and read by everyone, each process's last op pending with
    probability about one half, values from a small domain so Write values
    repeat."""
    n_procs = draw(st.integers(1, 4))
    names = ("x", "y")[: draw(st.integers(1, 2))]
    multi = {v: draw(st.booleans()) for v in names}
    domain = draw(st.integers(2, max_domain))
    drawn = draw(st.lists(
        st.tuples(st.integers(0, n_procs - 1), st.sampled_from(names),
                  st.booleans(), st.integers(0, domain - 1)),
        max_size=max_ops,
    ))
    streams: dict[int, list[list]] = {}
    for proc, var, is_write, value in drawn:
        if not multi[var]:
            is_write = proc == 0
        streams.setdefault(proc, []).append([proc, var, is_write, value, None, None])
    # Per process its ops' invoke (slot 4) and respond (slot 5) edges in
    # order; a pending last op has no respond.
    queues = {}
    for proc, ops in streams.items():
        last = ops[-1] if draw(st.booleans()) else None
        queues[proc] = [(op, edge) for op in ops for edge in (4, 5)
                        if edge == 4 or op is not last]
    step = 0
    while queues:
        active = sorted(queues)
        proc = active[draw(st.integers(0, len(active) - 1))]
        op, edge = queues[proc].pop(0)
        op[edge] = step
        step += 1
        if not queues[proc]:
            del queues[proc]
    everyone = frozenset(range(n_procs))
    specs = {
        v: VarSpec(domain=domain, init=0,
                   writers=everyone if multi[v] else frozenset({0}),
                   readers=everyone if multi[v] else everyone - {0})
        for v in names
    }
    ops = []
    for proc, var, is_write, value, start, end in (op for s in streams.values() for op in s):
        ops.append(OpRecord(
            op_id=len(ops), proc=proc, var=var,
            kind=OpKind.WRITE if is_write else OpKind.READ, start=start, end=end,
            arg=value if is_write else None,
            ret=value if not is_write and end is not None else None,
        ))
    return History(vars=specs, ops=tuple(ops))


def assert_same_search(h: History) -> None:
    for var in h.vars:
        assert checkers._linearize_var(h, var) == linearize_var(h, var)
    new = check_level(h, SemanticsLevel.ATOMIC)
    with mock.patch.object(checkers, "_linearize_var", linearize_var):
        old = check_level(h, SemanticsLevel.ATOMIC)
    assert (new.ok, new.violating_op, new.reason, new.linearizations) == (
        old.ok, old.violating_op, old.reason, old.linearizations)


@PINNED
@given(histories())
def test_search_matches_dfs_on_generated_histories(h):
    assert_same_search(h)


@PINNED
@given(histories(max_domain=2))
def test_search_matches_dfs_with_repeated_write_values(h):
    assert_same_search(h)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(2, 7), st.integers(0, 2**32 - 1))
def test_search_matches_dfs_on_contention(k, seed):
    assert_same_search(contention_history(random.Random(seed), k))
