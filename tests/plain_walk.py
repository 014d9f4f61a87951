"""The decision tree walked by plain recursion, kept as a reference.

This is the walk ``enumerate_executions`` made before it stored the tails
that one process runs alone: every node is reached by ``_Sim.apply``, and
``_Sim.choices`` is called once at each node, leaves and cut nodes
included.  So a test that patches a ``_Sim`` method sees every node of the
tree here, and the engine's walk is held to the leaves it gives.  It builds
each leaf by ``_Sim.snapshot`` and keeps no table of finished ops.
"""

from __future__ import annotations

from collections.abc import Iterator

from regsim.engine import Execution, _Sim


def plain_leaves(spec, workload, max_exec, max_steps,
                 stop_after=None) -> Iterator[Execution]:
    """The leaves' executions in visit order, as a generator whose return
    value is ``(truncated, stopped)``: a leaf past ``max_exec`` ends the
    walk truncated, a node at ``max_steps`` with choices left is cut
    (truncated, siblings still walked), and the walk stops after the
    ``stop_after``-th leaf.  An error the engine raises comes out of the
    generator where the walk meets it."""
    sim = _Sim(spec, workload)
    flags = {"truncated": False, "stopped": False, "count": 0}

    def dfs():
        choices = sim.choices()
        if not choices:
            if flags["count"] >= max_exec:
                flags["truncated"] = True
                return False
            flags["count"] += 1
            yield sim.snapshot()
            if flags["count"] == stop_after:
                flags["stopped"] = True
                return False
            return True
        if sim.step >= max_steps:
            flags["truncated"] = True
            return True
        for proc, value in choices:
            token = sim.apply(proc, value)
            alive = yield from dfs()
            sim.undo(token)
            if not alive:
                return False
        return True

    yield from dfs()
    return flags["truncated"], flags["stopped"]


def recursive_enumeration(spec, workload, max_exec, max_steps, stop_after=None):
    """``(executions in visit order, truncated, stopped)`` of
    :func:`plain_leaves`."""
    leaves = plain_leaves(spec, workload, max_exec, max_steps, stop_after)
    executions = []
    while True:
        try:
            executions.append(next(leaves))
        except StopIteration as end:
            return executions, *end.value
