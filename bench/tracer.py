"""Spans around calls into regsim's public functions, taken from outside.

Nothing in ``regsim`` is edited: ``install`` replaces every reference a
loaded ``regsim`` module holds to a traced function with a wrapper, and
``uninstall`` puts the originals back.  Because the CLI imports names into
its own namespace (``from .engine import extract_history``), every module's
reference is replaced, not just the defining one.

Two recorders use this:

* ``Tracer`` (traced runs) keeps, per span name and per scope, the seconds
  spent and the number of calls, plus the counts the per-layer metrics
  need.  Its spans nest; each reports its inclusive time.
* ``LatencyProbe`` (untraced runs) keeps only the latency of each atomic
  ``check_level`` call and of each execution's visit in ``regsim
  enumerate``, which the ``check_*`` and ``trace_*`` metrics need on
  workloads where the CLI, not the benchmark, makes these calls.

``Speed`` corrects the untraced timings for the speed of a shared machine.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

from reference import history_key

#: Traced functions: (module, name) -> span name.  ``check_level`` is
#: named by level at call time (checkers.atomic / .regular / .safe).
SPANS = {
    ("regsim.engine", "enumerate_executions"): "engine.enumerate",
    ("regsim.engine", "extract_history"): "engine.extract",
    ("regsim.engine", "random_execution"): "engine.random_execution",
    ("regsim.checkers", "check_level"): "checkers.check_level",
    ("regsim.checkers", "classify"): "checkers.classify",
    ("regsim.checkers", "brute_force_atomic"): "checkers.oracle",
    ("regsim.history", "serialize_trace"): "history.serialize",
    ("regsim.history", "parse_trace"): "history.parse",
    ("regsim.timestamp", "extract_cts_history"): "timestamp.extract",
    ("regsim.timestamp", "check_cts"): "timestamp.check",
    ("regsim.timestamp", "serialize_cts_trace"): "timestamp.serialize",
    ("regsim.timestamp", "parse_cts_trace"): "timestamp.parse",
    ("regsim.scenario", "load_scenario"): "scenario.load_build",
    ("regsim.scenario", "build_protocol"): "scenario.load_build",
}


def _replace(targets, make_wrapper):
    """Swap every reference to each target function in every loaded regsim
    module; returns what ``_restore`` needs to undo it."""
    by_id = {}
    for modname, fname in targets:
        fn = getattr(sys.modules[modname], fname)
        by_id[id(fn)] = make_wrapper(modname, fname, fn)
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "regsim" and not modname.startswith("regsim."):
            continue
        for attr, val in list(vars(mod).items()):
            wrapper = by_id.get(id(val))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
                patched.append((mod, attr, val))
    return patched


def _restore(patched) -> None:
    for mod, attr, val in patched:
        setattr(mod, attr, val)


def register_ops(h) -> list[tuple]:
    """A regsim History's ops in the reference's tuple format."""
    return [(o.op_id, o.proc, o.kind.value, o.start, o.end,
             o.arg if o.kind.value == "W" else o.ret) for o in h.ops]


def register_key(level: str, h) -> tuple:
    return level, history_key(register_ops(h))


def cts_key(h) -> tuple:
    return "cts", history_key(tuple(
        (o.op_id, o.proc, o.kind, o.start, o.end, (o.payload, o.label, o.result))
        for o in h.ops
    ))


class Tracer:
    """Per-round span totals and counts, optionally split by scope."""

    def __init__(self):
        self.scope: str | None = None
        self._patched = []
        self.reset()

    def reset(self) -> None:
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.keys = defaultdict(set)

    def _add(self, name: str, dt: float) -> None:
        for scope in (None, self.scope) if self.scope else (None,):
            self.seconds[name, scope] += dt
            self.calls[name, scope] += 1

    def _count(self, name: str, k: int = 1) -> None:
        for scope in (None, self.scope) if self.scope else (None,):
            self.counts[name, scope] += k

    def _key(self, key: tuple) -> None:
        for scope in (None, self.scope) if self.scope else (None,):
            self.keys[scope].add(key)
        self._count("checkers.check_calls")

    def install(self) -> None:
        self._patched = _replace(SPANS, self._wrap)

    def uninstall(self) -> None:
        _restore(self._patched)
        self._patched = []

    def _wrap(self, modname, fname, fn):
        name = SPANS[modname, fname]
        clock = time.perf_counter
        tracer = self

        if fname == "enumerate_executions":
            def traced(spec, workload, limits=None, visit=None):
                if visit is not None:
                    inner = visit

                    def visit(execution):
                        tracer._count("engine.executions")
                        tracer._count("engine.leaf_events", len(execution.events))
                        t0 = clock()
                        try:
                            return inner(execution)
                        finally:
                            tracer._add("engine.visit", clock() - t0)
                t0 = clock()
                try:
                    return fn(spec, workload, limits, visit=visit)
                finally:
                    tracer._add(name, clock() - t0)
            return traced

        if fname == "check_level":
            def traced(h, level):
                tracer._key(register_key(level.name, h))
                span = "checkers." + level.name.lower()
                t0 = clock()
                try:
                    return fn(h, level)
                finally:
                    tracer._add(span, clock() - t0)
            return traced

        if fname == "check_cts":
            def traced(h):
                tracer._key(cts_key(h))
                t0 = clock()
                try:
                    return fn(h)
                finally:
                    tracer._add(name, clock() - t0)
            return traced

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._add(name, clock() - t0)
            if fname == "serialize_trace":
                tracer._count("history.trace_bytes", len(result.encode()))
            return result
        return traced

    def metrics(self, scope: str | None = None) -> dict[str, float]:
        """This round's per-layer figures for one scope (None: all)."""
        s = lambda name: self.seconds[name, scope]
        c = lambda name: self.calls[name, scope]
        executions = self.counts["engine.executions", scope]
        self_s = s("engine.enumerate") - s("engine.visit")
        distinct = len(self.keys[scope])
        check_calls = self.counts["checkers.check_calls", scope]
        out = {
            "engine.executions": executions,
            "engine.leaf_events": self.counts["engine.leaf_events", scope],
            "engine.enumerate_self_s": self_s,
            "engine.executions_per_s": executions / self_s if executions else 0.0,
            "engine.extract_s": s("engine.extract"),
            "engine.extract_calls": c("engine.extract"),
            "checkers.distinct_histories": distinct,
            "checkers.useful_ratio": distinct / check_calls if check_calls else 0.0,
        }
        if scope is not None:
            return out
        out.update({
            "engine.random_execution_s": s("engine.random_execution"),
            "checkers.atomic_s": s("checkers.atomic"),
            "checkers.atomic_calls": c("checkers.atomic"),
            "checkers.regular_s": s("checkers.regular"),
            "checkers.safe_s": s("checkers.safe"),
            "checkers.classify_s": s("checkers.classify"),
            "checkers.oracle_s": s("checkers.oracle"),
            "history.serialize_s": s("history.serialize"),
            "history.parse_s": s("history.parse"),
            "history.trace_bytes": self.counts["history.trace_bytes", None],
            "timestamp.extract_s": s("timestamp.extract"),
            "timestamp.check_s": s("timestamp.check"),
            "timestamp.serialize_s": s("timestamp.serialize"),
            "timestamp.parse_s": s("timestamp.parse"),
            "scenario.load_build_s": s("scenario.load_build"),
        })
        return out


#: Seconds the reference work takes at the reference speed (about its
#: median on the machine the README's figures come from).
REFERENCE_S = 0.0015


def reference_work() -> None:
    """Allocation-heavy pure Python, like regsim's inner loops: small tuples
    and lists into a dict that is cleared often, and a keyed sort."""
    d = {}
    for i in range(8000):
        t = (i, i % 7, None)
        d[t] = [t, i]
        if len(d) > 64:
            d.clear()
    sorted(range(600), key=lambda x: -x)


class Speed:
    """How fast the machine runs the reference work right now.

    The benchmark shares its machine, whose speed drifts by up to two times
    within a minute (the same code took 136 to 281 ms), and process CPU time
    drifts with it (see README.md), so it is no remedy.  Untraced timings are
    therefore reported at the reference speed: measured seconds times
    ``REFERENCE_S`` over the median time of the reference work around them.
    ``tick`` runs the reference work at most every ``INTERVAL`` seconds,
    between operations and between checker calls; ``elapsed`` leaves the
    reference work's own time out."""

    INTERVAL = 0.05

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = float("-inf")

    def probe(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1
        self._recent = REFERENCE_S / statistics.median(self.samples[-9:])

    def tick(self) -> None:
        if time.perf_counter() - self._last >= self.INTERVAL:
            self.probe()

    def scale(self, since: int | None = None) -> float:
        """REFERENCE_S over the median of the probes taken since index
        ``since`` (when there are three or more), else of the last nine."""
        if since is not None and len(self.samples) - since >= 3:
            return REFERENCE_S / statistics.median(self.samples[since:])
        return self._recent

    def mark(self) -> tuple:
        return time.perf_counter(), self.spent, len(self.samples)

    def elapsed(self, mark: tuple) -> float:
        """Reference-speed seconds since ``mark``, less the probes' own time."""
        t0, spent0, n0 = mark
        return (time.perf_counter() - t0 - (self.spent - spent0)) * self.scale(n0)


class LatencyProbe:
    """Latencies in reference-speed seconds, collector pauses included:

    * ``checks``: every ``check_level`` call at atomic, also those inside
      ``classify``;
    * ``visits`` (with ``visits`` set): every call of the visitor
      ``enumerate_executions`` is given, that is, the CLI's projection and
      check of one execution."""

    def __init__(self, speed: Speed, visits: bool):
        self.speed = speed
        self.checks: list[float] = []
        self.visits: list[float] = []
        self._targets = [("regsim.checkers", "check_level")]
        if visits:
            self._targets.append(("regsim.engine", "enumerate_executions"))
        self._patched = []

    def install(self) -> None:
        self._patched = _replace(self._targets, self._wrap)

    def uninstall(self) -> None:
        _restore(self._patched)
        self._patched = []

    def take(self) -> tuple[list[float], list[float]]:
        """The samples so far, which the probe then forgets."""
        out = self.checks, self.visits
        self.checks, self.visits = [], []
        return out

    def _wrap(self, modname, fname, fn):
        clock = time.perf_counter
        probe, speed = self, self.speed

        if fname == "enumerate_executions":
            def sampled(spec, workload, limits=None, visit=None):
                if visit is None:
                    return fn(spec, workload, limits, visit=visit)
                inner = visit

                def visit(execution):
                    speed.tick()
                    mark = speed.mark()
                    try:
                        return inner(execution)
                    finally:
                        probe.visits.append(speed.elapsed(mark))
                return fn(spec, workload, limits, visit=visit)
            return sampled

        def timed(h, level):
            if level.name != "ATOMIC":
                return fn(h, level)
            speed.tick()
            t0 = clock()
            try:
                return fn(h, level)
            finally:
                probe.checks.append((clock() - t0) * speed.scale())
        return timed
