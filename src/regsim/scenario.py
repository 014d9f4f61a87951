"""Scenario configuration files: which construction to run, and how.

A scenario is a JSON object::

    {
      "construction": "multiwriter",          # see CONSTRUCTIONS
      "n": 2,                                  # size parameter
      "domain": 8,                             # payload domain (optional)
      "base_semantics": "atomic",              # optional override
      "workload": [[{"kind": "W", "arg": 1}],  # one op list per process
                   [{"kind": "W", "arg": 2}, {"kind": "R"}]],
      "mode": "enumerate",                     # or "random"; informational
      "seed": 0,
      "limits": {"max_executions": 1000000, "max_steps": 10000}
    }

These are the fields of :class:`Scenario`, and the only keys a scenario
may hold: any other key, like any op key but ``kind`` and ``arg``, is
refused (a misspelt ``base_semantics`` would otherwise run over the
declared bases).  ``n``, ``domain``, ``seed`` and the ``limits`` values are
JSON integers (not bools, floats or strings).  For ``regular_bit``,
``raw_register`` and ``multireader`` the size ``n`` counts readers and the
process list is writer first, then readers.  Op kinds: W/R for register
protocols, L/S for the timestamp system.

This module only parses: it checks the JSON's shape and builds the
protocol.  Whether the workload fits the protocol (the process count, each
op kind, that a Write's process is a writer and a Read's a reader, which
kinds take an ``arg`` and that an ``arg`` is an integer in the protocol's
domain) is checked by the engine when a run starts, and so is that each
limit is at least 1; both are reported as an
:class:`~regsim.engine.EngineError`.  Every refusal exits 2 through the CLI.
A safe base register may have any domain: the engine walks its adversary's
values lazily, however many there are.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable, Mapping

from . import constructions, timestamp
from .engine import EngineError, ProtocolSpec
from .history import SemanticsLevel


class ScenarioError(ValueError):
    """The scenario file is malformed or names impossible work."""


_KIND_ALIASES = {
    "W": "Write", "Write": "Write",
    "R": "Read", "Read": "Read",
    "L": timestamp.LABELING, timestamp.LABELING: timestamp.LABELING,
    "S": timestamp.SCAN, timestamp.SCAN: timestamp.SCAN,
}

_BUILDERS: dict[str, Callable[[Scenario], ProtocolSpec]] = {
    "regular_bit": lambda sc: constructions.build_regular_bit(sc.n),
    "raw_register": lambda sc: constructions.build_raw_register(sc.n, domain=sc.domain),
    "multireader": lambda sc: constructions.build_multireader(sc.n, domain=sc.domain),
    "multireader_nowriteback": lambda sc: constructions.build_multireader(
        sc.n, domain=sc.domain, writeback=False),
    "multiwriter": lambda sc: constructions.build_multiwriter(sc.n, domain=sc.domain),
    "cts": lambda sc: timestamp.build_cts(sc.n, domain=sc.domain),
}

CONSTRUCTIONS = tuple(_BUILDERS)


@dataclass(frozen=True)
class Scenario:
    construction: str
    n: int
    # Per process, (kind, arg) pairs; an arg is the JSON value as read
    # (None when absent), unchecked until the engine sees it.
    workload: tuple[tuple[tuple[str, object], ...], ...]
    domain: int
    base_semantics: SemanticsLevel | None
    mode: str
    seed: int
    limits: Mapping[str, int]

    def echo(self) -> dict:
        """JSON-serializable copy of the scenario for reports."""
        echo = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        echo["base_semantics"] = self.base_semantics and self.base_semantics.name.lower()
        echo["workload"] = [[{"kind": k, **({"arg": a} if a is not None else {})} for k, a in ops]
                            for ops in self.workload]
        echo["limits"] = dict(self.limits)
        return echo


_KEYS = tuple(f.name for f in dataclasses.fields(Scenario))


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from None
    # ValueError: not UTF-8, not JSON, or an integer too long to convert
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from None
    return scenario_from_dict(raw)


def _refuse_unknown_keys(raw: dict, keys: tuple[str, ...], what: str) -> None:
    """Refuse the first key of ``raw``, in file order, not among ``keys``."""
    for key in raw:
        if key not in keys:
            raise ScenarioError(f"{what} {key!r}; expected one of {', '.join(keys)}")


def _json_int(value: object, name: str) -> int:
    """``value`` if it is a JSON integer (not a bool, float or string)."""
    if type(value) is not int:
        raise ScenarioError(f"{name} {value!r} is not an integer")
    return value


def scenario_from_dict(raw: object) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    _refuse_unknown_keys(raw, _KEYS, "unknown scenario key")
    construction = raw.get("construction")
    if construction not in CONSTRUCTIONS:
        raise ScenarioError(
            f"unknown construction {construction!r}; expected one of {', '.join(CONSTRUCTIONS)}"
        )
    if "n" not in raw:
        raise ScenarioError("scenario needs an integer 'n'")
    n = _json_int(raw["n"], "n")
    domain = _json_int(raw.get("domain", 8), "domain")
    base_semantics = None
    if raw.get("base_semantics") is not None:
        base_semantics = SemanticsLevel.parse(str(raw["base_semantics"]))
    mode = raw.get("mode", "enumerate")
    if mode not in ("enumerate", "random"):
        raise ScenarioError(f"unknown mode {mode!r}")
    workload_raw = raw.get("workload")
    if not isinstance(workload_raw, list) or not all(isinstance(x, list) for x in workload_raw):
        raise ScenarioError("workload must be a list of per-process op lists")
    workload = []
    for proc, ops in enumerate(workload_raw):
        parsed = []
        for op in ops:
            if not isinstance(op, dict) or "kind" not in op:
                raise ScenarioError(f"proc {proc}: each op needs a 'kind'")
            _refuse_unknown_keys(op, ("kind", "arg"), f"proc {proc}: unknown op key")
            kind = _KIND_ALIASES.get(op["kind"]) if isinstance(op["kind"], str) else None
            if kind is None:
                raise ScenarioError(f"proc {proc}: unknown op kind {op['kind']!r}")
            parsed.append((kind, op.get("arg")))
        workload.append(tuple(parsed))
    limits = raw.get("limits", {})
    if not isinstance(limits, dict):
        raise ScenarioError("limits must be an object")
    return Scenario(
        construction=construction,
        n=n,
        workload=tuple(workload),
        domain=domain,
        base_semantics=base_semantics,
        mode=mode,
        seed=_json_int(raw.get("seed", 0), "seed"),
        limits={k: _json_int(v, f"limit {k}") for k, v in limits.items()},
    )


def build_protocol(sc: Scenario) -> ProtocolSpec:
    """Instantiate the scenario's construction, applying any base-register
    semantics override (an experimentation knob: it weakens or strengthens
    every base register of the protocol uniformly).  The workload is not
    checked here; the engine checks it against the protocol.  A size the
    builder refuses raises :class:`~regsim.engine.EngineError`, reported as
    a :class:`ScenarioError`; any other exception from a builder is a bug
    and propagates."""
    try:
        spec = _BUILDERS[sc.construction](sc)
    except EngineError as exc:
        raise ScenarioError(f"cannot build {sc.construction}: {exc}") from None
    if sc.base_semantics is not None:
        regs = tuple(dataclasses.replace(r, semantics=sc.base_semantics) for r in spec.registers)
        spec = dataclasses.replace(spec, registers=regs)
    return spec
