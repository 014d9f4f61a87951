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

``n``, ``domain``, ``seed``, the ``limits`` values and each ``arg`` are JSON
integers (not bools, floats or strings).  For ``regular_bit``,
``raw_register`` and ``multireader`` the size ``n`` counts readers and the
process list is writer first, then readers.  Op kinds: W/R for register
protocols, L/S for the timestamp system.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Mapping

from . import constructions, timestamp
from .engine import ProtocolSpec
from .history import SemanticsLevel


class ScenarioError(ValueError):
    """The scenario file is malformed or names impossible work."""


_KIND_ALIASES = {
    "W": "Write", "Write": "Write",
    "R": "Read", "Read": "Read",
    "L": timestamp.LABELING, timestamp.LABELING: timestamp.LABELING,
    "S": timestamp.SCAN, timestamp.SCAN: timestamp.SCAN,
}

CONSTRUCTIONS = (
    "regular_bit",
    "raw_register",
    "multireader",
    "multireader_nowriteback",
    "multiwriter",
    "cts",
)


@dataclass(frozen=True)
class Scenario:
    construction: str
    n: int
    workload: tuple[tuple[tuple[str, int | None], ...], ...]
    domain: int = 8
    base_semantics: SemanticsLevel | None = None
    mode: str = "enumerate"
    seed: int = 0
    limits: Mapping[str, int] = field(default_factory=dict)

    def echo(self) -> dict:
        """JSON-serializable copy of the scenario for reports."""
        return {
            "construction": self.construction,
            "n": self.n,
            "domain": self.domain,
            "base_semantics": self.base_semantics.name.lower() if self.base_semantics else None,
            "workload": [
                [{"kind": k, **({"arg": a} if a is not None else {})} for k, a in ops]
                for ops in self.workload
            ],
            "mode": self.mode,
            "seed": self.seed,
            "limits": dict(self.limits),
        }


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from None
    return scenario_from_dict(raw)


def _json_int(value: object, name: str) -> int:
    """``value`` if it is a JSON integer (not a bool, float or string)."""
    if type(value) is not int:
        raise ScenarioError(f"{name} {value!r} is not an integer")
    return value


def scenario_from_dict(raw: object) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
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
            kind = _KIND_ALIASES.get(op["kind"]) if isinstance(op["kind"], str) else None
            if kind is None:
                raise ScenarioError(f"proc {proc}: unknown op kind {op['kind']!r}")
            arg = op.get("arg")
            if kind in ("Write", timestamp.LABELING):
                if arg is None:
                    raise ScenarioError(f"proc {proc}: {kind} needs an 'arg'")
                if type(arg) is not int:
                    raise ScenarioError(f"proc {proc}: arg {arg!r} is not an integer")
            elif arg is not None:
                raise ScenarioError(f"proc {proc}: {kind} takes no 'arg'")
            parsed.append((kind, arg))
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
    every base register of the protocol uniformly)."""
    try:
        if sc.construction == "regular_bit":
            spec = constructions.build_regular_bit(sc.n)
        elif sc.construction == "raw_register":
            spec = constructions.build_raw_register(
                sc.n, domain=sc.domain,
                semantics=sc.base_semantics or SemanticsLevel.SAFE,
            )
        elif sc.construction == "multireader":
            spec = constructions.build_multireader(sc.n, domain=sc.domain)
        elif sc.construction == "multireader_nowriteback":
            spec = constructions.build_multireader(sc.n, domain=sc.domain, writeback=False)
        elif sc.construction == "multiwriter":
            spec = constructions.build_multiwriter(sc.n, domain=sc.domain)
        else:
            spec = timestamp.build_cts(sc.n, domain=sc.domain)
    except Exception as exc:
        raise ScenarioError(f"cannot build {sc.construction}: {exc}") from None
    if sc.base_semantics is not None and sc.construction != "raw_register":
        regs = tuple(
            dataclasses.replace(r, semantics=sc.base_semantics) for r in spec.registers
        )
        spec = dataclasses.replace(spec, registers=regs)
    if len(sc.workload) != spec.n_processes:
        raise ScenarioError(
            f"workload lists {len(sc.workload)} processes, "
            f"{sc.construction} with n={sc.n} has {spec.n_processes}"
        )
    for proc, ops in enumerate(sc.workload):
        for kind, arg in ops:
            if kind not in spec.budgets:
                raise ScenarioError(f"proc {proc}: {sc.construction} has no {kind} operation")
            if arg is not None and not 0 <= arg < spec.domain:
                raise ScenarioError(f"proc {proc}: arg {arg} outside domain {spec.domain}")
    return spec
