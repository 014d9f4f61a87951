import dataclasses
import json

import pytest

from regsim import SemanticsLevel, build_raw_register
from regsim.scenario import (
    CONSTRUCTIONS,
    ScenarioError,
    build_protocol,
    load_scenario,
    scenario_from_dict,
)


def base_config(**overrides):
    cfg = {
        "construction": "multiwriter",
        "n": 2,
        "workload": [[{"kind": "W", "arg": 1}], [{"kind": "R"}]],
        "mode": "enumerate",
    }
    cfg.update(overrides)
    return cfg


def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(base_config(seed=3, limits={"max_executions": 10})))
    sc = load_scenario(str(path))
    assert sc.construction == "multiwriter" and sc.seed == 3
    assert sc.limits == {"max_executions": 10}
    assert sc.workload == ((("Write", 1),), (("Read", None),))


def test_load_scenario_missing_file():
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario("/nonexistent/scenario.json")


def test_load_scenario_invalid_json(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("{nope")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(str(path))


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError, match="unknown construction"):
        scenario_from_dict(base_config(construction="fancy"))
    with pytest.raises(ScenarioError, match="integer 'n'"):
        scenario_from_dict({k: v for k, v in base_config().items() if k != "n"})
    with pytest.raises(ScenarioError, match="unknown mode"):
        scenario_from_dict(base_config(mode="fuzz"))
    with pytest.raises(ScenarioError, match="per-process op lists"):
        scenario_from_dict(base_config(workload={"p0": []}))
    with pytest.raises(ScenarioError, match="needs a 'kind'"):
        scenario_from_dict(base_config(workload=[[{"op": "W"}], []]))
    with pytest.raises(ScenarioError, match="unknown op kind"):
        scenario_from_dict(base_config(workload=[[{"kind": "X"}], []]))
    with pytest.raises(ScenarioError, match="expected one of regular_bit, raw_register, "
                                            "multireader, multireader_nowriteback, "
                                            "multiwriter, cts$"):
        scenario_from_dict(base_config(construction=["multiwriter"]))
    # A misspelt key was once dropped: "base_semantic" ran over atomic bases.
    # The first unknown key in file order is named.
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict({"base_semantic": "safe", **base_config(), "limit": {}})
    assert str(exc.value) == (
        "unknown scenario key 'base_semantic'; expected one of construction, n, "
        "workload, domain, base_semantics, mode, seed, limits")
    with pytest.raises(ScenarioError) as exc:
        scenario_from_dict(base_config(workload=[[{"kind": "W", "arg": 1, "value": 2}], []]))
    assert str(exc.value) == "proc 0: unknown op key 'value'; expected one of kind, arg"


def test_kind_aliases_accepted():
    sc = scenario_from_dict(
        base_config(workload=[[{"kind": "Write", "arg": 1}], [{"kind": "Read"}]])
    )
    assert sc.workload == ((("Write", 1),), (("Read", None),))


def test_loader_leaves_the_workload_to_the_engine():
    # Args are kept as read, and a workload that does not fit the protocol
    # builds: the engine checks it when a run starts.
    sc = scenario_from_dict(
        base_config(workload=[[{"kind": "W"}, {"kind": "R", "arg": 1.5}]])
    )
    assert sc.workload == ((("Write", None), ("Read", 1.5)),)
    assert build_protocol(sc).n_processes == 2


def test_every_construction_builds():
    for name in CONSTRUCTIONS:
        spec = build_protocol(scenario_from_dict(base_config(construction=name, workload=[])))
        assert spec.name == name


def test_base_semantics_override_applies_to_all_registers():
    sc = scenario_from_dict(base_config(base_semantics="regular"))
    spec = build_protocol(sc)
    assert all(r.semantics is SemanticsLevel.REGULAR for r in spec.registers)
    # The raw register takes the override the same way, and gets the spec
    # its builder makes at that level; each build makes its own step
    # program, every other field is equal.
    raw = base_config(construction="raw_register", n=2, domain=5, workload=[])
    for level in SemanticsLevel:
        spec = build_protocol(scenario_from_dict({**raw, "base_semantics": level.name.lower()}))
        ref = build_raw_register(2, domain=5, semantics=level)
        assert spec == dataclasses.replace(ref, program=spec.program)
        assert type(spec.program) is type(ref.program)
    # With no override it keeps its safe default.
    spec = build_protocol(scenario_from_dict(raw))
    assert spec == dataclasses.replace(build_raw_register(2, domain=5), program=spec.program)


def test_scenario_echo_is_json_round_trippable():
    sc = scenario_from_dict(base_config(base_semantics="safe", seed=11))
    echo = json.loads(json.dumps(sc.echo()))
    assert echo["construction"] == "multiwriter"
    assert echo["base_semantics"] == "safe"
    assert echo["workload"][0] == [{"kind": "Write", "arg": 1}]
