import dataclasses
import json
import time
import tracemalloc

import pytest

from regsim import cli
from regsim.cli import main


def write_config(tmp_path, name="scenario.json", **overrides):
    cfg = {
        "construction": "multiwriter",
        "n": 2,
        "workload": [[{"kind": "W", "arg": 1}], [{"kind": "W", "arg": 2}, {"kind": "R"}]],
        "mode": "enumerate",
        "seed": 7,
        "limits": {"max_executions": 1000000},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


# -- simulate -----------------------------------------------------------------


def test_simulate_writes_trace_exit_zero(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    trace = tmp_path / "o" / "trace.jsonl"
    assert trace.exists()
    out = capsys.readouterr().out
    assert "multiwriter" in out and str(trace) in out


def test_simulate_same_seed_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "trace.jsonl").read_bytes()
    b = (tmp_path / "b" / "trace.jsonl").read_bytes()
    assert a == b
    main(["simulate", "--config", cfg, "--seed", "8", "--out", str(tmp_path / "c")])
    assert (tmp_path / "c" / "trace.jsonl").read_bytes() != a


def test_simulate_unknown_construction_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, construction="hyperwriter")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown construction" in capsys.readouterr().err


def test_simulate_bad_workload_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, workload=[[{"kind": "W", "arg": 1}]])
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_simulate_engine_error_exit_two(tmp_path, monkeypatch, capsys):
    # A protocol that overruns its declared budget raises EngineError in
    # the engine; that is bad input, not a semantic failure.
    build = cli.build_protocol
    monkeypatch.setattr(
        cli, "build_protocol",
        lambda sc: dataclasses.replace(build(sc), budgets={"Write": 1, "Read": 1}),
    )
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeded declared budget" in err
    assert main(["enumerate", "--config", cfg, "--out", str(tmp_path / "e")]) == 2


def test_out_of_memory_exit_three(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "random_execution", exhausted)
    monkeypatch.setattr(cli, "enumerate_executions", exhausted)
    cfg = write_config(tmp_path)
    for argv in (["simulate", "--config", cfg, "--out", str(tmp_path / "o")],
                 ["enumerate", "--config", cfg, "--out", str(tmp_path / "e")]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "error: out of memory\n"


# -- enumerate ----------------------------------------------------------------


def test_enumerate_multiwriter_atomic_exit_zero(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "enum"
    assert main(["enumerate", "--config", cfg, "--check", "atomic", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["executions"] == 8008
    assert not report["truncated"] and report["truncated_by"] == []
    v = report["verdicts"]["atomic"]
    assert v["pass"] + v["fail"] == report["executions"] and v["fail"] == 0
    assert report["counterexample"] is None
    assert report["max_accesses"] == {"Write": 3, "Read": 2}


def test_enumerate_nowriteback_counterexample_refails_under_check(tmp_path):
    cfg = write_config(
        tmp_path,
        construction="multireader_nowriteback",
        n=2,
        workload=[
            [{"kind": "W", "arg": 1}, {"kind": "W", "arg": 2}],
            [{"kind": "R"}], [{"kind": "R"}],
        ],
        # The first inversion sits early in depth-first order; a failure
        # outranks truncation in the exit-code contract.
        limits={"max_executions": 20000},
    )
    out = tmp_path / "enum"
    assert main(["enumerate", "--config", cfg, "--check", "atomic", "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"]["atomic"]["fail"] >= 1
    assert report["first_failure"]["reason"]
    cx = report["counterexample"]
    assert cx and (tmp_path / "enum" / "counterexample.jsonl").exists()
    # Self-consistency: the embedded counterexample re-fails at the same
    # level and still passes the weaker one.
    assert main(["check", cx, "--level", "atomic"]) == 1
    assert main(["check", cx, "--level", "regular"]) == 0


def test_enumerate_limit_truncation_exit_three(tmp_path):
    cfg = write_config(tmp_path, limits={"max_executions": 1})
    out = tmp_path / "enum"
    assert main(["enumerate", "--config", cfg, "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["truncated"] and report["executions"] == 1
    assert report["truncated_by"] == ["max_executions"]


def test_enumerate_max_steps_truncation_names_the_limit(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "enum"
    assert main(["enumerate", "--config", cfg, "--max-steps", "3", "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["truncated"] and report["truncated_by"] == ["max_steps"]
    assert report["executions"] == 0
    assert "(truncated by max_steps)" in capsys.readouterr().out


def test_enumerate_unknown_limit_key_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, limits={"max_execution": 5})
    assert main(["enumerate", "--config", cfg, "--out", str(tmp_path / "enum")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "max_execution" in err
    assert len(err.strip().splitlines()) == 1


def test_enumerate_deep_workload_truncates_exit_three(tmp_path):
    # 200 Writes make branches of about 1,200 events, deeper than Python's
    # default recursion limit.
    cfg = write_config(
        tmp_path,
        workload=[[{"kind": "W", "arg": 1 + i % 7} for i in range(100)] for _ in range(2)],
        limits={"max_executions": 1},
    )
    out = tmp_path / "enum"
    assert main(["enumerate", "--config", cfg, "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["truncated"] and report["executions"] == 1
    assert report["verdicts"]["atomic"] == {"pass": 1, "fail": 0}


def test_enumerate_cli_limit_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "enum"
    code = main(["enumerate", "--config", cfg, "--max-executions", "5", "--out", str(out)])
    assert code == 3
    assert json.loads((out / "report.json").read_text())["executions"] == 5


def test_enumerate_base_semantics_override_exposes_weakness(tmp_path):
    # The same construction that passes over its declared atomic bases
    # fails once the scenario weakens them to regular.
    cfg = write_config(
        tmp_path,
        construction="multiwriter",
        n=3,
        base_semantics="regular",
        workload=[[{"kind": "W", "arg": 1}], [], [{"kind": "R"}, {"kind": "R"}]],
        limits={"max_executions": 5000},
    )
    out = tmp_path / "enum"
    assert main(["enumerate", "--config", cfg, "--check", "atomic", "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"]["atomic"]["fail"] >= 1
    assert main(["check", report["counterexample"], "--level", "atomic"]) == 1


def test_enumerate_safe_tag_encoded_bases_truncates_lazily(tmp_path):
    # A safe base Read overlapping a Write may return any of the 16,777,216
    # encoded values of multiwriter n=2; that branch must not be listed.
    cfg = write_config(tmp_path, base_semantics="safe")
    out = tmp_path / "enum"
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code = main(["enumerate", "--config", cfg, "--max-executions", "5", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and time.perf_counter() - t0 < 10
    assert peak < 8 * 2**20
    report = json.loads((out / "report.json").read_text())
    assert report["truncated_by"] == ["max_executions"] and report["executions"] == 5


def test_enumerate_cts_scenario(tmp_path):
    cfg = write_config(
        tmp_path,
        construction="cts",
        workload=[[{"kind": "L", "arg": 1}], [{"kind": "L", "arg": 2}, {"kind": "S"}]],
    )
    out = tmp_path / "enum"
    assert main(["enumerate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checked_level"] == "cts"
    assert report["verdicts"]["cts"]["fail"] == 0


def test_enumerate_level_mismatch_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["enumerate", "--config", cfg, "--check", "cts", "--out", str(tmp_path)]) == 2
    cts_cfg = write_config(
        tmp_path, name="cts.json", construction="cts",
        workload=[[{"kind": "L", "arg": 1}], [{"kind": "S"}]],
    )
    assert main(["enumerate", "--config", cts_cfg, "--check", "atomic",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("base_semantics", ["atomic", "regular"])
@pytest.mark.parametrize("level", ["safe", "regular"])
def test_enumerate_multiwriter_below_atomic_exit_two(tmp_path, capsys, base_semantics, level):
    # Safe and regular are defined for one writer only: refused before the
    # walk, with one error line and no report.
    cfg = write_config(tmp_path, base_semantics=base_semantics)
    out = tmp_path / "enum"
    assert main(["enumerate", "--config", cfg, "--check", level, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {level} classification is undefined on the multi-writer multiwriter "
        "construction; use --check atomic\n")
    assert not out.exists()


def test_enumerate_requires_enumerate_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, mode="random")
    assert main(["enumerate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "mode 'enumerate'" in capsys.readouterr().err


# Each of these once ended in a traceback (exit 1) or ran as a truncated
# number: n=2.5 as n=2, an arg of 1.9 as 1.
BAD_SCENARIOS = [
    pytest.param({"domain": "x"}, id="domain-string"),
    pytest.param({"domain": None}, id="domain-null"),
    pytest.param({"seed": "x"}, id="seed-string"),
    pytest.param({"seed": float("inf")}, id="seed-infinity"),
    pytest.param({"limits": {"max_steps": "x"}}, id="limit-string"),
    pytest.param({"workload": [[{"kind": "W", "arg": "x"}], [{"kind": "R"}]]}, id="arg-string"),
    pytest.param({"workload": [[{"kind": ["W"], "arg": 1}], [{"kind": "R"}]]}, id="kind-a-list"),
    pytest.param({"n": 2.5}, id="n-float"),
    pytest.param({"n": True}, id="n-bool"),
    pytest.param({"workload": [[{"kind": "W", "arg": 1.9}], [{"kind": "R"}]]}, id="arg-float"),
    pytest.param("[" * 100_000, id="nested-too-deep"),
]


@pytest.mark.parametrize("bad", BAD_SCENARIOS)
@pytest.mark.parametrize("command", ["simulate", "enumerate"])
def test_malformed_scenario_exit_two(tmp_path, capsys, command, bad):
    if isinstance(bad, str):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(bad, encoding="utf-8")
    else:
        cfg = write_config(tmp_path, **bad)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_parser_is_built_once_and_keeps_no_options(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    assert "seed=5" in capsys.readouterr().out
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert "seed=7" in capsys.readouterr().out  # the scenario's
    assert main(["enumerate", "--config", cfg, "--max-executions", "3", "--out", str(out)]) == 3
    assert main(["enumerate", "--config", cfg, "--out", str(out)]) == 0
    assert not json.loads((out / "report.json").read_text())["truncated"]
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--seed", "5"])  # no --config
    assert exc.value.code == 2
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert "seed=7" in capsys.readouterr().out


# -- check --------------------------------------------------------------------


def sequential_trace(tmp_path):
    text = (
        '{"version":1,"vars":{"x":{"domain":4,"init":0,"writers":[0],"readers":[1]}}}\n'
        '{"step":0,"op":0,"proc":0,"var":"x","act":"invoke","kind":"W","arg":3}\n'
        '{"step":1,"op":0,"proc":0,"var":"x","act":"respond","kind":"W"}\n'
        '{"step":2,"op":1,"proc":1,"var":"x","act":"invoke","kind":"R"}\n'
        '{"step":3,"op":1,"proc":1,"var":"x","act":"respond","kind":"R","ret":3}\n'
    )
    path = tmp_path / "seq.jsonl"
    path.write_text(text, encoding="utf-8")
    return str(path)


def inversion_trace(tmp_path):
    text = (
        '{"version":1,"vars":{"x":{"domain":4,"init":0,"writers":[0],"readers":[1,2]}}}\n'
        '{"step":0,"op":0,"proc":0,"var":"x","act":"invoke","kind":"W","arg":1}\n'
        '{"step":1,"op":1,"proc":1,"var":"x","act":"invoke","kind":"R"}\n'
        '{"step":2,"op":1,"proc":1,"var":"x","act":"respond","kind":"R","ret":1}\n'
        '{"step":3,"op":2,"proc":2,"var":"x","act":"invoke","kind":"R"}\n'
        '{"step":4,"op":2,"proc":2,"var":"x","act":"respond","kind":"R","ret":0}\n'
        '{"step":5,"op":0,"proc":0,"var":"x","act":"respond","kind":"W"}\n'
    )
    path = tmp_path / "inv.jsonl"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_check_sequential_trace_atomic_pass(tmp_path, capsys):
    assert main(["check", sequential_trace(tmp_path), "--level", "atomic"]) == 0
    assert "pass" in capsys.readouterr().out


def test_check_inversion_trace_levels(tmp_path, capsys):
    trace = inversion_trace(tmp_path)
    assert main(["check", trace, "--level", "atomic"]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert main(["check", trace, "--level", "regular"]) == 0


def test_check_classify_prints_highest_level(tmp_path, capsys):
    assert main(["check", inversion_trace(tmp_path), "--level", "classify"]) == 0
    assert capsys.readouterr().out.strip() == "regular"


def test_check_corrupt_trace_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"version":1,"vars":{}}\nnot json at all\n', encoding="utf-8")
    assert main(["check", str(path), "--level", "atomic"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_missing_file_exit_two(tmp_path):
    assert main(["check", str(tmp_path / "nope.jsonl"), "--level", "safe"]) == 2


CTS_HEADER = '{"cts":{"n":1},"version":1}'
CTS_LABELING = ('{"act":"invoke","arg":5,"kind":"L","op":0,"proc":0,"step":0}\n'
                '{"act":"respond","kind":"L","op":0,"proc":0,"ret":[1,0],"step":1}\n')
CTS_SCAN = ('{"act":"invoke","kind":"S","op":1,"proc":0,"step":2}\n'
            '{"act":"respond","kind":"S","op":1,"proc":0,"ret":[[0,1,0,5]],"step":3}\n')
REG_HEADER = '{"version":1,"vars":{"X":{"domain":4,"init":0,"writers":[0],"readers":[1]}}}'
REG_WRITE = ('{"step":0,"op":0,"proc":0,"var":"X","act":"invoke","kind":"W","arg":3}\n'
             '{"step":1,"op":0,"proc":0,"var":"X","act":"respond","kind":"W"}\n')
REG_READ = ('{"step":2,"op":1,"proc":1,"var":"X","act":"invoke","kind":"R"}\n'
            '{"step":3,"op":1,"proc":1,"var":"X","act":"respond","kind":"R","ret":3}\n')


#: (level, trace text) pairs that `regsim check` must refuse with exit 2.
MALFORMED_TRACES = [
    pytest.param("cts", CTS_HEADER + "\n" + CTS_LABELING.replace("[1,0]", "[1]"),
                 id="cts-labeling-ret-one-element"),
    pytest.param("cts", CTS_HEADER + "\n" + CTS_LABELING.replace('"arg":5,', ""),
                 id="cts-labeling-invoke-without-arg"),
    pytest.param("cts", '{"cts":{"n":"x"},"version":1}\n' + CTS_LABELING,
                 id="cts-header-n-not-a-number"),
    pytest.param("cts", '{"cts":5,"version":1}\n' + CTS_LABELING, id="cts-header-not-an-object"),
    pytest.param("cts", CTS_HEADER + "\n" + CTS_LABELING + CTS_SCAN.replace("[[0,1,0,5]]", "[[0,1]]"),
                 id="cts-scan-ret-short-entry"),
    pytest.param("atomic", REG_HEADER + "\n" + REG_WRITE.replace('"step":1', '"step":"x"'),
                 id="register-step-not-a-number"),
    pytest.param("atomic", REG_HEADER + "\n" + REG_WRITE.replace('"var":"X"', '"var":["X"]'),
                 id="register-var-a-list"),
    pytest.param("atomic", REG_HEADER + "\n" + REG_WRITE.replace('"arg":3', '"arg":null'),
                 id="register-write-arg-null"),
    pytest.param("atomic", REG_HEADER + "\n" + REG_WRITE.replace('"step":1', '"step":1e400'),
                 id="register-step-infinite"),
    pytest.param("atomic", REG_HEADER + "\n" + "[" * 100_000 + "]" * 100_000 + "\n",
                 id="register-event-nested-too-deep"),
    # Only JSON integers are integers: each of these once parsed as one.
    pytest.param("atomic", REG_HEADER + "\n" + REG_WRITE.replace('"step":1', '"step":1.0'),
                 id="register-step-float"),
    pytest.param("atomic", REG_HEADER + "\n" + REG_WRITE.replace('"op":0', '"op":"0"'),
                 id="register-op-string"),
    pytest.param("atomic", REG_HEADER + "\n" + REG_WRITE.replace('"proc":0', '"proc":false'),
                 id="register-proc-bool"),
    pytest.param("atomic", REG_HEADER + "\n" + REG_WRITE.replace('"arg":3', '"arg":"3"'),
                 id="register-arg-string"),
    pytest.param("atomic", REG_HEADER + "\n" + REG_WRITE + REG_READ.replace('"ret":3', '"ret":3.0'),
                 id="register-ret-float"),
    pytest.param("atomic", REG_HEADER.replace('"domain":4', '"domain":"4"') + "\n" + REG_WRITE,
                 id="register-header-domain-string"),
    pytest.param("cts", CTS_HEADER.replace('"n":1', '"n":1.0') + "\n" + CTS_LABELING,
                 id="cts-header-n-float"),
    pytest.param("cts", CTS_HEADER + "\n" + CTS_LABELING.replace('"arg":5', '"arg":"5"'),
                 id="cts-labeling-arg-string"),
    pytest.param("cts", CTS_HEADER + "\n" + CTS_LABELING.replace("[1,0]", "[1.0,0]"),
                 id="cts-labeling-seq-float"),
    pytest.param("cts", CTS_HEADER + "\n" + CTS_LABELING.replace("[1,0]", "[1,false]"),
                 id="cts-labeling-pid-bool"),
    pytest.param("cts", CTS_HEADER + "\n" + CTS_LABELING + CTS_SCAN.replace("[[0,1,0,5]]", '[["0",1,0,5]]'),
                 id="cts-scan-owner-string"),
    pytest.param("cts", CTS_HEADER + "\n" + CTS_LABELING + CTS_SCAN.replace("[[0,1,0,5]]", "[[0,1,0,true]]"),
                 id="cts-scan-payload-bool"),
]


@pytest.mark.parametrize("level, text", MALFORMED_TRACES)
def test_check_malformed_trace_exit_two(tmp_path, capsys, level, text):
    path = tmp_path / "bad.jsonl"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path), "--level", level]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_check_cts_trace_with_huge_n_fails_quickly(tmp_path, capsys):
    # A Scan cannot cover 10^12 processes; the checker must say so without
    # building a list of every process id.
    path = tmp_path / "big.jsonl"
    path.write_text('{"cts":{"n":1000000000000},"version":1}\n' + CTS_SCAN.replace('"step":2', '"step":0'),
                    encoding="utf-8")
    assert main(["check", str(path), "--level", "cts"]) == 1
    assert "does not cover every process" in capsys.readouterr().out


def test_check_cts_trace(tmp_path):
    cfg = write_config(
        tmp_path, construction="cts",
        workload=[[{"kind": "L", "arg": 1}], [{"kind": "S"}]],
    )
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["check", str(out / "trace.jsonl"), "--level", "cts"]) == 0
    # A register-level check on a cts trace is an input error.
    assert main(["check", str(out / "trace.jsonl"), "--level", "atomic"]) == 2
