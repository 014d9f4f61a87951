import dataclasses
import json

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


# -- enumerate ----------------------------------------------------------------


def test_enumerate_multiwriter_atomic_exit_zero(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "enum"
    assert main(["enumerate", "--config", cfg, "--check", "atomic", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["executions"] == 8008
    assert not report["truncated"]
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


def test_enumerate_requires_enumerate_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, mode="random")
    assert main(["enumerate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "mode 'enumerate'" in capsys.readouterr().err


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
