import collections
import dataclasses
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from regsim import checkers, cli, engine, scenario, timestamp
from regsim.cli import main
from regsim.engine import REGISTER
from regsim.timestamp import CTS

from test_engine import BAD_RETURNS, BadReturnProgram
from test_timestamp import BAD_CTS_RETURNS, with_bad_return

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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
    # check reads a register trace through the REGISTER kind's parse,
    # which calls the engine module's parse_trace
    monkeypatch.setattr(engine, "parse_trace", exhausted)
    cfg = write_config(tmp_path)
    for argv in (["simulate", "--config", cfg, "--out", str(tmp_path / "o")],
                 ["enumerate", "--config", cfg, "--out", str(tmp_path / "e")],
                 ["check", cfg, "--level", "atomic"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == "error: out of memory\n"


@pytest.mark.parametrize("command", ["simulate", "enumerate"])
def test_builder_bug_is_not_an_input_error(tmp_path, monkeypatch, capsys, command):
    # A builder's own fault once printed "cannot build multiwriter: 'bug'"
    # and exited 2; only an EngineError from a builder is an input error.
    def broken(sc):
        raise KeyError("bug")

    monkeypatch.setitem(scenario._BUILDERS, "multiwriter", broken)
    with pytest.raises(KeyError, match="bug"):
        main([command, "--config", write_config(tmp_path), "--out", str(tmp_path / "o")])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["simulate", "enumerate"])
def test_builder_out_of_memory_exit_three(tmp_path, monkeypatch, capsys, command):
    # once "error: cannot build multiwriter: " and exit 2
    def exhausted(sc):
        raise MemoryError

    monkeypatch.setitem(scenario._BUILDERS, "multiwriter", exhausted)
    assert main([command, "--config", write_config(tmp_path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "error: out of memory\n"


#: The reproducing input of the out-of-memory defect, for each construction
#: whose layout grows as n**2: n = 100000.
HUGE_N_WORKLOADS = {
    "multireader": [[{"kind": "W", "arg": 1}]],
    "multiwriter": [[{"kind": "W", "arg": 1}]],
    "cts": [[{"kind": "L", "arg": 1}]],
}


@pytest.mark.parametrize("gigabytes", [0.5, 1, 2, 3])
@pytest.mark.parametrize("construction", HUGE_N_WORKLOADS)
def test_a_size_beyond_the_layout_bound_exit_two_under_any_memory_limit(
        tmp_path, construction, gigabytes):
    # multireader n=100000 once began to lay out 10**10 base registers, and
    # under a memory limit exited 3, or 1 with no error line.  It is refused
    # before anything is allocated, so every limit gives the same one line.
    cfg = write_config(tmp_path, construction=construction, n=100000,
                       workload=HUGE_N_WORKLOADS[construction])
    limit = int(gigabytes * 2**30)
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    run = subprocess.run(
        [sys.executable, "-m", "regsim", "simulate", "--config", cfg, "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)),
    )
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == (f"error: cannot build {construction}: n 100000 needs 10000000000 "
                          "(register, reader) pairs, more than the 65536 a layout may hold\n")


@pytest.mark.parametrize("command", ["simulate", "enumerate"])
def test_unusable_out_exit_two(tmp_path, capsys, command):
    # --out under a file once ended in a NotADirectoryError traceback (exit 1)
    (tmp_path / "file").write_text("", encoding="utf-8")
    out = tmp_path / "file" / "out"
    assert main([command, "--config", write_config(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert len(err.strip().splitlines()) == 1


def test_enumerate_refuses_unusable_out_before_the_walk(tmp_path, monkeypatch, capsys):
    # --out under a file was once created only after the whole walk
    def walk(*args, **kwargs):
        raise AssertionError("the tree was walked before --out was made")

    monkeypatch.setattr(cli, "enumerate_executions", walk)
    (tmp_path / "file").write_text("", encoding="utf-8")
    out = tmp_path / "file" / "x"
    assert main(["enumerate", "--config", write_config(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("case", BAD_RETURNS)
@pytest.mark.parametrize("command", ["simulate", "enumerate"])
def test_bad_read_return_exit_two(tmp_path, monkeypatch, capsys, command, case):
    bad, message = BAD_RETURNS[case]
    build = cli.build_protocol
    monkeypatch.setattr(
        cli, "build_protocol",
        lambda sc: dataclasses.replace(build(sc), program=BadReturnProgram(bad)),
    )
    cfg = write_config(tmp_path, construction="raw_register", n=1, domain=2,
                       workload=[[], [{"kind": "R"}]])
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("case", BAD_CTS_RETURNS)
@pytest.mark.parametrize("command", ["simulate", "enumerate"])
def test_bad_cts_return_exit_two(tmp_path, monkeypatch, capsys, command, case):
    # simulate once wrote a trace that check refused, or ended in a traceback
    kind, bad, message = BAD_CTS_RETURNS[case]
    build = scenario._BUILDERS["cts"]
    monkeypatch.setitem(scenario._BUILDERS, "cts",
                        lambda sc: with_bad_return(build(sc), kind, bad))
    op = {"kind": "L", "arg": 1} if kind == timestamp.LABELING else {"kind": "S"}
    cfg = write_config(tmp_path, construction="cts", n=2, workload=[[op], []])
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


@pytest.mark.parametrize("flags, overrides, refusal", [
    # each once reported 0 executions [TRUNCATED] and exited 3
    (["--max-executions", "0"], {}, "limit max_executions 0"),
    (["--max-executions", "-5"], {}, "limit max_executions -5"),
    (["--max-steps", "-1"], {}, "limit max_steps -1"),
    ([], {"limits": {"max_steps": -1}}, "limit max_steps -1"),
])
def test_enumerate_limit_below_one_exit_two(tmp_path, capsys, flags, overrides, refusal):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "enum"
    assert main(["enumerate", "--config", cfg, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {refusal} is not an integer >= 1\n"
    assert not out.exists()


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


# Safe bases with more values than len() can count (sys.maxsize): each once
# ended in an OverflowError traceback (exit 1).  The multiwriter's encoded
# domain is 2^20 x 2 x 10^13.
HUGE_SAFE_RAW = {"construction": "raw_register", "n": 1, "domain": 10**20,
                 "workload": [[{"kind": "W", "arg": 1}], [{"kind": "R"}]]}
HUGE_SAFE_MULTIWRITER = {"domain": 10**13}


@pytest.mark.parametrize("overrides, code", [
    pytest.param(HUGE_SAFE_RAW, 1, id="raw_register"),  # a safe register is not atomic
    pytest.param(HUGE_SAFE_MULTIWRITER, 3, id="multiwriter"),
])
def test_enumerate_safe_domain_beyond_sys_maxsize(tmp_path, capsys, overrides, code):
    cfg = write_config(tmp_path, base_semantics="safe", **overrides)
    out = tmp_path / "enum"
    assert main(["enumerate", "--config", cfg, "--max-executions", "100",
                 "--out", str(out)]) == code
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text())
    assert report["executions"] == 100 and report["truncated_by"] == ["max_executions"]
    if code == 1:
        assert main(["check", report["counterexample"], "--level", "atomic"]) == 1


@pytest.mark.parametrize("overrides", [
    pytest.param(HUGE_SAFE_RAW, id="raw_register"),
    pytest.param(HUGE_SAFE_MULTIWRITER, id="multiwriter"),
])
def test_simulate_safe_domain_beyond_sys_maxsize(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, base_semantics="safe", **overrides)
    for seed in range(8):
        out = tmp_path / str(seed)
        assert main(["simulate", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
        assert (out / "trace.jsonl").exists()
    assert capsys.readouterr().err == ""


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
    # Every level of each history kind is refused on the other kind's
    # scenario before the walk: one error line and no --out directory.
    for name, kind in (("multiwriter_atomic", CTS), ("cts_labelings_scan", REGISTER)):
        for level in kind.levels:
            out = tmp_path / f"{name}.{level}"
            assert main(["enumerate", "--config", str(SCENARIOS / f"{name}.json"),
                         "--check", level, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and len(err.splitlines()) == 1
            assert not out.exists()
    # With no --check, each kind's default level, its first, is checked.
    assert (next(iter(REGISTER.levels)), next(iter(CTS.levels))) == ("atomic", "cts")
    for name, kind in (("multiwriter_atomic", REGISTER), ("cts_labelings_scan", CTS)):
        out = tmp_path / f"{name}.default"
        assert main(["enumerate", "--config", str(SCENARIOS / f"{name}.json"),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["checked_level"] == next(iter(kind.levels))


def count_checks(monkeypatch) -> collections.Counter:
    """Replace every regsim module's reference to ``check_level`` and to
    ``check_cts`` with a wrapper that counts its calls by level, as the
    benchmark's tracer replaces them: the CLI's checks must reach whatever
    those module attributes hold when it runs."""
    counts = collections.Counter()

    def counting(fn, level_name):
        def wrapper(h, *level):
            counts[level_name(*level)] += 1
            return fn(h, *level)
        return wrapper

    targets = [(checkers.check_level, counting(checkers.check_level, lambda lv: lv.name.lower())),
               (timestamp.check_cts, counting(timestamp.check_cts, lambda: "cts"))]
    for name, mod in list(sys.modules.items()):
        if name == "regsim" or name.startswith("regsim."):
            for attr, val in list(vars(mod).items()):
                for fn, wrapper in targets:
                    if val is fn:
                        monkeypatch.setattr(mod, attr, wrapper)
    return counts


@pytest.mark.parametrize("name, level", [("multiwriter_atomic", "atomic"),
                                         ("cts_labelings_scan", "cts")])
def test_checks_reach_the_patched_checker(tmp_path, monkeypatch, name, level):
    # enumerate judges each distinct leaf once: one check per distinct tuple
    # of op objects in the walk, while the report counts every leaf
    config = str(SCENARIOS / f"{name}.json")
    sc = scenario.load_scenario(config)
    walk = engine.enumerate_executions(scenario.build_protocol(sc), sc.workload)
    distinct = len({tuple(map(id, e.ops)) for e in walk.executions})
    counts = count_checks(monkeypatch)
    assert main(["enumerate", "--config", config, "--out", str(tmp_path / "enum")]) == 0
    assert counts == {level: distinct}
    report = json.loads((tmp_path / "enum" / "report.json").read_text(encoding="utf-8"))
    assert report["verdicts"] == {level: {"pass": 8008, "fail": 0}}
    counts.clear()
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "sim")]) == 0
    assert main(["check", str(tmp_path / "sim" / "trace.jsonl"), "--level", level]) == 0
    assert counts == {level: 1}


@pytest.mark.parametrize("name, code, verdicts, checks, projections", [
    pytest.param("regular_bit_inversion", 0, {"pass": 16258, "fail": 0}, {}, 0,
                 id="regular_bit_inversion"),
    pytest.param("safe_bit_adversary", 1, {"pass": 6, "fail": 4}, {"regular": 1}, 2,
                 id="safe_bit_adversary"),
])
def test_a_passing_leaf_is_not_projected(tmp_path, monkeypatch, name, code, verdicts, checks,
                                         projections):
    # at regular a leaf is judged from its own records: only the first
    # failing leaf is projected and checked in full, and projected once
    # more for its counterexample trace
    counts = count_checks(monkeypatch)
    extract = engine.extract_history
    calls = []
    monkeypatch.setattr(engine, "extract_history",
                        lambda *args: calls.append(1) or extract(*args))
    out = tmp_path / "enum"
    assert main(["enumerate", "--config", str(SCENARIOS / f"{name}.json"), "--check", "regular",
                 "--out", str(out)]) == code
    assert counts == checks
    assert len(calls) == projections
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["verdicts"] == {"regular": verdicts}


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


def test_enumerate_ignores_mode(tmp_path, capsys):
    # "mode" is informational: a "random" scenario enumerates like an
    # "enumerate" one, and the report echoes the key as given.
    reports = []
    for mode in ("random", "enumerate"):
        out = tmp_path / mode
        cfg = write_config(tmp_path, name=f"{mode}.json", mode=mode)
        assert main(["enumerate", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["scenario"].pop("mode") == mode
        reports.append(report)
    assert capsys.readouterr().err == ""
    assert reports[0]["executions"] == 8008 and reports[0] == reports[1]


def test_enumerate_judges_a_wrapped_tag(tmp_path, monkeypatch, capsys):
    # With two sequence numbers, process 0's second Write wraps its tag to
    # (0, 0), below the (1, 0) of its first: a valid scenario whose tag
    # field runs out is a semantic failure (exit 1) with a counterexample
    # that re-fails, not an input error (it once exited 2).
    from regsim import constructions

    monkeypatch.setattr(constructions, "MAX_SEQ", 2)
    cfg = write_config(tmp_path, workload=[[{"kind": "W", "arg": 1}, {"kind": "W", "arg": 2}],
                                           [{"kind": "R"}]])
    out = tmp_path / "enum"
    assert main(["enumerate", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert (report["executions"], report["verdicts"]) == (1820, {"atomic": {"pass": 1813, "fail": 7}})
    assert main(["check", str(out / "counterexample.jsonl"), "--level", "atomic"]) == 1
    assert capsys.readouterr().err == ""


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
    pytest.param('{"n": ' + "1" * 5000 + "}", id="n-too-many-digits"),
    pytest.param({"domain": 1, "workload": [[{"kind": "W", "arg": 0}], [{"kind": "R"}]]},
                 id="domain-one"),
    # workloads that do not fit the construction, refused by the engine
    pytest.param({"workload": [[{"kind": "W"}], [{"kind": "R"}]]}, id="write-without-arg"),
    pytest.param({"workload": [[{"kind": "W", "arg": 1}], [{"kind": "R", "arg": 1}]]},
                 id="read-with-arg"),
    pytest.param({"workload": [[{"kind": "W", "arg": 99}], [{"kind": "R"}]]},
                 id="arg-outside-domain"),
    pytest.param({"workload": [[{"kind": "L", "arg": 1}], [{"kind": "R"}]]},
                 id="labeling-on-multiwriter"),
    pytest.param({"construction": "cts", "workload": [[{"kind": "W", "arg": 1}], [{"kind": "S"}]]},
                 id="write-on-cts"),
    pytest.param({"workload": [[{"kind": "W", "arg": 1}]]}, id="one-process-short"),
    # a Read by the writer once ended in KeyError: 0 in the program
    pytest.param({"construction": "multireader", "workload": [[{"kind": "R"}], [], []]},
                 id="read-by-multireader-writer"),
    pytest.param({"construction": "multireader_nowriteback",
                  "workload": [[{"kind": "R"}], [], []]},
                 id="read-by-nowriteback-writer"),
    # misspelt keys, once dropped without a word: the run passed over
    # atomic bases, or with the default limits
    pytest.param({"base_semantic": "safe"}, id="base-semantics-misspelt"),
    pytest.param({"limit": {"max_executions": 1}}, id="limits-misspelt"),
    pytest.param({"workload": [[{"kind": "W", "arg": 1, "value": 2}], [{"kind": "R"}]]},
                 id="op-key-unknown"),
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


@pytest.mark.parametrize("command", ["simulate", "enumerate"])
def test_workload_fault_reported_by_the_engine(tmp_path, capsys, command):
    cfg = write_config(tmp_path, workload=[[{"kind": "W"}], [{"kind": "R"}]])
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: proc 0: Write needs an arg\n"


def test_input_file_not_utf8_exit_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"construction": "caf\xe9"}')
    for argv in (["simulate", "--config", str(path), "--out", str(tmp_path / "o")],
                 ["enumerate", "--config", str(path), "--out", str(tmp_path / "o")],
                 ["check", str(path), "--level", "atomic"]):
        assert main(argv) == 2
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
