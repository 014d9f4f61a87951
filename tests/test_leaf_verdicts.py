"""``regsim enumerate`` judges each distinct leaf once, and a safe or regular
leaf from its own records, and reports exactly what judging every leaf in
full reported.

Each run here goes once through ``tests/enumerate_loop.py``, the command as
it was when it extracted and checked every leaf, and once through
``regsim.cli``, into the same ``--out``: the exit code, the summary line,
``report.json`` and ``counterexample.jsonl`` (or its absence) must agree
byte for byte.
"""

import json
import shutil
from pathlib import Path

import pytest

from regsim import cli
from regsim.engine import (
    BaseRegisterSpec,
    ProtocolSpec,
    ReadAction,
    ReturnAction,
    StepProgram,
    WriteAction,
)
from regsim.history import SemanticsLevel
from regsim.scenario import build_protocol, load_scenario

import enumerate_loop
from enumerate_loop import cmd_enumerate as cmd_enumerate_every_leaf
from test_fast_paths import TREES

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def enumerate_both_ways(out: Path, capsys, *argv: str) -> dict:
    """Runs ``regsim enumerate argv`` through the reference and through the
    CLI into ``out``, requires the same outcome from both, and returns the
    report."""
    outcomes = []
    for cmd in (cmd_enumerate_every_leaf, cli.cmd_enumerate):
        shutil.rmtree(out, ignore_errors=True)
        args = cli._build_parser().parse_args(["enumerate", *argv, "--out", str(out)])
        code = cmd(args)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outcomes.append((code, capsys.readouterr().out, files))
    assert outcomes[1] == outcomes[0]
    return json.loads(outcomes[1][2]["report.json"])


def shipped_levels():
    """Every shipped scenario at every level the CLI accepts for it: each
    level of its history kind, but atomic alone on a multi-writer one."""
    for path in sorted(SCENARIOS.glob("*.json")):
        spec = build_protocol(load_scenario(path))
        for level, sem in spec.history.levels.items():
            if len(spec.writers) == 1 or sem not in (SemanticsLevel.SAFE, SemanticsLevel.REGULAR):
                yield pytest.param(path.name, level, id=f"{path.stem}-{level}")


@pytest.mark.parametrize("name, level", shipped_levels())
def test_shipped_scenario_reports_as_every_leaf(tmp_path, capsys, name, level):
    enumerate_both_ways(tmp_path / "out", capsys,
                        "--config", str(SCENARIOS / name), "--check", level)


#: The benchmark's trees (test_fast_paths.TREES) as scenarios: construction,
#: n, domain, base semantics, and the level the benchmark checks.
BENCH_TREES = {
    "multiwriter": ("multiwriter", 2, 8, None, "atomic"),
    "multireader_nowriteback": ("multireader_nowriteback", 2, 8, None, "atomic"),
    "cts": ("cts", 2, 8, None, "cts"),
    "regular_bit": ("regular_bit", 2, 8, None, "regular"),
    "raw_safe": ("raw_register", 1, 8, "safe", "safe"),
}


@pytest.mark.parametrize("name", TREES)
def test_bench_tree_reports_as_every_leaf(tmp_path, capsys, name):
    _, workload, count, _ = TREES[name]
    construction, n, domain, base, level = BENCH_TREES[name]
    raw = {"construction": construction, "n": n, "domain": domain,
           "workload": [[{"kind": k, **({} if a is None else {"arg": a})} for k, a in ops]
                        for ops in workload]}
    if base is not None:
        raw["base_semantics"] = base
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert load_scenario(config).workload == tuple(map(tuple, workload))
    report = enumerate_both_ways(tmp_path / "out", capsys, "--config", str(config),
                                 "--check", level)
    assert (report["executions"], report["truncated"]) == (count, False)


@pytest.mark.parametrize("batch", [1, 7, cli._BATCH])
def test_cut_mid_tree_reports_as_every_leaf(tmp_path, capsys, monkeypatch, batch):
    # the cut falls among leaves the table has already judged, and among
    # leaves still waiting to be judged, whatever the batch
    monkeypatch.setattr(cli, "_BATCH", batch)
    report = enumerate_both_ways(tmp_path / "out", capsys, "--config",
                                 str(SCENARIOS / "multireader_inversion.json"),
                                 "--max-executions", "1000")
    assert report["executions"] == 1000 and report["truncated_by"] == ["max_executions"]
    assert report["verdicts"] == {"atomic": {"pass": 991, "fail": 9}}
    assert report["first_failure"]["op"] == 3


def test_max_steps_cut_reports_as_every_leaf(tmp_path, capsys):
    # every leaf of the tree takes 16 steps, so a cut at 15 leaves none
    report = enumerate_both_ways(tmp_path / "out", capsys, "--config",
                                 str(SCENARIOS / "multiwriter_atomic.json"),
                                 "--max-steps", "15")
    assert (report["executions"], report["truncated_by"]) == (0, ["max_steps"])


def write_scenario(path: Path, construction: str, n: int, workload, **extra) -> str:
    """A scenario file over ``workload``, lists of (kind, arg) per process."""
    raw = {"construction": construction, "n": n, **extra,
           "workload": [[{"kind": k, **({} if a is None else {"arg": a})} for k, a in ops]
                        for ops in workload]}
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("level", ["safe", "regular"])
def test_failing_multireader_over_safe_reports_as_every_leaf(tmp_path, capsys, level):
    # most leaves fail, and the first failure is judged in full: its op,
    # reason and counterexample are those of checking every leaf
    config = write_scenario(tmp_path / "mr.json", "multireader", 2,
                            [[("W", 5)], [("R", None)], [("R", None)]], base_semantics="safe")
    report = enumerate_both_ways(tmp_path / "out", capsys, "--config", config,
                                 "--check", level, "--max-executions", "20000")
    assert (report["executions"], report["truncated_by"]) == (20000, ["max_executions"])
    assert report["verdicts"] == {level: {"pass": 2530, "fail": 17470}}
    assert report["first_failure"]["op"] == 2


def test_failing_raw_register_reports_as_every_leaf(tmp_path, capsys):
    config = write_scenario(tmp_path / "raw.json", "raw_register", 1,
                            [[("W", 1), ("W", 2), ("W", 3)], [("R", None), ("R", None)]],
                            domain=4, base_semantics="safe")
    report = enumerate_both_ways(tmp_path / "out", capsys, "--config", config,
                                 "--check", "regular")
    assert (report["executions"], report["truncated"]) == (2250, False)
    assert report["verdicts"] == {"regular": {"pass": 838, "fail": 1412}}
    assert report["first_failure"]["op"] == 3


class _RereadProgram(StepProgram):
    """A register over one base register whose Read reads it again, and
    returns the second value, when the first is ``again``: its Reads take
    one or two base accesses, so its leaves differ in length."""

    def __init__(self, again: int):
        self.again = again

    def begin(self, proc, mem, kind, arg):
        if kind == "Write":
            return WriteAction(0, arg), None
        return ReadAction(0), "first"

    def resume(self, proc, mem, state, result):
        if state == "first" and result == self.again:
            return ReadAction(0), "again"
        return ReturnAction(result, mem), None


def reread_protocol(sc) -> ProtocolSpec:
    """The scenario's one-reader register as a :class:`_RereadProgram` over
    its base semantics that re-reads 1 (budgets: Write 1, Read 2)."""
    reg = BaseRegisterSpec("r0", 0, frozenset({1}), sc.domain, 0, sc.base_semantics)
    return ProtocolSpec("reread", 2, (reg,), _RereadProgram(again=1), {"Write": 1, "Read": 2},
                        "X", sc.domain, 0, frozenset({0}), frozenset({1}))


@pytest.mark.parametrize("level, verdicts", [("atomic", {"pass": 667, "fail": 636}),
                                             ("regular", {"pass": 683, "fail": 620})])
def test_partial_max_steps_cut_reports_as_every_leaf(tmp_path, capsys, monkeypatch,
                                                     level, verdicts):
    # the walk's leaves take 8, 10 or 12 steps (179, 1,124 and 1,182 of
    # them): a cut at 10 keeps the first two kinds and cuts the third
    monkeypatch.setattr(cli, "build_protocol", reread_protocol)
    monkeypatch.setattr(enumerate_loop, "build_protocol", reread_protocol)
    config = write_scenario(tmp_path / "reread.json", "raw_register", 1,
                            [[("W", 1), ("W", 2)], [("R", None), ("R", None)]],
                            domain=3, base_semantics="safe")
    report = enumerate_both_ways(tmp_path / "out", capsys, "--config", config,
                                 "--check", level, "--max-steps", "10")
    assert (report["executions"], report["truncated_by"]) == (1303, ["max_steps"])
    assert report["verdicts"] == {level: verdicts}
    assert report["max_accesses"] == {"Read": 2, "Write": 1}
