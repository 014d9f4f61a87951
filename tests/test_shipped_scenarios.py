"""The scenario files shipped in scenarios/ run with their documented outcomes."""

import json
from pathlib import Path

from regsim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run(name, *args, tmp_path):
    return main(["enumerate", "--config", str(SCENARIOS / name),
                 "--out", str(tmp_path), *args])


def test_multiwriter_atomic_passes(tmp_path):
    assert run("multiwriter_atomic.json", "--check", "atomic", tmp_path=tmp_path) == 0


def test_multireader_inversion_fails_atomic_passes_regular(tmp_path):
    assert run("multireader_inversion.json", "--check", "atomic", tmp_path=tmp_path) == 1
    cx = tmp_path / "counterexample.jsonl"
    assert main(["check", str(cx), "--level", "regular"]) == 0


def test_safe_bit_adversary_splits_safe_from_regular(tmp_path):
    assert run("safe_bit_adversary.json", "--check", "safe", tmp_path=tmp_path) == 0
    assert run("safe_bit_adversary.json", "--check", "regular", tmp_path=tmp_path) == 1


def test_cts_scenario_passes(tmp_path):
    assert run("cts_labelings_scan.json", "--check", "cts", tmp_path=tmp_path) == 0


def test_regular_bit_inversion_is_regular_not_atomic(tmp_path):
    # One safe bit gives a regular register, whose readers can still see a
    # new-old inversion.
    assert run("regular_bit_inversion.json", "--check", "regular", tmp_path=tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["executions"] == 16258
    assert report["verdicts"] == {"regular": {"pass": 16258, "fail": 0}}
    assert run("regular_bit_inversion.json", "--check", "atomic", tmp_path=tmp_path) == 1
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["executions"] == 16258
    assert report["verdicts"] == {"atomic": {"pass": 15118, "fail": 1140}}
    cx = str(tmp_path / "counterexample.jsonl")
    assert main(["check", cx, "--level", "regular"]) == 0
    assert main(["check", cx, "--level", "atomic"]) == 1
