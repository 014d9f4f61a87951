"""Command-line front end for batch simulation and verification.

Three subcommands::

    regsim simulate  --config scenario.json [--seed N] [--out DIR]
    regsim enumerate --config scenario.json [--check LEVEL] [--out DIR]
                     [--max-executions N] [--max-steps N]
    regsim check TRACE --level safe|regular|atomic|classify|cts

Exit codes are a stable contract: 0 pass, 1 semantic failure, 2 input
error (a malformed scenario or trace among them), 3 resource truncation
(a limit, or running out of memory).  Reports are machine-readable JSON
with a one-line human summary on stdout; counterexamples are full traces
that re-fail under ``regsim check`` at the same level.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import timestamp
from .checkers import Verdict, check_level, classify
from .engine import (
    EngineError,
    Execution,
    ProtocolSpec,
    enumerate_executions,
    extract_history,
    max_accesses,
    random_execution,
)
from .history import HistoryError, SemanticsLevel, parse_trace, serialize_trace
from .scenario import Scenario, ScenarioError, build_protocol, load_scenario

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_TRUNCATED = 3

_REGISTER_LEVELS = ("safe", "regular", "atomic")


def _decisions_json(execution: Execution) -> list:
    return [[p, v] for p, v in execution.decisions]


def _write_execution_trace(execution: Execution, path: Path) -> None:
    ext = {"decisions": _decisions_json(execution)}
    if execution.protocol.var_name is None:
        text = timestamp.serialize_cts_trace(timestamp.extract_cts_history(execution), ext)
    else:
        text = serialize_trace(extract_history(execution, "high"), ext)
    path.write_text(text, encoding="utf-8")


def _run_engine(run):
    """Returns (result, None), or (None, exit code) after printing one
    ``error:`` line: a protocol the engine rejects is an input error, and
    running out of memory cuts the run short like a limit."""
    try:
        return run(), None
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_INPUT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return None, EXIT_TRUNCATED


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        sc = load_scenario(args.config)
        spec = build_protocol(sc)
    except (ScenarioError, HistoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    seed = sc.seed if args.seed is None else args.seed
    execution, code = _run_engine(lambda: random_execution(spec, sc.workload, seed))
    if code is not None:
        return code
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.jsonl"
    _write_execution_trace(execution, trace_path)
    print(
        f"{sc.construction} n={sc.n} seed={seed}: "
        f"{len(execution.ops)} operations, {len(execution.events)} events -> {trace_path}"
    )
    return EXIT_PASS


def _make_execution_checker(sc: Scenario, spec: ProtocolSpec, level: str):
    """Returns check(execution) -> Verdict for the scenario at ``level``.
    Safe and regular are per-Read conditions defined for one writer only,
    so a multi-writer construction is refused at those levels here rather
    than by the checker at the first execution."""
    if level == "cts":
        if sc.construction != "cts":
            raise ScenarioError("--check cts requires the cts construction")

        def check(execution: Execution) -> Verdict:
            return timestamp.check_cts(timestamp.extract_cts_history(execution))

    elif level in _REGISTER_LEVELS:
        if sc.construction == "cts":
            raise ScenarioError("the cts construction is checked with --check cts")
        sem = SemanticsLevel.parse(level)
        if sem is not SemanticsLevel.ATOMIC and len(spec.writers) > 1:
            raise ScenarioError(
                f"{level} classification is undefined on the multi-writer "
                f"{sc.construction} construction; use --check atomic"
            )

        def check(execution: Execution) -> Verdict:
            return check_level(extract_history(execution, "high"), sem)

    else:
        raise ScenarioError(f"unknown check level {level!r}")
    return check


def cmd_enumerate(args: argparse.Namespace) -> int:
    try:
        sc = load_scenario(args.config)
        spec = build_protocol(sc)
        if sc.mode != "enumerate":
            raise ScenarioError("enumerate command needs a scenario with mode 'enumerate'")
        level = args.check or ("cts" if sc.construction == "cts" else "atomic")
        check = _make_execution_checker(sc, spec, level)
    except (ScenarioError, HistoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    limits = dict(sc.limits)
    if args.max_executions is not None:
        limits["max_executions"] = args.max_executions
    if args.max_steps is not None:
        limits["max_steps"] = args.max_steps

    counts = {"pass": 0, "fail": 0}
    first_failure: dict | None = None
    counterexample: Execution | None = None
    accesses: dict[str, int] = {}

    def visit(execution: Execution) -> None:
        nonlocal first_failure, counterexample
        max_accesses((execution,), accesses)
        verdict = check(execution)
        if verdict.ok:
            counts["pass"] += 1
        else:
            counts["fail"] += 1
            if counterexample is None:
                counterexample = execution
                first_failure = {"op": verdict.violating_op, "reason": verdict.reason}

    result, code = _run_engine(lambda: enumerate_executions(spec, sc.workload, limits, visit=visit))
    if code is not None:
        return code

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cx_path = None
    if counterexample is not None:
        cx_path = out_dir / "counterexample.jsonl"
        _write_execution_trace(counterexample, cx_path)
    report = {
        "scenario": sc.echo(),
        "checked_level": level,
        "executions": result.count,
        "truncated": result.truncated,
        "truncated_by": list(result.truncated_by),
        "verdicts": {level: dict(counts)},
        "max_accesses": accesses,
        "first_failure": first_failure,
        "counterexample": str(cx_path) if cx_path else None,
    }
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    status = "FAIL" if counts["fail"] else ("TRUNCATED" if result.truncated else "PASS")
    cut = f" (truncated by {', '.join(result.truncated_by)})" if result.truncated else ""
    print(
        f"{sc.construction} n={sc.n} --check {level}: {result.count} executions, "
        f"{counts['pass']} pass / {counts['fail']} fail{cut} [{status}] -> {report_path}"
    )
    if counts["fail"]:
        print(f"counterexample: {first_failure['reason']} -> {cx_path}")
        return EXIT_FAIL
    if result.truncated:
        return EXIT_TRUNCATED
    return EXIT_PASS


def cmd_check(args: argparse.Namespace) -> int:
    try:
        text = Path(args.trace).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return EXIT_INPUT
    level = args.level
    try:
        if level == "cts":
            verdict = timestamp.check_cts(timestamp.parse_cts_trace(text))
        else:
            h = parse_trace(text)
            if level == "classify":
                top = classify(h)
                print(top.name.lower() if top else "none")
                return EXIT_PASS
            verdict = check_level(h, SemanticsLevel.parse(level))
    except HistoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if verdict.ok:
        print(f"{level}: pass")
        return EXIT_PASS
    print(f"{level}: FAIL op {verdict.violating_op}: {verdict.reason}")
    return EXIT_FAIL


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later :func:`main` call in the process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="regsim",
        description="Simulate wait-free register protocols and check histories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one seeded-random execution, write its trace")
    p_sim.add_argument("--config", required=True, help="scenario JSON file")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_enum = sub.add_parser("enumerate", help="enumerate the decision tree, check every execution")
    p_enum.add_argument("--config", required=True, help="scenario JSON file")
    p_enum.add_argument("--check", choices=_REGISTER_LEVELS + ("cts",), default=None,
                        help="level to check each execution against")
    p_enum.add_argument("--out", default=".", help="output directory")
    p_enum.add_argument("--max-executions", type=int, default=None)
    p_enum.add_argument("--max-steps", type=int, default=None)
    p_enum.set_defaults(func=cmd_enumerate)

    p_check = sub.add_parser("check", help="check a recorded trace file")
    p_check.add_argument("trace", help="trace file (JSON lines)")
    p_check.add_argument("--level", required=True,
                         choices=_REGISTER_LEVELS + ("classify", "cts"))
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
