"""Command-line front end for batch simulation and verification.

Three subcommands::

    regsim simulate  --config scenario.json [--seed N] [--out DIR]
    regsim enumerate --config scenario.json [--check LEVEL] [--out DIR]
                     [--max-executions N] [--max-steps N]
    regsim check TRACE --level safe|regular|atomic|classify|cts

Exit codes are a stable contract: 0 pass, 1 semantic failure, 2 input
error, 3 resource truncation (a limit, or running out of memory).  An
input error is a malformed scenario or trace, a workload op by a process
outside its role (a Read by the writer, say), a limit below 1, or a file
the CLI cannot read or write; it prints one ``error:`` line.  The
contract is decided in :func:`main` alone: an exception it does not map
is a bug and ends in a traceback.  Reports are machine-readable JSON
with a one-line human summary on stdout; counterexamples are full traces
that re-fail under ``regsim check`` at the same level.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from array import array
from pathlib import Path

from .checkers import bad_read, classify
from .engine import (
    REGISTER,
    EngineError,
    Execution,
    enumerate_executions,
    enumeration_limits,
    max_accesses,
    random_execution,
)
from .history import HistoryError, SemanticsLevel, TraceError, write_index
from .scenario import ScenarioError, build_protocol, load_scenario
from .timestamp import CTS

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_TRUNCATED = 3

#: Distinct leaves ``enumerate`` judges back to back.  Between stretches of
#: the walk a check runs with the checker's code and data out of the
#: processor's caches; back to back, the median check took 6 us against 9 us
#: on the benchmark's multiwriter and no-writeback trees.  1024 waiting
#: leaves held about 1 MB there.
_BATCH = 1024

#: Each level and the one history kind that lists it: kind by kind, each
#: kind's levels weakest first, as --help shows them.
_LEVELS = {level: kind for kind in (REGISTER, CTS) for level in reversed(kind.levels)}


def _write_execution_trace(execution: Execution, path: Path) -> None:
    kind = execution.protocol.history
    ext = {"decisions": [[p, v] for p, v in execution.decisions]}
    path.write_text(kind.serialize(kind.extract(execution), ext), encoding="utf-8")


def cmd_simulate(args: argparse.Namespace) -> int:
    sc = load_scenario(args.config)
    spec = build_protocol(sc)
    seed = sc.seed if args.seed is None else args.seed
    execution = random_execution(spec, sc.workload, seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.jsonl"
    _write_execution_trace(execution, trace_path)
    print(
        f"{sc.construction} n={sc.n} seed={seed}: "
        f"{len(execution.ops)} operations, {len(execution.events)} events -> {trace_path}"
    )
    return EXIT_PASS


def cmd_enumerate(args: argparse.Namespace) -> int:
    sc = load_scenario(args.config)
    spec = build_protocol(sc)
    kind = spec.history
    level = args.check or next(iter(kind.levels))
    if level not in kind.levels:
        raise ScenarioError(f"--check {level} does not apply to the {spec.name} construction "
                            f"(levels: {', '.join(kind.levels)})")
    sem = kind.levels[level]
    per_read = sem in (SemanticsLevel.SAFE, SemanticsLevel.REGULAR)
    # Safe and regular are defined for one writer only: a multi-writer
    # construction is refused at those levels here, not at the first check.
    if per_read and len(spec.writers) > 1:
        raise ScenarioError(
            f"{level} classification is undefined on the multi-writer "
            f"{spec.name} construction; use --check atomic"
        )
    extract, check = kind.extract, kind.check
    vars = spec._high_vars if per_read else None

    limits = dict(sc.limits)
    if args.max_executions is not None:
        limits["max_executions"] = args.max_executions
    if args.max_steps is not None:
        limits["max_steps"] = args.max_steps
    # Refuse bad limits, then an unusable --out, before the walk: a refused
    # limit leaves no directory behind, and --out fails fast.
    enumeration_limits(limits)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    counts = {"pass": 0, "fail": 0}
    first_failure: dict | None = None
    counterexample: Execution | None = None
    accesses: dict[str, int] = {}

    def judge(execution: Execution) -> str:
        """Judges one leaf, tallies it and returns its outcome, ``"pass"``
        or ``"fail"`` (never False, so the walk goes on).  At safe and
        regular the leaf is judged from its own records, and a passing leaf
        is never projected: only the first failing leaf is projected and
        checked in full, for its op and reason."""
        nonlocal first_failure, counterexample
        max_accesses((execution,), accesses)
        if per_read:
            records = [op.record for op in execution.ops]
            ok = bad_read(vars, write_index(vars, records), records, sem) is None
            if ok or counterexample is not None:
                outcome = "pass" if ok else "fail"
                counts[outcome] += 1
                return outcome
        verdict = check(extract(execution), sem)
        outcome = "pass" if verdict.ok else "fail"
        counts[outcome] += 1
        if counterexample is None and not verdict.ok:
            counterexample = execution
            first_failure = {"op": verdict.violating_op, "reason": verdict.reason}
        return outcome

    # Each distinct leaf is judged once.  The walk interns one HLOp per
    # distinct finish and holds it until it returns, so equal identity keys
    # mean the same records: the same history, verdict and max_accesses.  A
    # leaf is a hit when its key has been seen: it only adds to its key's
    # count.  The keys are bytes, which the garbage collector does not track:
    # tuple keys, which it does, survive the walk, so every 700 distinct
    # leaves or so they set off a collection, which pauses whichever check
    # is running.  Where no op may take more than one base access, every
    # event is an op boundary, so the ops fix the events and no two leaves
    # share a key: the table would only grow, and is skipped.  Budgets are
    # read only for op kinds the protocol has; the engine refuses any other.
    seen: dict[bytes, str] = {}
    # First leaves of keys not judged yet, with their counts so far, in walk
    # order: judged _BATCH at a time and after the walk, so that the first
    # failing leaf is still the first judged to fail.
    pending: dict[bytes, list] = {}

    def judge_pending() -> None:
        for key, (execution, n) in pending.items():
            outcome = judge(execution)
            counts[outcome] += n - 1
            seen[key] = outcome
        pending.clear()

    def visit(execution: Execution) -> None:
        key = array("Q", map(id, execution.ops)).tobytes()
        outcome = seen.get(key)
        if outcome is not None:
            counts[outcome] += 1
        elif key in pending:
            pending[key][1] += 1
        else:
            pending[key] = [execution, 1]
            if len(pending) == _BATCH:
                judge_pending()

    repeats = any(spec.budgets.get(k, 0) > 1 for ops in sc.workload for k, _ in ops)
    result = enumerate_executions(spec, sc.workload, limits, visit=visit if repeats else judge)
    judge_pending()
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
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace: {exc}") from None
    level = args.level
    if level == "classify":
        top = classify(REGISTER.parse(text))
        print(top.name.lower() if top else "none")
        return EXIT_PASS
    kind = _LEVELS[level]
    verdict = kind.check(kind.parse(text), kind.levels[level])
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
    p_enum.add_argument("--check", choices=[*_LEVELS], default=None,
                        help="level to check each execution against")
    p_enum.add_argument("--out", default=".", help="output directory")
    p_enum.add_argument("--max-executions", type=int, default=None)
    p_enum.add_argument("--max-steps", type=int, default=None)
    p_enum.set_defaults(func=cmd_enumerate)

    p_check = sub.add_parser("check", help="check a recorded trace file")
    p_check.add_argument("trace", help="trace file (JSON lines)")
    levels = [*_LEVELS]
    levels.insert(len(REGISTER.levels), "classify")  # a register-only reading
    p_check.add_argument("--level", required=True, choices=levels)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Runs one subcommand and decides its exit code: the subcommand's own
    code, 2 after one ``error:`` line for an input the library refuses or a
    file the CLI cannot read or write, 3 when memory runs out.  Any other
    exception propagates: it is a bug, not an input error."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, HistoryError, EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        pass
    # Printed only once the handler has dropped the exception: until then
    # its traceback keeps alive the frames that filled memory.
    print("error: out of memory", file=sys.stderr)
    return EXIT_TRUNCATED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
