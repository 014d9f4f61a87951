"""``regsim enumerate`` as it was before it judged each distinct leaf once,
kept as a reference.

``cmd_enumerate`` is ``regsim.cli.cmd_enumerate`` from before its visitor
kept a table of verdicts by the leaf's op identities, kept verbatim so that
the differential tests can require the table, and the judging of safe and
regular leaves from their own records, to leave ``report.json`` and
``counterexample.jsonl`` byte for byte as they were.  It extracts and
checks every leaf the walk visits.  Run it on arguments parsed by
``regsim.cli``'s own parser.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from regsim.cli import EXIT_FAIL, EXIT_PASS, EXIT_TRUNCATED, _write_execution_trace
from regsim.engine import Execution, enumerate_executions, enumeration_limits, max_accesses
from regsim.history import SemanticsLevel
from regsim.scenario import ScenarioError, build_protocol, load_scenario


def cmd_enumerate(args: argparse.Namespace) -> int:
    sc = load_scenario(args.config)
    spec = build_protocol(sc)
    kind = spec.history
    level = args.check or next(iter(kind.levels))
    if level not in kind.levels:
        raise ScenarioError(f"--check {level} does not apply to the {spec.name} construction "
                            f"(levels: {', '.join(kind.levels)})")
    sem = kind.levels[level]
    # Safe and regular are defined for one writer only: a multi-writer
    # construction is refused at those levels here, not at the first check.
    if sem in (SemanticsLevel.SAFE, SemanticsLevel.REGULAR) and len(spec.writers) > 1:
        raise ScenarioError(
            f"{level} classification is undefined on the multi-writer "
            f"{spec.name} construction; use --check atomic"
        )
    extract, check = kind.extract, kind.check

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

    def visit(execution: Execution) -> None:
        nonlocal first_failure, counterexample
        max_accesses((execution,), accesses)
        verdict = check(extract(execution), sem)
        if verdict.ok:
            counts["pass"] += 1
        else:
            counts["fail"] += 1
            if counterexample is None:
                counterexample = execution
                first_failure = {"op": verdict.violating_op, "reason": verdict.reason}

    result = enumerate_executions(spec, sc.workload, limits, visit=visit)
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
